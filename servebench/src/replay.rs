//! Layer replays: the traced run keeps the inputs each layer saw and
//! times the layers' public functions on them here, outside any
//! request span.

use crate::load::Capture;
use crate::stats;
use pws_concepts::QueryConceptOntology;
use pws_core::{EngineConfig, EngineCore, UserState};
use pws_entropy::Effectiveness;
use pws_eval::ExperimentWorld;
use pws_geo::LocationMatcher;
use pws_index::SearchHit;
use pws_profile::{FeatureExtractor, ResultFeatureInput};
use pws_ranksvm::{LinearRankModel, PairwiseTrainer};
use pws_store::{decode_user_record, encode_user_record, UserRecord};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Mean replay times, each over the captures that had the input.
#[derive(Debug, Default)]
pub struct Replayed {
    pub extract_pool_ms: f64,
    pub extract_page_ms: f64,
    /// `extract_page_geo` over the pool plus over the page: the feature
    /// work of one personalized search.
    pub features_ms: f64,
    pub rank_us: f64,
    pub train_ms: f64,
    pub beta_us: f64,
    pub encode_us: f64,
    pub decode_us: f64,
    pub record_bytes: f64,
    /// The records replayed, for the store I/O replay.
    pub records: Vec<UserRecord>,
}

fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = black_box(f());
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Mean microseconds per call of a function too short to time one call
/// at a time, over `reps` back-to-back calls.
fn time_us_each(reps: u32, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed().as_secs_f64() * 1e6 / reps as f64
}

/// The engine's feature inputs for a ranked list: base scores
/// normalized by the list's maximum.
fn feature_inputs(hits: &[SearchHit]) -> Vec<ResultFeatureInput> {
    let max = hits.iter().map(|h| h.score).fold(0.0_f64, f64::max).max(f64::MIN_POSITIVE);
    hits.iter()
        .enumerate()
        .map(|(i, h)| ResultFeatureInput {
            doc: h.doc,
            rank: i + 1,
            base_score: h.score / max,
            url: h.url.to_string(),
            title: h.title.to_string(),
        })
        .collect()
}

pub fn run(world: &ExperimentWorld, captures: &[Capture], written: &[Vec<u8>]) -> Replayed {
    let cfg = EngineConfig::default();
    let matcher = LocationMatcher::build(&world.world);
    let extractor = FeatureExtractor::with_masks(cfg.mode.uses_content(), cfg.mode.uses_location());
    let trainer = PairwiseTrainer::new(cfg.train_cfg);
    let extract = |query: &str, hits: &[SearchHit]| {
        let snippets: Vec<String> = hits.iter().map(|h| h.snippet.clone()).collect();
        time_ms(|| {
            QueryConceptOntology::extract(
                query,
                &snippets,
                &matcher,
                &world.world,
                &cfg.concept_cfg,
                &cfg.location_cfg,
            )
        })
    };

    let (mut pool_ms, mut page_ms, mut feat_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rank_us, mut train_ms, mut beta_us) = (Vec::new(), Vec::new(), Vec::new());
    for c in captures {
        let (pool_onto, t_pool) = extract(&c.query, &c.pool);
        let (page_onto, t_page) = extract(&c.query, &c.page);
        pool_ms.push(t_pool);
        page_ms.push(t_page);

        let s = &c.state;
        let features_of = |hits: &[SearchHit], onto: &QueryConceptOntology| {
            let inputs = feature_inputs(hits);
            time_ms(|| {
                extractor.extract_page_geo(
                    &c.query,
                    &inputs,
                    onto,
                    &s.content,
                    &s.location,
                    &s.history,
                    None,
                )
            })
        };
        let (pool_features, t_fp) = features_of(&c.pool, &pool_onto);
        let (_, t_fg) = features_of(&c.page, &page_onto);
        feat_ms.push(t_fp + t_fg);

        rank_us.push(time_us_each(50, || {
            black_box(s.model.rank(black_box(&pool_features)));
        }));
        if !s.pairs.is_empty() {
            let anchor = UserState::prior_weights();
            let mut model = LinearRankModel::from_weights(anchor.clone());
            let ((), t) = time_ms(|| trainer.train_anchored(&mut model, &anchor, &s.pairs));
            train_ms.push(t);
        }
        if let Some(qs) = &c.stats {
            beta_us.push(time_us_each(1000, || {
                black_box(Effectiveness::from_stats(black_box(qs), &cfg.effectiveness_cfg));
            }));
        }
    }

    // Store codec: the records the store I/O saw written, or (without a
    // store tier) records assembled from the captured user states.
    let mut blobs: Vec<Vec<u8>> = written.to_vec();
    if blobs.is_empty() {
        blobs = captures
            .iter()
            .map(|c| {
                let mut qs = BTreeMap::new();
                if let Some(s) = &c.stats {
                    qs.insert(EngineCore::query_key(&c.query), s.clone());
                }
                encode_user_record(&UserRecord::new(c.user, c.state.clone(), qs))
            })
            .collect();
    }
    let (mut dec_us, mut enc_us, mut records) = (Vec::new(), Vec::new(), Vec::new());
    for bytes in &blobs {
        let (decoded, t) = time_ms(|| decode_user_record(bytes));
        let Ok(record) = decoded else { continue };
        dec_us.push(t * 1e3);
        let (_, t) = time_ms(|| encode_user_record(&record));
        enc_us.push(t * 1e3);
        records.push(record);
    }
    let sizes: Vec<f64> = blobs.iter().map(|b| b.len() as f64).collect();

    Replayed {
        extract_pool_ms: stats::mean(&pool_ms),
        extract_page_ms: stats::mean(&page_ms),
        features_ms: stats::mean(&feat_ms),
        rank_us: stats::mean(&rank_us),
        train_ms: stats::mean(&train_ms),
        beta_us: stats::mean(&beta_us),
        encode_us: stats::mean(&enc_us),
        decode_us: stats::mean(&dec_us),
        record_bytes: stats::mean(&sizes),
        records,
    }
}
