//! Integration tests for the extension features: structured queries,
//! index persistence, SpyNB pair mining, geo-smoothed scoring, session
//! refinement chains, and user-state portability — all through the facade.

use pws::click::{SessionSimulator, SimConfig, UserId};
use pws::core::{EngineConfig, PairSource, PersonalizedSearchEngine};
use pws::corpus::session::{generate_session, Refinement, SessionSpec};
use pws::corpus::vocab::Topics;
use pws::eval::{ExperimentSpec, ExperimentWorld};
use pws::geo::WorldCoords;
use pws::index::{Segment, SegmentBuilder, SegmentedIndex};
use pws::profile::SpyNbConfig;

fn world() -> ExperimentWorld {
    ExperimentWorld::build(ExperimentSpec::small())
}

#[test]
fn structured_queries_work_on_generated_corpus() {
    let w = world();
    // Every workload template should be a valid structured query too.
    for q in &w.queries {
        let hits = w.engine.search_expr(&q.text, 10).expect("bag-of-words parses");
        let plain = w.engine.search(&q.text, 10);
        let a: std::collections::HashSet<u32> = hits.iter().map(|h| h.doc).collect();
        let b: std::collections::HashSet<u32> = plain.iter().map(|h| h.doc).collect();
        assert_eq!(a, b, "expr vs plain mismatch for {:?}", q.text);
    }
    // Phrase query on a multi-word city name.
    let multiword_city: Option<pws::geo::LocId> =
        w.world.cities().find(|&c| w.world.name(c).contains(' '));
    if let Some(city) = multiword_city {
        let phrase = format!("\"{}\"", w.world.name(city));
        let hits = w.engine.search_expr(&phrase, 10).expect("phrase parses");
        // Every hit must contain the full city name in its text.
        for h in hits {
            let doc = w.corpus.doc(pws::corpus::DocId(h.doc));
            assert!(
                doc.full_text().contains(w.world.name(city)),
                "phrase match without the phrase"
            );
        }
    }
}

#[test]
fn full_index_round_trips_through_persistence() {
    let w = world();
    let mut b = SegmentBuilder::new(Default::default());
    for d in &w.corpus.docs {
        b.add(&d.url, &d.title, &d.body);
    }
    let path = std::env::temp_dir().join(format!("pws-ext-{}.pwsseg", std::process::id()));
    b.finish_segment().expect("segment build").write_file(&path).expect("segment write");
    let reopened = Segment::open(&path).expect("segment open");
    let _ = std::fs::remove_file(&path);
    assert!(reopened.file_bytes().len() > 1000);
    let reloaded = SegmentedIndex::from_segments(vec![reopened]).expect("index");
    for q in w.queries.iter().take(10) {
        let a: Vec<u32> = w.engine.search(&q.text, 10).iter().map(|h| h.doc).collect();
        let b: Vec<u32> = reloaded.search(&q.text, 10).iter().map(|h| h.doc).collect();
        assert_eq!(a, b, "query {:?}", q.text);
    }
}

#[test]
fn spynb_engine_learns_and_ranks() {
    let w = world();
    let cfg = EngineConfig {
        pair_source: PairSource::SpyNb(SpyNbConfig::default()),
        retrain_every: 3,
        ..EngineConfig::default()
    };
    let mut engine = PersonalizedSearchEngine::new(&w.engine, &w.world, cfg);
    let mut sim = SessionSimulator::new(
        &w.engine,
        &w.corpus,
        &w.world,
        &w.population,
        &w.queries,
        SimConfig { top_k: 10, seed: 13 },
    );
    let user = UserId(1);
    for _ in 0..12 {
        let qid = sim.sample_query(user);
        let q = &w.queries[qid.index()];
        let intent = sim.sample_intent_city(user);
        let text = sim.render_query(q, intent);
        let turn = engine.search(user, &text);
        let outcome = sim.issue_on_hits(user, qid, intent, &text, &turn.hits);
        engine.observe(&turn, &outcome.impression);
    }
    let state = engine.user_state(user).expect("state");
    assert_eq!(state.observations, 12);
    // SpyNB mines pairs only when clicks and clear negatives coexist; the
    // engine must stay functional either way.
    let turn = engine.search(user, &w.queries[0].text);
    assert!(turn.hits.len() <= 10);
}

#[test]
fn geo_engine_runs_end_to_end() {
    let w = world();
    let coords = WorldCoords::generate(&w.world, w.spec.seed);
    let mut engine = PersonalizedSearchEngine::new(&w.engine, &w.world, EngineConfig::default())
        .with_geo(&coords, 800.0);
    let mut sim = SessionSimulator::new(
        &w.engine,
        &w.corpus,
        &w.world,
        &w.population,
        &w.queries,
        SimConfig { top_k: 10, seed: 17 },
    );
    for i in 0..15 {
        let user = UserId(i % w.population.len() as u32);
        let qid = sim.sample_query(user);
        let q = &w.queries[qid.index()];
        let intent = sim.sample_intent_city(user);
        let text = sim.render_query(q, intent);
        let turn = engine.search(user, &text);
        assert_eq!(turn.features.len(), turn.hits.len());
        let outcome = sim.issue_on_hits(user, qid, intent, &text, &turn.hits);
        engine.observe(&turn, &outcome.impression);
    }
}

#[test]
fn sessions_replay_through_the_engine() {
    let w = world();
    let topics = Topics::first(w.spec.corpus.num_topics);
    let mut engine =
        PersonalizedSearchEngine::new(&w.engine, &w.world, EngineConfig::default());
    let mut sim = SessionSimulator::new(
        &w.engine,
        &w.corpus,
        &w.world,
        &w.population,
        &w.queries,
        SimConfig { top_k: 10, seed: 23 },
    );
    let user = UserId(0);
    let qid = sim.sample_query(user);
    let q = &w.queries[qid.index()];
    let steps = generate_session(q, &topics, &SessionSpec { steps: (3, 5), specialize_prob: 0.7 }, 5);
    assert!(!steps.is_empty());
    assert_eq!(steps[0].refinement, Refinement::Initial);
    let intent = sim.sample_intent_city(user);
    for step in &steps {
        let turn = engine.search(user, &step.text);
        let outcome = sim.issue_on_hits(user, qid, intent, &step.text, &turn.hits);
        engine.observe(&turn, &outcome.impression);
    }
    assert_eq!(
        engine.user_state(user).expect("state").observations,
        steps.len() as u64
    );
}

#[test]
fn exported_profile_transfers_between_engines() {
    let w = world();
    // Pin the blend: adaptive β depends on engine-global query statistics,
    // which are deliberately NOT part of a user's exported state.
    let cfg = EngineConfig {
        blend: pws::core::BlendStrategy::Fixed(0.5),
        ..EngineConfig::default()
    };
    let mut engine_a = PersonalizedSearchEngine::new(&w.engine, &w.world, cfg.clone());
    let mut sim = SessionSimulator::new(
        &w.engine,
        &w.corpus,
        &w.world,
        &w.population,
        &w.queries,
        SimConfig { top_k: 10, seed: 29 },
    );
    let user = UserId(3);
    for _ in 0..10 {
        let qid = sim.sample_query(user);
        let q = &w.queries[qid.index()];
        let intent = sim.sample_intent_city(user);
        let text = sim.render_query(q, intent);
        let turn = engine_a.search(user, &text);
        let outcome = sim.issue_on_hits(user, qid, intent, &text, &turn.hits);
        engine_a.observe(&turn, &outcome.impression);
    }
    let exported = engine_a.export_user(user).expect("serializable").expect("warm state");

    let mut engine_b = PersonalizedSearchEngine::new(&w.engine, &w.world, cfg);
    engine_b.import_user(user, &exported).expect("import");
    for q in w.queries.iter().take(5) {
        let a: Vec<u32> = engine_a.search(user, &q.text).hits.iter().map(|h| h.doc).collect();
        let b: Vec<u32> = engine_b.search(user, &q.text).hits.iter().map(|h| h.doc).collect();
        assert_eq!(a, b, "transferred profile ranks differently for {:?}", q.text);
    }
}
