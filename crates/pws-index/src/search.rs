//! Query execution.
//!
//! The default `search()` path is document-at-a-time BM25 scoring with a
//! bounded top-k min-heap and MaxScore-style early termination driven by
//! per-term max impacts computed at build time (see [`SearchEngine::search`]).
//! The original exhaustive term-at-a-time scorer is retained as
//! [`SearchEngine::search_naive`] — it is the correctness reference the fast
//! path is gated against (property tests, `retrieval_bench --smoke`).
//!
//! The result carries everything the personalization layer needs downstream:
//! the doc id, the BM25 score, and a snippet built from the document's
//! stored text.

use crate::exec::MemCursor;
use crate::postings::PostingList;
use crate::score::{bm25_term, idf, Bm25Params};
use crate::scratch::ScratchPool;
use crate::snippet::extract_snippet;
use pws_text::{Analyzer, Interner};
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// A document as stored by the engine (what a web index would keep: URL,
/// title, and enough text to render snippets).
///
/// `url` and `title` are shared `Arc<str>`s: every [`SearchHit`] that
/// materializes this document clones the handle, not the bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredDoc {
    /// Dense id assigned by the caller; must match insertion order.
    pub id: u32,
    /// URL shown on the result page.
    pub url: Arc<str>,
    /// Title shown on the result page.
    pub title: Arc<str>,
    /// Body text; snippets are windows of this.
    pub body: String,
}

impl StoredDoc {
    /// Convenience constructor.
    pub fn new(id: u32, url: &str, title: &str, body: &str) -> Self {
        StoredDoc { id, url: url.into(), title: title.into(), body: body.into() }
    }

    /// The text that gets indexed: title + body (title terms therefore count
    /// towards BM25, as in real engines).
    pub fn indexable_text(&self) -> String {
        format!("{} {}", self.title, self.body)
    }
}

/// One search result.
///
/// `url`/`title` share the stored document's `Arc<str>`s, so cloning a hit
/// (pool normalization, pool merging, retrieval caching) bumps two refcounts
/// instead of copying strings.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Document id.
    pub doc: u32,
    /// BM25 score (higher is better).
    pub score: f64,
    /// Rank in the returned list, 1-based (rank 1 = best).
    pub rank: usize,
    /// Result URL.
    pub url: Arc<str>,
    /// Result title.
    pub title: Arc<str>,
    /// Query-biased snippet.
    pub snippet: String,
}

/// Relative slack applied to upper bounds before pruning against the heap
/// threshold. Float sums accumulated in different orders can differ by a few
/// ulps (relative error ≤ ~m·ε ≈ 1e-14 for realistic query lengths m), so a
/// bound computed as a sum of per-term maxima could round *below* a doc's
/// actual accumulated score. Inflating bounds by 1e-9 ≫ m·ε before the
/// `≤ θ` comparison makes a false prune impossible; the cost is only that a
/// vanishingly thin band of docs gets scored unnecessarily.
pub(crate) const UB_SLACK: f64 = 1.0 + 1e-9;

/// Min-heap entry for bounded top-k selection. Ordered so that the heap's
/// maximum (`peek`) is the *worst* kept hit: lower score is "greater", and
/// on score ties the larger doc id is "greater" (final ranking prefers
/// ascending doc ids). Shared with the segmented Block-Max WAND executor
/// ([`crate::segmented`]), which must select the identical top-k.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HeapEntry {
    pub(crate) score: f64,
    pub(crate) doc: u32,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.doc == other.doc && self.score == other.score
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // BM25 scores are always finite; partial_cmp cannot fail here.
        other
            .score
            .partial_cmp(&self.score)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.doc.cmp(&other.doc))
    }
}

/// Immutable inverted index + document store.
#[derive(Debug)]
pub struct SearchEngine {
    analyzer: Analyzer,
    interner: Interner,
    postings: Vec<PostingList>,
    docs: Vec<StoredDoc>,
    doc_lens: Vec<u32>,
    total_len: u64,
    params: Bm25Params,
    /// Average doc length, cached at build time (satellite: previously
    /// recomputed per posting in every scoring loop).
    avg_len: f64,
    /// Per-term max impact: the largest BM25 contribution the term makes to
    /// any document under the current `params`. Indexed by `Sym::index()`,
    /// parallel to `postings`. Derived data — recomputed on load and on
    /// `set_params`, never persisted.
    max_impacts: Vec<f64>,
    /// Per-term decoded `(doc, tf)` pairs, ascending by doc id — the
    /// postings with positions stripped, materialized once at build/load
    /// so the scoring paths never decode varints per query. Indexed by
    /// `Sym::index()`, parallel to `postings`. Derived data, never
    /// persisted (the compressed lists stay the storage format; this
    /// trades memory for query speed in the serving process).
    doc_tfs: Vec<Vec<(u32, u32)>>,
    /// Pooled per-query scratch arenas (see [`crate::scratch`]); shared so
    /// concurrent queries reuse warm buffers.
    scratch: Arc<ScratchPool>,
}

impl SearchEngine {
    pub(crate) fn from_parts(
        analyzer: Analyzer,
        interner: Interner,
        postings: Vec<PostingList>,
        docs: Vec<StoredDoc>,
        doc_lens: Vec<u32>,
        total_len: u64,
    ) -> Self {
        let mut e = SearchEngine {
            analyzer,
            interner,
            postings,
            docs,
            doc_lens,
            total_len,
            params: Bm25Params::default(),
            avg_len: 0.0,
            max_impacts: Vec::new(),
            doc_tfs: Vec::new(),
            scratch: Arc::default(),
        };
        e.recompute_derived();
        e
    }

    /// Recompute `avg_len`, the decoded `(doc, tf)` lists, and the
    /// per-term max impacts. Called from `from_parts` (covers both build
    /// and deserialize) and `set_params` (which skips re-decoding — the
    /// postings themselves haven't changed).
    fn recompute_derived(&mut self) {
        self.avg_len = if self.docs.is_empty() {
            0.0
        } else {
            self.total_len as f64 / self.docs.len() as f64
        };
        if self.doc_tfs.len() != self.postings.len() {
            self.doc_tfs =
                self.postings.iter().map(|list| list.iter_doc_tf().collect()).collect();
        }
        let n = self.docs.len() as u32;
        let (params, avg_len, doc_lens) = (self.params, self.avg_len, &self.doc_lens);
        self.max_impacts = self
            .postings
            .iter()
            .zip(&self.doc_tfs)
            .map(|(list, pairs)| {
                if list.doc_count() == 0 {
                    return 0.0;
                }
                let term_idf = idf(n, list.doc_count());
                let mut max = 0.0f64;
                for &(doc, tf) in pairs {
                    let s = bm25_term(params, term_idf, tf, doc_lens[doc as usize], avg_len);
                    if s > max {
                        max = s;
                    }
                }
                max
            })
            .collect();
    }

    /// Override the BM25 parameters. Per-term max impacts depend on the
    /// parameters, so they are recomputed here.
    pub fn set_params(&mut self, params: Bm25Params) {
        self.params = params;
        self.recompute_derived();
    }

    /// Number of indexed documents.
    pub fn doc_count(&self) -> u32 {
        self.docs.len() as u32
    }

    /// Average indexed document length in tokens (cached at build time).
    pub fn avg_doc_len(&self) -> f64 {
        self.avg_len
    }

    /// Document frequency of an (analyzed) term. The input is analyzed with
    /// the engine's analyzer first, so `doc_frequency("Running")` and
    /// `doc_frequency("run")` agree.
    pub fn doc_frequency(&self, term: &str) -> u32 {
        let toks = self.analyzer.analyze(term);
        let Some(tok) = toks.first() else { return 0 };
        match self.interner.get(tok) {
            Some(sym) => self.postings[sym.index()].doc_count(),
            None => 0,
        }
    }

    /// Borrow a stored document.
    pub fn doc(&self, id: u32) -> &StoredDoc {
        &self.docs[id as usize]
    }

    /// Number of distinct terms in the index.
    pub fn vocab_size(&self) -> usize {
        self.interner.len()
    }

    /// Total encoded postings bytes (for the efficiency table).
    pub fn postings_bytes(&self) -> usize {
        self.postings.iter().map(|p| p.encoded_len()).sum()
    }

    /// Run the engine's analyzer over arbitrary text (exposed for the
    /// structured-query parser so terms and phrases match index terms).
    pub fn analyze_text(&self, text: &str) -> Vec<String> {
        self.analyzer.analyze(text)
    }

    /// Docs matching one analyzed term, with their BM25 contribution.
    pub(crate) fn term_docs(&self, term: &str) -> std::collections::HashMap<u32, f64> {
        let mut out = std::collections::HashMap::new();
        let Some(sym) = self.interner.get(term) else { return out };
        let list = &self.postings[sym.index()];
        if list.doc_count() == 0 {
            return out;
        }
        let term_idf = idf(self.doc_count(), list.doc_count());
        for (doc, tf) in list.iter_doc_tf() {
            let len = self.doc_lens[doc as usize];
            out.insert(doc, bm25_term(self.params, term_idf, tf, len, self.avg_len));
        }
        out
    }

    /// Docs containing the analyzed terms *adjacently in order*, scored as
    /// the sum of the member terms' BM25 contributions.
    pub(crate) fn phrase_docs(&self, terms: &[String]) -> std::collections::HashMap<u32, f64> {
        let mut out = std::collections::HashMap::new();
        if terms.is_empty() {
            return out;
        }
        // Resolve all symbols up front; any unknown term kills the phrase.
        let mut lists = Vec::with_capacity(terms.len());
        for t in terms {
            match self.interner.get(t) {
                Some(sym) if self.postings[sym.index()].doc_count() > 0 => {
                    lists.push(&self.postings[sym.index()])
                }
                _ => return out,
            }
        }
        // Iterate the rarest list's docs and verify the phrase by positions.
        let (anchor_i, anchor) = lists
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| l.doc_count())
            .expect("nonempty");
        let idfs: Vec<f64> =
            lists.iter().map(|l| idf(self.doc_count(), l.doc_count())).collect();
        'docs: for p in anchor.iter() {
            let doc = p.doc;
            // Collect this doc's positions per phrase slot.
            let mut slot_positions: Vec<Vec<u32>> = vec![Vec::new(); lists.len()];
            slot_positions[anchor_i] = p.positions.clone();
            for (i, l) in lists.iter().enumerate() {
                if i == anchor_i {
                    continue;
                }
                match l.iter().find(|q| q.doc == doc) {
                    Some(q) => slot_positions[i] = q.positions,
                    None => continue 'docs,
                }
            }
            // Phrase check: some position p0 of slot 0 with p0+i in slot i.
            let found = slot_positions[0].iter().any(|&p0| {
                slot_positions
                    .iter()
                    .enumerate()
                    .all(|(i, ps)| ps.binary_search(&(p0 + i as u32)).is_ok())
            });
            if found {
                let len = self.doc_lens[doc as usize];
                let score: f64 = lists
                    .iter()
                    .zip(&idfs)
                    .map(|(l, &term_idf)| {
                        let tf = l.iter().find(|q| q.doc == doc).map(|q| q.tf).unwrap_or(1);
                        bm25_term(self.params, term_idf, tf, len, self.avg_len)
                    })
                    .sum();
                out.insert(doc, score);
            }
        }
        out
    }

    /// Materialize hits (with snippets) from scored doc candidates.
    pub(crate) fn hits_from_scored(
        &self,
        cands: &[(u32, f64)],
        q_tokens: &[String],
    ) -> Vec<SearchHit> {
        cands
            .iter()
            .enumerate()
            .map(|(i, &(doc, score))| {
                let d = &self.docs[doc as usize];
                SearchHit {
                    doc,
                    score,
                    rank: i + 1,
                    url: d.url.clone(),
                    title: d.title.clone(),
                    snippet: extract_snippet(&d.body, q_tokens, 24),
                }
            })
            .collect()
    }

    /// BM25 scores of `query` for a specific set of documents (0.0 for a
    /// doc matching no query term). Used by the personalization layer to
    /// re-score externally sourced candidates (e.g. from an augmented
    /// query) against the *original* query, so pools stay comparable.
    ///
    /// Implemented as a sorted-slice two-pointer merge against each posting
    /// list (both sides ascend by doc id) — no per-call `HashMap`.
    pub fn score_docs(&self, query: &str, docs: &[u32]) -> Vec<f64> {
        let q_tokens = self.analyzer.analyze(query);
        let mut scores = vec![0.0; docs.len()];
        if q_tokens.is_empty() || self.docs.is_empty() || docs.is_empty() {
            return scores;
        }
        // Sorted (doc, original index). A duplicated doc id credits only its
        // last occurrence (the historical HashMap behaviour): sort ties by
        // descending index, keep the first of each run.
        let mut wanted: Vec<(u32, usize)> =
            docs.iter().enumerate().map(|(i, &d)| (d, i)).collect();
        wanted.sort_unstable_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        wanted.dedup_by_key(|e| e.0);
        let n = self.doc_count();
        for tok in &q_tokens {
            let Some(sym) = self.interner.get(tok) else { continue };
            let list = &self.postings[sym.index()];
            if list.doc_count() == 0 {
                continue;
            }
            let term_idf = idf(n, list.doc_count());
            let mut w = 0;
            for &(doc, tf) in &self.doc_tfs[sym.index()] {
                while w < wanted.len() && wanted[w].0 < doc {
                    w += 1;
                }
                if w == wanted.len() {
                    break;
                }
                if wanted[w].0 == doc {
                    let len = self.doc_lens[doc as usize];
                    scores[wanted[w].1] +=
                        bm25_term(self.params, term_idf, tf, len, self.avg_len);
                }
            }
        }
        scores
    }

    /// Process-wide handle to the `index.search` stage, resolved once.
    pub(crate) fn metrics_search(&self) -> &pws_obs::StageMetrics {
        static STAGE: std::sync::OnceLock<std::sync::Arc<pws_obs::StageMetrics>> =
            std::sync::OnceLock::new();
        STAGE.get_or_init(|| pws_obs::stage("index.search"))
    }

    /// Execute `query`, returning the top `k` hits ranked by BM25
    /// descending, ties broken by ascending doc id (deterministic).
    ///
    /// This is the fast path: document-at-a-time traversal with a bounded
    /// top-k min-heap and MaxScore pruning (see [`SearchEngine::search_tokens`]).
    /// It returns byte-identical results to [`SearchEngine::search_naive`].
    ///
    /// Each call records its latency under the `index.search` stage in
    /// the global [`pws_obs`] registry.
    pub fn search(&self, query: &str, k: usize) -> Vec<SearchHit> {
        let _span = self.metrics_search().span();
        let mut scratch = self.scratch.acquire();
        // Analyze into the pooled token buffer (taken out for the borrow,
        // put back so its capacity survives into the next query).
        let mut tokens = std::mem::take(&mut scratch.tokens);
        self.analyzer.analyze_into(query, &mut tokens);
        let hits = self.run_query(&tokens, k, &mut scratch);
        scratch.tokens = tokens;
        hits
    }

    /// [`SearchEngine::search`] over pre-analyzed query tokens. Exposed so
    /// callers that key caches on analyzed tokens (the serving layer's
    /// base-retrieval cache) analyze exactly once.
    ///
    /// Records the same `index.search` stage as [`SearchEngine::search`].
    pub fn search_tokens(&self, q_tokens: &[String], k: usize) -> Vec<SearchHit> {
        let _span = self.metrics_search().span();
        let mut scratch = self.scratch.acquire();
        self.run_query(q_tokens, k, &mut scratch)
    }

    fn run_query(
        &self,
        q_tokens: &[String],
        k: usize,
        scratch: &mut crate::scratch::SearchScratch,
    ) -> Vec<SearchHit> {
        if k == 0 || self.docs.is_empty() || q_tokens.is_empty() {
            return Vec::new();
        }
        // Resolve tokens to unique terms directly into pooled scratch,
        // preserving first-appearance order. `slots[i]` maps the i-th
        // *resolvable* token occurrence to its unique-term index — the
        // accumulation order of the naive scorer. The scoring loop itself
        // lives in [`crate::exec::daat_top_k`], shared with the segmented
        // executor's scratch discipline (allocation-free at steady state).
        {
            let crate::scratch::SearchScratch { mem_cursors: cursors, slots, .. } = scratch;
            cursors.clear();
            slots.clear();
            let n = self.doc_count();
            for tok in q_tokens {
                if let Some(sym) = self.interner.get(tok) {
                    let pi = sym.index();
                    if self.postings[pi].doc_count() == 0 {
                        continue;
                    }
                    let t = match cursors.iter().position(|c| c.pi == pi) {
                        Some(t) => t,
                        None => {
                            cursors.push(MemCursor {
                                pi,
                                pos: 0,
                                idf: idf(n, self.postings[pi].doc_count()),
                                ub: 0.0,
                            });
                            cursors.len() - 1
                        }
                    };
                    slots.push(t);
                }
            }
            if cursors.is_empty() {
                return Vec::new();
            }
            // Query multiplicity, counted through `pos` (reset before the
            // scan): ub = build-time max impact × occurrence count.
            for &t in &*slots {
                cursors[t].pos += 1;
            }
            for c in cursors.iter_mut() {
                c.ub = self.max_impacts[c.pi] * c.pos as f64;
                c.pos = 0;
            }
        }
        crate::exec::daat_top_k(&self.doc_tfs, &self.doc_lens, self.params, self.avg_len, k, scratch);
        self.hits_from_scored(&scratch.cands, q_tokens)
    }

    /// The original exhaustive scorer: term-at-a-time `HashMap` accumulation
    /// over the full candidate union, then a full sort. Kept as the
    /// correctness reference for the fast path (`retrieval_bench` compares
    /// the two and `--smoke` mode fails on any disagreement) and as the
    /// "naive" baseline in `results/BENCH_retrieval.json`.
    ///
    /// Does not record `index.search` metrics — it never serves traffic.
    pub fn search_naive(&self, query: &str, k: usize) -> Vec<SearchHit> {
        if k == 0 || self.docs.is_empty() {
            return Vec::new();
        }
        let q_tokens = self.analyzer.analyze(query);
        if q_tokens.is_empty() {
            return Vec::new();
        }

        // Term-at-a-time accumulation. Duplicate query terms contribute
        // once per occurrence (standard bag-of-words query semantics).
        let mut acc: HashMap<u32, f64> = HashMap::new();
        let n = self.doc_count();
        for tok in &q_tokens {
            let Some(sym) = self.interner.get(tok) else { continue };
            let list = &self.postings[sym.index()];
            if list.doc_count() == 0 {
                continue;
            }
            let term_idf = idf(n, list.doc_count());
            for (doc, tf) in list.iter_doc_tf() {
                let len = self.doc_lens[doc as usize];
                let s = bm25_term(self.params, term_idf, tf, len, self.avg_len);
                *acc.entry(doc).or_insert(0.0) += s;
            }
        }
        if acc.is_empty() {
            return Vec::new();
        }

        let mut cands: Vec<(u32, f64)> = acc.into_iter().collect();
        cands.sort_unstable_by(|a, b| {
            match b.1.partial_cmp(&a.1).unwrap_or(Ordering::Equal) {
                Ordering::Equal => a.0.cmp(&b.0),
                o => o,
            }
        });
        cands.truncate(k);
        self.hits_from_scored(&cands, &q_tokens)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::IndexBuilder;

    fn engine() -> SearchEngine {
        let mut b = IndexBuilder::new();
        b.add(StoredDoc::new(0, "http://a.test/0", "Crab shack menu",
            "fresh seafood lobster and crab daily specials near the harbor"));
        b.add(StoredDoc::new(1, "http://b.test/1", "Phone deals",
            "unlocked android smartphone with great battery and camera"));
        b.add(StoredDoc::new(2, "http://c.test/2", "Seafood city guide",
            "the seafood guide covers lobster rolls oyster bars and sushi"));
        b.add(StoredDoc::new(3, "http://d.test/3", "Hotel by the sea",
            "oceanview suite booking with seafood restaurant downstairs"));
        b.build()
    }

    #[test]
    fn relevant_docs_rank_first() {
        let e = engine();
        let hits = e.search("seafood lobster", 10);
        assert!(!hits.is_empty());
        // Docs 0 and 2 mention both terms; doc 1 mentions neither.
        let top2: Vec<u32> = hits.iter().take(2).map(|h| h.doc).collect();
        assert!(top2.contains(&0) && top2.contains(&2), "top2 = {top2:?}");
        assert!(hits.iter().all(|h| h.doc != 1));
    }

    #[test]
    fn ranks_are_one_based_and_scores_descend() {
        let e = engine();
        let hits = e.search("seafood", 10);
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.rank, i + 1);
        }
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
    }

    #[test]
    fn k_limits_results() {
        let e = engine();
        assert_eq!(e.search("seafood", 1).len(), 1);
        assert!(e.search("seafood", 0).is_empty());
    }

    #[test]
    fn unknown_terms_yield_empty() {
        let e = engine();
        assert!(e.search("zzzqqq", 10).is_empty());
        assert!(e.search("", 10).is_empty());
        assert!(e.search("the of and", 10).is_empty(), "stopword-only query");
    }

    #[test]
    fn stemming_unifies_query_and_doc_forms() {
        let e = engine();
        // "bookings" stems to the same term as "booking" in doc 3.
        let hits = e.search("bookings", 10);
        assert!(hits.iter().any(|h| h.doc == 3));
    }

    #[test]
    fn title_terms_are_indexed() {
        let e = engine();
        let hits = e.search("shack", 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, 0);
    }

    #[test]
    fn snippet_contains_query_term() {
        let e = engine();
        let hits = e.search("lobster", 10);
        assert!(hits[0].snippet.to_lowercase().contains("lobster"));
    }

    #[test]
    fn tie_break_is_doc_id_ascending() {
        let mut b = IndexBuilder::new();
        // Identical docs → identical scores.
        b.add(StoredDoc::new(0, "u0", "same", "identical content here"));
        b.add(StoredDoc::new(1, "u1", "same", "identical content here"));
        let e = b.build();
        let hits = e.search("identical", 10);
        assert_eq!(hits[0].doc, 0);
        assert_eq!(hits[1].doc, 1);
    }

    #[test]
    fn tie_break_with_bounded_k_keeps_smallest_ids() {
        let mut b = IndexBuilder::new();
        for id in 0..6 {
            b.add(StoredDoc::new(id, "u", "same", "identical content here"));
        }
        let e = b.build();
        // All six docs tie; the heap must keep (and order) the lowest ids.
        let hits = e.search("identical", 3);
        let ids: Vec<u32> = hits.iter().map(|h| h.doc).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        let naive = e.search_naive("identical", 3);
        assert_eq!(hits, naive);
    }

    #[test]
    fn fast_path_matches_naive_on_fixture() {
        let e = engine();
        for q in ["seafood lobster", "seafood", "hotel booking", "camera",
                  "seafood seafood lobster", "crab harbor sushi phone"] {
            for k in [1, 2, 3, 10] {
                assert_eq!(e.search(q, k), e.search_naive(q, k), "q={q:?} k={k}");
            }
        }
    }

    #[test]
    fn search_tokens_matches_search() {
        let e = engine();
        let toks = e.analyze_text("seafood lobster");
        assert_eq!(e.search_tokens(&toks, 10), e.search("seafood lobster", 10));
    }

    #[test]
    fn df_accessor() {
        let e = engine();
        assert_eq!(e.doc_frequency("seafood"), 3);
        assert_eq!(e.doc_frequency("android"), 1);
        assert_eq!(e.doc_frequency("missingterm"), 0);
    }

    #[test]
    fn score_docs_matches_search_scores() {
        let e = engine();
        let hits = e.search("seafood lobster", 10);
        let docs: Vec<u32> = hits.iter().map(|h| h.doc).collect();
        let scores = e.score_docs("seafood lobster", &docs);
        for (h, s) in hits.iter().zip(&scores) {
            assert!((h.score - s).abs() < 1e-9, "doc {}: {} vs {}", h.doc, h.score, s);
        }
    }

    #[test]
    fn score_docs_zero_for_non_matching() {
        let e = engine();
        // Doc 1 mentions neither term.
        let scores = e.score_docs("seafood lobster", &[1]);
        assert_eq!(scores, vec![0.0]);
        assert_eq!(e.score_docs("", &[0, 1]), vec![0.0, 0.0]);
        assert!(e.score_docs("seafood", &[]).is_empty());
    }

    #[test]
    fn score_docs_unsorted_input_and_duplicates() {
        let e = engine();
        // Unsorted doc ids score the same as sorted ones.
        let unsorted = e.score_docs("seafood lobster", &[3, 0, 2]);
        let sorted = e.score_docs("seafood lobster", &[0, 2, 3]);
        assert_eq!(unsorted[0], sorted[2]);
        assert_eq!(unsorted[1], sorted[0]);
        assert_eq!(unsorted[2], sorted[1]);
        // A duplicated doc id credits only its last occurrence (historical
        // HashMap behaviour, pinned).
        let dup = e.score_docs("seafood", &[0, 0]);
        assert_eq!(dup[0], 0.0);
        assert!(dup[1] > 0.0);
    }

    #[test]
    fn max_impacts_bound_every_posting() {
        let e = engine();
        let n = e.doc_count();
        for (pi, list) in e.postings.iter().enumerate() {
            if list.doc_count() == 0 {
                continue;
            }
            let term_idf = idf(n, list.doc_count());
            for (doc, tf) in list.iter_doc_tf() {
                let s = bm25_term(e.params, term_idf, tf, e.doc_lens[doc as usize], e.avg_len);
                assert!(s <= e.max_impacts[pi], "impact above stored max");
            }
        }
    }

    #[test]
    fn set_params_recomputes_max_impacts() {
        let mut e = engine();
        let before = e.max_impacts.clone();
        e.set_params(Bm25Params { k1: 2.0, b: 0.1 });
        assert_ne!(before, e.max_impacts);
        // Fast path still agrees with the naive scorer under the new params.
        assert_eq!(e.search("seafood lobster", 3), e.search_naive("seafood lobster", 3));
    }

    #[test]
    fn stats_accessors() {
        let e = engine();
        assert_eq!(e.doc_count(), 4);
        assert!(e.avg_doc_len() > 5.0);
        assert!(e.vocab_size() > 10);
        assert!(e.postings_bytes() > 0);
    }
}
