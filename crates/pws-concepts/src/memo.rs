//! Memoization of [`QueryConceptOntology::extract`].
//!
//! Concept extraction is a pure function of `(query_text, snippets,
//! configs)` — the matcher and world are fixed per engine — yet the
//! pipeline runs it at least twice per turn (candidate-pool extraction in
//! `search`, page extraction in `finish_turn`) and base retrieval is
//! user-independent, so identical snippet pools recur across users issuing
//! the same query. [`ConceptMemo`] keys one extraction per fingerprint and
//! hands out clones, which cost refcount bumps and `Vec` copies instead of
//! tokenizing every snippet again.
//!
//! Sharded `Mutex<HashMap>` with a per-shard LRU bound; safe to share
//! across threads (`&self` everywhere, `Send + Sync`).

use crate::content::ConceptConfig;
use crate::location::LocationConceptConfig;
use crate::ontology::QueryConceptOntology;
use pws_geo::{LocationMatcher, LocationOntology};
use pws_obs::hash::Fnv1a;
use std::collections::HashMap;
use std::sync::Mutex;

/// One cached extraction with its LRU tick.
#[derive(Debug)]
struct MemoEntry {
    tick: u64,
    value: QueryConceptOntology,
}

#[derive(Debug, Default)]
struct MemoShard {
    entries: HashMap<u64, MemoEntry>,
    tick: u64,
}

/// Bounded, sharded memo table for concept extraction.
///
/// Capacity 0 disables memoization entirely (every call extracts).
#[derive(Debug)]
pub struct ConceptMemo {
    shards: Vec<Mutex<MemoShard>>,
    capacity_per_shard: usize,
}

const MEMO_SHARDS: usize = 8;

impl ConceptMemo {
    /// A memo holding at most `capacity` extractions (split across shards).
    /// `capacity = 0` disables caching.
    pub fn new(capacity: usize) -> Self {
        let capacity_per_shard = capacity.div_ceil(MEMO_SHARDS);
        ConceptMemo {
            shards: (0..MEMO_SHARDS).map(|_| Mutex::new(MemoShard::default())).collect(),
            capacity_per_shard,
        }
    }

    /// Fingerprint of everything the extraction output depends on (beyond
    /// the per-engine matcher/world, which callers must keep fixed).
    fn fingerprint(
        query_text: &str,
        snippets: &[String],
        content_cfg: &ConceptConfig,
        location_cfg: &LocationConceptConfig,
    ) -> u64 {
        let mut h = Fnv1a::new();
        h.write(query_text.as_bytes());
        h.write(&[0xff]);
        for s in snippets {
            h.write(s.as_bytes());
            h.write(&[0xfe]);
        }
        h.write(&content_cfg.min_support.to_bits().to_le_bytes());
        h.write(&content_cfg.min_snippet_freq.to_le_bytes());
        h.write(&[u8::from(content_cfg.bigrams)]);
        h.write(&(content_cfg.max_concepts as u64).to_le_bytes());
        h.write(&location_cfg.min_support.to_bits().to_le_bytes());
        h.write(&location_cfg.rollup_decay.to_bits().to_le_bytes());
        h.write(&[u8::from(location_cfg.rollup)]);
        h.finish()
    }

    /// Memoized [`QueryConceptOntology::extract`]. Extraction is
    /// deterministic, so a cached clone is indistinguishable from a fresh
    /// extraction. Returns `(ontology, was_hit)`.
    #[allow(clippy::too_many_arguments)]
    pub fn get_or_extract(
        &self,
        query_text: &str,
        snippets: &[String],
        matcher: &LocationMatcher,
        world: &LocationOntology,
        content_cfg: &ConceptConfig,
        location_cfg: &LocationConceptConfig,
    ) -> (QueryConceptOntology, bool) {
        if self.capacity_per_shard == 0 {
            let o = QueryConceptOntology::extract(
                query_text, snippets, matcher, world, content_cfg, location_cfg,
            );
            return (o, false);
        }
        let key = Self::fingerprint(query_text, snippets, content_cfg, location_cfg);
        let shard = &self.shards[(key as usize) % MEMO_SHARDS];
        {
            let mut s = shard.lock().unwrap_or_else(|e| e.into_inner());
            s.tick += 1;
            let tick = s.tick;
            if let Some(entry) = s.entries.get_mut(&key) {
                entry.tick = tick;
                return (entry.value.clone(), true);
            }
        }
        // Extract outside the lock: extraction is the expensive part, and
        // racing extractors for the same key just insert the same value.
        let value = QueryConceptOntology::extract(
            query_text, snippets, matcher, world, content_cfg, location_cfg,
        );
        let mut s = shard.lock().unwrap_or_else(|e| e.into_inner());
        s.tick += 1;
        let tick = s.tick;
        if s.entries.len() >= self.capacity_per_shard && !s.entries.contains_key(&key) {
            // Evict the least recently used entry in this shard. Linear scan
            // is fine: shards are small and eviction is rare relative to
            // the extraction work a miss already paid for.
            if let Some(&evict) = s
                .entries
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k)
            {
                s.entries.remove(&evict);
            }
        }
        s.entries.insert(key, MemoEntry { tick, value: value.clone() });
        (value, false)
    }

    /// Drop every cached extraction (e.g. after an index swap).
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut s = shard.lock().unwrap_or_else(|e| e.into_inner());
            s.entries.clear();
        }
    }

    /// Number of cached extractions across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(|e| e.into_inner()).entries.len())
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pws_geo::LocId;

    fn world() -> LocationOntology {
        let mut o = LocationOntology::new();
        let r = o.add(LocId::WORLD, "westland", vec![]);
        let c = o.add(r, "ardonia", vec![]);
        let s = o.add(c, "north vale", vec![]);
        o.add(s, "port alden", vec![]);
        o
    }

    fn snips(tag: &str) -> Vec<String> {
        vec![
            format!("seafood lobster {tag} in port alden"),
            format!("the seafood menu with lobster {tag}"),
        ]
    }

    fn cfgs() -> (ConceptConfig, LocationConceptConfig) {
        (
            ConceptConfig { min_support: 0.0, min_snippet_freq: 1, bigrams: true, max_concepts: 50 },
            LocationConceptConfig { min_support: 0.0, ..Default::default() },
        )
    }

    #[test]
    fn second_call_hits_and_matches_direct_extraction() {
        let w = world();
        let m = LocationMatcher::build(&w);
        let (cc, lc) = cfgs();
        let memo = ConceptMemo::new(16);
        let s = snips("specials");
        let (a, hit_a) = memo.get_or_extract("restaurant", &s, &m, &w, &cc, &lc);
        let (b, hit_b) = memo.get_or_extract("restaurant", &s, &m, &w, &cc, &lc);
        assert!(!hit_a && hit_b);
        let direct = QueryConceptOntology::extract("restaurant", &s, &m, &w, &cc, &lc);
        for o in [&a, &b] {
            assert_eq!(o.content, direct.content);
            assert_eq!(o.locations, direct.locations);
            assert_eq!(o.content_by_snippet, direct.content_by_snippet);
            assert_eq!(o.locations_by_snippet, direct.locations_by_snippet);
        }
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn different_query_or_snippets_miss() {
        let w = world();
        let m = LocationMatcher::build(&w);
        let (cc, lc) = cfgs();
        let memo = ConceptMemo::new(16);
        let s = snips("specials");
        assert!(!memo.get_or_extract("restaurant", &s, &m, &w, &cc, &lc).1);
        assert!(!memo.get_or_extract("hotel", &s, &m, &w, &cc, &lc).1);
        assert!(!memo.get_or_extract("restaurant", &snips("rolls"), &m, &w, &cc, &lc).1);
        assert_eq!(memo.len(), 3);
    }

    #[test]
    fn config_changes_miss() {
        let w = world();
        let m = LocationMatcher::build(&w);
        let (cc, lc) = cfgs();
        let memo = ConceptMemo::new(16);
        let s = snips("specials");
        assert!(!memo.get_or_extract("restaurant", &s, &m, &w, &cc, &lc).1);
        let cc2 = ConceptConfig { bigrams: false, ..cc };
        let (o, hit) = memo.get_or_extract("restaurant", &s, &m, &w, &cc2, &lc);
        assert!(!hit);
        assert_eq!(o.content, QueryConceptOntology::extract("restaurant", &s, &m, &w, &cc2, &lc).content);
    }

    #[test]
    fn capacity_bounds_and_evicts_lru() {
        let w = world();
        let m = LocationMatcher::build(&w);
        let (cc, lc) = cfgs();
        // 8 shards × 1 entry each.
        let memo = ConceptMemo::new(8);
        for i in 0..50 {
            let s = snips(&format!("tag{i}"));
            memo.get_or_extract("restaurant", &s, &m, &w, &cc, &lc);
        }
        assert!(memo.len() <= 8, "memo grew past its bound: {}", memo.len());
    }

    #[test]
    fn zero_capacity_disables() {
        let w = world();
        let m = LocationMatcher::build(&w);
        let (cc, lc) = cfgs();
        let memo = ConceptMemo::new(0);
        let s = snips("specials");
        assert!(!memo.get_or_extract("restaurant", &s, &m, &w, &cc, &lc).1);
        assert!(!memo.get_or_extract("restaurant", &s, &m, &w, &cc, &lc).1);
        assert!(memo.is_empty());
    }

    /// The memo key is a stable FNV-1a fingerprint; pinned so a change
    /// to the hash or to the fields it covers is a visible decision.
    #[test]
    fn fingerprint_is_pinned() {
        let snippets = ["fresh lobster".to_string(), "harbor inn".to_string()];
        let fp = ConceptMemo::fingerprint(
            "lobster harbor",
            &snippets,
            &ConceptConfig::default(),
            &LocationConceptConfig::default(),
        );
        assert_eq!(fp, 0x7d9b_ae80_a57a_194a);
    }

    #[test]
    fn clear_empties() {
        let w = world();
        let m = LocationMatcher::build(&w);
        let (cc, lc) = cfgs();
        let memo = ConceptMemo::new(16);
        memo.get_or_extract("restaurant", &snips("a"), &m, &w, &cc, &lc);
        assert!(!memo.is_empty());
        memo.clear();
        assert!(memo.is_empty());
    }
}
