//! The binary user-record codec.
//!
//! One file per user, carrying the *complete* replay-relevant state: the
//! [`UserState`] (profiles, revisit history, RankSVM model, preference
//! pairs) **plus** the user's contribution to the per-query adaptive-β
//! statistics — the part the old JSON escape hatch silently dropped — and
//! a product-quantized cold form of the weight vectors for scan-time
//! analytics.
//!
//! The framing is the shared section-table container
//! ([`pws_obs::container`], spec in `docs/INDEX_FORMAT.md`): a fixed
//! header, a section table with per-section FNV-1a-64 checksums, then
//! the section payloads. See `docs/STORE_FORMAT.md` for the payloads.
//!
//! ```text
//! ┌───────────────────────────────────────────────┐
//! │ magic "PWSUSR1\0"                     8 bytes │
//! │ format_version (u32 LE)               4 bytes │
//! │ section_count  (u32 LE)               4 bytes │
//! ├───────────────────────────────────────────────┤
//! │ section table: count × 28-byte entries        │
//! │   id u16 · flags u16 · offset u64 ·           │
//! │   len u64 · fnv1a64 checksum u64    (all LE)  │
//! ├───────────────────────────────────────────────┤
//! │ section payloads (contiguous, table order)    │
//! └───────────────────────────────────────────────┘
//! ```
//!
//! Every map is serialized in **sorted key order** and every `f64`
//! travels as its `to_bits()` little-endian image, so encoding is a pure
//! function of the record's logical content (no `HashMap` iteration
//! order leaks into the bytes) and decoding is bit-exact — an
//! evicted-then-faulted-in user replays byte-identically to an
//! always-resident one.

use crate::pq::ProductQuantizer;
use pws_click::UserId;
use pws_core::{UserExport, UserState};
use pws_entropy::QueryStats;
use pws_geo::LocId;
use pws_obs::container::{self, FrameError, Reader, Section, Writer};
use pws_profile::{ContentProfile, LocationProfile, UserHistory};
use pws_ranksvm::{LinearRankModel, PreferencePair};
use std::collections::BTreeMap;

pub use pws_obs::container::{SECTION_ENTRY_LEN, TABLE_OFFSET};

/// Magic bytes opening every user record.
pub const STORE_MAGIC: &[u8; 8] = b"PWSUSR1\0";

/// Current format version. Readers reject anything newer.
pub const FORMAT_VERSION: u32 = 1;

/// The sections of a user record. The discriminant is the on-disk id.
///
/// `docs/STORE_FORMAT.md` documents each section's payload; a `check.sh`
/// gate diffs this enum against the spec's section table in both
/// directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u16)]
pub enum SectionId {
    /// User id, observation count, seen-query keys.
    Meta = 1,
    /// RankSVM weight vector, bit-exact f64s.
    Model = 2,
    /// Content-concept preference weights.
    ContentProfile = 3,
    /// Location-ontology preference weights.
    LocationProfile = 4,
    /// URL/domain revisit counters.
    History = 5,
    /// Mined preference-pair training window.
    Pairs = 6,
    /// Per-query adaptive-β statistics contributed by this user.
    QueryStats = 7,
    /// Product-quantized cold form of the weight vectors.
    Quantized = 8,
}

impl SectionId {
    /// All sections, in canonical file order. Every section is required.
    pub const ALL: [SectionId; 8] = [
        SectionId::Meta,
        SectionId::Model,
        SectionId::ContentProfile,
        SectionId::LocationProfile,
        SectionId::History,
        SectionId::Pairs,
        SectionId::QueryStats,
        SectionId::Quantized,
    ];

    /// Stable lowercase name (used in errors and the format spec).
    pub fn name(self) -> &'static str {
        match self {
            SectionId::Meta => "meta",
            SectionId::Model => "model",
            SectionId::ContentProfile => "content_profile",
            SectionId::LocationProfile => "location_profile",
            SectionId::History => "history",
            SectionId::Pairs => "pairs",
            SectionId::QueryStats => "query_stats",
            SectionId::Quantized => "quantized",
        }
    }
}

impl Section for SectionId {
    const ALL: &'static [SectionId] = &SectionId::ALL;
    fn id(self) -> u16 {
        self as u16
    }
    fn name(self) -> &'static str {
        self.name()
    }
}

/// Why a user record failed to load or decode. Every malformed input —
/// including every possible single-byte corruption and truncation — maps
/// to one of these; the codec never panics on untrusted bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Filesystem error, with its retryability classification (see
    /// [`crate::io::IoErrorKind`]). The serving tier's writeback
    /// retry/backoff policy keys off [`StoreError::is_transient`].
    Io(crate::io::IoError),
    /// The file does not start with [`STORE_MAGIC`].
    BadMagic,
    /// Format version newer than this reader understands.
    UnsupportedVersion(u32),
    /// The file ends before the named structure is complete.
    Truncated(&'static str),
    /// A section's payload does not match its table checksum.
    ChecksumMismatch(&'static str),
    /// A required section is absent.
    MissingSection(&'static str),
    /// A section id this reader does not know.
    UnknownSection(u16),
    /// Structurally invalid content (reserved flags, overlapping or
    /// out-of-order sections, bad string lengths, invalid UTF-8, …).
    Malformed(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store io error: {e}"),
            StoreError::BadMagic => write!(f, "not a user record (bad magic)"),
            StoreError::UnsupportedVersion(v) => {
                write!(f, "unsupported record format version {v} (reader knows {FORMAT_VERSION})")
            }
            StoreError::Truncated(what) => write!(f, "record truncated in {what}"),
            StoreError::ChecksumMismatch(s) => write!(f, "checksum mismatch in section {s}"),
            StoreError::MissingSection(s) => write!(f, "missing required section {s}"),
            StoreError::UnknownSection(id) => write!(f, "unknown section id {id}"),
            StoreError::Malformed(what) => write!(f, "malformed record: {what}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    /// Whether retrying the failed operation can plausibly succeed:
    /// only transient I/O trouble (`EIO`-like, `ENOSPC`) qualifies.
    /// Corruption, truncation, and crashed-machine errors never do.
    pub fn is_transient(&self) -> bool {
        matches!(self, StoreError::Io(e) if e.is_transient())
    }
}

impl From<crate::io::IoError> for StoreError {
    fn from(e: crate::io::IoError) -> Self {
        StoreError::Io(e)
    }
}

impl From<FrameError> for StoreError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::BadMagic => StoreError::BadMagic,
            FrameError::UnsupportedVersion(v) => StoreError::UnsupportedVersion(v),
            FrameError::Truncated(what) => StoreError::Truncated(what),
            FrameError::ChecksumMismatch(s) => StoreError::ChecksumMismatch(s),
            FrameError::MissingSection(s) => StoreError::MissingSection(s),
            FrameError::UnknownSection(id) => StoreError::UnknownSection(id),
            FrameError::Malformed(what) => StoreError::Malformed(what),
        }
    }
}

/// The decoded cold-tier form: the record's product quantizer plus the
/// u8 codes of every stored vector. `codes[0]` is the model weight
/// vector; codes `1 + 2i` / `2 + 2i` are pair `i`'s better/worse
/// vectors. Approximate only — fault-in always uses the exact sections.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedVectors {
    /// The trained per-record quantizer.
    pub pq: ProductQuantizer,
    /// One code word per stored vector.
    pub codes: Vec<Vec<u8>>,
}

impl QuantizedVectors {
    /// Decoded (approximate) model weight vector, when present.
    pub fn approx_model(&self) -> Option<Vec<f64>> {
        self.codes.first().and_then(|c| self.pq.decode(c))
    }
}

/// One user's complete persisted state.
#[derive(Debug, Clone)]
pub struct UserRecord {
    /// The user this record belongs to.
    pub user: UserId,
    /// The replay-exact engine state.
    pub state: UserState,
    /// Per-query statistics for the keys in `state.seen_queries`.
    pub query_stats: BTreeMap<String, QueryStats>,
    /// The cold-tier quantized vectors (filled by [`decode_user_record`];
    /// ignored and recomputed by [`encode_user_record`]).
    pub quantized: Option<QuantizedVectors>,
}

impl UserRecord {
    /// Assemble a record from its exact parts.
    pub fn new(user: UserId, state: UserState, query_stats: BTreeMap<String, QueryStats>) -> Self {
        UserRecord { user, state, query_stats, quantized: None }
    }

    /// View as the portable export envelope (drops the quantized form).
    pub fn into_export(self) -> UserExport {
        UserExport { state: self.state, query_stats: self.query_stats }
    }
}

// ── Encoding ─────────────────────────────────────────────────────────────

fn encode_meta(record: &UserRecord) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(u64::from(record.user.0));
    w.u64(record.state.observations);
    w.u32(record.state.seen_queries.len() as u32);
    for q in &record.state.seen_queries {
        w.str(q);
    }
    w.buf
}

fn encode_model(model: &LinearRankModel) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(model.dim() as u32);
    w.buf.extend_from_slice(&model.weight_bits_le());
    w.buf
}

fn encode_content(profile: &ContentProfile) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(profile.observations());
    let entries = profile.weight_entries();
    w.u32(entries.len() as u32);
    for (term, weight) in entries {
        w.str(&term);
        w.f64bits(weight);
    }
    w.buf
}

fn encode_location(profile: &LocationProfile) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(profile.observations());
    let entries = profile.weight_entries();
    w.u32(entries.len() as u32);
    for (loc, weight) in entries {
        w.u32(loc.0);
        w.f64bits(weight);
    }
    w.buf
}

fn encode_history(history: &UserHistory) -> Vec<u8> {
    let mut w = Writer::new();
    w.u64(history.total_clicks());
    let urls = history.url_click_entries();
    w.u32(urls.len() as u32);
    for (url, clicks) in urls {
        w.str(&url);
        w.u32(clicks);
    }
    let domains = history.domain_click_entries();
    w.u32(domains.len() as u32);
    for (domain, clicks) in domains {
        w.str(&domain);
        w.u32(clicks);
    }
    w.buf
}

fn encode_pairs(pairs: &[PreferencePair]) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(pairs.len() as u32);
    for p in pairs {
        w.u32(p.better.len() as u32);
        for &v in &p.better {
            w.f64bits(v);
        }
        w.u32(p.worse.len() as u32);
        for &v in &p.worse {
            w.f64bits(v);
        }
    }
    w.buf
}

fn encode_query_stats(stats: &BTreeMap<String, QueryStats>) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(stats.len() as u32);
    for (key, s) in stats {
        w.str(key);
        w.u64(s.impressions());
        w.u64(s.clicks());
        let urls = s.url_click_entries();
        w.u32(urls.len() as u32);
        for (url, mass) in urls {
            w.str(&url);
            w.f64bits(mass);
        }
        let concepts = s.concept_click_entries();
        w.u32(concepts.len() as u32);
        for (term, mass) in concepts {
            w.str(&term);
            w.f64bits(mass);
        }
        let locs = s.location_click_entries();
        w.u32(locs.len() as u32);
        for (loc, mass) in locs {
            w.u32(loc.0);
            w.f64bits(mass);
        }
    }
    w.buf
}

/// Subspace count for a per-record quantizer: one dimension per subspace
/// (profile vectors are short — `FEATURE_DIM` — so scalar subspaces give
/// the tightest codebook a 1-byte-per-dim budget allows).
fn pq_params(dim: usize, vector_count: usize) -> (usize, usize) {
    (dim, vector_count.clamp(1, 16))
}

/// Deterministic training seed: a fixed constant, so identical logical
/// records always produce identical bytes.
const PQ_SEED: u64 = 0x9e37_79b9_7f4a_7c15;
const PQ_ITERS: usize = 8;

fn encode_quantized(state: &UserState) -> Vec<u8> {
    let mut w = Writer::new();
    let dim = state.model.dim();
    // Vectors to quantize: the model weights plus every pair vector of
    // matching dimension (all of them, in well-formed states).
    let mut vectors: Vec<Vec<f64>> = vec![state.model.weights.clone()];
    let pairs_match = state
        .pairs
        .iter()
        .all(|p| p.better.len() == dim && p.worse.len() == dim);
    if pairs_match {
        for p in &state.pairs {
            vectors.push(p.better.clone());
            vectors.push(p.worse.clone());
        }
    }
    let finite = vectors.iter().all(|v| v.iter().all(|x| x.is_finite()));
    let (m, k) = pq_params(dim, vectors.len());
    let pq = if dim == 0 || !finite {
        None
    } else {
        ProductQuantizer::train(&vectors, m, k, PQ_ITERS, PQ_SEED)
    };
    match pq {
        None => w.u8(0),
        Some(pq) => {
            w.u8(1);
            let pq_bytes = pq.to_bytes();
            w.u32(pq_bytes.len() as u32);
            w.buf.extend_from_slice(&pq_bytes);
            w.u32(vectors.len() as u32);
            for v in &vectors {
                // Encode never fails here: dims match by construction.
                let code = pq.encode(v).unwrap_or_else(|| vec![0; pq.m()]);
                w.buf.extend_from_slice(&code);
            }
        }
    }
    w.buf
}

/// Serialize a user record to its canonical byte image.
///
/// Deterministic: the bytes are a pure function of the record's logical
/// content (sorted map order, bit-exact floats, fixed quantizer seed).
pub fn encode_user_record(record: &UserRecord) -> Vec<u8> {
    let payloads: Vec<(SectionId, Vec<u8>)> = vec![
        (SectionId::Meta, encode_meta(record)),
        (SectionId::Model, encode_model(&record.state.model)),
        (SectionId::ContentProfile, encode_content(&record.state.content)),
        (SectionId::LocationProfile, encode_location(&record.state.location)),
        (SectionId::History, encode_history(&record.state.history)),
        (SectionId::Pairs, encode_pairs(&record.state.pairs)),
        (SectionId::QueryStats, encode_query_stats(&record.query_stats)),
        (SectionId::Quantized, encode_quantized(&record.state)),
    ];
    container::write(STORE_MAGIC, FORMAT_VERSION, &payloads)
}

// ── Decoding ─────────────────────────────────────────────────────────────

/// A `u32` count field, sanity-bounded so corrupt counts fail fast as
/// truncation instead of attempting huge allocations: each counted
/// element occupies at least `min_elem_bytes` bytes of payload.
fn read_count(r: &mut Reader<'_>, min_elem_bytes: usize) -> Result<usize, StoreError> {
    let n = r.u32()? as usize;
    let need = n.checked_mul(min_elem_bytes).ok_or(StoreError::Malformed("count overflow"))?;
    if need > r.remaining() {
        return Err(StoreError::Truncated(r.section()));
    }
    Ok(n)
}

fn decode_meta(payload: &[u8]) -> Result<(UserId, u64, Vec<String>), StoreError> {
    let mut r = Reader::new(payload, "meta");
    let user_raw = r.u64()?;
    let user = u32::try_from(user_raw)
        .map(UserId)
        .map_err(|_| StoreError::Malformed("user id out of range"))?;
    let observations = r.u64()?;
    let n = read_count(&mut r, 4)?;
    let mut seen = Vec::with_capacity(n);
    for _ in 0..n {
        seen.push(r.str()?.to_owned());
    }
    r.finish()?;
    Ok((user, observations, seen))
}

fn decode_model(payload: &[u8]) -> Result<LinearRankModel, StoreError> {
    let mut r = Reader::new(payload, "model");
    let dim = read_count(&mut r, 8)?;
    let mut weights = Vec::with_capacity(dim);
    for _ in 0..dim {
        weights.push(r.f64bits()?);
    }
    r.finish()?;
    Ok(LinearRankModel::from_weights(weights))
}

fn decode_content(payload: &[u8]) -> Result<ContentProfile, StoreError> {
    let mut r = Reader::new(payload, "content_profile");
    let observations = r.u64()?;
    let n = read_count(&mut r, 12)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let term = r.str()?.to_owned();
        let weight = r.f64bits()?;
        entries.push((term, weight));
    }
    r.finish()?;
    Ok(ContentProfile::from_entries(entries, observations))
}

fn decode_location(payload: &[u8]) -> Result<LocationProfile, StoreError> {
    let mut r = Reader::new(payload, "location_profile");
    let observations = r.u64()?;
    let n = read_count(&mut r, 12)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let loc = LocId(r.u32()?);
        let weight = r.f64bits()?;
        entries.push((loc, weight));
    }
    r.finish()?;
    Ok(LocationProfile::from_entries(entries, observations))
}

fn decode_history(payload: &[u8]) -> Result<UserHistory, StoreError> {
    let mut r = Reader::new(payload, "history");
    let total = r.u64()?;
    let nu = read_count(&mut r, 8)?;
    let mut urls = Vec::with_capacity(nu);
    for _ in 0..nu {
        let url = r.str()?.to_owned();
        let clicks = r.u32()?;
        urls.push((url, clicks));
    }
    let nd = read_count(&mut r, 8)?;
    let mut domains = Vec::with_capacity(nd);
    for _ in 0..nd {
        let domain = r.str()?.to_owned();
        let clicks = r.u32()?;
        domains.push((domain, clicks));
    }
    r.finish()?;
    Ok(UserHistory::from_entries(urls, domains, total))
}

fn decode_pairs(payload: &[u8]) -> Result<Vec<PreferencePair>, StoreError> {
    let mut r = Reader::new(payload, "pairs");
    let n = read_count(&mut r, 8)?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let db = read_count(&mut r, 8)?;
        let mut better = Vec::with_capacity(db);
        for _ in 0..db {
            better.push(r.f64bits()?);
        }
        let dw = read_count(&mut r, 8)?;
        let mut worse = Vec::with_capacity(dw);
        for _ in 0..dw {
            worse.push(r.f64bits()?);
        }
        pairs.push(PreferencePair { better, worse });
    }
    r.finish()?;
    Ok(pairs)
}

fn decode_query_stats(payload: &[u8]) -> Result<BTreeMap<String, QueryStats>, StoreError> {
    let mut r = Reader::new(payload, "query_stats");
    let n = read_count(&mut r, 4)?;
    let mut out = BTreeMap::new();
    for _ in 0..n {
        let key = r.str()?.to_owned();
        let impressions = r.u64()?;
        let clicks = r.u64()?;
        let nu = read_count(&mut r, 12)?;
        let mut urls = Vec::with_capacity(nu);
        for _ in 0..nu {
            let url = r.str()?.to_owned();
            let mass = r.f64bits()?;
            urls.push((url, mass));
        }
        let nc = read_count(&mut r, 12)?;
        let mut concepts = Vec::with_capacity(nc);
        for _ in 0..nc {
            let term = r.str()?.to_owned();
            let mass = r.f64bits()?;
            concepts.push((term, mass));
        }
        let nl = read_count(&mut r, 12)?;
        let mut locs = Vec::with_capacity(nl);
        for _ in 0..nl {
            let loc = LocId(r.u32()?);
            let mass = r.f64bits()?;
            locs.push((loc, mass));
        }
        if out
            .insert(key, QueryStats::from_parts(urls, concepts, locs, impressions, clicks))
            .is_some()
        {
            return Err(StoreError::Malformed("duplicate query-stats key"));
        }
    }
    r.finish()?;
    Ok(out)
}

fn decode_quantized(payload: &[u8]) -> Result<Option<QuantizedVectors>, StoreError> {
    let mut r = Reader::new(payload, "quantized");
    match r.u8()? {
        0 => {
            r.finish()?;
            Ok(None)
        }
        1 => {
            let pq_len = read_count(&mut r, 1)?;
            let pq_bytes = r.take(pq_len)?;
            let pq = ProductQuantizer::from_bytes(pq_bytes)
                .ok_or(StoreError::Malformed("invalid quantizer"))?;
            let n = read_count(&mut r, pq.m())?;
            let mut codes = Vec::with_capacity(n);
            for _ in 0..n {
                let code = r.take(pq.m())?.to_vec();
                if code.iter().any(|&c| usize::from(c) >= pq.k()) {
                    return Err(StoreError::Malformed("quantizer code out of range"));
                }
                codes.push(code);
            }
            r.finish()?;
            Ok(Some(QuantizedVectors { pq, codes }))
        }
        _ => Err(StoreError::Malformed("invalid quantized flag")),
    }
}

/// Decode a user record from its byte image, validating structure and
/// every section checksum. Inverse of [`encode_user_record`]:
/// `decode(encode(r))` reproduces `r`'s logical content bit-exactly.
pub fn decode_user_record(bytes: &[u8]) -> Result<UserRecord, StoreError> {
    let sections = container::parse::<SectionId>(bytes, STORE_MAGIC, FORMAT_VERSION)?;
    let payload = |i: usize| &bytes[sections[i].clone()];
    let (user, observations, seen_queries) = decode_meta(payload(0))?;
    let model = decode_model(payload(1))?;
    let content = decode_content(payload(2))?;
    let location = decode_location(payload(3))?;
    let history = decode_history(payload(4))?;
    let pairs = decode_pairs(payload(5))?;
    let query_stats = decode_query_stats(payload(6))?;
    let quantized = decode_quantized(payload(7))?;

    let mut state = UserState::new();
    state.content = content;
    state.location = location;
    state.history = history;
    state.model = model;
    state.pairs = pairs;
    state.observations = observations;
    state.seen_queries = seen_queries;

    Ok(UserRecord { user, state, query_stats, quantized })
}
