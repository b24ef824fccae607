//! # pws-index — search-engine substrate (in-memory and segmented on-disk)
//!
//! The paper's personalization layer sits *on top of* a conventional search
//! engine: it takes the engine's top-K results (with snippets) and re-ranks
//! them. Offline we have no commercial backend, so this crate is that
//! backend — two interchangeable implementations behind one
//! [`backend::RetrievalBackend`] trait:
//!
//! * [`search::SearchEngine`] — the original fully in-memory engine:
//!   [`builder::IndexBuilder`] tokenizes documents (via [`pws_text`]) and
//!   builds an inverted index; [`postings`] + [`codec`] hold delta- and
//!   varint-encoded posting lists with term frequencies and positions
//!   (positions feed snippet extraction); [`score`] is Okapi BM25; queries
//!   run document-at-a-time with MaxScore pruning.
//! * [`segmented::SegmentedIndex`] — the scale path: immutable on-disk
//!   [`segment::Segment`]s in the checksummed, versioned file format of
//!   [`segfile`] (spec: `docs/INDEX_FORMAT.md`), block-compressed postings
//!   with per-block maxima, and **Block-Max WAND** top-k pruning that is
//!   bit-identical to exhaustive scoring.
//!
//! Both produce exactly the `(url, title, snippet)` result lists the
//! personalization layer consumes, with identical ranking semantics.
//!
//! ```
//! use pws_index::{IndexBuilder, StoredDoc};
//!
//! let mut b = IndexBuilder::new();
//! b.add(StoredDoc::new(0, "http://a.test/1", "Crab shack", "fresh seafood and lobster daily"));
//! b.add(StoredDoc::new(1, "http://b.test/2", "Phone store", "unlocked android smartphone deals"));
//! let engine = b.build();
//! let hits = engine.search("seafood lobster", 10);
//! assert_eq!(hits[0].doc, 0);
//! ```

pub mod backend;
pub mod builder;
pub mod codec;
pub(crate) mod exec;
pub mod postings;
pub mod query;
pub mod score;
pub(crate) mod scratch;
pub mod search;
pub mod segfile;
pub mod segment;
pub mod segmented;
pub mod snippet;

pub use backend::RetrievalBackend;
pub use pws_text::Analyzer;
pub use builder::IndexBuilder;
pub use postings::{DocTfIter, Posting, PostingList};
pub use query::{parse_query, ParseError, QueryExpr};
pub use score::Bm25Params;
pub use search::{SearchEngine, SearchHit, StoredDoc};
pub use segfile::{SectionId, SegmentError, FORMAT_VERSION, SEGMENT_MAGIC};
pub use segment::{Segment, SegmentBuilder, BLOCK_SIZE};
pub use segmented::SegmentedIndex;
pub use snippet::extract_snippet;

#[doc(hidden)]
pub use exec::set_injected_segment_panic_rate;
