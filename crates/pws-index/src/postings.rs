//! Posting lists.
//!
//! Per term, the index stores an encoded block of `(doc_id, tf, positions)`
//! triples. Doc ids are delta-encoded across postings; positions are
//! delta-encoded within a posting. Decoding yields [`Posting`]s.

use crate::codec::{decode_deltas, encode_deltas, read_varint, write_varint};

/// One decoded posting: a document and the term's occurrences in it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Posting {
    /// Document id (dense, index-local).
    pub doc: u32,
    /// Term frequency (equals `positions.len()`).
    pub tf: u32,
    /// Ascending token positions of the term in the document.
    pub positions: Vec<u32>,
}

/// Encoded posting list for one term.
#[derive(Debug, Clone, Default)]
pub struct PostingList {
    /// Number of documents containing the term.
    doc_count: u32,
    /// Total occurrences across all documents.
    total_tf: u64,
    /// Encoded payload.
    bytes: Vec<u8>,
    /// Last doc id written (for delta encoding during building).
    last_doc: u32,
}

impl PostingList {
    /// Empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Document frequency (df) of the term.
    pub fn doc_count(&self) -> u32 {
        self.doc_count
    }

    /// Collection frequency (cf) of the term.
    pub fn total_tf(&self) -> u64 {
        self.total_tf
    }

    /// Size of the encoded payload in bytes.
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }

    /// Append a posting. Documents must be appended in ascending id order
    /// (the builder guarantees this); positions must be ascending.
    ///
    /// # Panics
    /// Panics if `doc` is not greater than the last appended doc, or if
    /// `positions` is empty.
    pub fn push(&mut self, doc: u32, positions: &[u32]) {
        assert!(!positions.is_empty(), "posting with no positions");
        assert!(
            self.doc_count == 0 || doc > self.last_doc,
            "postings must be appended in ascending doc order ({doc} after {})",
            self.last_doc
        );
        let delta = if self.doc_count == 0 { doc } else { doc - self.last_doc };
        write_varint(&mut self.bytes, delta);
        write_varint(&mut self.bytes, positions.len() as u32);
        encode_deltas(positions, &mut self.bytes);
        self.last_doc = doc;
        self.doc_count += 1;
        self.total_tf += positions.len() as u64;
    }

    /// Decode the whole list.
    pub fn decode(&self) -> Vec<Posting> {
        self.iter().collect()
    }

    /// Iterate postings lazily.
    pub fn iter(&self) -> PostingIter<'_> {
        PostingIter { buf: &self.bytes, remaining: self.doc_count, prev_doc: 0, first: true }
    }

    /// Iterate `(doc, tf)` pairs lazily, skipping position payloads without
    /// allocating. This is the scoring hot path: BM25 needs only tf, and
    /// decoding positions into a `Vec` per posting dominates decode cost.
    pub fn iter_doc_tf(&self) -> DocTfIter<'_> {
        DocTfIter { buf: &self.bytes, remaining: self.doc_count, prev_doc: 0, first: true }
    }
}

/// Lazy decoder over an encoded posting list.
#[derive(Debug)]
pub struct PostingIter<'a> {
    buf: &'a [u8],
    remaining: u32,
    prev_doc: u32,
    first: bool,
}

impl Iterator for PostingIter<'_> {
    type Item = Posting;

    fn next(&mut self) -> Option<Posting> {
        if self.remaining == 0 {
            return None;
        }
        let delta = read_varint(&mut self.buf)?;
        let doc = if self.first { delta } else { self.prev_doc + delta };
        self.first = false;
        self.prev_doc = doc;
        let tf = read_varint(&mut self.buf)?;
        let positions = decode_deltas(&mut self.buf, tf as usize)?;
        self.remaining -= 1;
        Some(Posting { doc, tf, positions })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

/// Lazy `(doc, tf)` decoder that skips position payloads (no allocation).
#[derive(Debug)]
pub struct DocTfIter<'a> {
    buf: &'a [u8],
    remaining: u32,
    prev_doc: u32,
    first: bool,
}

impl Iterator for DocTfIter<'_> {
    type Item = (u32, u32);

    fn next(&mut self) -> Option<(u32, u32)> {
        if self.remaining == 0 {
            return None;
        }
        let delta = read_varint(&mut self.buf)?;
        let doc = if self.first { delta } else { self.prev_doc + delta };
        self.first = false;
        self.prev_doc = doc;
        let tf = read_varint(&mut self.buf)?;
        crate::codec::skip_deltas(&mut self.buf, tf as usize)?;
        self.remaining -= 1;
        Some((doc, tf))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_list() {
        let l = PostingList::new();
        assert_eq!(l.doc_count(), 0);
        assert_eq!(l.total_tf(), 0);
        assert!(l.decode().is_empty());
    }

    #[test]
    fn push_and_decode() {
        let mut l = PostingList::new();
        l.push(2, &[0, 5, 9]);
        l.push(7, &[3]);
        l.push(100, &[1, 2]);
        let ps = l.decode();
        assert_eq!(ps.len(), 3);
        assert_eq!(ps[0], Posting { doc: 2, tf: 3, positions: vec![0, 5, 9] });
        assert_eq!(ps[1], Posting { doc: 7, tf: 1, positions: vec![3] });
        assert_eq!(ps[2], Posting { doc: 100, tf: 2, positions: vec![1, 2] });
        assert_eq!(l.doc_count(), 3);
        assert_eq!(l.total_tf(), 6);
    }

    #[test]
    fn doc_zero_is_representable() {
        let mut l = PostingList::new();
        l.push(0, &[4]);
        assert_eq!(l.decode()[0].doc, 0);
    }

    #[test]
    #[should_panic]
    fn out_of_order_docs_panic() {
        let mut l = PostingList::new();
        l.push(5, &[0]);
        l.push(5, &[1]);
    }

    #[test]
    #[should_panic]
    fn empty_positions_panic() {
        let mut l = PostingList::new();
        l.push(1, &[]);
    }

    #[test]
    fn iter_size_hint_matches() {
        let mut l = PostingList::new();
        l.push(1, &[0]);
        l.push(2, &[0]);
        let it = l.iter();
        assert_eq!(it.size_hint(), (2, Some(2)));
        assert_eq!(it.count(), 2);
    }

    proptest! {
        #[test]
        fn round_trip_random_lists(
            entries in proptest::collection::btree_map(
                0u32..100_000,
                proptest::collection::btree_set(0u32..5_000, 1..20),
                1..50,
            )
        ) {
            let mut l = PostingList::new();
            for (doc, pos_set) in &entries {
                let positions: Vec<u32> = pos_set.iter().copied().collect();
                l.push(*doc, &positions);
            }
            let decoded = l.decode();
            prop_assert_eq!(decoded.len(), entries.len());
            for (p, (doc, pos_set)) in decoded.iter().zip(entries.iter()) {
                prop_assert_eq!(p.doc, *doc);
                let positions: Vec<u32> = pos_set.iter().copied().collect();
                prop_assert_eq!(&p.positions, &positions);
                prop_assert_eq!(p.tf as usize, positions.len());
            }
        }
    }
}
