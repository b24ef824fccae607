//! Golden-bytes test for the `PWSSEG1` segment writer: a small fixed
//! segment must encode to exactly the committed byte image, and that
//! image must load and search.

use pws_index::{Segment, SegmentBuilder, SegmentError, SegmentedIndex};

const GOLDEN: &[u8] = include_bytes!("golden/segment.pwsseg");

fn fixed_segment_bytes() -> Vec<u8> {
    let mut b = SegmentBuilder::new(Default::default());
    b.add("http://a.test/crab", "Crab shack", "fresh seafood and lobster by the harbor");
    b.add("http://b.test/phone", "Phone store", "unlocked android smartphone deals");
    b.add("http://c.test/inn", "Harbor inn", "quiet hotel rooms near the harbor, seafood nearby");
    b.finish()
}

#[test]
fn segment_encodes_to_golden_bytes() {
    assert_eq!(fixed_segment_bytes(), GOLDEN);
}

#[test]
fn golden_bytes_load_and_search() {
    let seg = Segment::load_bytes(GOLDEN.to_vec()).expect("golden segment loads");
    assert_eq!(seg.doc_count(), 3);
    let idx = SegmentedIndex::from_segments(vec![seg]).expect("index");
    let docs: Vec<u32> = idx.search("harbor seafood", 10).iter().map(|h| h.doc).collect();
    assert_eq!(docs.len(), 2);
    assert!(docs.contains(&0) && docs.contains(&2));
}

#[test]
fn appended_bytes_are_rejected() {
    let mut bytes = GOLDEN.to_vec();
    bytes.extend_from_slice(b"junk");
    let err = Segment::load_bytes(bytes).expect_err("trailing junk must not load");
    assert_eq!(err, SegmentError::Malformed("trailing bytes after last section"));
}
