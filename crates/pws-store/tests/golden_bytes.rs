//! Golden-bytes test for the `PWSUSR1` user-record encoder: a fixed
//! record must encode to exactly the committed byte image, and that
//! image must decode and re-encode to itself. Any change to the framing
//! or to a section payload codec that moves a single byte fails here.

use pws_click::UserId;
use pws_core::UserState;
use pws_entropy::QueryStats;
use pws_geo::LocId;
use pws_profile::{ContentProfile, LocationProfile, UserHistory};
use pws_ranksvm::{LinearRankModel, PreferencePair};
use pws_store::{decode_user_record, encode_user_record, StoreError, UserRecord};
use std::collections::BTreeMap;

const GOLDEN: &[u8] = include_bytes!("golden/record.pwsusr");

/// Every section populated, with negative, fractional and zero weights,
/// two pairs (so the quantized section trains a real codebook) and
/// query statistics carrying url, concept and location mass.
fn fixed_record() -> UserRecord {
    let mut state = UserState::new();
    state.model = LinearRankModel::from_weights(vec![0.5, -1.25, 0.0, 3.0]);
    state.pairs = vec![
        PreferencePair { better: vec![1.0, 0.0, 0.5, -0.5], worse: vec![0.0, 1.0, 0.25, 0.0] },
        PreferencePair { better: vec![0.2, 0.4, 0.6, 0.8], worse: vec![-0.1, 0.3, 0.0, 2.0] },
    ];
    state.content = ContentProfile::from_entries(
        vec![("lobster".into(), 0.75), ("harbor".into(), -0.5), ("seafood".into(), 1.5)],
        4,
    );
    state.location = LocationProfile::from_entries(vec![(LocId(3), 1.0), (LocId(17), 0.25)], 3);
    state.history = UserHistory::from_entries(
        vec![("http://a.test/0".into(), 2), ("http://b.test/9".into(), 1)],
        vec![("a.test".into(), 2), ("b.test".into(), 1)],
        3,
    );
    state.observations = 4;
    state.seen_queries = vec!["lobster harbor".into(), "seafood".into()];
    let mut stats = BTreeMap::new();
    stats.insert(
        "lobster harbor".into(),
        QueryStats::from_parts(
            vec![("http://a.test/0".into(), 1.0)],
            vec![("lobster".into(), 0.5), ("harbor".into(), 0.5)],
            vec![(LocId(3), 1.0)],
            3,
            2,
        ),
    );
    stats.insert("seafood".into(), QueryStats::from_parts(vec![], vec![], vec![], 1, 0));
    UserRecord::new(UserId(0x00C0_FFEE), state, stats)
}

#[test]
fn record_encodes_to_golden_bytes() {
    assert_eq!(encode_user_record(&fixed_record()), GOLDEN);
}

#[test]
fn golden_bytes_decode_and_reencode_to_themselves() {
    let decoded = decode_user_record(GOLDEN).expect("golden record decodes");
    assert_eq!(decoded.user, UserId(0x00C0_FFEE));
    assert!(decoded.quantized.is_some(), "golden record carries a quantized section");
    assert_eq!(encode_user_record(&decoded), GOLDEN);
}

/// The container rejects anything past the last payload.
#[test]
fn appended_bytes_are_rejected() {
    let mut bytes = GOLDEN.to_vec();
    bytes.extend_from_slice(&[0xAB; 12]);
    let err = decode_user_record(&bytes).expect_err("trailing junk must not decode");
    assert_eq!(err, StoreError::Malformed("trailing bytes after last section"));
}
