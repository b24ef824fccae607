//! Golden-bytes test for the `PWSFLT1` flight-dump encoder: a fixed
//! dump must encode to exactly the committed byte image, and that image
//! must decode back to the same dump. It also pins the two hashes an
//! event carries (`query_hash`, `page_fingerprint`).

use pws_obs::event::{page_fingerprint, query_hash, DegradeCode, FlightEvent};
use pws_obs::flight::{
    decode_flight_dump, encode_flight_dump, DumpReason, FlightDump, FlightError,
};
use pws_obs::trace::BetaProvenance;

const GOLDEN: &[u8] = include_bytes!("golden/flight.pwsflt");
const QUERY_HASH_LOBSTER_HARBOR: u64 = 0x5f61_9be3_a49e_3534;
const PAGE_FINGERPRINT_9_4_11: u64 = 0xf839_226c_4fd6_2953;

fn fixed_dump() -> FlightDump {
    let mut hit = FlightEvent::empty();
    hit.user = 42;
    hit.shard = 1;
    hit.queue_depth = 2;
    hit.query_hash = query_hash("lobster harbor");
    hit.stage_nanos = [90_000, 40_000, 7_000, 300, 12_000];
    hit.total_nanos = 150_000;
    hit.beta_bits = 0.375f64.to_bits();
    hit.beta_provenance = BetaProvenance::Adaptive;
    hit.cache_hit = Some(true);
    hit.store_evict = true;
    hit.page_fingerprint = page_fingerprint([(9u32, 1usize), (4, 2), (11, 3)]);
    let mut shed = FlightEvent::empty();
    shed.user = 7;
    shed.shard = 3;
    shed.queue_depth = 64;
    shed.query_hash = query_hash("cheap hotel");
    shed.beta_provenance = BetaProvenance::Fixed;
    shed.degraded = DegradeCode::Panic;
    shed.store_fault_in = true;
    FlightDump { reason: DumpReason::ShedBurst, shard_count: 4, events: vec![hit, shed] }
}

#[test]
fn dump_encodes_to_golden_bytes() {
    assert_eq!(encode_flight_dump(&fixed_dump()), GOLDEN);
}

#[test]
fn golden_bytes_decode_to_the_fixed_dump() {
    assert_eq!(decode_flight_dump(GOLDEN).expect("golden dump decodes"), fixed_dump());
}

#[test]
fn event_hashes_are_pinned() {
    assert_eq!(query_hash("lobster harbor"), QUERY_HASH_LOBSTER_HARBOR);
    assert_eq!(page_fingerprint([(9u32, 1usize), (4, 2), (11, 3)]), PAGE_FINGERPRINT_9_4_11);
}

#[test]
fn appended_bytes_are_rejected() {
    let mut bytes = GOLDEN.to_vec();
    bytes.push(0);
    assert_eq!(
        decode_flight_dump(&bytes),
        Err(FlightError::Malformed("trailing bytes after last section"))
    );
}
