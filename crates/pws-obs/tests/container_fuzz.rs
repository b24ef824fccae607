//! Structured fuzz test of the shared section-table container
//! (`pws_obs::container`), the framing under `PWSSEG1`, `PWSUSR1` and
//! `PWSFLT1`.
//!
//! The per-format gauntlets flip and truncate one valid file byte by
//! byte; this test instead *generates* tables: valid containers with
//! random section order and payload sizes, then one structural damage
//! per case — trailing bytes, a gap, an overlap, out-of-order payloads,
//! a duplicated id, several corrupted bytes at once, or a wholly random
//! table checked against an independent validity oracle. Parsing must
//! never panic, and every damaged layout must come back as the typed
//! error the specification names. The generator is a seeded SplitMix64
//! stream, so every failure reproduces from its case number.

use pws_obs::container::{self, FrameError, Section, SECTION_ENTRY_LEN, TABLE_OFFSET};
use pws_obs::hash::{fnv1a64, splitmix64, SPLITMIX_GAMMA};
use std::ops::Range;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sec {
    A = 1,
    B = 2,
    C = 3,
    D = 4,
}

impl Section for Sec {
    const ALL: &'static [Sec] = &[Sec::A, Sec::B, Sec::C, Sec::D];
    fn id(self) -> u16 {
        self as u16
    }
    fn name(self) -> &'static str {
        match self {
            Sec::A => "A",
            Sec::B => "B",
            Sec::C => "C",
            Sec::D => "D",
        }
    }
}

const MAGIC: &[u8; 8] = b"PWSFUZZ\0";
const VERSION: u32 = 1;
const CASES: u64 = 4000;
const NOT_CONTIGUOUS: FrameError = FrameError::Malformed("section payload not contiguous");

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let out = splitmix64(self.0);
        self.0 = self.0.wrapping_add(SPLITMIX_GAMMA);
        out
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next() as u8).collect()
    }
}

/// One table entry exactly as written, consistent or not.
#[derive(Debug, Clone)]
struct Entry {
    id: u16,
    offset: usize,
    len: usize,
    checksum: u64,
}

/// Header + the given table + `body` verbatim; nothing is fixed up.
fn assemble(entries: &[Entry], body: &[u8]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
    for e in entries {
        out.extend_from_slice(&e.id.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        out.extend_from_slice(&(e.offset as u64).to_le_bytes());
        out.extend_from_slice(&(e.len as u64).to_le_bytes());
        out.extend_from_slice(&e.checksum.to_le_bytes());
    }
    out.extend_from_slice(body);
    out
}

fn table_end(sections: usize) -> usize {
    TABLE_OFFSET + sections * SECTION_ENTRY_LEN
}

/// A valid layout: every section once, in a random order, with random
/// payloads of 0..12 bytes. Returns the table and the payload body.
fn valid_layout(rng: &mut Rng) -> (Vec<Entry>, Vec<u8>) {
    let mut order: Vec<Sec> = Sec::ALL.to_vec();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i + 1));
    }
    let start = table_end(order.len());
    let mut body = Vec::new();
    let entries = order
        .iter()
        .map(|s| {
            let len = rng.below(12);
            let payload = rng.bytes(len);
            let e = Entry {
                id: s.id(),
                offset: start + body.len(),
                len: payload.len(),
                checksum: fnv1a64(&payload),
            };
            body.extend_from_slice(&payload);
            e
        })
        .collect();
    (entries, body)
}

fn parse(bytes: &[u8]) -> Result<Vec<Range<usize>>, FrameError> {
    container::parse::<Sec>(bytes, MAGIC, VERSION)
}

/// Independent statement of the layout rule: ids a permutation of the
/// known set, payloads back to back from the end of the table to the
/// end of the file, checksums matching.
fn oracle_accepts(entries: &[Entry], file: &[u8]) -> bool {
    let mut ids: Vec<u16> = entries.iter().map(|e| e.id).collect();
    ids.sort_unstable();
    let mut next = table_end(entries.len());
    for e in entries {
        if e.offset != next || e.offset + e.len > file.len() {
            return false;
        }
        if fnv1a64(&file[e.offset..e.offset + e.len]) != e.checksum {
            return false;
        }
        next += e.len;
    }
    ids == [1, 2, 3, 4] && next == file.len()
}

#[test]
fn generated_tables_parse_or_fail_typed() {
    let mut rng = Rng(0x5EED);
    let mut seen = [0u32; 7];
    for case in 0..CASES {
        let (mut entries, mut body) = valid_layout(&mut rng);
        let good = assemble(&entries, &body);
        let ranges = parse(&good).unwrap_or_else(|e| panic!("case {case}: valid layout: {e:?}"));
        for (range, s) in ranges.iter().zip(Sec::ALL) {
            let e = entries.iter().find(|e| e.id == s.id()).expect("every section present");
            assert_eq!(*range, e.offset..e.offset + e.len, "case {case}");
        }

        let kind = rng.below(seen.len());
        seen[kind] += 1;
        let n = entries.len();
        let (bad, want): (Vec<u8>, Option<FrameError>) = match kind {
            // Bytes after the last payload.
            0 => {
                let len = 1 + rng.below(16);
                let tail = rng.bytes(len);
                body.extend_from_slice(&tail);
                let want = FrameError::Malformed("trailing bytes after last section");
                (assemble(&entries, &body), Some(want))
            }
            // A gap: junk bytes before payload i, later offsets shifted.
            1 => {
                let i = rng.below(n);
                let gap = 1 + rng.below(8);
                let at = entries[i].offset - table_end(n);
                body.splice(at..at, rng.bytes(gap));
                for e in &mut entries[i..] {
                    e.offset += gap;
                }
                (assemble(&entries, &body), Some(NOT_CONTIGUOUS))
            }
            // An overlap: payload i starts inside payload i-1.
            2 => {
                let Some(i) = (1..n).find(|&i| entries[i - 1].len > 0) else { continue };
                let back = 1 + rng.below(entries[i - 1].len);
                let file = assemble(&entries, &body);
                let e = &mut entries[i];
                e.offset -= back;
                e.checksum = fnv1a64(&file[e.offset..e.offset + e.len]);
                (assemble(&entries, &body), Some(NOT_CONTIGUOUS))
            }
            // Out of order: two non-empty payloads swap places in the
            // body while the table keeps its order (checksums valid).
            3 => {
                let nonempty: Vec<usize> = (0..n).filter(|&i| entries[i].len > 0).collect();
                if nonempty.len() < 2 {
                    continue;
                }
                let (i, j) = (nonempty[0], nonempty[nonempty.len() - 1]);
                let payloads: Vec<Vec<u8>> = entries
                    .iter()
                    .map(|e| body[e.offset - table_end(n)..][..e.len].to_vec())
                    .collect();
                let mut physical: Vec<usize> = (0..n).collect();
                physical.swap(i, j);
                body.clear();
                for &k in &physical {
                    entries[k].offset = table_end(n) + body.len();
                    body.extend_from_slice(&payloads[k]);
                }
                (assemble(&entries, &body), Some(NOT_CONTIGUOUS))
            }
            // A duplicated id (layout otherwise intact).
            4 => {
                let i = rng.below(n);
                let j = (i + 1 + rng.below(n - 1)) % n;
                entries[j].id = entries[i].id;
                (assemble(&entries, &body), Some(FrameError::Malformed("duplicate section id")))
            }
            // Several bytes corrupted at once, anywhere in the file.
            5 => {
                let mut bad = good.clone();
                let mut hit = Vec::new();
                while hit.len() < 2 + rng.below(7) {
                    let at = rng.below(bad.len());
                    if !hit.contains(&at) {
                        bad[at] ^= 1 + rng.below(255) as u8;
                        hit.push(at);
                    }
                }
                (bad, None)
            }
            // A random table over a random body, judged by the oracle.
            _ => {
                let count = 1 + rng.below(6);
                let len = rng.below(40);
                let body = rng.bytes(len);
                let file_len = table_end(count) + body.len();
                let mut table: Vec<Entry> = (0..count)
                    .map(|_| Entry {
                        id: rng.below(6) as u16,
                        offset: rng.below(file_len + 4),
                        len: rng.below(16),
                        checksum: 0,
                    })
                    .collect();
                let file = assemble(&table, &body);
                for e in &mut table {
                    if e.offset + e.len <= file.len() {
                        e.checksum = fnv1a64(&file[e.offset..e.offset + e.len]);
                    }
                }
                let file = assemble(&table, &body);
                let accepted = parse(&file).is_ok();
                assert_eq!(accepted, oracle_accepts(&table, &file), "case {case}: {table:?}");
                continue;
            }
        };
        match (parse(&bad), want) {
            (Ok(r), _) => panic!("case {case} kind {kind}: damaged container parsed to {r:?}"),
            (Err(got), Some(want)) => assert_eq!(got, want, "case {case} kind {kind}"),
            (Err(_), None) => {}
        }
    }
    assert!(seen.iter().all(|&k| k > CASES as u32 / 10), "every damage kind exercised: {seen:?}");
}
