//! Power-user search features of the underlying engine: phrase queries,
//! boolean operators, and index persistence (write a segment file,
//! reopen it, identical results — no re-indexing on restart).
//!
//! ```text
//! cargo run --release --example power_search
//! ```

use pws::eval::{ExperimentSpec, ExperimentWorld};
use pws::index::{Segment, SegmentBuilder, SegmentedIndex};

fn main() {
    let world = ExperimentWorld::build(ExperimentSpec::small());
    let engine = &world.engine;

    // Pick a multi-word city so the phrase query is meaningful.
    let city = world
        .world
        .cities()
        .find(|&c| world.world.name(c).contains(' '))
        .expect("small world has multi-word city names");
    let city_name = world.world.name(city).to_string();

    println!("── structured queries ──");
    for q in [
        format!("\"{city_name}\""),
        format!("restaurant AND \"{city_name}\""),
        "seafood OR sushi".to_string(),
        "restaurant AND NOT buffet".to_string(),
        "(hotel OR resort) AND booking".to_string(),
    ] {
        match engine.search_expr(&q, 5) {
            Ok(hits) => {
                println!("\n{q}  →  {} hits", hits.len());
                for h in hits.iter().take(3) {
                    println!("  {}. {}", h.rank, h.title);
                }
            }
            Err(e) => println!("\n{q}  →  {e}"),
        }
    }

    // Malformed queries fail cleanly.
    println!("\n── error handling ──");
    for bad in ["\"unterminated", "AND", "(open"] {
        println!("{bad:?} → {}", engine.search_expr(bad, 5).unwrap_err());
    }

    // Persistence: write a segment file, reopen it, verify identity.
    println!("\n── persistence ──");
    let mut builder = SegmentBuilder::new(Default::default());
    for d in &world.corpus.docs {
        builder.add(&d.url, &d.title, &d.body);
    }
    let path = std::env::temp_dir().join(format!("power-search-{}.pwsseg", std::process::id()));
    builder.finish_segment().expect("segment build").write_file(&path).expect("segment write");
    let segment = Segment::open(&path).expect("segment open");
    let _ = std::fs::remove_file(&path);
    println!(
        "wrote {} docs / {} terms into a {} KiB segment file",
        segment.doc_count(),
        segment.term_dfs().count(),
        segment.file_bytes().len() / 1024
    );
    let reloaded = SegmentedIndex::from_segments(vec![segment]).expect("index");
    let q = "seafood restaurant";
    let a = engine.search(q, 10);
    let b = reloaded.search(q, 10);
    assert_eq!(
        a.iter().map(|h| h.doc).collect::<Vec<_>>(),
        b.iter().map(|h| h.doc).collect::<Vec<_>>()
    );
    println!("reopened segment returns identical results for {q:?} ✓");
}
