//! Unified API — the whole Fig. 4 pipeline (top-k search, context summary,
//! connection summary, complete results, cube processing) driven from
//! textual requests through one `SedaReader`, ending with the paper's
//! Query 1 cube computed by a single `CUBE … FOR …` statement.  Along the
//! way: a prepared statement (plan once, execute many) and its plan
//! transcript.
//!
//! Run with `cargo run --release --example unified_api`.

use seda_core::{EngineConfig, SedaEngine, SedaRequest};
use seda_datagen::{factbook, FactbookConfig};
use seda_olap::Registry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let collection = factbook::generate(&FactbookConfig::paper_scaled(40, 3))?;
    let engine =
        SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())?;
    let mut reader = engine.reader();

    let query = r#"(*, "United States") AND (trade_country, *) AND (percentage, *)"#;
    let refinements = "WITH 0 IN /country/name \
                       WITH 1 IN /country/economy/import_partners/item/trade_country \
                       WITH 2 IN /country/economy/import_partners/item/percentage";

    // 1. Search: top-k tuples.
    let response = reader.execute_text(&format!("TOPK 5 FOR {query}"))?;
    if let Some(top_k) = response.top_k() {
        println!("== TOPK 5 ==");
        for tuple in &top_k.tuples {
            let contents: Vec<String> = tuple
                .nodes
                .iter()
                .map(|&n| engine.collection().content(n).unwrap_or_default())
                .collect();
            println!("  score {:.3}  {:?}", tuple.score, contents);
        }
        println!("{}", response.profile.render());
    }

    // 1b. Serve: prepare the same statement once and re-execute it.
    //     Re-executions skip parsing, planning and sorted-access resolution;
    //     the join runs as a cold one does and returns the same payload.
    let request = SedaRequest::parse(&format!("TOPK 5 FOR {query}"))?;
    let mut prepared = reader.prepare(&request)?;
    let mut last = None;
    for _ in 0..3 {
        last = Some(prepared.execute(&mut reader)?);
    }
    let same = last.is_some_and(|reused| reused.payload == response.payload);
    println!(
        "\n== PREPARED == {} executions, payload identical to the cold run: {same}",
        prepared.executions()
    );
    print!("{}", prepared.explain());

    // 2. Explore: context summary.
    let response = reader.execute_text(&format!("CONTEXTS FOR {query}"))?;
    if let Some(summary) = response.contexts() {
        println!("\n== CONTEXTS ==");
        for bucket in &summary.buckets {
            println!("  {} -> {} context(s)", bucket.label, bucket.entries.len());
        }
    }

    // 3. Discover: connection summary.
    let response = reader.execute_text(&format!("CONNECTIONS 5 FOR {query}"))?;
    if let Some(summary) = response.connections() {
        println!("\n== CONNECTIONS ==");
        for line in summary.display(engine.collection()).iter().take(4) {
            println!("  {line}");
        }
    }

    // 4. Materialise: the complete result set for the refined query.
    let response = reader.execute_text(&format!("RESULTS FOR {query} {refinements}"))?;
    if let Some(table) = response.table() {
        println!("\n== RESULTS == {} tuple(s)", table.len());
    }

    // 5. Analyze: the whole pipeline from one textual request — complete
    //    results, star-schema derivation, cube aggregation.  EXPLAIN first.
    let cube_text =
        format!("CUBE import-trade-percentage BY import-country AGG sum FOR {query} {refinements}");
    let request = SedaRequest::parse(&format!("EXPLAIN {cube_text}"))?;
    if let Some(transcript) = reader.execute(&request)?.explain_transcript() {
        println!("\n{transcript}");
    }
    let response = reader.execute_text(&cube_text)?;
    if let Some(cube) = response.cube() {
        println!("== CUBE == total import percentage by partner:");
        let mut cells = cube.cells.clone();
        cells.sort_by(|a, b| b.value.total_cmp(&a.value));
        for cell in cells.iter().take(8) {
            println!(
                "  {:<14} {:>8.1} (from {} fact rows)",
                cell.coordinates[0], cell.value, cell.count
            );
        }
        println!("{}", response.profile.render());
    }
    Ok(())
}
