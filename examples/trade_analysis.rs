//! Trade analysis — the paper's worked Query 1 example (Figures 1–3) on a
//! synthetic World-Factbook-like corpus, driven through the typed session
//! facade: every stage-dependent call returns a `Result<_, SedaError>`.
//!
//! The user looks for import partners of the United States and their trade
//! percentages, refines the contexts to import partners, materialises the
//! complete result, and obtains the Figure 3(c) fact and dimension tables
//! plus OLAP aggregations.
//!
//! Run with `cargo run --example trade_analysis` (set
//! `SEDA_FACTBOOK_COUNTRIES=267` for the paper-scale corpus).

use seda_core::{EngineConfig, SedaEngine, SedaSession};
use seda_datagen::{factbook, FactbookConfig};
use seda_olap::{AggFn, BuildOptions, CubeQuery, Registry};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let countries: usize =
        std::env::var("SEDA_FACTBOOK_COUNTRIES").ok().and_then(|s| s.parse().ok()).unwrap_or(60);
    let collection = factbook::generate(&FactbookConfig::paper_scaled(countries, 6))?;
    println!(
        "corpus: {} documents, {} nodes, {} distinct paths",
        collection.len(),
        collection.total_nodes(),
        collection.distinct_path_count()
    );

    let engine =
        SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())?;
    let mut session = SedaSession::new(&engine);
    session.set_k(10);

    // Step 1: keyword-style query.
    session.submit_text(r#"(*, "United States") AND (trade_country, *) AND (percentage, *)"#)?;
    let summary = session.context_summary()?.clone();
    println!("\n-- context summary --");
    for bucket in &summary.buckets {
        println!("{} ({} contexts)", bucket.label, bucket.entries.len());
        for line in bucket.display(engine.collection()).iter().take(4) {
            println!("   {line}");
        }
    }
    if let Some(profile) = session.last_profile() {
        println!("\n{}", profile.render());
    }

    // Step 2: the user selects the import-partner contexts (Figure 5).
    // Paths resolve through the typed facade: a typo would surface as
    // `SedaError::UnknownPath` instead of a panic.
    let name = engine.resolve_path("/country/name")?;
    let tc = engine.resolve_path("/country/economy/import_partners/item/trade_country")?;
    let pct = engine.resolve_path("/country/economy/import_partners/item/percentage")?;
    session.select_contexts(0, vec![name])?;
    session.select_contexts(1, vec![tc])?;
    session.select_contexts(2, vec![pct])?;

    // Step 3: connection summary — keep the same-item connection only.
    let connections = session.connection_summary()?.clone();
    println!("\n-- connection summary --");
    for line in connections.display(engine.collection()).iter().take(5) {
        println!("   {line}");
    }
    let same_item: Vec<_> =
        connections.connections.iter().filter(|conn| conn.length() == 2).cloned().collect();
    session.select_connections(same_item)?;

    // Step 4: complete results and the star schema (Figure 3).
    let complete_len = session.complete_results()?.len();
    println!("\ncomplete result tuples: {complete_len}");
    let build = session.build_cube(&BuildOptions::default())?;
    println!("matched dimensions: {:?}", build.matching.dimensions);
    println!("matched facts     : {:?}", build.matching.facts);

    let Some(fact) = build.schema.fact("import-trade-percentage") else {
        return Err("fact table import-trade-percentage was not derived".into());
    };
    println!("\n-- Figure 3(c): fact table (United States rows) --");
    println!("{:<16} {:<6} {:<14} {:>10}", "country", "year", "import-country", "percentage");
    for row in fact.rows().filter(|r| r.dimension(0) == "United States") {
        println!(
            "{:<16} {:<6} {:<14} {:>10}",
            row.dimension(0),
            row.dimension(1),
            row.dimension(2),
            row.measure(0)
        );
    }
    for dim in &build.schema.dimension_tables {
        println!("dimension {:<16} {} members", dim.name, dim.len());
    }

    // Step 5: OLAP.
    let by_partner = session.aggregate(
        "import-trade-percentage",
        &CubeQuery::sum(&["import-country"], "import-trade-percentage").with_agg(AggFn::Avg),
    )?;
    println!("\naverage US import share by partner (top 5):");
    let mut cells = by_partner.cells.clone();
    cells.sort_by(|a, b| b.value.total_cmp(&a.value));
    for cell in cells.iter().take(5) {
        println!("  {:<14} {:>6.2}%", cell.coordinates[0], cell.value);
    }
    Ok(())
}
