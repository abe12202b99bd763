//! Quickstart: load a handful of XML documents, run a SEDA query through the
//! unified request → plan → response facade, inspect the summaries, and
//! derive a data cube — the Figure 6 control flow in ~60 lines.
//!
//! Run with `cargo run --example quickstart`.

use seda_core::{EngineConfig, SedaEngine, SedaSession};
use seda_olap::{BuildOptions, CubeQuery, Registry};
use seda_xmlstore::parse_collection;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. An XML collection (normally loaded from files; see seda-datagen for
    //    paper-scale corpora).
    let collection = parse_collection(vec![
        (
            "us2006.xml",
            r#"<country><name>United States</name><year>2006</year>
                 <economy><GDP_ppp>12.31T</GDP_ppp><import_partners>
                   <item><trade_country>China</trade_country><percentage>15</percentage></item>
                   <item><trade_country>Canada</trade_country><percentage>16.9</percentage></item>
                 </import_partners></economy></country>"#,
        ),
        (
            "us2005.xml",
            r#"<country><name>United States</name><year>2005</year>
                 <economy><GDP_ppp>12.0T</GDP_ppp><import_partners>
                   <item><trade_country>China</trade_country><percentage>13.8</percentage></item>
                   <item><trade_country>Mexico</trade_country><percentage>10.3</percentage></item>
                 </import_partners></economy></country>"#,
        ),
        (
            "mexico2003.xml",
            r#"<country><name>Mexico</name><year>2003</year>
                 <economy><GDP>924.4B</GDP><export_partners>
                   <item><trade_country>United States</trade_country><percentage>70.6</percentage></item>
                 </export_partners></economy></country>"#,
        ),
    ])?;

    // 2. Build the engine: data graph and full-text indexes.  Table 1's
    //    dataguide statistics are derived on request.
    let engine =
        SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())?;
    println!("dataguides: {:?}", engine.dataguide_stats()?);

    // 3. Plan before running: EXPLAIN shows what the engine will do.
    let query_text = r#"(*, "United States") AND (trade_country, *) AND (percentage, *)"#;
    let mut reader = engine.reader();
    let explained = reader.execute_text(&format!("EXPLAIN TOPK 10 FOR {query_text}"))?;
    if let Some(transcript) = explained.explain_transcript() {
        println!("\n{transcript}");
    }

    // 4. Search: the paper's Query 1 through a session.
    let mut session = SedaSession::new(&engine);
    let top_k = session.submit_text(query_text)?;
    println!("top-{} tuples:", top_k.tuples.len());
    for tuple in &top_k.tuples {
        let contents: Vec<String> = tuple
            .nodes
            .iter()
            .map(|&n| engine.collection().content(n).unwrap_or_default())
            .collect();
        println!("  score {:.3}  {:?}", tuple.score, contents);
    }

    // 5. Explore: context summary (which contexts does each term match?).
    let summary = session.context_summary()?;
    for bucket in &summary.buckets {
        println!("\ncontexts for {}:", bucket.label);
        for line in bucket.display(engine.collection()) {
            println!("  {line}");
        }
    }

    // 6. Discover: connection summary from the top-k results.
    let connections = session.connection_summary()?;
    println!("\nconnections:");
    for line in connections.display(engine.collection()) {
        println!("  {line}");
    }

    // 7. Refine: pin every term to the import-partner contexts (the step a
    //    user performs in the Fig. 5 GUI) so the star schema matches cleanly.
    session.select_contexts(0, vec![engine.resolve_path("/country/name")?])?;
    session.select_contexts(
        1,
        vec![engine.resolve_path("/country/economy/import_partners/item/trade_country")?],
    )?;
    session.select_contexts(
        2,
        vec![engine.resolve_path("/country/economy/import_partners/item/percentage")?],
    )?;

    // 8. Analyze: derive the star schema and aggregate.
    let build = session.build_cube(&BuildOptions::default())?;
    println!("\nwarnings: {:?}", build.warnings);
    if let Some(fact) = build.schema.fact("import-trade-percentage") {
        println!("\nfact table {} ({} rows):", fact.name, fact.len());
        for row in fact.rows() {
            let dimensions: Vec<&str> = row.dimensions().collect();
            println!("  {dimensions:?} -> {:?}", row.measure(0));
        }
    }
    let cube = session.aggregate(
        "import-trade-percentage",
        &CubeQuery::sum(&["import-country"], "import-trade-percentage"),
    )?;
    println!("\ntotal import percentage by partner:");
    for cell in &cube.cells {
        println!("  {:<12} {:>6.1} (from {} rows)", cell.coordinates[0], cell.value, cell.count);
    }
    Ok(())
}
