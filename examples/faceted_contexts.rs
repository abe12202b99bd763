//! Faceted context exploration — the Figure 8 keyword→path index in action,
//! together with the in-text statistics of Sec. 1/5: the long tail of rare
//! paths, the 27 contexts matching "United States", and `/country` occurring
//! in almost (but not exactly) every document.
//!
//! Context buckets are served through the facade's `CONTEXTS` statement; the
//! raw index is only touched for the Fig. 8 tag-probe variant.
//!
//! Run with `cargo run --release --example faceted_contexts`.

use seda_core::{EngineConfig, SedaEngine};
use seda_datagen::{factbook, FactbookConfig};
use seda_olap::Registry;
use seda_textindex::FullTextQuery;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let countries: usize =
        std::env::var("SEDA_FACTBOOK_COUNTRIES").ok().and_then(|s| s.parse().ok()).unwrap_or(100);
    let corpus = factbook::generate(&FactbookConfig::paper_scaled(countries, 6))?;
    let engine = SedaEngine::build(corpus, Registry::new(), EngineConfig::default())?;
    let collection = engine.collection();

    println!(
        "corpus: {} documents, {} distinct paths (paper: 1600 documents, 1984 paths)",
        collection.len(),
        collection.distinct_path_count()
    );

    // The context bucket of the term (*, "United States"), through the
    // unified facade.
    let mut reader = engine.reader();
    let response = reader.execute_text(r#"CONTEXTS FOR (*, "United States")"#)?;
    let Some(summary) = response.contexts() else {
        return Err("CONTEXTS request must return a context summary".into());
    };
    let Some(bucket) = summary.bucket(0) else {
        return Err("one bucket per query term".into());
    };
    println!(
        "\n\"United States\" occurs in {} distinct contexts (paper: 27); top 10 by path frequency:",
        bucket.entries.len()
    );
    for entry in bucket.entries.iter().take(10) {
        println!(
            "  {:<65} freq {:>6}  in {:>5} docs",
            collection.path_string(entry.path),
            entry.frequency,
            entry.document_frequency
        );
    }
    println!("{}", response.profile.render());

    // Prominent vs rare paths: the long tail.
    let freq = collection.path_document_frequency();
    let country = engine.resolve_path("/country")?;
    println!(
        "\n/country occurs in {} of {} documents (paper: 1577 of 1600)",
        freq.get(&country).copied().unwrap_or(0),
        collection.len()
    );
    let mut tail: Vec<(usize, String)> =
        freq.iter().map(|(p, f)| (*f, collection.path_string(*p))).collect();
    tail.sort();
    println!("\nfive rarest paths (long tail):");
    for (f, p) in tail.iter().take(5) {
        println!("  {f:>4} docs  {p}");
    }
    let singletons = tail.iter().filter(|(f, _)| *f == 1).count();
    println!(
        "{singletons} of {} distinct paths occur in a single document — shredding all of them \
         into a fixed warehouse schema would be hopeless, which is the paper's motivation.",
        tail.len()
    );

    // Tag-probed bucket (Fig. 8), as used when a query term carries a
    // context: the paths ending in the tag restrict the bucket.  This reads
    // the index substrate the facade plans over.
    let leaf = collection.symbols().get("trade_country").ok_or("no trade_country tag")?;
    let allowed = collection.paths().paths_with_leaf(leaf);
    let tagged = engine.context_index().context_bucket(&FullTextQuery::Any, Some(&allowed));
    println!("\ncontexts with leaf tag trade_country:");
    for entry in &tagged {
        println!("  {:<65} freq {:>6}", collection.path_string(entry.path), entry.frequency);
    }
    Ok(())
}
