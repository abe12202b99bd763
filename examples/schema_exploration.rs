//! Schema exploration — reproduces Table 1 of the paper: dataguide statistics
//! at a 40% overlap threshold over the four (synthetic) data sets, plus the
//! threshold-sweep ablation the paper discusses in Sec. 6.1.
//!
//! Table 1 rows come from fully built engines (`SedaEngine::dataguide_stats`,
//! the same summary the query facade plans over); the threshold sweep probes
//! the dataguide substrate directly, since it varies a build-time parameter.
//!
//! Run with `cargo run --release --example schema_exploration`
//! (set `SEDA_TABLE1_SCALE=1.0` for paper-sized corpora).

use seda_core::{EngineConfig, SedaEngine};
use seda_datagen::Dataset;
use seda_dataguide::DataGuideSet;
use seda_olap::Registry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale: f64 =
        std::env::var("SEDA_TABLE1_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(0.2);

    println!("Table 1: Dataguide statistics for threshold of 40% (corpus scale {scale})\n");
    println!(
        "{:<26} {:>12} {:>14} {:>22}",
        "data set", "# documents", "# data guides", "(paper docs -> guides)"
    );
    for dataset in Dataset::ALL {
        let collection = dataset.generate_scaled(scale)?;
        let engine = SedaEngine::build(collection, Registry::new(), EngineConfig::default())?;
        let stats = engine.dataguide_stats();
        println!(
            "{:<26} {:>12} {:>14} {:>15} -> {}",
            dataset.name(),
            stats.documents,
            stats.dataguides,
            dataset.paper_document_count(),
            dataset.paper_dataguide_count()
        );
    }

    println!("\nReduction factor vs overlap threshold (Sec. 6.1 ablation):\n");
    println!("{:<26} {:>8} {:>8} {:>8} {:>8} {:>8}", "data set", "0.0", "0.2", "0.4", "0.6", "0.8");
    for dataset in Dataset::ALL {
        let collection = dataset.generate_scaled(scale.min(0.1))?;
        let mut cells = Vec::new();
        for threshold in [0.0, 0.2, 0.4, 0.6, 0.8] {
            let guides = DataGuideSet::build(&collection, threshold)?;
            cells.push(format!("{:.1}x", collection.len() as f64 / guides.len() as f64));
        }
        println!(
            "{:<26} {:>8} {:>8} {:>8} {:>8} {:>8}",
            dataset.name(),
            cells[0],
            cells[1],
            cells[2],
            cells[3],
            cells[4]
        );
    }
    Ok(())
}
