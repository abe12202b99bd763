//! `seda-bench audit` — builds a SEDA engine over every datagen corpus shape
//! and runs the full structural audit ([`seda_core::SedaEngine::verify`])
//! against each, printing the per-corpus verification cost.
//!
//! `SedaEngine::build` already audits the freshly built engine (the cost is
//! the `verify_ms` row of [`seda_core::BuildProfile`]); this binary re-runs
//! the audit explicitly so CI exercises `verify()` on a *settled* engine too,
//! and so the invariant catalog has a one-command smoke check:
//!
//! ```text
//! cargo run --release -p seda-bench --bin audit [-- <scale>]
//! ```
//!
//! The optional scale factor (default `0.1`) is forwarded to
//! [`seda_bench::scaled_collection`].  Exits non-zero when any corpus fails
//! its audit, printing every [`seda_xmlstore::audit::InvariantViolation`] as
//! `substrate/invariant: detail`.

use std::process::ExitCode;

use seda_bench::scaled_collection;
use seda_core::{EngineConfig, SedaEngine, Stopwatch};
use seda_datagen::Dataset;
use seda_olap::Registry;

fn main() -> ExitCode {
    let scale: f64 = match std::env::args().nth(1).map(|s| s.parse()) {
        None => 0.1,
        Some(Ok(scale)) => scale,
        Some(Err(err)) => {
            eprintln!("audit: scale must be a number: {err}");
            return ExitCode::from(2);
        }
    };

    let mut failures = 0usize;
    println!(
        "seda audit @ scale {scale}: xmlstore, textindex, datagraph, dataguide, metrics, core"
    );
    for dataset in Dataset::ALL {
        let collection = scaled_collection(dataset, scale);
        let documents = collection.len();
        let engine = match SedaEngine::build(
            collection,
            Registry::factbook_defaults(),
            EngineConfig::default(),
        ) {
            Ok(engine) => engine,
            Err(err) => {
                // Build-time audit failures surface here as SedaError::Internal.
                println!("  {:<22} BUILD FAILED: {err}", dataset.name());
                failures += 1;
                continue;
            }
        };
        let settled = Stopwatch::start();
        let audit = engine.verify();
        let settled_ms = settled.elapsed_secs() * 1e3;
        match audit {
            Ok(()) => println!(
                "  {:<22} ok   {:>5} docs   build-audit {:>7.2}ms   settled-audit {:>7.2}ms",
                dataset.name(),
                documents,
                engine.build_profile().verify_ms,
                settled_ms,
            ),
            Err(violations) => {
                println!("  {:<22} FAILED ({} violations)", dataset.name(), violations.len());
                for v in &violations {
                    println!("    {}/{}: {}", v.substrate, v.invariant, v.detail);
                }
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("audit: {failures} corpus audit(s) failed");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
