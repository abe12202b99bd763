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
//! The optional scale factor (default `0.1`, a fraction of paper scale in
//! `(0, 1]`) is forwarded to [`Dataset::generate_scaled`]; anything else exits
//! with code 2.  Exits 1 when any corpus fails its audit, printing every
//! violation as `substrate/invariant: detail`.

use std::process::ExitCode;

use seda_core::{EngineConfig, SedaEngine, Stopwatch};
use seda_datagen::Dataset;
use seda_olap::Registry;

/// The corpus scale named by the first argument (default `0.1`).
fn parse_scale(arg: Option<&str>) -> Result<f64, String> {
    let Some(text) = arg else { return Ok(0.1) };
    match text.parse::<f64>() {
        Ok(scale) if scale > 0.0 && scale <= 1.0 => Ok(scale),
        _ => Err(format!("scale must be a number in (0, 1], got {text:?}")),
    }
}

fn main() -> ExitCode {
    let scale = match parse_scale(std::env::args().nth(1).as_deref()) {
        Ok(scale) => scale,
        Err(problem) => {
            eprintln!("audit: {problem}");
            return ExitCode::from(2);
        }
    };

    let mut failures = 0usize;
    println!(
        "seda audit @ scale {scale}: xmlstore, textindex, datagraph, dataguide, metrics, core"
    );
    for dataset in Dataset::ALL {
        let built = dataset.generate_scaled(scale).map_err(Into::into).and_then(|collection| {
            SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())
        });
        let engine = match built {
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
                engine.collection().len(),
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

#[cfg(test)]
mod tests {
    use super::parse_scale;

    #[test]
    fn scales_outside_the_unit_interval_are_rejected_not_clamped() {
        assert_eq!(parse_scale(None), Ok(0.1));
        assert_eq!(parse_scale(Some("1")), Ok(1.0));
        assert_eq!(parse_scale(Some("0.005")), Ok(0.005));
        for bad in ["7", "1.0001", "0", "-0.5", "nan", "inf", "abc", ""] {
            assert!(parse_scale(Some(bad)).is_err(), "{bad:?} must be rejected");
        }
    }
}
