//! Emits the machine-readable pipeline benchmark report
//! (`BENCH_pipeline.json`): full request → response latency of the unified
//! query facade, per dataset and per statement.
//!
//! Every measurement is one textual request (`TOPK`, `CONTEXTS`,
//! `CONNECTIONS`, and for the factbook workload `RESULTS` and `CUBE`)
//! planned and executed through a `SedaReader` over `BENCH_REPS` (default 30)
//! timed reps, so the numbers include parsing, planning, context resolution
//! and execution — what a serving deployment would observe — with p50/p95/p99
//! columns over the reps.  Each statement appears twice: a `"cold"` row
//! (full request → response per rep) and a `"prepared"` row (planned once
//! via `SedaReader::prepare`, warm re-executions of the prepared plan),
//! so the prepared-statement speedup is part of the committed trajectory.  The committed `BENCH_pipeline.json` at the repo
//! root keeps one entry per PR so the bench trajectory is reviewable; CI
//! compiles this binary and validates the committed report's schema with
//! `--check`.
//!
//! Usage:
//! - `cargo run --release -p seda-bench --bin bench_pipeline [-- <out.json>]`
//!   (default output path `BENCH_pipeline.json`; `BENCH_LABEL` tags the run,
//!   `BENCH_REPS` overrides the rep count).
//! - `cargo run -p seda-bench --bin bench_pipeline -- --check [<report.json>]`
//!   validates an existing report against the schema without re-measuring,
//!   failing on any missing key or absent workload — so schema drift between
//!   the emitter and the committed artefact is caught in CI.

use std::process::ExitCode;
use std::time::Instant;

use seda_bench::{measure_pipeline, topk_workloads, PipelineMeasurement};

/// Keys every run row of the report must carry.  `perf_smoke` line-parses
/// `wall_ms` and the BENCH review workflow reads the quantile columns, so a
/// report missing any of these is a broken artefact.
const RUN_KEYS: &[&str] = &[
    "workload",
    "statement",
    "mode",
    "request",
    "rows",
    "wall_ms",
    "p50_ms",
    "p95_ms",
    "p99_ms",
    "reps",
    "plan_ms",
    "sorted_accesses",
    "random_accesses",
    "label_probes",
    "budget_spent",
    "degraded",
];

/// Keys every build row must carry.
const BUILD_KEYS: &[&str] = &["workload", "documents", "build_s", "verify_ms"];

/// Workloads the report must cover.
const WORKLOADS: &[&str] = &["googlebase", "mondial", "factbook", "recipeml"];

/// Validates the line-per-object report shape; returns every problem found.
fn check_report(report: &str) -> Vec<String> {
    let mut problems = Vec::new();
    for top in ["\"label\":", "\"builds\":", "\"runs\":"] {
        if !report.contains(top) {
            problems.push(format!("missing top-level key {top}"));
        }
    }
    let mut runs = 0usize;
    let mut builds = 0usize;
    for (n, line) in report.lines().enumerate() {
        let (keys, kind) = if line.contains("\"statement\":") {
            runs += 1;
            (RUN_KEYS, "run")
        } else if line.contains("\"build_s\":") {
            builds += 1;
            (BUILD_KEYS, "build")
        } else {
            continue;
        };
        for key in keys {
            if !line.contains(&format!("\"{key}\":")) {
                problems.push(format!("line {}: {kind} row is missing \"{key}\"", n + 1));
            }
        }
    }
    if runs == 0 {
        problems.push("report has no run rows".to_string());
    }
    if builds == 0 {
        problems.push("report has no build rows".to_string());
    }
    for workload in WORKLOADS {
        if !report.contains(&format!("\"workload\": \"{workload}\"")) {
            problems.push(format!("report covers no \"{workload}\" workload"));
        }
    }
    problems
}

fn run_check(path: &str) -> ExitCode {
    let report = match std::fs::read_to_string(path) {
        Ok(report) => report,
        Err(err) => {
            eprintln!("bench_pipeline --check: cannot read {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let problems = check_report(&report);
    if problems.is_empty() {
        println!("bench_pipeline --check: {path} conforms to the report schema");
        ExitCode::SUCCESS
    } else {
        for problem in &problems {
            eprintln!("bench_pipeline --check: {path}: {problem}");
        }
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--check") {
        let path = args.get(1).cloned().unwrap_or_else(|| "BENCH_pipeline.json".to_string());
        return run_check(&path);
    }
    let out_path = args.first().cloned().unwrap_or_else(|| "BENCH_pipeline.json".to_string());
    let label = std::env::var("BENCH_LABEL").unwrap_or_else(|_| "local".to_string());

    let started = Instant::now();
    let mut measurements: Vec<PipelineMeasurement> = Vec::new();
    let mut builds: Vec<String> = Vec::new();
    for workload in topk_workloads() {
        eprintln!("workload {} ({} docs) ...", workload.name, workload.engine.collection().len());
        // The build-time structural audit cost (BuildProfile::verify_ms) is
        // part of the committed report so audit-cost regressions are
        // reviewable alongside the query latencies.
        let profile = workload.engine.build_profile();
        builds.push(format!(
            "    {{\"workload\": {:?}, \"documents\": {}, \"build_s\": {:.3}, \
             \"verify_ms\": {:.3}}}",
            workload.name, profile.documents, profile.total_secs, profile.verify_ms,
        ));
        measurements.extend(measure_pipeline(&workload));
    }

    let mut json = String::from("{\n");
    json.push_str(&format!("  \"label\": {:?},\n", label));
    json.push_str("  \"builds\": [\n");
    json.push_str(&builds.join(",\n"));
    json.push_str("\n  ],\n");
    json.push_str("  \"runs\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        json.push_str(&m.to_json("    "));
        json.push_str(if i + 1 < measurements.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&out_path, &json).expect("write bench report");
    println!("{json}");
    eprintln!("wrote {out_path} in {:.1}s", started.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::check_report;

    #[test]
    fn check_flags_missing_keys_and_workloads() {
        let good = concat!(
            "{\n  \"label\": \"x\",\n  \"builds\": [\n",
            "    {\"workload\": \"googlebase\", \"documents\": 1, \"build_s\": 0.1, \"verify_ms\": 0.1}\n",
            "  ],\n  \"runs\": [\n",
            "    {\"workload\": \"googlebase\", \"statement\": \"TOPK\", \"mode\": \"cold\", \"request\": \"r\",",
            "\"rows\": 1, \"wall_ms\": 0.1, \"p50_ms\": 0.1, \"p95_ms\": 0.1, \"p99_ms\": 0.1, ",
            "\"reps\": 30, \"plan_ms\": 0.0, \"sorted_accesses\": 1, \"random_accesses\": 1, ",
            "\"label_probes\": 1, \"budget_spent\": 1, \"degraded\": false},\n",
            "    {\"workload\": \"mondial\", \"statement\": \"TOPK\", \"mode\": \"cold\", \"request\": \"r\",",
            "\"rows\": 1, \"wall_ms\": 0.1, \"p50_ms\": 0.1, \"p95_ms\": 0.1, \"p99_ms\": 0.1, ",
            "\"reps\": 30, \"plan_ms\": 0.0, \"sorted_accesses\": 1, \"random_accesses\": 1, ",
            "\"label_probes\": 1, \"budget_spent\": 1, \"degraded\": false},\n",
            "    {\"workload\": \"factbook\", \"statement\": \"TOPK\", \"mode\": \"cold\", \"request\": \"r\",",
            "\"rows\": 1, \"wall_ms\": 0.1, \"p50_ms\": 0.1, \"p95_ms\": 0.1, \"p99_ms\": 0.1, ",
            "\"reps\": 30, \"plan_ms\": 0.0, \"sorted_accesses\": 1, \"random_accesses\": 1, ",
            "\"label_probes\": 1, \"budget_spent\": 1, \"degraded\": false},\n",
            "    {\"workload\": \"recipeml\", \"statement\": \"TOPK\", \"mode\": \"cold\", \"request\": \"r\",",
            "\"rows\": 1, \"wall_ms\": 0.1, \"p50_ms\": 0.1, \"p95_ms\": 0.1, \"p99_ms\": 0.1, ",
            "\"reps\": 30, \"plan_ms\": 0.0, \"sorted_accesses\": 1, \"random_accesses\": 1, ",
            "\"label_probes\": 1, \"budget_spent\": 1, \"degraded\": false}\n",
            "  ]\n}\n"
        );
        assert!(check_report(good).is_empty(), "{:?}", check_report(good));

        // Dropping the quantile columns (pre-observability report shape) and
        // the recipeml workload must both be flagged.
        let stale = good.replace("\"p99_ms\": 0.1, ", "").replace("recipeml", "oldml");
        let problems = check_report(&stale);
        assert!(problems.iter().any(|p| p.contains("p99_ms")), "{problems:?}");
        assert!(problems.iter().any(|p| p.contains("recipeml")), "{problems:?}");
        assert!(check_report("{}").iter().any(|p| p.contains("no run rows")));
    }
}
