//! Command line, orchestration of one run, and its outputs: the result line
//! the driver reads, the human-readable report, and the files under
//! `benchmark/out/`.

use std::fmt::Write as _;
use std::path::Path;

use crate::check::{self, Ops};
use crate::json::Json;
use crate::layers::{self, Layers};
use crate::measure::{self, Budget, Inputs, Timed};
use crate::stats::{median, tail_percentile};
use crate::workloads::{Scale, Workload};
use crate::xml;

/// Directory, relative to the checkout root, that runs write their files to.
pub const OUT_DIR: &str = "benchmark/out";

/// `--seconds` when the flag is absent: `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 18.0;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `--workload`.
    pub workload: Workload,
    /// `--seed`: drives every generator seed and the request sampler.
    pub seed: u64,
    /// `--seconds`: how long the laps of the timed run go on.
    pub seconds: f64,
    /// `--trace 1`: the traced run, which reports the per-layer metrics.
    pub trace: bool,
    /// `--quick`: a tenth of paper scale and reduced sample counts, for smoke
    /// use; its numbers are not comparable with anything.
    pub quick: bool,
}

/// Names of the four workloads.
pub fn workload_names() -> Vec<&'static str> {
    Workload::ALL.iter().map(|w| w.name()).collect()
}

impl Args {
    /// Parses `--workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
    /// [--quick]`.  `--seconds` defaults to [`DEFAULT_SECONDS`] and `--trace`
    /// to 0.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut quick) =
            (None, None, None, None, false);
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if flag == "--quick" {
                quick = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::by_name(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    );
                }
                "--seed" => {
                    seed = Some(value.parse::<u64>().map_err(|e| format!("--seed {value}: {e}"))?);
                }
                "--seconds" => {
                    let parsed =
                        value.parse::<f64>().map_err(|e| format!("--seconds {value}: {e}"))?;
                    if !(parsed.is_finite() && parsed > 0.0) {
                        return Err(format!("--seconds {value}: must be positive"));
                    }
                    seconds = Some(parsed);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace {value}: expected 0 or 1")),
                    });
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.unwrap_or(DEFAULT_SECONDS),
            trace: trace.unwrap_or(false),
            quick,
        })
    }
}

/// What one run hands back to `main`.
pub struct Outcome {
    /// The last line of standard output.
    pub result_line: String,
    /// The report for standard error.
    pub human: String,
}

fn metrics_json(metrics: &[(&'static str, f64, &'static str)]) -> Json {
    Json::obj(metrics.iter().map(|&(name, value, unit)| {
        (name, Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]))
    }))
}

/// Everything one run measured.
pub struct Executed {
    /// The generated inputs.
    pub inputs: Inputs,
    /// Samples of the timed phases.
    pub timed: Timed,
    /// The traced run's metrics and spans (`--trace 1` only).
    pub layers: Option<Layers>,
    /// Operations attempted and failed.
    pub ops: Ops,
}

/// Generates the inputs from the seed and runs every phase; writes nothing.
pub fn execute(args: &Args) -> Executed {
    let scale = if args.quick { Scale::Quick } else { Scale::Paper };
    let mut ops = Ops::default();
    let mut inputs = Inputs::generate(args.workload, args.seed, scale);
    // The traced run needs the end-to-end numbers only as the base of its
    // ratios, so it measures them over two laps; the traced phases have
    // fixed sample counts.  A smoke run makes one lap.
    let budget = match (args.quick, args.trace) {
        (true, _) => Budget { seconds: 0.0, min_laps: 1 },
        (false, true) => Budget { seconds: 0.0, min_laps: 2 },
        (false, false) => Budget { seconds: args.seconds, min_laps: measure::MIN_LAPS },
    };
    let (timed, engine) = measure::run_timed(&mut inputs, budget, &mut ops);
    let mut layers = None;
    if let Some(engine) = &engine {
        check::check_outputs(&mut ops, args.workload, engine, &inputs.requests);
        if args.trace {
            layers = Some(layers::run_layers(&inputs, engine, &timed, &mut ops));
        } else if args.workload == Workload::RecipemlIngest {
            match inputs.build(1) {
                Ok(sequential) => check::check_parallel_build_equivalence(
                    &mut ops,
                    engine,
                    &sequential,
                    &inputs.requests,
                ),
                Err(err) => ops.fail(format!("engine build at parallelism 1: {err}")),
            }
        }
    }
    Executed { inputs, timed, layers, ops }
}

/// Runs the workload and assembles its outputs: the result line, the report,
/// and the run's file under [`OUT_DIR`].
pub fn run(args: &Args) -> Outcome {
    let Executed { inputs, timed, layers, ops } = execute(args);
    let end_to_end = timed.metrics();
    let reported = layers.as_ref().map_or(&end_to_end, |layers| &layers.metrics);
    let unmeasured = reported.iter().filter(|(_, value, _)| !value.is_finite()).count();
    let correct = ops.failed == 0 && unmeasured == 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(ops.attempted.max(1))),
        ("failed", Json::Int(ops.failed)),
        ("metrics", metrics_json(reported)),
    ]);

    let mut human = human_report(args, &inputs, &timed, layers.as_ref(), &ops);
    let mut details = vec![
        ("workload".to_string(), Json::str(args.workload.name())),
        ("seed".to_string(), Json::Int(args.seed)),
        ("seconds".to_string(), Json::Num(args.seconds)),
        ("trace".to_string(), Json::Bool(args.trace)),
        ("quick".to_string(), Json::Bool(args.quick)),
        ("result".to_string(), result.clone()),
        ("end_to_end".to_string(), metrics_json(&end_to_end)),
        ("samples".to_string(), samples_json(&timed)),
        ("failures".to_string(), Json::Arr(ops.failures.iter().map(Json::str).collect())),
    ];
    if let Some(layers) = &layers {
        details.push(("program_spans".to_string(), layers.program_spans.clone()));
        details.push(("spans".to_string(), layers.trace.to_json()));
    }
    let file = format!(
        "{}.seed{}.trace{}{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        if args.quick { ".quick" } else { "" }
    );
    match write_file(&file, &Json::Obj(details).render()) {
        Ok(()) => {
            let _ = writeln!(human, "wrote {OUT_DIR}/{file}");
        }
        Err(err) => {
            let _ = writeln!(human, "could not write {OUT_DIR}/{file}: {err}");
        }
    }
    Outcome { result_line: result.render(), human }
}

fn write_file(name: &str, contents: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    std::fs::write(Path::new(OUT_DIR).join(name), contents)
}

/// Every sample of the timed phases.
fn samples_json(timed: &Timed) -> Json {
    let count = |samples: &[f64]| Json::Arr(samples.iter().map(|&x| Json::Num(x)).collect());
    Json::obj([
        ("laps", Json::Int(timed.laps as u64)),
        ("setup_s", count(&timed.setup_s)),
        ("selective_ms", count(&timed.selective_ms)),
        ("broad_ms", count(&timed.broad_ms)),
        ("prepared_ms", count(&timed.prepared_ms)),
        ("analyze_ms", count(&timed.analyze_ms)),
        ("batch_rps", count(&timed.batch_rps)),
    ])
}

fn human_report(
    args: &Args,
    inputs: &Inputs,
    timed: &Timed,
    traced: Option<&Layers>,
    ops: &Ops,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {} seed {} seconds {} trace {}{}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        if args.quick { "  [--quick: a tenth of paper scale, NOT comparable]" } else { "" }
    );
    let _ = writeln!(
        out,
        "corpus: {} documents, {:.2} MB of XML, engine built with parallelism {}",
        inputs.sources.len(),
        xml::total_bytes(&inputs.sources) as f64 / 1e6,
        args.workload.parallelism()
    );
    let _ =
        writeln!(out, "end to end{}:", if args.trace { " (reduced sample counts)" } else { "" });
    for (name, value, unit) in timed.metrics() {
        let _ = writeln!(out, "  {name:<34} {value:>14.4} {unit}");
    }
    let _ = writeln!(
        out,
        "  samples: {} laps: {} builds, {} selective and {} broad explore rounds, {} prepared \
         rounds, {} analyze rounds, {} batches",
        timed.laps,
        timed.setup_s.len(),
        timed.selective_ms.len(),
        timed.broad_ms.len(),
        timed.prepared_ms.len(),
        timed.analyze_ms.len(),
        timed.batch_rps.len()
    );
    // What the machine did to the raw samples, which the metrics above leave
    // out by counting every round with its fastest repeat.
    let (level, tail) = tail_percentile(&timed.selective_ms);
    let _ = writeln!(
        out,
        "  as sent, the selective explore rounds took {:.3} ms at the median and {tail:.3} ms at \
         p{level} (the highest percentile with ten samples beyond it)",
        median(&timed.selective_ms)
    );
    if let Some(layers) = traced {
        let _ = writeln!(out, "per layer:");
        for (name, value, unit) in &layers.metrics {
            let _ = writeln!(out, "  {name:<34} {value:>14.4} {unit}");
        }
        let _ = writeln!(out, "program spans: {}", layers.program_spans.render());
    }
    let _ = writeln!(out, "operations: {} attempted, {} failed", ops.attempted, ops.failed);
    for failure in &ops.failures {
        let _ = writeln!(out, "  FAILED {failure}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        Args::parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let args = parse("--workload mondial-links --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::MondialLinks,
                seed: 42,
                seconds: 10.0,
                trace: true,
                quick: false
            }
        );
        let defaults = parse("--seed 1 --quick --workload factbook-olap").unwrap();
        assert!(defaults.quick && !defaults.trace);
        assert_eq!(defaults.seconds, DEFAULT_SECONDS);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse("--seed 1 --seconds 1 --trace 0").unwrap_err().contains("--workload"));
        assert!(parse("--workload mondial-links").unwrap_err().contains("--seed"));
        assert!(parse("--workload x --seed 1 --seconds 1 --trace 0")
            .unwrap_err()
            .contains("unknown"));
        assert!(parse("--workload mondial-links --seed -1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload mondial-links --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload mondial-links --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload mondial-links --seed 1 --seconds 1 --trace").is_err());
        assert!(parse("--workload mondial-links --seed 1 --seconds 1 --trace 0 --extra 1").is_err());
    }
}
