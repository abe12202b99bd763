//! `seda-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>] [--quick]`
//!
//! Runs one workload in this process and prints, as the last line of standard
//! output, one JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`.  Everything else goes to standard error.

use std::process::ExitCode;

use seda_benchmark::report::{self, Args};

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("seda-benchmark: {message}");
            eprintln!(
                "usage: seda-benchmark --workload <{}> --seed <n> [--seconds <s>] \
                 [--trace <0|1>] [--quick]",
                report::workload_names().join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = report::run(&args);
    eprint!("{}", outcome.human);
    println!("{}", outcome.result_line);
    ExitCode::SUCCESS
}
