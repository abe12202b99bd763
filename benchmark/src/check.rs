//! Operation accounting and the output checker.
//!
//! Every request sent to the program and every correctness check is one
//! attempted operation; an `Err`, a `degraded` profile or a failed check is a
//! failed one.  The baseline is zero failed operations on every workload.

use seda_core::{ResponsePayload, SedaEngine, SedaError, SedaReader, SedaRequest, SedaResponse};
use seda_datagen::factbook::US_IMPORT_PARTNERS;

use crate::workloads::{self, Query, Requests, Workload};

/// Counts of attempted and failed operations, with the first few failures
/// kept for the report.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
}

impl Ops {
    const KEPT: usize = 12;

    /// Records one operation that succeeded when `ok` holds and failed with
    /// `describe()` otherwise.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < Self::KEPT {
                self.failures.push(describe());
            }
        }
    }

    /// Records one failed operation.
    pub fn fail(&mut self, description: String) {
        self.check(false, || description);
    }
}

/// Checks one response of a request sent as `text`; returns the response when
/// the operation succeeded.
///
/// Failed: an `Err`, a `degraded` profile, more rows than `k`, scores that
/// increase down the list, or a best-effort answer
/// (`candidates_truncated > 0`) where `may_truncate` does not allow one.
pub fn check_response<'r>(
    ops: &mut Ops,
    text: &str,
    may_truncate: bool,
    outcome: &'r Result<SedaResponse, SedaError>,
) -> Option<&'r SedaResponse> {
    let response = match outcome {
        Ok(response) => response,
        Err(err) => {
            ops.fail(format!("{text}: {err}"));
            return None;
        }
    };
    let problem = response_problem(text, may_truncate, response);
    ops.check(problem.is_none(), || format!("{text}: {}", problem.clone().unwrap_or_default()));
    problem.is_none().then_some(response)
}

fn response_problem(text: &str, may_truncate: bool, response: &SedaResponse) -> Option<String> {
    if response.profile.degraded {
        return Some("degraded response".to_string());
    }
    if response.profile.candidates_truncated > 0 && !may_truncate {
        return Some(format!(
            "best-effort answer: {} candidates truncated",
            response.profile.candidates_truncated
        ));
    }
    if let Some(top_k) = response.top_k() {
        if let Some(k) = statement_k(text) {
            if top_k.tuples.len() > k {
                return Some(format!("{} tuples for k = {k}", top_k.tuples.len()));
            }
        }
        if top_k.tuples.windows(2).any(|w| w[0].score < w[1].score) {
            return Some("scores increase down the result list".to_string());
        }
    }
    None
}

/// The `k` of a `TOPK k` / `CONNECTIONS k` statement.
fn statement_k(text: &str) -> Option<usize> {
    let mut tokens = text.split_whitespace();
    match tokens.next()? {
        "TOPK" | "CONNECTIONS" => tokens.next()?.parse().ok(),
        _ => None,
    }
}

/// The payload with the one counter a warm prepared statement legitimately
/// changes (label probes answered from its memo) zeroed, so cold and prepared
/// payloads compare equal exactly when the answers do.
pub fn comparable(response: &SedaResponse) -> ResponsePayload {
    let mut payload = response.payload.clone();
    match &mut payload {
        ResponsePayload::TopK(result) => result.stats.label_probes = 0,
        ResponsePayload::Connections { top_k, .. } => top_k.stats.label_probes = 0,
        _ => {}
    }
    payload
}

/// Prefix property of top-k: the answer at `k = 1` is a prefix of the answer
/// at `k = 10`, which is a prefix of the answer at `k = 100`.
pub fn check_prefixes(ops: &mut Ops, reader: &mut SedaReader<'_>, queries: &[&Query]) {
    for query in queries {
        let mut answers = Vec::new();
        for k in [1usize, 10, 100] {
            let text = format!("TOPK {k} FOR {}", query.text);
            let outcome = reader.execute_text(&text);
            if let Some(response) = check_response(ops, &text, query.may_truncate, &outcome) {
                let tuples: Vec<_> = response
                    .top_k()
                    .map(|r| r.tuples.iter().map(|t| (t.nodes.clone(), t.score)).collect())
                    .unwrap_or_default();
                answers.push(tuples);
            }
        }
        let nested = answers.len() == 3
            && answers.windows(2).all(|w| w[1].len() >= w[0].len() && w[1][..w[0].len()] == w[0]);
        ops.check(nested, || format!("top-1 ⊂ top-10 ⊂ top-100 fails for {}", query.text));
    }
}

/// Cold and prepared execution of the same statement give the same payload.
pub fn check_prepared_equals_cold(
    ops: &mut Ops,
    text: &str,
    cold: &Result<SedaResponse, SedaError>,
    prepared: &Result<SedaResponse, SedaError>,
) {
    let equal = match (cold, prepared) {
        (Ok(cold), Ok(prepared)) => comparable(cold) == comparable(prepared),
        _ => false,
    };
    ops.check(equal, || format!("cold and prepared payloads differ for {text}"));
}

/// The engine built with `parallelism = 1` answers exactly as the one built
/// with `parallelism = 2`.
pub fn check_parallel_build_equivalence(
    ops: &mut Ops,
    sharded: &SedaEngine,
    sequential: &SedaEngine,
    requests: &Requests,
) {
    let mut a = sharded.reader();
    let mut b = sequential.reader();
    // Three selective rounds, the broad round and one analyze round.
    let explore =
        requests.selective.iter().take(3).chain([&requests.broad]).flat_map(Query::explore_round);
    let analyze = requests.analyze.iter().take(1).flatten().cloned();
    for text in explore.chain(analyze) {
        let equal = match (a.execute_text(&text), b.execute_text(&text)) {
            (Ok(x), Ok(y)) => x.payload == y.payload,
            _ => false,
        };
        ops.check(equal, || format!("parallelism 1 and 2 answer differently for {text}"));
    }
}

/// The United-States import cube reproduces every fact of the paper's Fig. 3
/// (`seda_datagen::factbook::US_IMPORT_PARTNERS`).
pub fn check_us_import_cube(ops: &mut Ops, reader: &mut SedaReader<'_>) {
    let text = workloads::us_import_cube();
    let outcome = reader.execute_text(&text);
    let Some(response) = check_response(ops, &text, false, &outcome) else { return };
    for &(year, partner, percentage) in US_IMPORT_PARTNERS {
        let year = year.to_string();
        let expected: f64 = percentage.parse().expect("invariant: the paper's facts are numeric");
        let cell = response.cube().and_then(|c| c.cell(&["United States", &year, partner]));
        let ok = cell.is_some_and(|c| (c.value - expected).abs() < 1e-9);
        ops.check(ok, || {
            format!(
                "US import cube: ({year}, {partner}) is {:?}, expected {expected}",
                cell.map(|c| c.value)
            )
        });
    }
}

/// Runs the checks that need requests of their own (the per-response checks
/// run inside the timed phases, after the clock stops).
pub fn check_outputs(ops: &mut Ops, workload: Workload, engine: &SedaEngine, requests: &Requests) {
    let mut reader = engine.reader();
    // Two selective queries and the broad one.
    let queries: Vec<&Query> = requests.selective.iter().take(2).chain([&requests.broad]).collect();
    check_prefixes(ops, &mut reader, &queries);
    if workload == Workload::FactbookOlap {
        check_us_import_cube(ops, &mut reader);
    }
}

/// Parses request text; a parse failure is a failed operation.
pub fn parse_requests(ops: &mut Ops, texts: &[String]) -> Vec<SedaRequest> {
    texts
        .iter()
        .filter_map(|text| match SedaRequest::parse(text) {
            Ok(request) => Some(request),
            Err(err) => {
                ops.fail(format!("{text}: {err}"));
                None
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_count_attempts_and_keep_the_first_failures() {
        let mut ops = Ops::default();
        ops.check(true, || unreachable!());
        for i in 0..20 {
            ops.fail(format!("failure {i}"));
        }
        assert_eq!((ops.attempted, ops.failed), (21, 20));
        assert_eq!(ops.failures.len(), Ops::KEPT);
        assert_eq!(ops.failures[0], "failure 0");
    }

    #[test]
    fn statement_k_reads_topk_and_connections() {
        assert_eq!(statement_k("TOPK 10 FOR (a, b)"), Some(10));
        assert_eq!(statement_k("CONNECTIONS 3 FOR (a, b)"), Some(3));
        assert_eq!(statement_k("CONTEXTS FOR (a, b)"), None);
        assert_eq!(statement_k("TWIG /a//b"), None);
    }
}
