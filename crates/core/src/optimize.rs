//! Cost-based plan optimization: rewrite passes over the logical plan and
//! compilation into the [`PlanProgram`] instruction stream the reader's
//! interpreter executes.
//!
//! The per-statement lowering in [`crate::plan`] produces the typed logical
//! plan — a [`crate::QueryPlan`] carrying the resolved [`seda_topk::TermInput`]s, the
//! [`crate::PlanStep`] list, the per-plan search configuration and the
//! [`SearchStrategy`].  [`SedaEngine::prepare`] then runs every pass of
//! `registered_passes` over it, in order, recording a pass-by-pass rewrite
//! trail (rendered by [`crate::QueryPlan::explain`]), and finally `compile`s
//! the optimized plan into a compact [`PlanProgram`].
//!
//! Every pass is **result-preserving by construction**: a rewrite is applied
//! only when the transformed plan provably returns byte-identical payloads
//! (and, for the shortcuts, identical work counters) — the property the
//! `optimizer_equivalence` proptest suite pins against the pre-optimizer
//! fixed-sequence executor.

use seda_topk::SearchStrategy;

use crate::engine::SedaEngine;
use crate::metrics::names;
use crate::plan::{PlanStep, QueryPlan};
use crate::request::Statement;

/// One instruction of a compiled [`PlanProgram`].
///
/// Operands the interpreter needs at run time (term inputs, the compiled twig
/// pattern, cube spec) stay on the owning [`crate::QueryPlan`]; the ops carry
/// only what the optimizer decided (k, strategy).
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanOp {
    /// Run the top-k search over the plan's term inputs into the top-k
    /// register.
    Search {
        /// Number of result tuples requested.
        k: usize,
        /// Access strategy chosen by the optimizer.
        strategy: SearchStrategy,
    },
    /// Build the per-term context buckets into the contexts register.
    ContextBuckets,
    /// Discover pairwise connections of the top-k register.
    DiscoverConnections,
    /// Compute the complete result set R(q) into the table register.
    CompleteResults,
    /// Evaluate the compiled twig pattern into the table register.
    TwigEvaluate,
    /// Derive and instantiate the star schema from the table register.
    DeriveStarSchema,
    /// Aggregate the plan's fact table over the derived schema.
    Aggregate,
    /// Package a register as the response payload.
    Emit(EmitShape),
}

/// Which register an [`PlanOp::Emit`] op packages into the payload.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmitShape {
    /// The top-k register → [`crate::ResponsePayload::TopK`].
    TopK,
    /// The contexts register → [`crate::ResponsePayload::Contexts`].
    Contexts,
    /// Top-k + connections registers → [`crate::ResponsePayload::Connections`].
    Connections,
    /// The table register → [`crate::ResponsePayload::Table`].
    Table,
    /// Schema build + cube registers → [`crate::ResponsePayload::Cube`].
    Cube,
}

impl std::fmt::Display for PlanOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanOp::Search { k, strategy } => {
                let how = match strategy {
                    SearchStrategy::SingleTermScan => "single-term scan",
                    _ => "threshold join",
                };
                write!(f, "search k={k} ({how})")
            }
            PlanOp::ContextBuckets => write!(f, "context-buckets"),
            PlanOp::DiscoverConnections => write!(f, "discover-connections"),
            PlanOp::CompleteResults => write!(f, "complete-results"),
            PlanOp::TwigEvaluate => write!(f, "twig-evaluate"),
            PlanOp::DeriveStarSchema => write!(f, "derive-star-schema"),
            PlanOp::Aggregate => write!(f, "aggregate"),
            PlanOp::Emit(shape) => {
                let name = match shape {
                    EmitShape::TopK => "top-k",
                    EmitShape::Contexts => "contexts",
                    EmitShape::Connections => "connections",
                    EmitShape::Table => "table",
                    EmitShape::Cube => "cube",
                };
                write!(f, "emit {name}")
            }
        }
    }
}

/// The compact instruction stream a [`crate::QueryPlan`] compiles to,
/// executed by the interpreter in [`crate::SedaReader`].
#[non_exhaustive]
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanProgram {
    ops: Vec<PlanOp>,
}

impl PlanProgram {
    pub(crate) fn new(ops: Vec<PlanOp>) -> Self {
        PlanProgram { ops }
    }

    /// The instructions, in execution order.
    pub fn ops(&self) -> &[PlanOp] {
        &self.ops
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True for a not-yet-compiled program.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Renders the instruction listing (one indexed line per op).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, op) in self.ops.iter().enumerate() {
            out.push_str(&format!("    {i}: {op}\n"));
        }
        out
    }
}

/// One rewrite pass over the logical plan.
///
/// `apply` mutates the plan only when the rewrite is result-preserving and
/// returns a human-readable trail note describing what changed (`None` when
/// the pass did not apply).  Every pass type must be listed in
/// [`registered_passes`] — enforced by the repo lint (rule 7).
pub(crate) trait RewritePass: Sync {
    /// Stable pass name shown in the rewrite trail.
    fn name(&self) -> &'static str;
    /// Applies the pass; `Some(note)` when the plan changed (or gained a
    /// cost annotation), `None` when the pass did not apply.
    fn apply(&self, plan: &mut QueryPlan, engine: &SedaEngine) -> Option<String>;
}

/// Normalizes context restrictions: each term's allowed-path set is sorted
/// and deduplicated.  Membership is the only thing the search consults, so
/// the rewrite is result-preserving; it buys deterministic explain output and
/// cheaper set comparisons downstream.
struct Normalize;

impl RewritePass for Normalize {
    fn name(&self) -> &'static str {
        "normalize"
    }

    fn apply(&self, plan: &mut QueryPlan, _engine: &SedaEngine) -> Option<String> {
        let mut touched = 0usize;
        for input in &mut plan.term_inputs {
            if let Some(paths) = &mut input.allowed_paths {
                let before = paths.len();
                paths.sort_unstable();
                paths.dedup();
                if paths.len() != before {
                    touched += 1;
                }
            }
        }
        (touched > 0).then(|| format!("deduplicated the allowed-path set of {touched} term(s)"))
    }
}

/// Context pushdown: estimates, per restricted term, how many postings
/// survive the allowed-path filter (from the keyword→path context index) and
/// records the selectivity on the plan.  The filter itself already runs
/// inside sorted access ([`seda_textindex::NodeIndex::evaluate_into`]); the
/// pass quantifies it so the cost model downstream can choose access orders.
struct Pushdown;

impl RewritePass for Pushdown {
    fn name(&self) -> &'static str {
        "pushdown"
    }

    fn apply(&self, plan: &mut QueryPlan, engine: &SedaEngine) -> Option<String> {
        let mut notes = Vec::new();
        plan.term_estimates = estimate_term_postings(plan, engine);
        for (i, input) in plan.term_inputs.iter().enumerate() {
            let Some(paths) = &input.allowed_paths else { continue };
            let (restricted, total) = plan.term_estimates[i];
            notes.push(format!(
                "term {i} filtered to {} path(s) inside sorted access (~{restricted} of \
                 {total} postings)",
                paths.len()
            ));
        }
        (!notes.is_empty()).then(|| notes.join("; "))
    }
}

/// Single-keyword shortcut: a one-term top-k search degenerates to ranked
/// retrieval, so the compiled program scans the sorted posting prefix
/// directly instead of running the join loop.  Applied only when the scan
/// reproduces the join's tuples, stats and termination behaviour exactly
/// (see `seda_topk::SearchStrategy::SingleTermScan`).
struct SingleKeyword;

impl RewritePass for SingleKeyword {
    fn name(&self) -> &'static str {
        "single-keyword"
    }

    fn apply(&self, plan: &mut QueryPlan, _engine: &SedaEngine) -> Option<String> {
        let k = match plan.statement {
            Statement::TopK { k } | Statement::ConnectionSummary { k } => k,
            _ => return None,
        };
        if plan.term_inputs.len() != 1 || plan.topk.candidate_limit < k {
            return None;
        }
        plan.strategy = SearchStrategy::SingleTermScan;
        for step in &mut plan.steps {
            if let PlanStep::ThresholdJoin { k, .. } = step {
                *step = PlanStep::SingleTermScan { k: *k };
            }
        }
        Some("one term: replaced the rank join with a sorted-prefix scan".to_string())
    }
}

/// Cost-based access ordering: chooses, per search term, between
/// context-index-first access (resolve the allowed paths through the
/// keyword→path index, then walk the restricted postings) and postings-first
/// access (walk the full posting list).  The model is fed from engine
/// statistics — postings lengths, idf, document/component counts — plus the
/// prior [`crate::ExecProfile`] counters accumulated in the metrics registry
/// (average rows per request of this statement shape).
struct AccessOrder;

impl RewritePass for AccessOrder {
    fn name(&self) -> &'static str {
        "access-order"
    }

    fn apply(&self, plan: &mut QueryPlan, engine: &SedaEngine) -> Option<String> {
        if plan.term_inputs.is_empty() {
            return None;
        }
        if plan.term_estimates.len() != plan.term_inputs.len() {
            plan.term_estimates = estimate_term_postings(plan, engine);
        }
        let index = engine.node_index();
        let mut notes = Vec::with_capacity(plan.term_inputs.len());
        for (i, input) in plan.term_inputs.iter().enumerate() {
            let (restricted, total) = plan.term_estimates[i];
            let idf =
                input.query.positive_terms().iter().map(|t| index.idf(t)).fold(0.0f64, f64::max);
            // Context-index-first wins when the path filter is selective:
            // the restricted list is materialised from the context index's
            // per-path counts instead of scanning the full postings.
            let context_first = input.allowed_paths.is_some() && restricted * 2 <= total;
            notes.push(format!(
                "term {i} {} (~{restricted} of {total} postings, idf {idf:.2})",
                if context_first { "context-index-first" } else { "postings-first" }
            ));
        }
        let label = plan.statement.name();
        let requests = engine.metrics().counter(names::REQUESTS_TOTAL, label).get();
        if requests > 0 {
            let rows = engine.metrics().counter(names::ROWS_RETURNED_TOTAL, label).get();
            notes.push(format!(
                "prior profile: {:.1} rows/request over {requests} {label} request(s)",
                rows as f64 / requests as f64
            ));
        }
        Some(notes.join("; "))
    }
}

/// Estimates, per term, `(restricted, total)` postings: `total` from the
/// node-index document frequencies (match-all terms count every indexed
/// node), `restricted` from the context index's per-path frequencies when the
/// term carries an allowed-path set.
fn estimate_term_postings(plan: &QueryPlan, engine: &SedaEngine) -> Vec<(usize, usize)> {
    let index = engine.node_index();
    plan.term_inputs
        .iter()
        .map(|input| {
            let keywords = input.query.positive_terms();
            let total = if keywords.is_empty() {
                index.indexed_node_count()
            } else {
                keywords.iter().map(|t| index.document_frequency(t)).min().unwrap_or(0)
            };
            let restricted = match &input.allowed_paths {
                Some(paths) => engine
                    .context_index()
                    .context_bucket(&input.query)
                    .into_iter()
                    .filter(|entry| paths.contains(&entry.path))
                    .map(|entry| entry.frequency)
                    .sum::<usize>()
                    .min(total),
                None => total,
            };
            (restricted, total)
        })
        .collect()
}

/// The optimizer's pass list, in application order.
///
/// Rule 7 of the repo lint checks that every `impl RewritePass for` type in
/// this file appears here — an unregistered pass is dead weight that silently
/// never runs.
pub(crate) fn registered_passes() -> [&'static dyn RewritePass; 4] {
    [&Normalize, &Pushdown, &SingleKeyword, &AccessOrder]
}

/// Runs every registered pass over the plan, returning the pass-by-pass
/// rewrite trail (one entry per pass, `"<name>: <note>"` or
/// `"<name>: unchanged"`).
pub(crate) fn run_passes(plan: &mut QueryPlan, engine: &SedaEngine) -> Vec<String> {
    registered_passes()
        .iter()
        .map(|pass| match pass.apply(plan, engine) {
            Some(note) => format!("{}: {note}", pass.name()),
            None => format!("{}: unchanged", pass.name()),
        })
        .collect()
}

/// Compiles the optimized plan into its instruction stream.
pub(crate) fn compile(plan: &QueryPlan) -> PlanProgram {
    let ops = match &plan.statement {
        Statement::TopK { k } => {
            vec![PlanOp::Search { k: *k, strategy: plan.strategy }, PlanOp::Emit(EmitShape::TopK)]
        }
        Statement::ContextSummary => {
            vec![PlanOp::ContextBuckets, PlanOp::Emit(EmitShape::Contexts)]
        }
        Statement::ConnectionSummary { k } => vec![
            PlanOp::Search { k: *k, strategy: plan.strategy },
            PlanOp::DiscoverConnections,
            PlanOp::Emit(EmitShape::Connections),
        ],
        Statement::CompleteResults => {
            vec![PlanOp::CompleteResults, PlanOp::Emit(EmitShape::Table)]
        }
        Statement::Twig { .. } => vec![PlanOp::TwigEvaluate, PlanOp::Emit(EmitShape::Table)],
        Statement::Cube { .. } => vec![
            PlanOp::CompleteResults,
            PlanOp::DeriveStarSchema,
            PlanOp::Aggregate,
            PlanOp::Emit(EmitShape::Cube),
        ],
    };
    PlanProgram::new(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::request::SedaRequest;
    use seda_olap::Registry;
    use seda_xmlstore::parse_collection;

    fn engine() -> SedaEngine {
        let collection = parse_collection(vec![(
            "us.xml",
            r#"<country><name>United States</name><year>2006</year>
                 <economy><import_partners>
                   <item><trade_country>China</trade_country><percentage>15</percentage></item>
                 </import_partners></economy></country>"#,
        )])
        .unwrap();
        SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())
            .unwrap()
    }

    #[test]
    fn every_pass_reports_into_the_trail() {
        let e = engine();
        let req = SedaRequest::parse("TOPK 5 FOR (name, *) AND (percentage, *)").unwrap();
        let plan = e.prepare(&req).unwrap();
        let trail = plan.rewrite_trail();
        assert_eq!(trail.len(), registered_passes().len());
        for (pass, line) in registered_passes().iter().zip(trail) {
            assert!(line.starts_with(pass.name()), "{line}");
        }
    }

    #[test]
    fn single_keyword_pass_compiles_a_scan() {
        let e = engine();
        let req = SedaRequest::parse("TOPK 5 FOR (name, *)").unwrap();
        let plan = e.prepare(&req).unwrap();
        assert_eq!(
            plan.program().ops()[0],
            PlanOp::Search { k: 5, strategy: SearchStrategy::SingleTermScan }
        );
        assert!(plan.explain().contains("single-keyword: one term"), "{}", plan.explain());
        // Two terms keep the join.
        let req = SedaRequest::parse("TOPK 5 FOR (name, *) AND (percentage, *)").unwrap();
        let plan = e.prepare(&req).unwrap();
        assert_eq!(
            plan.program().ops()[0],
            PlanOp::Search { k: 5, strategy: SearchStrategy::Join }
        );
    }

    #[test]
    fn pushdown_estimates_restricted_postings() {
        let e = engine();
        let req =
            SedaRequest::parse("TOPK 5 FOR (name, *) AND (percentage, *) WITH 0 IN /country/name")
                .unwrap();
        let plan = e.prepare(&req).unwrap();
        let trail = plan.rewrite_trail().join("\n");
        assert!(trail.contains("pushdown: term 0 filtered to 1 path(s)"), "{trail}");
        assert!(trail.contains("access-order: term 0"), "{trail}");
    }

    #[test]
    fn programs_cover_every_statement_shape() {
        let e = engine();
        let q = "(name, *) AND (percentage, *)";
        let cases = [
            (format!("TOPK 5 FOR {q}"), 2),
            (format!("CONTEXTS FOR {q}"), 2),
            (format!("CONNECTIONS 5 FOR {q}"), 3),
            (format!("RESULTS FOR {q}"), 2),
            ("TWIG /country/name".to_string(), 2),
            (format!("CUBE import-trade-percentage BY import-country FOR {q}"), 4),
        ];
        for (text, ops) in cases {
            let plan = e.prepare(&SedaRequest::parse(&text).unwrap()).unwrap();
            assert_eq!(plan.program().len(), ops, "{text}");
            assert!(
                matches!(plan.program().ops().last(), Some(PlanOp::Emit(_))),
                "programs end by emitting a payload: {text}"
            );
            assert!(!plan.program().render().is_empty());
        }
    }

    #[test]
    fn ops_render_for_the_explain_listing() {
        assert_eq!(
            PlanOp::Search { k: 3, strategy: SearchStrategy::Join }.to_string(),
            "search k=3 (threshold join)"
        );
        assert_eq!(
            PlanOp::Search { k: 1, strategy: SearchStrategy::SingleTermScan }.to_string(),
            "search k=1 (single-term scan)"
        );
        assert_eq!(PlanOp::Emit(EmitShape::Cube).to_string(), "emit cube");
        assert_eq!(PlanOp::DeriveStarSchema.to_string(), "derive-star-schema");
    }
}
