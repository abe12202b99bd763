//! The SEDA execution engine (Fig. 4): top-k search unit, context summary
//! generator, connection summary generator, complete result set generator and
//! data cube processor, built over the storage and indexing substrates.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use seda_datagraph::{pin, DataGraph, GraphConfig, TraversalScratch, SEARCH_DEPTH};
use seda_dataguide::{connection_signature, discover_connections, DataGuideSet, DataGuideStats};
use seda_olap::{BuildOptions, QueryResultTable, Registry, StarSchemaBuild, StarSchemaBuilder};
use seda_textindex::{ContextIndex, CountStorage, FullTextQuery, NodeIndex, ReadModelBytes};
use seda_topk::{LimitBreach, MaterializedTerms, SearchLimits, SearchScratch};
use seda_topk::{TermInput, TopKResult, TopKSearcher};
use seda_twigjoin::{evaluate_twig_in, TwigMatches, TwigPattern};
use seda_xmlstore::{parse_collection, Collection, DocId, Document, NodeId, PathId};

use crate::error::SedaError;
use crate::faults;
use crate::govern::RequestContext;
use crate::metrics::MetricsRegistry;
use crate::parallel::{byte_midpoint, effective_parallelism, fork};
use crate::plan::QueryPlan;
use crate::query::SedaQuery;
use crate::summaries::{ConnectionSummary, ContextBucket, ContextSelections, ContextSummary};
use crate::trace::{span, SpanRecord, Tracer};

/// Renders a `catch_unwind` payload as text.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` inside a panic-containment boundary: a panic anywhere below
/// becomes [`SedaError::Internal`] instead of unwinding into the caller.
pub(crate) fn catch_internal<T>(f: impl FnOnce() -> Result<T, SedaError>) -> Result<T, SedaError> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(result) => result,
        Err(payload) => Err(SedaError::Internal(panic_message(payload))),
    }
}

/// Configuration of the engine's indexes and algorithms.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Dataguide merge threshold of [`SedaEngine::dataguide_stats`] (the
    /// paper uses 40%).
    pub dataguide_threshold: f64,
    /// Data-graph construction configuration (ID/IDREF conventions,
    /// value-based key specs).
    pub graph: GraphConfig,
    /// Count storage of the context index: its one value,
    /// [`CountStorage::DocumentStore`].  Kept only because `benchmark/`
    /// still passes it to `ContextIndex::build`.
    pub count_storage: CountStorage,
    /// Upper bound on the number of complete-result tuples materialised by
    /// the fallback graph-enumeration path.
    pub complete_result_limit: usize,
    /// Threads of the engine build: `1` (the default) runs the whole build on
    /// the calling thread; `2` or more (`0` resolves to the machine's
    /// available parallelism) runs the second task of each build phase — the
    /// second half of the parse, the node index's build and the node index's
    /// audit — on a second thread (see the build notes on [`SedaEngine`]).
    /// No build uses more than two, and both run the same code but for the
    /// parse's cut.  The build output is identical for every setting.
    pub parallelism: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            dataguide_threshold: 0.4,
            graph: GraphConfig::default(),
            count_storage: CountStorage::DocumentStore,
            complete_result_limit: 500_000,
            parallelism: 1,
        }
    }
}

/// Timings and shape of one [`SedaEngine::build`] run, so one-thread vs
/// two-thread speedups are measured (`benchmark/` reads them) rather than
/// asserted.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BuildProfile {
    /// Threads actually used: 1, or 2 when a second thread built and audited
    /// the node index (and, in a build from sources, parsed the second half
    /// of the XML).
    pub parallelism: usize,
    /// Documents in the collection.
    pub documents: usize,
    /// Bytes held by the precomputed connectivity-oracle labels (see
    /// [`seda_datagraph::ConnectivityIndex::label_bytes`]).
    pub label_bytes: usize,
    /// Bytes held by the node index, table by table — its whole heap (see
    /// [`seda_textindex::NodeIndex::read_model_bytes`] for the tables and
    /// their byte budgets).
    pub node_index_bytes: ReadModelBytes,
    /// End-to-end engine build wall time (includes the parse of a build from
    /// sources and the post-build audit).
    pub total_secs: f64,
    /// The build's only timings: the parse (first, in a build from sources
    /// only), one span per substrate build and one for the post-build
    /// structural audit ([`SedaEngine::verify`]), named by the `BUILD_*`
    /// constants of [`crate::trace::span`] and recorded by the build-path
    /// tracer.
    pub spans: Vec<SpanRecord>,
}

impl BuildProfile {
    /// Always 0.0: no build has a merge phase any more.  Kept only because
    /// `benchmark/` still reports it as `core.build_merge_ms`.
    pub fn merge_secs(&self) -> f64 {
        0.0
    }

    /// Renders the profile as a small human-readable table: one line a span,
    /// then the label bytes and one line a node-index table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "build profile: {} docs, {} thread(s), {:.2}ms total\n",
            self.documents,
            self.parallelism,
            self.total_secs * 1e3
        );
        for span in &self.spans {
            out.push_str(&format!("  {:<22} {:>9.2}ms\n", span.name, span.wall_secs * 1e3));
        }
        let index = &self.node_index_bytes;
        for (table, bytes) in [
            ("oracle labels", self.label_bytes),
            ("index dictionary", index.dictionary),
            ("index postings", index.posting_arena),
            ("index path runs", index.path_runs),
            ("index side tables", index.side_tables),
            ("index tokens", index.tokens),
            ("index term paths", index.term_paths),
        ] {
            out.push_str(&format!("  {table:<22} {bytes:>9} bytes\n"));
        }
        out
    }
}

/// Source of [`SedaEngine`] ids: every build in the process takes the next
/// (`Relaxed`: the id publishes no other data, and `fetch_add` alone keeps
/// every id distinct).
static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(0);

/// The SEDA engine: owns the collection, every index and the fact/dimension
/// registry.
///
/// # Build
///
/// Each index substrate has one build: a single pass over the collection in
/// document order (`NodeIndex::build`, `DataGraph::build`,
/// `ContextIndex::build`).  Text is tokenised once, by the node index; the
/// context index tokenises only the tag names of the path table and reads
/// text keywords' contexts from the node index's term → paths table when
/// asked.  [`SedaEngine::build`] runs them on one thread or two, on one
/// schedule: each phase is a fork of two tasks (`crate::parallel::fork`),
/// the second on a scoped second thread at two threads and after the first,
/// inline, at one.  The phases and their second tasks:
///
/// - the parse ([`SedaEngine::build_from_sources`] only): the source list is
///   cut — at the byte midpoint of the XML text at two threads, after its
///   last document at one — and the tail is parsed into a collection of its
///   own and appended to the head's ([`Collection::append`]: names, paths
///   and document ids renumbered as one parse would have numbered them);
/// - the substrate builds: the node index — the largest build — while the
///   first task builds the data graph and then the context index.  The graph
///   stays on the calling thread, so its document components count on
///   `seda_datagraph::doc_component_builds_on_this_thread` there;
/// - the post-build audit: the node index's, while the first task audits
///   the collection, the context index, the data graph and the metrics.
///
/// No index is sharded or merged.  The engine is identical at either thread
/// count, and so is every code path but the cut; the parse, each build and
/// the post-build audit leave one `build:*` span in the [`BuildProfile`].
///
/// The engine keeps no dataguides: no statement, summary or plan reads them
/// (connection summaries come from the top-k instances, Sec. 6.1), so Table 1
/// is derived when asked for ([`SedaEngine::dataguide_stats`]).
pub struct SedaEngine {
    /// Process-unique id of this build, stamped into every plan it lowers:
    /// plans and prepared statements carry this engine's path and node ids,
    /// so only this engine's readers may run them.
    id: u64,
    collection: Collection,
    node_index: NodeIndex,
    context_index: ContextIndex,
    graph: DataGraph,
    registry: Registry,
    config: EngineConfig,
    profile: BuildProfile,
    /// Engine-wide metrics: the counters and latency histograms every
    /// request records into (see [`crate::metrics`]).
    metrics: MetricsRegistry,
}

impl SedaEngine {
    /// Builds the engine: constructs the data graph and both full-text
    /// indexes over the collection.
    ///
    /// Each substrate is built in one pass over the collection; at
    /// [`EngineConfig::parallelism`] ≥ 2 the node index is built and audited
    /// on a second thread, and after the other substrates at one (see the
    /// module docs).  The resulting engine is
    /// identical at every thread count, and each substrate's wall time is a
    /// span of [`SedaEngine::build_profile`].
    pub fn build(
        collection: Collection,
        registry: Registry,
        config: EngineConfig,
    ) -> Result<Self, SedaError> {
        catch_internal(|| Self::build_inner(collection, registry, config, Self::build_tracer()))
    }

    /// Parses `sources` (name, XML text pairs) into a [`Collection`] and
    /// builds the engine over it — the one-call ingestion entry point.
    ///
    /// The parse is one fork at every thread count: the list is cut, the
    /// head parsed by the first task and the tail by the second, and the
    /// tail's collection appended to the head's ([`Collection::append`]).  At
    /// two threads the cut is the byte midpoint of the XML text and the tail
    /// is parsed on a scoped second thread; at one it is the end of the list,
    /// so the tail is empty.  Either way the collection is the one
    /// [`parse_collection`] gives.  The parse is the `build:parse`
    /// span, first in the [`BuildProfile`], and [`BuildProfile::total_secs`]
    /// covers it.
    ///
    /// Parse failures surface as [`SedaError::Store`] — the first refused
    /// document's, in document order, at either thread count (the head's
    /// error is reported before the tail's); a panic anywhere in parsing or
    /// building is contained and surfaced as [`SedaError::Internal`], leaving
    /// the caller's process intact.
    pub fn build_from_sources<'a, I>(
        sources: I,
        registry: Registry,
        config: EngineConfig,
    ) -> Result<Self, SedaError>
    where
        I: IntoIterator<Item = (&'a str, &'a str)>,
    {
        let sources: Vec<(&str, &str)> = sources.into_iter().collect();
        catch_internal(move || {
            let mut tracer = Self::build_tracer();
            let parse_span = tracer.enter(span::BUILD_PARSE);
            let threads = Self::build_threads(&config);
            let cut = if threads >= 2 { byte_midpoint(&sources) } else { sources.len() };
            let (head, tail) = sources.split_at(cut);
            let (head, tail) = fork(
                threads,
                || parse_collection(head.iter().copied()),
                || -> Result<Collection, SedaError> {
                    faults::fire("parse")?;
                    Ok(parse_collection(tail.iter().copied())?)
                },
            );
            let mut collection = head?;
            collection.append(tail?);
            tracer.exit(parse_span);
            Self::build_inner(collection, registry, config, tracer)
        })
    }

    /// The build path's tracer, begun: the build path is always traced —
    /// builds are rare and expensive, so the span breakdown is worth its
    /// (small, bounded) cost — and its clock times the whole build.
    fn build_tracer() -> Tracer {
        let mut tracer = Tracer::enabled();
        tracer.begin();
        tracer
    }

    /// Threads of a build: two at an effective parallelism of two or more.
    fn build_threads(config: &EngineConfig) -> usize {
        effective_parallelism(config.parallelism).min(2)
    }

    fn build_inner(
        collection: Collection,
        registry: Registry,
        config: EngineConfig,
        mut tracer: Tracer,
    ) -> Result<Self, SedaError> {
        let threads = Self::build_threads(&config);
        let (graph, node_index, context_index) =
            Self::build_substrates(&collection, &config, threads, &mut tracer)?;
        let profile = BuildProfile {
            parallelism: threads,
            documents: collection.len(),
            label_bytes: graph.connectivity().label_bytes(),
            node_index_bytes: node_index.read_model_bytes(),
            ..BuildProfile::default()
        };

        let mut engine = SedaEngine {
            id: NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed),
            collection,
            node_index,
            context_index,
            graph,
            registry,
            config,
            profile,
            metrics: MetricsRegistry::new(),
        };

        // Post-build audit: a freshly built engine must satisfy every
        // substrate invariant; a violation here means the build itself is
        // broken, which is an internal defect rather than a user error.
        let verify_span = tracer.enter(span::BUILD_VERIFY);
        if let Err(violations) = engine.audit(threads) {
            let first = &violations[0];
            return Err(SedaError::Internal(format!(
                "freshly built engine failed its structural audit with {} violation(s); \
                 first: [{}/{}] {}",
                violations.len(),
                first.substrate,
                first.invariant,
                first.detail
            )));
        }
        tracer.exit(verify_span);
        engine.profile.total_secs = tracer.clock().elapsed_secs();
        engine.profile.spans = tracer.take_spans();

        Ok(engine)
    }

    /// Builds the three index substrates in one fork: the data graph (so its
    /// component count is the calling thread's) and then the context index
    /// on the first task, the node index on the second.  The node index's
    /// span is recorded after the other two, from the task's own start and
    /// wall time, so both thread counts carry the same spans in the same
    /// order.
    fn build_substrates(
        collection: &Collection,
        config: &EngineConfig,
        threads: usize,
        tracer: &mut Tracer,
    ) -> Result<(DataGraph, NodeIndex, ContextIndex), SedaError> {
        let clock = tracer.clock();
        let (rest, node_index) = fork(
            threads,
            || -> Result<_, SedaError> {
                let outer = tracer.enter(span::BUILD_GRAPH);
                faults::fire("oracle-build")?;
                let graph = DataGraph::build(collection, &config.graph);
                tracer.exit(outer);

                let outer = tracer.enter(span::BUILD_CONTEXT_INDEX);
                let context_index = ContextIndex::build(collection, config.count_storage);
                tracer.exit(outer);
                Ok((graph, context_index))
            },
            || -> Result<_, SedaError> {
                let (start_secs, t) = clock.split();
                faults::fire("node-index-build")?;
                let index = NodeIndex::build(collection);
                Ok((index, start_secs, t.elapsed_secs()))
            },
        );
        let (graph, context_index) = rest?;
        let (node_index, start_secs, secs) = node_index?;
        tracer.record(span::BUILD_NODE_INDEX, start_secs, secs);
        Ok((graph, node_index, context_index))
    }

    /// The id the planner stamps into this engine's plans.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Timings and shape of the build that produced this engine.
    pub fn build_profile(&self) -> &BuildProfile {
        &self.profile
    }

    /// The engine-wide metrics registry: counters and latency histograms
    /// recorded by every request (see [`MetricsRegistry`]).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Mutable access to the metrics registry — corruption-test hook for the
    /// seeded-violation audit tests; not part of the stable API.
    #[doc(hidden)]
    pub fn metrics_mut(&mut self) -> &mut MetricsRegistry {
        &mut self.metrics
    }

    /// Mutable references to every frozen substrate — the corruption-test
    /// access behind the `#[doc(hidden)]` [`SedaEngine::substrates_mut`].
    pub(crate) fn substrate_fields_mut(
        &mut self,
    ) -> (&mut Collection, &mut NodeIndex, &mut ContextIndex, &mut DataGraph) {
        (&mut self.collection, &mut self.node_index, &mut self.context_index, &mut self.graph)
    }

    /// The underlying collection.
    pub fn collection(&self) -> &Collection {
        &self.collection
    }

    /// The fact/dimension registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The data graph.
    pub fn graph(&self) -> &DataGraph {
        &self.graph
    }

    /// The node full-text index.
    pub fn node_index(&self) -> &NodeIndex {
        &self.node_index
    }

    /// The keyword→path context index: tag-name keywords and per-path
    /// counts, read with [`SedaEngine::node_index`] for text keywords.
    pub fn context_index(&self) -> &ContextIndex {
        &self.context_index
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Table 1 statistics of the collection's dataguides merged at
    /// [`EngineConfig::dataguide_threshold`].  The engine keeps no dataguides
    /// (no statement reads them), so every call builds the set
    /// ([`DataGuideSet::build`]) and drops it.
    pub fn dataguide_stats(&self) -> Result<DataGuideStats, SedaError> {
        let guides = DataGuideSet::build(&self.collection, self.config.dataguide_threshold)?;
        Ok(guides.stats(self.collection.len()))
    }

    /// Resolves the allowed paths of every term, combining the term's own
    /// context spec with any user selection from the context summary.
    pub(crate) fn term_inputs(
        &self,
        query: &SedaQuery,
        selections: &ContextSelections,
    ) -> Vec<TermInput> {
        query
            .terms
            .iter()
            .enumerate()
            .map(|(i, term)| {
                let allowed = match selections.for_term(i) {
                    Some(paths) => Some(paths.to_vec()),
                    None => term.context.allowed_paths(&self.collection),
                };
                match allowed {
                    Some(paths) => TermInput::with_paths(term.search.clone(), paths),
                    None => TermInput::new(term.search.clone()),
                }
            })
            .collect()
    }

    /// The engine's one search: runs the Threshold-Algorithm searcher for the
    /// best `k` tuples (honoured literally — `0` yields an empty result) under
    /// per-request [`SearchLimits`] (the request context's, the engine's
    /// candidate guard folded in), over either fresh posting lists or a prepared
    /// statement's materialized term lists.  The second element reports the
    /// first exhausted resource, if any; the returned tuples are then the
    /// certifiably correct prefix computed before it ran out.
    pub(crate) fn search(
        &self,
        terms: &[TermInput],
        k: usize,
        limits: &SearchLimits,
        scratch: &mut SearchScratch,
        materialized: Option<&MaterializedTerms>,
    ) -> (TopKResult, Option<LimitBreach>) {
        faults::fire_unchecked("mid-search");
        let searcher = TopKSearcher::new(&self.node_index, &self.graph);
        match materialized {
            Some(lists) => searcher.search_materialized(lists, k, limits, scratch),
            None => searcher.search(terms, k, limits, scratch),
        }
    }

    /// Resolves term inputs into reusable sorted posting lists for a
    /// [`crate::PreparedStatement`] (sorted access without the join).
    pub(crate) fn materialize_search_terms(&self, terms: &[TermInput]) -> MaterializedTerms {
        TopKSearcher::new(&self.node_index, &self.graph).materialize_terms(terms)
    }

    /// Computes the context summary of a query (Sec. 5): one bucket per term
    /// with the distinct paths the term's search matches across the whole
    /// collection — restricted to the paths its own context allows, the
    /// paths its `TOPK` can match — sorted by absolute path frequency.
    pub fn context_summary(&self, query: &SedaQuery) -> ContextSummary {
        let buckets = query
            .terms
            .iter()
            .enumerate()
            .map(|(i, term)| {
                let allowed = term.context.allowed_paths(&self.collection);
                let (contexts, nodes) = (&self.context_index, &self.node_index);
                let entries = contexts.context_bucket(nodes, &term.search, allowed.as_deref());
                ContextBucket { term: i, label: term.label(), entries }
            })
            .collect();
        ContextSummary { buckets }
    }

    /// Computes the connection summary from a top-k result (Sec. 6): the
    /// pairwise connections between matched nodes, abstracted to context
    /// signatures, most frequent first.  The label probes of the path
    /// descents are counted in the caller's `traversal` scratch, and
    /// `proceed` is asked before each tuple whether discovery goes on (see
    /// [`discover_connections`]).
    pub(crate) fn connection_summary(
        &self,
        top_k: &TopKResult,
        traversal: &mut TraversalScratch,
        proceed: impl FnMut(u64) -> bool,
    ) -> ConnectionSummary {
        let tuples = top_k.node_tuples();
        let connections = discover_connections(
            &self.collection,
            &self.graph,
            &tuples,
            SEARCH_DEPTH,
            traversal,
            proceed,
        );
        ConnectionSummary { connections }
    }

    /// Per-term candidate context paths: the user's selection, the term's own
    /// context spec, or (for fully unrestricted terms) every path the search
    /// component can match.
    pub(crate) fn term_paths(
        &self,
        query: &SedaQuery,
        selections: &ContextSelections,
    ) -> Vec<Vec<PathId>> {
        query
            .terms
            .iter()
            .enumerate()
            .map(|(i, term)| match selections.for_term(i) {
                Some(paths) => paths.to_vec(),
                None => term
                    .context
                    .allowed_paths(&self.collection)
                    .unwrap_or_else(|| self.paths_matching_search(&term.search)),
            })
            .collect()
    }

    /// Computes the complete (non-top-k) result set R(q) of a `RESULTS` /
    /// `CUBE` plan (Sec. 7): every term restricted to its resolved candidate
    /// contexts (`plan.term_paths`, from [`SedaEngine::term_paths`] — a plan
    /// resolves them once and every execution reuses them), tuples
    /// restricted to the selected connections, every graph traversal reusing
    /// the caller's scratch.
    ///
    /// Fails with [`SedaError::Limit`] instead of silently clipping when the
    /// materialised rows would exceed [`EngineConfig::complete_result_limit`]
    /// (lowering refused a plan with more context combinations).
    ///
    /// Under the per-request [`RequestContext`]
    /// ([`RequestContext::unlimited`] for ungoverned callers) cancellation
    /// and the wall-clock deadline are checked between context combinations,
    /// every [`SearchLimits::DEADLINE_STRIDE`]th document inside a twig
    /// evaluation and once more after the last combination; the result-row
    /// and label-probe budgets between combinations, the latter also before
    /// every source row of the cross-root join.  A budget breach returns the
    /// deduplicated rows enumerated so far (clipped to the row ceiling; a
    /// prefix of the full answer when one same-root combination was cut
    /// short, a subset of it when the cross-root join was) together with the
    /// breach, leaving the degrade-or-error decision to the caller;
    /// cancellation always errors.
    pub(crate) fn complete_results_governed(
        &self,
        plan: &QueryPlan,
        scratch: &mut SearchScratch,
        ctx: &RequestContext,
    ) -> Result<GovernedTable, SedaError> {
        let column_names = plan.query.terms.iter().map(|t| t.label()).collect();
        let mut out = GovernedTable {
            table: QueryResultTable::new(column_names),
            ..GovernedTable::default()
        };
        if plan.combinations() == 0 {
            return Ok(out);
        }
        let term_paths = &plan.term_paths;

        // Enumerate one concrete context per term (usually a single
        // combination once the user has refined their query) and evaluate a
        // twig per combination; union the rows.
        let probes_before = scratch.traversal_mut().label_probes;
        let mut combination = vec![0usize; term_paths.len()];
        loop {
            ctx.check_cancelled()?;
            out.breach = ctx.deadline_breach();
            if out.breach.is_none() {
                self.evaluate_combination(plan, &combination, &mut out, scratch, ctx)?;
                // The cross-root join checks the ceiling per source row; the
                // connection filter's probes are checked here.
                out.label_probes = scratch.traversal_mut().label_probes - probes_before;
                out.breach = out.breach.take().or_else(|| ctx.label_probe_breach(out.label_probes));
            }
            let table = &mut out.table;
            if out.breach.is_some() {
                table.sort_dedup();
                return Ok(out);
            }
            if table.len() > self.config.complete_result_limit {
                // Different combinations may produce overlapping rows, so
                // dedup before concluding the (final) result is over-limit.
                table.sort_dedup();
                if table.len() > self.config.complete_result_limit {
                    return Err(SedaError::Limit {
                        resource: "complete-result tuples",
                        spent: table.len(),
                        budget: self.config.complete_result_limit,
                    });
                }
            }
            if ctx.row_breach(table.len()).is_some() {
                // Overlapping combinations may shrink below the ceiling once
                // deduplicated; only a post-dedup excess is a real breach.
                table.sort_dedup();
                if let Some(breach) = ctx.row_breach(table.len()) {
                    table.truncate(breach.budget as usize);
                    out.breach = Some(breach);
                    return Ok(out);
                }
            }

            // Advance the mixed-radix counter.
            let mut pos = 0;
            loop {
                if pos == combination.len() {
                    // Deduplicate rows that different combinations may share.
                    table.sort_dedup();
                    // A complete answer that arrives late is late all the same.
                    out.breach = ctx.deadline_breach();
                    return Ok(out);
                }
                combination[pos] += 1;
                if combination[pos] < term_paths[pos].len() {
                    break;
                }
                combination[pos] = 0;
                pos += 1;
            }
        }
    }

    /// All paths whose nodes can satisfy a search query (used when a term has
    /// neither a context spec nor a selection).
    fn paths_matching_search(&self, search: &FullTextQuery) -> Vec<PathId> {
        let bucket = self.context_index.context_bucket(&self.node_index, search, None);
        bucket.into_iter().map(|e| e.path).collect()
    }

    /// Evaluates one concrete combination of per-term contexts (one path
    /// index per term) via a twig pattern (all contexts in one document
    /// tree) and appends the matching rows to `out.table`, applying the
    /// connection filter; a twig evaluation or cross-root join the request's
    /// context stopped leaves its breach in `out.breach`.
    fn evaluate_combination(
        &self,
        plan: &QueryPlan,
        combination: &[usize],
        out: &mut GovernedTable,
        scratch: &mut SearchScratch,
        ctx: &RequestContext,
    ) -> Result<(), SedaError> {
        let (query, connections) = (&plan.query, &plan.connections);
        let chosen: Vec<PathId> =
            combination.iter().zip(&plan.term_paths).map(|(&i, paths)| paths[i]).collect();
        // All chosen contexts must share the same root label to form a single
        // twig; otherwise fall back to graph enumeration.
        let cells = if plan.same_root(combination) {
            self.twig_rows(query, &chosen, out, ctx)?
        } else {
            self.graph_rows(query, &chosen, out, scratch, ctx)?
        };
        if connections.is_empty() {
            out.table.extend_rows(&cells);
            return Ok(());
        }
        for row in cells.chunks_exact(chosen.len()) {
            if self.row_satisfies_connections(row, connections, scratch) {
                out.table.push_row(row);
            }
        }
        Ok(())
    }

    /// Structural evaluation: merges the chosen contexts' labels into one twig
    /// ([`TwigPattern::from_paths`]: shared prefixes merged, the root anchored
    /// at the document's root element), attaches the term predicates and returns the twig's matches
    /// as flat rows, one cell a term in term order.  Only the documents the
    /// node index says can match are visited
    /// ([`SedaEngine::documents_holding`]); their node count is added to
    /// `out.nodes_visited`, and a stop by `ctx` leaves its breach in
    /// `out.breach` and the rows a prefix.
    fn twig_rows(
        &self,
        query: &SedaQuery,
        chosen: &[PathId],
        out: &mut GovernedTable,
        ctx: &RequestContext,
    ) -> Result<Vec<NodeId>, SedaError> {
        let symbols = self.collection.symbols();
        let labels = chosen.iter().map(|&path| {
            self.collection.paths().resolve(path).steps().iter().map(|&step| symbols.resolve(step))
        });
        let (mut pattern, term_nodes) = TwigPattern::from_paths(labels)
            .expect("invariant: the chosen contexts are interned paths with one root label");
        for (term, &node) in query.terms.iter().zip(&term_nodes) {
            if !term.search.is_match_all() {
                // Two terms on one path: their predicates are conjoined.
                let predicate = match pattern.node(node).predicate.clone() {
                    Some(existing) => {
                        FullTextQuery::And(Box::new(existing), Box::new(term.search.clone()))
                    }
                    None => term.search.clone(),
                };
                pattern.set_predicate(node, predicate);
            }
        }

        let (matches, breach) = match self.documents_holding(query, chosen) {
            Some(holding) => {
                let documents =
                    holding.iter().filter_map(|&doc| self.collection.document(doc).ok());
                self.evaluate_twig_governed(&pattern, documents, false, ctx)?
            }
            None => {
                self.evaluate_twig_governed(&pattern, self.collection.documents(), false, ctx)?
            }
        };
        out.nodes_visited += matches.nodes_visited;
        out.breach = breach;
        let columns: Option<Vec<usize>> =
            term_nodes.iter().map(|&n| matches.column_of(n)).collect();
        let Some(columns) = columns else { return Ok(Vec::new()) };
        let mut cells = Vec::with_capacity(matches.len() * columns.len());
        for row in matches.rows() {
            cells.extend(columns.iter().map(|&c| row[c]));
        }
        Ok(cells)
    }

    /// The documents that can hold a match of every term on its chosen path,
    /// ascending — `None` when no term narrows them.  A term narrows when its
    /// search needs an indexed token ([`FullTextQuery::requires_token`]): the
    /// node index then returns every node on the path the twig's predicate
    /// accepts, and (the twig's root being anchored, every step a child step)
    /// a match of the term's pattern node is a node on exactly that path.
    /// The evaluator still checks the predicate, so this only ever narrows.
    fn documents_holding(&self, query: &SedaQuery, chosen: &[PathId]) -> Option<Vec<DocId>> {
        let mut documents: Option<Vec<DocId>> = None;
        for (term, &path) in query.terms.iter().zip(chosen) {
            if !term.search.requires_token() {
                continue;
            }
            let matches = self.node_index.evaluate_in_paths(&term.search, &[path]);
            let mut holding: Vec<DocId> = matches.iter().map(|scored| scored.node.doc).collect();
            holding.sort_unstable();
            holding.dedup();
            if let Some(narrowed) = &documents {
                holding.retain(|doc| narrowed.binary_search(doc).is_ok());
            }
            documents = Some(holding);
        }
        documents
    }

    /// [`evaluate_twig_in`] under the request's context, through its stop
    /// hook: cancellation and the deadline are checked before document 0 and
    /// before every [`SearchLimits::DEADLINE_STRIDE`]th after it — only when
    /// there is such a document, so an evaluation that visited them all is
    /// never reported as cut short.  A deadline ends the evaluation — the
    /// matches are then a prefix of the full answer and the breach comes back
    /// with them; cancellation is the error it is.  With `row_ceiling` the
    /// hook also ends it before the first document after the rows exceed the
    /// request's `max_rows`, so a `TWIG` never evaluates (and materialises)
    /// more of the collection than the document that crossed it; the caller
    /// finds that breach in the row count and clips the prefix.
    fn evaluate_twig_governed<'a>(
        &self,
        pattern: &TwigPattern,
        documents: impl Iterator<Item = &'a Document>,
        row_ceiling: bool,
        ctx: &RequestContext,
    ) -> Result<(TwigMatches, Option<LimitBreach>), SedaError> {
        let mut stop: Result<Option<LimitBreach>, SedaError> = Ok(None);
        let mut asked = 0;
        let matches = evaluate_twig_in(&self.collection, pattern, documents, |rows| {
            if asked % SearchLimits::DEADLINE_STRIDE == 0 {
                stop = ctx.check_cancelled().map(|()| ctx.deadline_breach());
            }
            asked += 1;
            !matches!(stop, Ok(None)) || (row_ceiling && ctx.row_breach(rows).is_some())
        });
        Ok((matches, stop?))
    }

    /// Fallback evaluation when the chosen contexts span different document
    /// roots: per-term candidate nodes joined by data-graph connectivity.
    /// Fails with [`SedaError::Limit`] instead of clipping when the join's
    /// intermediate partial-tuple frontier reaches
    /// [`EngineConfig::complete_result_limit`] — a resource bound on the
    /// enumeration itself, reported as such rather than as a final tuple
    /// count.  The request's label-probe ceiling — counted from
    /// `out.label_probes`, what earlier combinations spent — is checked once
    /// per source row; a breach leaves `out.breach` set and returns the
    /// whole rows found so far (none before the last term's stage).  Rows
    /// come back flat, one cell a term in term order, and the frontier is
    /// kept the same way: `stage` cells a row before stage `stage`.
    fn graph_rows(
        &self,
        query: &SedaQuery,
        chosen: &[PathId],
        out: &mut GovernedTable,
        scratch: &mut SearchScratch,
        ctx: &RequestContext,
    ) -> Result<Vec<NodeId>, SedaError> {
        let candidates: Vec<Vec<NodeId>> = chosen
            .iter()
            .enumerate()
            .map(|(i, &path)| {
                self.node_index
                    .evaluate_in_paths(&query.terms[i].search, &[path])
                    .into_iter()
                    .map(|s| s.node)
                    .collect()
            })
            .collect();
        if candidates.iter().any(Vec::is_empty) {
            return Ok(Vec::new());
        }
        let limit = self.config.complete_result_limit;
        let traversal = scratch.traversal_mut();
        let probes_before = traversal.label_probes - out.label_probes;
        // A row is written to the next frontier once its newest member has
        // passed the test.
        let admit = |next: &mut Vec<NodeId>, row: &[NodeId], candidate: NodeId| {
            next.extend_from_slice(row);
            next.push(candidate);
            let rows = next.len() / (row.len() + 1);
            if rows > limit {
                return Err(SedaError::Limit {
                    resource: "graph-join frontier tuples",
                    spent: rows,
                    budget: limit,
                });
            }
            Ok(())
        };
        let mut frontier: Vec<NodeId> = Vec::new();
        for (stage, term_candidates) in candidates.iter().enumerate() {
            let mut next = Vec::new();
            // Before the first stage the frontier is one row of no cells.
            let start = (stage == 0).then_some(&[][..]);
            for row in start.into_iter().chain(frontier.chunks_exact(stage.max(1))) {
                if let Some(breach) = ctx.label_probe_breach(traversal.label_probes - probes_before)
                {
                    out.breach = Some(breach);
                    // Rows of an earlier stage are not rows of the answer.
                    if stage + 1 < candidates.len() {
                        next.clear();
                    }
                    return Ok(next);
                }
                let Some(&source) = row.first() else {
                    for &candidate in term_candidates {
                        admit(&mut next, row, candidate)?;
                    }
                    continue;
                };
                // A tuple is connected when every later node lies within
                // `SEARCH_DEPTH` of its first (`is_connected_with`), and the
                // row's members passed that test when the row was formed: only
                // the candidate is new.  The first node is one source for the
                // whole candidate list, so it is pinned; `pin` refuses only a
                // source outside the graph or its oracle, which connects to
                // nothing.
                let Some(mut first) = pin(&self.graph, traversal, source) else { continue };
                for &candidate in term_candidates {
                    if first.distance_to(candidate, SEARCH_DEPTH).is_some() {
                        admit(&mut next, row, candidate)?;
                    }
                }
            }
            frontier = next;
            if frontier.is_empty() {
                break;
            }
        }
        Ok(frontier)
    }

    /// Checks the selected-connection constraint for one result row: every
    /// pair of nodes whose contexts are the two ends of some selected
    /// connection signature must be related by one of the selected
    /// signatures (the pair's [`connection_signature`], as discovery takes
    /// it).
    fn row_satisfies_connections(
        &self,
        nodes: &[NodeId],
        connections: &[Vec<PathId>],
        scratch: &mut SearchScratch,
    ) -> bool {
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                let (Ok(pa), Ok(pb)) =
                    (self.collection.context(nodes[i]), self.collection.context(nodes[j]))
                else {
                    return false;
                };
                let ends = |c: &&Vec<PathId>| (c.first().copied(), c.last().copied());
                let relevant: Vec<&Vec<PathId>> = connections
                    .iter()
                    .filter(|c| [(Some(pa), Some(pb)), (Some(pb), Some(pa))].contains(&ends(c)))
                    .collect();
                if relevant.is_empty() {
                    continue;
                }
                let Some((signature, _)) = connection_signature(
                    &self.collection,
                    &self.graph,
                    scratch.traversal_mut(),
                    nodes[i],
                    nodes[j],
                    SEARCH_DEPTH,
                ) else {
                    return false;
                };
                let reversed: Vec<PathId> = signature.iter().rev().copied().collect();
                let matched = relevant.iter().any(|c| **c == signature || **c == reversed);
                if !matched {
                    return false;
                }
            }
        }
        true
    }

    /// Derives (and instantiates) the star schema for a complete result
    /// (Sec. 7, steps 1–3).
    pub fn build_star_schema(
        &self,
        result: &QueryResultTable,
        options: &BuildOptions,
    ) -> StarSchemaBuild {
        StarSchemaBuilder::new(&self.collection, &self.registry).build(result, options)
    }

    /// Evaluates a compiled twig pattern over every document and hands its
    /// matches over as a [`QueryResultTable`] — the evaluator's row buffer
    /// moved, not copied: one column per output pattern node (named by the
    /// node's [`TwigPattern::expression`], axes included), one row per match, with the
    /// document nodes the evaluation visited
    /// ([`seda_twigjoin::TwigMatches::nodes_visited`]).  A deadline that runs
    /// out during the evaluation returns the prefix matched so far with the
    /// breach; cancellation errors.  The request's row ceiling stops the
    /// evaluation after the document that crosses it, leaving the caller a
    /// prefix longer than the ceiling to clip.
    pub(crate) fn twig_table(
        &self,
        pattern: &TwigPattern,
        ctx: &RequestContext,
    ) -> Result<GovernedTable, SedaError> {
        let column_names: Vec<String> =
            pattern.output_nodes().into_iter().map(|node| pattern.expression(node)).collect();
        let (matches, breach) =
            self.evaluate_twig_governed(pattern, self.collection.documents(), true, ctx)?;
        let nodes_visited = matches.nodes_visited;
        // The matches' columns are the pattern's output nodes, in this order.
        let table = QueryResultTable::from_cells(column_names, matches.into_cells());
        Ok(GovernedTable { table, nodes_visited, label_probes: 0, breach })
    }
}

/// A result table computed under a [`RequestContext`], with what the
/// computation cost and whether the context cut it short.
#[derive(Debug, Default)]
pub(crate) struct GovernedTable {
    /// The rows computed; a prefix of the full answer's when `breach` is a
    /// deadline that stopped a twig evaluation, or when a `TWIG`'s rows
    /// exceed its row ceiling (no breach: the row count is one).
    pub(crate) table: QueryResultTable,
    /// Document nodes the twig evaluations visited (0 for the cross-root
    /// join, which enumerates the graph instead).
    pub(crate) nodes_visited: usize,
    /// Label probes the connectivity checks spent (the cross-root join, the
    /// connection filter; 0 for `TWIG`).
    pub(crate) label_probes: u64,
    /// The budget breach that ended the computation, if any.
    pub(crate) breach: Option<LimitBreach>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::SedaQuery;
    use crate::request::{RequestBuilder, SedaRequest};
    use seda_xmlstore::parse_collection;

    fn engine() -> SedaEngine {
        let collection = parse_collection(vec![
            (
                "us2006.xml",
                r#"<country><name>United States</name><year>2006</year>
                     <economy><GDP_ppp>12.31T</GDP_ppp><import_partners>
                       <item><trade_country>China</trade_country><percentage>15</percentage></item>
                       <item><trade_country>Canada</trade_country><percentage>16.9</percentage></item>
                     </import_partners>
                     <export_partners>
                       <item><trade_country>Canada</trade_country><percentage>23.4</percentage></item>
                     </export_partners></economy></country>"#,
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
        ])
        .unwrap();
        SedaEngine::build(collection, Registry::factbook_defaults(), EngineConfig::default())
            .unwrap()
    }

    /// A request over `q` with one `WITH` path per listed term.
    fn request(q: &SedaQuery, selections: &[(usize, &str)]) -> RequestBuilder {
        let builder = SedaRequest::builder().query(q.clone());
        selections.iter().fold(builder, |b, &(term, path)| b.select_paths(term, [path]))
    }

    /// Ungoverned `TOPK k` through a fresh reader.
    fn top_k(e: &SedaEngine, q: &SedaQuery, selections: &[(usize, &str)], k: usize) -> TopKResult {
        let response = e.reader().execute(&request(q, selections).top_k(k).build()).unwrap();
        response.top_k().unwrap().clone()
    }

    /// Ungoverned `RESULTS` through a fresh reader, `VIA` each signature.
    fn results(
        e: &SedaEngine,
        q: &SedaQuery,
        selections: &[(usize, &str)],
        via: &[Vec<String>],
    ) -> QueryResultTable {
        let builder = request(q, selections).complete_results();
        let builder = via.iter().fold(builder, |b, signature| b.via(signature.clone()));
        e.reader().execute(&builder.build()).unwrap().table().unwrap().clone()
    }

    /// Query 1's terms pinned to the import-partner contexts.
    const IMPORT: [(usize, &str); 3] = [
        (0, "/country/name"),
        (1, "/country/economy/import_partners/item/trade_country"),
        (2, "/country/economy/import_partners/item/percentage"),
    ];

    fn query1() -> SedaQuery {
        SedaQuery::parse(r#"(*, "United States") AND (trade_country, *) AND (percentage, *)"#)
            .unwrap()
    }

    /// A term's bucket lists only the contexts its own context allows — the
    /// contexts its `TOPK` can match — not every path sharing the leaf tag.
    #[test]
    fn context_summary_honours_the_terms_own_context() {
        let collection = parse_collection(vec![
            ("us.xml", "<country><name>United States</name></country>"),
            ("pacific.xml", "<sea><name>Pacific Ocean</name></sea>"),
        ])
        .unwrap();
        let e = SedaEngine::build(collection, Registry::new(), EngineConfig::default()).unwrap();
        let contexts = |text: &str| {
            let summary = e.context_summary(&SedaQuery::parse(text).unwrap());
            let paths = summary.buckets[0].paths();
            paths.iter().map(|&p| e.collection().path_string(p)).collect::<Vec<_>>()
        };
        assert_eq!(contexts("(/country/name, *)"), ["/country/name"]);
        assert_eq!(contexts("(/sea/name|/country/name, *)"), ["/country/name", "/sea/name"]);
        assert_eq!(contexts("(name, *)"), ["/country/name", "/sea/name"]);
        assert_eq!(contexts("(na*, ocean)"), ["/sea/name"]);
        assert!(contexts("(/country, *)").is_empty(), "the root holds no text");
        let mut reader = e.reader();
        let topk = reader.execute_text("TOPK 10 FOR (/country/name, *)").unwrap();
        let matched: Vec<String> = topk
            .top_k()
            .unwrap()
            .tuples
            .iter()
            .map(|t| e.collection().context_string(t.nodes[0]).unwrap())
            .collect();
        assert_eq!(matched, ["/country/name"]);
    }

    #[test]
    fn context_summary_reports_contexts_for_each_term() {
        let e = engine();
        let summary = e.context_summary(&query1());
        assert_eq!(summary.buckets.len(), 3);
        // "United States" occurs as a country name and as an export partner.
        let us_paths: Vec<String> =
            summary.buckets[0].entries.iter().map(|p| e.collection().path_string(p.path)).collect();
        assert!(us_paths.contains(&"/country/name".to_string()));
        assert!(
            us_paths.contains(&"/country/economy/export_partners/item/trade_country".to_string())
        );
        // trade_country occurs in two contexts (import and export partners).
        assert_eq!(summary.buckets[1].entries.len(), 2);
        // Frequencies are absolute and sorted descending.
        let freqs: Vec<usize> = summary.buckets[1].entries.iter().map(|e| e.frequency).collect();
        assert!(freqs[0] >= freqs[1]);
    }

    #[test]
    fn top_k_and_connection_summary() {
        let e = engine();
        let q = query1();
        let topk = top_k(&e, &q, &[], 10);
        assert!(!topk.tuples.is_empty());
        let connections = e.reader().connection_summary(&topk);
        assert!(!connections.is_empty());
        // The same-item trade_country ~ percentage connection must be among
        // the discovered connections.
        let c = e.collection();
        let tc = c
            .paths()
            .get_str(c.symbols(), "/country/economy/import_partners/item/trade_country")
            .unwrap();
        let pct = c
            .paths()
            .get_str(c.symbols(), "/country/economy/import_partners/item/percentage")
            .unwrap();
        assert!(connections.connections.iter().any(|c| {
            (c.from_path, c.to_path) == (tc, pct) || (c.from_path, c.to_path) == (pct, tc)
        }));
    }

    #[test]
    fn context_selection_restricts_topk_results() {
        let e = engine();
        let q = query1();
        let c = e.collection();
        let topk = top_k(&e, &q, &[(0, "/country/name")], 20);
        for t in &topk.tuples {
            assert_eq!(c.context_string(t.nodes[0]).unwrap(), "/country/name");
        }
    }

    #[test]
    fn complete_results_for_query1_import_refinement() {
        let e = engine();
        let q = query1();
        let c = e.collection();
        let result = results(&e, &q, &IMPORT, &[]);
        // US 2006 has two import items, US 2005 has two: four rows in total
        // (Mexico's document has no import partners and its name is not
        // "United States").
        assert_eq!(result.len(), 4);
        for row in result.rows() {
            let name_content = c.content(row[0]).unwrap();
            assert_eq!(name_content, "United States");
        }
    }

    #[test]
    fn connection_filter_excludes_cross_item_pairings() {
        let e = engine();
        let q = query1();
        let c = e.collection();
        let tc = e.resolve_path(IMPORT[1].1).unwrap();
        let pct = e.resolve_path(IMPORT[2].1).unwrap();
        // Discover connections from the top-k and keep only the same-item one
        // (length 2).
        let topk = top_k(&e, &q, &IMPORT, 10);
        let summary = e.reader().connection_summary(&topk);
        let same_item: Vec<Vec<String>> = summary
            .connections
            .iter()
            .filter(|conn| conn.from_path == tc && conn.to_path == pct && conn.length() == 2)
            .map(|conn| conn.signature.iter().map(|&p| c.path_string(p)).collect())
            .collect();
        assert!(!same_item.is_empty());
        let result = results(&e, &q, &IMPORT, &same_item);
        assert_eq!(result.len(), 4);
        for row in result.rows() {
            let (tc_node, pct_node) = (row[1], row[2]);
            let tc_parent = c.node(tc_node).unwrap().parent;
            let pct_parent = c.node(pct_node).unwrap().parent;
            assert_eq!(tc_parent, pct_parent, "connection filter must keep same-item pairs only");
        }
    }

    #[test]
    fn end_to_end_star_schema_matches_figure_3() {
        let e = engine();
        let q = query1();
        let result = results(&e, &q, &IMPORT, &[]);
        let build = e.build_star_schema(&result, &BuildOptions::default());
        let fact = build.schema.fact("import-trade-percentage").expect("fact table");
        assert_eq!(fact.dimension_columns(), ["country", "year", "import-country"]);
        assert_eq!(fact.len(), 4);
        assert!(fact.dimensions_form_key());
    }

    #[test]
    fn dataguide_stats_report_merge_outcome() {
        let e = engine();
        let stats = e.dataguide_stats().unwrap();
        assert_eq!(stats.documents, 3);
        assert!(stats.dataguides <= 3 && stats.dataguides >= 1);
        assert!(stats.threshold > 0.39 && stats.threshold < 0.41);
    }

    #[test]
    fn parallel_build_is_identical_to_sequential() {
        let collection = parse_collection(vec![
            (
                "us.xml",
                r#"<country id="cty-us"><name>United States</name><year>2006</year>
                     <economy><import_partners>
                       <item><trade_country>China</trade_country><percentage>15</percentage></item>
                     </import_partners></economy></country>"#,
            ),
            (
                "sea.xml",
                r#"<sea id="sea-pac"><name>Pacific Ocean</name>
                     <bordering country_idref="cty-us"/></sea>"#,
            ),
            ("mx.xml", r#"<country id="cty-mx"><name>Mexico</name><year>2003</year></country>"#),
        ])
        .unwrap();

        let sequential = SedaEngine::build(
            collection.clone(),
            Registry::factbook_defaults(),
            EngineConfig::default(),
        )
        .unwrap();
        let parallel = SedaEngine::build(
            collection,
            Registry::factbook_defaults(),
            EngineConfig { parallelism: 4, ..EngineConfig::default() },
        )
        .unwrap();

        assert_eq!(parallel.node_index(), sequential.node_index());
        assert_eq!(parallel.context_index(), sequential.context_index());
        assert_eq!(parallel.graph(), sequential.graph());
        assert_eq!(parallel.dataguide_stats(), sequential.dataguide_stats());

        // Same query, same answers.
        let q = SedaQuery::parse(r#"(/country/name, *) AND (/sea/name, *)"#).unwrap();
        assert_eq!(results(&sequential, &q, &[], &[]), results(&parallel, &q, &[], &[]));
    }

    #[test]
    fn build_profile_reflects_the_build_shape() {
        let e = engine();
        let profile = e.build_profile();
        assert_eq!(profile.parallelism, 1);
        assert_eq!(profile.documents, 3);
        assert!(profile.total_secs > 0.0);
        let names: Vec<&str> = profile.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            [
                span::BUILD_GRAPH,
                span::BUILD_CONTEXT_INDEX,
                span::BUILD_NODE_INDEX,
                span::BUILD_VERIFY
            ]
        );
        assert_eq!(profile.merge_secs(), 0.0, "no build has a merge phase");
        for name in names {
            assert!(profile.render().contains(name), "{name}");
        }

        let collection =
            parse_collection(vec![("a.xml", "<a><x>1</x></a>"), ("b.xml", "<a><x>2</x></a>")])
                .unwrap();
        let parallel = SedaEngine::build(
            collection,
            Registry::new(),
            EngineConfig { parallelism: 2, ..EngineConfig::default() },
        )
        .unwrap();
        let profile = parallel.build_profile();
        assert_eq!(profile.parallelism, 2);
        assert!(profile.render().contains("2 docs, 2 thread(s)"));
    }

    /// A build from sources at one and two threads.
    fn from_sources(sources: &[(&str, &str)], parallelism: usize) -> Result<SedaEngine, SedaError> {
        let config = EngineConfig { parallelism, ..EngineConfig::default() };
        SedaEngine::build_from_sources(sources.iter().copied(), Registry::new(), config)
    }

    #[test]
    fn builds_from_sources_parse_the_edge_cases_as_one_parse() {
        let big = r#"<country id="us2006"><name>United States</name><year>2006</year>
            <economy><import_partners><item><trade_country>China</trade_country>
            <percentage>15</percentage></item></import_partners></economy></country>"#;
        let lists: [&[(&str, &str)]; 6] = [
            &[],
            &[("one.xml", big)],
            &[("a.xml", "<a><b>x</b></a>"), ("b.xml", "<c><b>y</b></c>")],
            &[("s.xml", "<a/>"), ("big.xml", big), ("t.xml", "<z q='1'/>")],
            &[("big.xml", big), ("s.xml", "<a/>"), ("t.xml", "<z q='1'/>")],
            &[("s.xml", "<a/>"), ("t.xml", "<z q='1'/>"), ("big.xml", big)],
        ];
        for sources in lists {
            let expected = parse_collection(sources.iter().copied()).unwrap();
            for parallelism in [1, 2] {
                let engine = from_sources(sources, parallelism).unwrap();
                assert_eq!(engine.build_profile().parallelism, parallelism);
                assert_eq!(engine.collection(), &expected, "{parallelism}: {sources:?}");
            }
        }
    }

    #[test]
    fn a_refused_document_fails_as_one_parse_at_both_thread_counts() {
        let good = ("good.xml", "<country><name>Peru</name></country>");
        let refusals = [
            ("unclosed.xml", "<country><name>Peru</name>"),
            ("mismatched.xml", "<country></name>"),
            ("empty.xml", "   "),
        ];
        let refused = |sources: &[(&str, &str)]| {
            let expected = SedaError::Store(parse_collection(sources.iter().copied()).unwrap_err());
            for parallelism in [1, 2] {
                let error = from_sources(sources, parallelism).err();
                assert_eq!(error.as_ref(), Some(&expected), "{parallelism}: {sources:?}");
            }
        };
        for (at, bad) in refusals.into_iter().enumerate() {
            for position in 0..6 {
                let mut sources = vec![good; 5];
                sources.insert(position, bad);
                refused(&sources);
                // A second refusal later on: the first in document order wins,
                // whichever half each lands in.
                for later in position + 1..=sources.len() {
                    let mut both = sources.clone();
                    both.insert(later, refusals[(at + 1) % refusals.len()]);
                    refused(&both);
                }
            }
        }
    }

    #[test]
    fn parallel_build_of_empty_collection_works() {
        let engine = SedaEngine::build(
            Collection::new(),
            Registry::new(),
            EngineConfig { parallelism: 4, ..EngineConfig::default() },
        )
        .unwrap();
        assert_eq!(engine.collection().len(), 0);
        assert_eq!(engine.dataguide_stats().unwrap().dataguides, 0);
    }

    #[test]
    fn cross_root_queries_use_the_graph_fallback() {
        // A query whose terms live in documents with different roots.
        let collection = parse_collection(vec![
            (
                "us.xml",
                r#"<country id="cty-us"><name>United States</name><population>298M</population></country>"#,
            ),
            (
                "sea.xml",
                r#"<sea id="sea-pac"><name>Pacific Ocean</name>
                     <bordering country_idref="cty-us"/></sea>"#,
            ),
        ])
        .unwrap();
        let e = SedaEngine::build(collection, Registry::new(), EngineConfig::default()).unwrap();
        let q = SedaQuery::parse(r#"(/country/name, *) AND (/sea/name, *)"#).unwrap();
        let result = results(&e, &q, &[], &[]);
        assert_eq!(result.len(), 1, "country and sea are connected via the IDREF edge");
        let contents: Vec<String> =
            result.rows().flatten().map(|&n| e.collection().content(n).unwrap()).collect();
        assert_eq!(contents, vec!["United States", "Pacific Ocean"]);
    }

    /// The seam `TWIG` and same-root `RESULTS` / `CUBE` are governed through,
    /// driven without a race against the clock: the document iterator itself
    /// cancels the request, or outlasts its deadline, at a chosen document.
    #[test]
    fn a_governed_twig_evaluation_asks_its_context_on_stride_boundaries() {
        use crate::govern::{Budget, CancelToken};
        use std::time::Duration;

        const STRIDE: usize = SearchLimits::DEADLINE_STRIDE;
        let documents = 2 * STRIDE + STRIDE / 2;
        let mut collection = Collection::new();
        for d in 0..documents {
            collection
                .add_document(format!("d{d}.xml"), |b| {
                    b.start_element("r")?;
                    b.leaf("a", "x")?;
                    b.end_element()
                })
                .unwrap();
        }
        let e = SedaEngine::build(collection, Registry::new(), EngineConfig::default()).unwrap();
        let pattern = TwigPattern::parse("/r/a").unwrap();
        let all = || e.collection().documents();
        let (full, breach) =
            e.evaluate_twig_governed(&pattern, all(), false, &RequestContext::unlimited()).unwrap();
        assert_eq!((full.len(), breach), (documents, None));
        let is_prefix = |matches: &TwigMatches| full.rows().take(matches.len()).eq(matches.rows());

        // Cancelled while a document past the first boundary is handed out:
        // noticed at the next boundary, and an error whatever was matched.
        let token = CancelToken::new();
        let ctx = RequestContext::unlimited().with_cancel_token(token.clone());
        let mut handed_out = 0;
        let cancelling = all().inspect(|document| {
            handed_out += 1;
            if document.id.index() == STRIDE + 3 {
                token.cancel();
            }
        });
        let outcome = e.evaluate_twig_governed(&pattern, cancelling, false, &ctx);
        assert_eq!(outcome.err(), Some(SedaError::Cancelled));
        assert_eq!(handed_out, 2 * STRIDE + 1, "the boundary document was the last one asked for");

        // A deadline outlasted at the same document: the evaluation ends at
        // the next boundary with a prefix and the breach.  (A host that stalls
        // for the whole deadline earlier ends it at an earlier boundary.)
        let deadline = Duration::from_millis(200);
        let ctx = RequestContext::new(Budget::unlimited().with_deadline(deadline));
        let outlasting = all().inspect(|document| {
            if document.id.index() == STRIDE + 3 {
                std::thread::sleep(deadline);
            }
        });
        let (prefix, breach) = e.evaluate_twig_governed(&pattern, outlasting, false, &ctx).unwrap();
        assert_eq!(breach.map(|b| b.resource), Some("deadline"));
        assert!(prefix.len() <= 2 * STRIDE && prefix.len() % STRIDE == 0, "{}", prefix.len());
        assert!(is_prefix(&prefix));

        // Outlasted after the last boundary: every document was visited, so
        // the evaluation reports nothing (the statement's own final check of
        // the clock does).
        let ctx = RequestContext::new(Budget::unlimited().with_deadline(deadline));
        let outlasting = all().inspect(|document| {
            if document.id.index() == documents - 1 {
                std::thread::sleep(deadline);
            }
        });
        let (late, breach) = e.evaluate_twig_governed(&pattern, outlasting, false, &ctx).unwrap();
        assert_eq!((late.len(), breach), (documents, None));
        assert!(ctx.deadline_breach().is_some());

        // The row ceiling is asked before every document, not on stride
        // boundaries, and only where the caller applies it: the evaluation
        // ends after the document that crossed it, with no breach of its own
        // (the row count is the breach).
        let ctx = RequestContext::new(Budget::unlimited().with_max_rows(3));
        let mut handed_out = 0;
        let counting = all().inspect(|_| handed_out += 1);
        let (bounded, breach) = e.evaluate_twig_governed(&pattern, counting, true, &ctx).unwrap();
        assert_eq!((bounded.len(), breach), (4, None));
        assert_eq!(handed_out, 5, "asked before the fifth document, after four rows");
        assert_eq!(bounded.nodes_visited, 4 * 2);
        assert!(is_prefix(&bounded));
        let (unbounded, _) = e.evaluate_twig_governed(&pattern, all(), false, &ctx).unwrap();
        assert_eq!(unbounded.len(), documents);
    }
}
