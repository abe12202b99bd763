//! The SEDA execution engine (Fig. 4): top-k search unit, context summary
//! generator, connection summary generator, complete result set generator and
//! data cube processor, built over the storage and indexing substrates.
//!
//! # Build lifecycle
//!
//! Three substrates — node index, data graph, dataguides — follow a
//! **shard → merge** lifecycle: a per-document shard phase that parallelises
//! freely (documents share the collection's intern tables, so shards carry
//! globally valid ids) and a merge phase that combines shards
//! deterministically in document order.  The context index is one serial
//! fold over the collection (see `seda_textindex::context_index` for the
//! measurement).  [`SedaEngine::build`] runs this one orchestration at every
//! thread count: [`EngineConfig::parallelism`] only sets how many workers the
//! shard phases fan out over (one runs them inline on the build thread), and
//! a [`BuildProfile`] records per-substrate shard and merge wall times.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use seda_datagraph::{is_connected_with, pin, shortest_path_with, DataGraph, GraphConfig};
use seda_dataguide::{
    discover_connections, guide_links, Connection, DataGuideSet, DataGuideStats, GuideLink,
};
use seda_olap::{BuildOptions, QueryResultTable, Registry, StarSchemaBuild, StarSchemaBuilder};
use seda_textindex::{ContextIndex, CountStorage, FullTextQuery, NodeIndex};
use seda_topk::{LimitBreach, MaterializedTerms, SearchLimits, SearchScratch};
use seda_topk::{TermInput, TopKConfig, TopKResult, TopKSearcher};
use seda_twigjoin::{evaluate_twig_in, Axis, TwigMatches, TwigPattern};
use seda_xmlstore::{parse_collection, Collection, DocId, Document, NodeId, PathId};

use crate::error::SedaError;
use crate::faults;
use crate::govern::{RequestContext, Stopwatch};
use crate::metrics::{names, MetricsRegistry};
use crate::parallel::{effective_parallelism, panic_message, parallel_map, WorkerPanic};
use crate::query::{ContextSpec, SedaQuery};
use crate::summaries::{ConnectionSummary, ContextBucket, ContextSelections, ContextSummary};
use crate::trace::{span, SpanRecord, Tracer};

/// Lifts a contained build-worker panic into the unified error taxonomy.
impl From<WorkerPanic> for SedaError {
    fn from(p: WorkerPanic) -> Self {
        SedaError::Internal(format!("build worker panicked on document {}: {}", p.index, p.message))
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
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Dataguide merge threshold (the paper uses 40%).
    pub dataguide_threshold: f64,
    /// Top-k search configuration.
    pub topk: TopKConfig,
    /// Data-graph construction configuration (ID/IDREF conventions,
    /// value-based key specs).
    pub graph: GraphConfig,
    /// Count storage of the context index (Fig. 8 design choice).
    pub count_storage: CountStorage,
    /// Maximum number of hops considered when verifying connections in the
    /// complete-result generator.
    pub connection_max_depth: usize,
    /// Upper bound on the number of complete-result tuples materialised by
    /// the fallback graph-enumeration path.
    pub complete_result_limit: usize,
    /// Worker threads for the shard phases of the engine build: `1` (the
    /// default) runs them inline on the build thread, `0` uses the machine's
    /// available parallelism, any other value is taken literally.  The build
    /// output is identical for every setting.
    pub parallelism: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            dataguide_threshold: 0.4,
            topk: TopKConfig::default(),
            graph: GraphConfig::default(),
            count_storage: CountStorage::DocumentStore,
            connection_max_depth: 12,
            complete_result_limit: 500_000,
            parallelism: 1,
        }
    }
}

/// Wall time of one substrate's build, split into its two lifecycle phases.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseProfile {
    /// Seconds spent building per-document shards (the parallel phase; zero
    /// for the context index, which has none).
    pub shard_secs: f64,
    /// Seconds spent in the serial phase, on every build: merging shards, or
    /// the context index's whole one-fold build.
    pub merge_secs: f64,
}

impl PhaseProfile {
    fn finish_shards(start: Stopwatch) -> (Self, Stopwatch) {
        let (shard_secs, merge_start) = start.split();
        (PhaseProfile { shard_secs, merge_secs: 0.0 }, merge_start)
    }

    fn finish_merge(&mut self, merge_start: Stopwatch) {
        self.merge_secs = merge_start.elapsed_secs();
    }

    /// Total seconds spent on this substrate.
    pub fn total_secs(&self) -> f64 {
        self.shard_secs + self.merge_secs
    }
}

/// Timings and shape of one [`SedaEngine::build`] run, so one-thread vs
/// several-thread speedups are measured (`benchmark/` reads them) rather than
/// asserted.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BuildProfile {
    /// Worker threads actually used (after resolving `parallelism == 0` and
    /// clamping to the document count).
    pub parallelism: usize,
    /// Documents in the collection — also the shards each sharded substrate
    /// builds, one per document.
    pub documents: usize,
    /// Node full-text index build.
    pub node_index: PhaseProfile,
    /// Keyword → context index build: one serial fold, reported as
    /// `merge_secs` (the serial phase).
    pub context_index: PhaseProfile,
    /// Data-graph construction and resolution.
    pub graph: PhaseProfile,
    /// Dataguide computation and threshold merge.
    pub guides: PhaseProfile,
    /// Inter-dataguide link derivation (always sequential).
    pub links_secs: f64,
    /// Bytes held by the precomputed connectivity-oracle labels (see
    /// [`seda_datagraph::ConnectivityIndex::label_bytes`]).
    pub label_bytes: usize,
    /// Bytes held by the node index — its whole heap, all tables summed (see
    /// [`seda_textindex::NodeIndex::read_model_bytes`] for the tables and the
    /// budgets of the path tables and the token arena).
    pub posting_bytes: usize,
    /// Milliseconds spent on the post-build structural audit
    /// ([`SedaEngine::verify`]) that every build runs before handing the
    /// engine to the caller.
    pub verify_ms: f64,
    /// End-to-end engine build wall time (includes the post-build audit).
    pub total_secs: f64,
    /// Hierarchical span breakdown of the build (per-substrate shard/merge
    /// phases, link derivation, audit verify), recorded by the build-path
    /// [`crate::Tracer`].
    pub spans: Vec<SpanRecord>,
}

impl BuildProfile {
    /// Seconds spent across all shard phases.
    pub fn shard_secs(&self) -> f64 {
        self.node_index.shard_secs
            + self.context_index.shard_secs
            + self.graph.shard_secs
            + self.guides.shard_secs
    }

    /// Seconds spent across all merge phases.
    pub fn merge_secs(&self) -> f64 {
        self.node_index.merge_secs
            + self.context_index.merge_secs
            + self.graph.merge_secs
            + self.guides.merge_secs
    }

    /// Renders the profile as a small human-readable table.
    pub fn render(&self) -> String {
        let row = |name: &str, p: &PhaseProfile| {
            format!(
                "  {name:<14} {:>9.2}ms shard  {:>9.2}ms merge\n",
                p.shard_secs * 1e3,
                p.merge_secs * 1e3
            )
        };
        let mut out = format!(
            "build profile: {} docs, {} thread(s), {:.2}ms total\n",
            self.documents,
            self.parallelism,
            self.total_secs * 1e3
        );
        out.push_str(&row("node index", &self.node_index));
        out.push_str(&row("context index", &self.context_index));
        out.push_str(&row("data graph", &self.graph));
        out.push_str(&row("dataguides", &self.guides));
        out.push_str(&format!("  {:<14} {:>9.2}ms\n", "guide links", self.links_secs * 1e3));
        out.push_str(&format!("  {:<14} {:>9} bytes\n", "oracle labels", self.label_bytes));
        out.push_str(&format!(
            "  {:<14} {:>9} bytes (the node index's whole heap)\n",
            "posting tables", self.posting_bytes
        ));
        out.push_str(&format!("  {:<14} {:>9.2}ms\n", "audit", self.verify_ms));
        out
    }
}

/// Source of [`SedaEngine`] ids: every build in the process takes the next
/// (`Relaxed`: the id publishes no other data, and `fetch_add` alone keeps
/// every id distinct).
static NEXT_ENGINE_ID: AtomicU64 = AtomicU64::new(0);

/// The SEDA engine: owns the collection, every index, the dataguide summary
/// and the fact/dimension registry.
pub struct SedaEngine {
    /// Process-unique id of this build, stamped into every plan it lowers:
    /// plans and prepared statements carry this engine's path and node ids,
    /// so only this engine's readers may run them.
    id: u64,
    collection: Collection,
    node_index: NodeIndex,
    context_index: ContextIndex,
    graph: DataGraph,
    guides: DataGuideSet,
    links: Vec<GuideLink>,
    registry: Registry,
    config: EngineConfig,
    profile: BuildProfile,
    /// Engine-wide metrics: counters, gauges and latency histograms every
    /// governed request records into (see [`crate::metrics`]).
    metrics: MetricsRegistry,
}

impl SedaEngine {
    /// Builds the engine: constructs the data graph, both full-text indexes
    /// and the dataguide summary over the collection.
    ///
    /// Each sharded substrate builds one shard per document — across a scoped
    /// pool of [`EngineConfig::parallelism`] workers, inline at one — and
    /// merges the shards in document order, so the resulting engine is
    /// identical at every thread count.  The timings of both phases are
    /// recorded in [`SedaEngine::build_profile`].
    pub fn build(
        collection: Collection,
        registry: Registry,
        config: EngineConfig,
    ) -> Result<Self, SedaError> {
        catch_internal(|| Self::build_inner(collection, registry, config))
    }

    /// Parses `sources` (name, XML text pairs) into a [`Collection`] and
    /// builds the engine over it — the one-call ingestion entry point.
    ///
    /// Parse failures surface as [`SedaError::Store`]; a panic anywhere in
    /// parsing or building is contained and surfaced as
    /// [`SedaError::Internal`], leaving the caller's process intact.
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
            faults::fire("parse")?;
            let collection = parse_collection(sources)?;
            Self::build_inner(collection, registry, config)
        })
    }

    fn build_inner(
        collection: Collection,
        registry: Registry,
        config: EngineConfig,
    ) -> Result<Self, SedaError> {
        let build_start = Stopwatch::start();
        // More workers than documents cannot help; clamping keeps the
        // reported parallelism honest and avoids spawning idle workers for
        // tiny collections.
        let threads = effective_parallelism(config.parallelism).min(collection.len()).max(1);
        let mut profile = BuildProfile {
            parallelism: threads,
            documents: collection.len(),
            ..BuildProfile::default()
        };
        // The build path is always traced: builds are rare and expensive, so
        // the span breakdown is worth its (small, bounded) cost.
        let mut tracer = Tracer::enabled();
        tracer.begin();

        let (graph, node_index, context_index, guides) =
            Self::build_substrates(&collection, &config, threads, &mut profile, &mut tracer)?;

        let links_span = tracer.enter(span::BUILD_LINKS);
        let links_start = Stopwatch::start();
        let links = guide_links(&collection, &graph, &guides);
        profile.links_secs = links_start.elapsed_secs();
        tracer.exit(links_span);
        profile.label_bytes = graph.connectivity().label_bytes();
        profile.posting_bytes = node_index.read_model_bytes().total();

        let mut engine = SedaEngine {
            id: NEXT_ENGINE_ID.fetch_add(1, Ordering::Relaxed),
            collection,
            node_index,
            context_index,
            graph,
            guides,
            links,
            registry,
            config,
            profile,
            metrics: MetricsRegistry::new(),
        };
        engine.metrics.gauge(names::ENGINE_DOCUMENTS).set(engine.collection.len() as u64);
        engine.metrics.gauge(names::ORACLE_LABEL_BYTES).set(engine.profile.label_bytes as u64);
        engine.metrics.gauge(names::POSTING_BYTES).set(engine.profile.posting_bytes as u64);

        // Post-build audit: a freshly built engine must satisfy every
        // substrate invariant; a violation here means the build itself is
        // broken, which is an internal defect rather than a user error.
        let verify_span = tracer.enter(span::BUILD_VERIFY);
        let verify_start = Stopwatch::start();
        if let Err(violations) = engine.verify() {
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
        engine.profile.verify_ms = verify_start.elapsed_secs() * 1e3;
        tracer.exit(verify_span);
        engine.profile.total_secs = build_start.elapsed_secs();
        engine.profile.spans = tracer.take_spans();

        Ok(engine)
    }

    /// Builds all four substrates: per-document shards are fanned out across
    /// `threads` workers (inline at one), then merged in document order.
    fn build_substrates(
        collection: &Collection,
        config: &EngineConfig,
        threads: usize,
        profile: &mut BuildProfile,
        tracer: &mut Tracer,
    ) -> Result<(DataGraph, NodeIndex, ContextIndex, DataGuideSet), SedaError> {
        let docs: Vec<DocId> = collection.documents().map(|d| d.id).collect();

        let outer = tracer.enter(span::BUILD_GRAPH);
        let inner = tracer.enter(span::SHARD);
        let t = Stopwatch::start();
        let shards = parallel_map(&docs, threads, |&doc| {
            DataGraph::build_shard(collection, doc, &config.graph)
        })?;
        let (mut phase, merge_start) = PhaseProfile::finish_shards(t);
        tracer.exit(inner);
        let inner = tracer.enter(span::MERGE);
        faults::fire("oracle-build")?;
        let graph = DataGraph::merge(collection, shards);
        phase.finish_merge(merge_start);
        tracer.exit(inner);
        profile.graph = phase;
        tracer.exit(outer);

        let outer = tracer.enter(span::BUILD_NODE_INDEX);
        let inner = tracer.enter(span::SHARD);
        let t = Stopwatch::start();
        let shards = parallel_map(&docs, threads, |&doc| {
            NodeIndex::build_shard(
                collection
                    .document(doc)
                    .expect("invariant: collection document ids are dense (doc-id-dense)"),
            )
        })?;
        let (mut phase, merge_start) = PhaseProfile::finish_shards(t);
        tracer.exit(inner);
        let inner = tracer.enter(span::MERGE);
        faults::fire("shard-merge")?;
        let node_index = NodeIndex::merge(shards);
        phase.finish_merge(merge_start);
        tracer.exit(inner);
        profile.node_index = phase;
        tracer.exit(outer);

        // The context index has no shard phase (one fold over the collection
        // is cheaper than merging per-document shards was): its whole build
        // is serial time, so it is reported as merge time.
        let outer = tracer.enter(span::BUILD_CONTEXT_INDEX);
        let inner = tracer.enter(span::MERGE);
        let t = Stopwatch::start();
        let context_index = ContextIndex::build(collection, config.count_storage);
        profile.context_index.finish_merge(t);
        tracer.exit(inner);
        tracer.exit(outer);

        let outer = tracer.enter(span::BUILD_GUIDES);
        let inner = tracer.enter(span::SHARD);
        let t = Stopwatch::start();
        let shards =
            parallel_map(&docs, threads, |&doc| DataGuideSet::build_shard(collection, [doc]))?;
        let (mut phase, merge_start) = PhaseProfile::finish_shards(t);
        tracer.exit(inner);
        let inner = tracer.enter(span::MERGE);
        let shards = shards.into_iter().collect::<seda_xmlstore::Result<Vec<_>>>()?;
        let guides = DataGuideSet::merge(config.dataguide_threshold, shards);
        phase.finish_merge(merge_start);
        tracer.exit(inner);
        profile.guides = phase;
        tracer.exit(outer);

        Ok((graph, node_index, context_index, guides))
    }

    /// The id [`SedaEngine::prepare`] stamps into this engine's plans.
    pub(crate) fn id(&self) -> u64 {
        self.id
    }

    /// Timings and shape of the build that produced this engine.
    pub fn build_profile(&self) -> &BuildProfile {
        &self.profile
    }

    /// The engine-wide metrics registry: counters, gauges and latency
    /// histograms recorded by every governed request (see [`crate::metrics`]).
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
    ) -> (&mut Collection, &mut NodeIndex, &mut ContextIndex, &mut DataGraph, &mut DataGuideSet)
    {
        (
            &mut self.collection,
            &mut self.node_index,
            &mut self.context_index,
            &mut self.graph,
            &mut self.guides,
        )
    }

    /// The underlying collection.
    pub fn collection(&self) -> &Collection {
        &self.collection
    }

    /// The fact/dimension registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Mutable access to the registry (users can define new facts and
    /// dimensions during query processing).
    pub fn registry_mut(&mut self) -> &mut Registry {
        &mut self.registry
    }

    /// The data graph.
    pub fn graph(&self) -> &DataGraph {
        &self.graph
    }

    /// The merged dataguide summary.
    pub fn guides(&self) -> &DataGuideSet {
        &self.guides
    }

    /// Inter-dataguide links.
    pub fn guide_links(&self) -> &[GuideLink] {
        &self.links
    }

    /// The node full-text index.
    pub fn node_index(&self) -> &NodeIndex {
        &self.node_index
    }

    /// The keyword→path context index.
    pub fn context_index(&self) -> &ContextIndex {
        &self.context_index
    }

    /// The engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Table 1 statistics of the dataguide summary.
    pub fn dataguide_stats(&self) -> DataGuideStats {
        self.guides.stats(self.collection.len())
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

    /// The engine's one search: runs the Threshold-Algorithm searcher under
    /// `config` (its `k` honoured literally — `0` yields an empty result) and
    /// per-request [`SearchLimits`] ([`SearchLimits::unlimited`] for
    /// ungoverned callers), over either fresh posting lists or a prepared
    /// statement's materialized term lists.  The second element reports the
    /// first exhausted resource, if any; the returned tuples are then the
    /// certifiably correct prefix computed before it ran out.
    pub(crate) fn search(
        &self,
        terms: &[TermInput],
        config: &TopKConfig,
        limits: &SearchLimits,
        scratch: &mut SearchScratch,
        materialized: Option<&MaterializedTerms>,
    ) -> (TopKResult, Option<LimitBreach>) {
        faults::fire_unchecked("mid-search");
        let searcher = TopKSearcher::new(&self.node_index, &self.graph);
        match materialized {
            Some(lists) => searcher.search_materialized(lists, config, limits, scratch),
            None => searcher.search(terms, config, limits, scratch),
        }
    }

    /// Resolves term inputs into reusable sorted posting lists for a
    /// [`crate::PreparedStatement`] (sorted access without the join).
    pub(crate) fn materialize_search_terms(&self, terms: &[TermInput]) -> MaterializedTerms {
        TopKSearcher::new(&self.node_index, &self.graph).materialize_terms(terms)
    }

    /// Computes the context summary of a query (Sec. 5): one bucket per term
    /// with all distinct paths the term appears in, across the whole
    /// collection, sorted by absolute path frequency.
    pub fn context_summary(&self, query: &SedaQuery) -> ContextSummary {
        let mut buckets = Vec::with_capacity(query.terms.len());
        for (i, term) in query.terms.iter().enumerate() {
            let entries = match &term.context {
                ContextSpec::Any => self.context_index.context_bucket(&term.search),
                ContextSpec::Path(path) => {
                    // Probe with the last tag name of the path in conjunction
                    // with the search query.
                    let tag = path.rsplit('/').next().unwrap_or_default();
                    self.context_index.context_bucket_with_tag(&self.collection, &term.search, tag)
                }
                ContextSpec::Tag(tag) => {
                    if tag.contains('*') {
                        // Wildcard tag: fall back to filtering the plain
                        // bucket by the allowed paths of the spec.
                        let allowed =
                            term.context.allowed_paths(&self.collection).unwrap_or_default();
                        self.context_index
                            .context_bucket(&term.search)
                            .into_iter()
                            .filter(|e| allowed.contains(&e.path))
                            .collect()
                    } else {
                        self.context_index.context_bucket_with_tag(
                            &self.collection,
                            &term.search,
                            tag,
                        )
                    }
                }
                ContextSpec::Disjunction(_) => {
                    let allowed = term.context.allowed_paths(&self.collection);
                    let bucket = self.context_index.context_bucket(&term.search);
                    match allowed {
                        Some(paths) => {
                            bucket.into_iter().filter(|e| paths.contains(&e.path)).collect()
                        }
                        None => bucket,
                    }
                }
            };
            buckets.push(ContextBucket { term: i, label: term.label(), entries });
        }
        ContextSummary { buckets }
    }

    /// Computes the connection summary from a top-k result (Sec. 6): the
    /// pairwise connections between matched nodes, abstracted to context
    /// signatures, most frequent first.
    pub fn connection_summary(&self, top_k: &TopKResult) -> ConnectionSummary {
        let tuples = top_k.node_tuples();
        let connections = discover_connections(
            &self.collection,
            &self.graph,
            &tuples,
            self.config.connection_max_depth,
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

    /// Number of concrete per-term context combinations the complete-result
    /// generator would enumerate over already-resolved per-term path sets;
    /// [`SedaError::Limit`] when it exceeds
    /// [`EngineConfig::complete_result_limit`].
    pub(crate) fn context_combinations_of(
        &self,
        term_paths: &[Vec<PathId>],
    ) -> Result<usize, SedaError> {
        if term_paths.iter().any(Vec::is_empty) {
            return Ok(0);
        }
        let mut combinations = 1usize;
        for paths in term_paths {
            combinations = combinations.saturating_mul(paths.len());
        }
        if combinations > self.config.complete_result_limit {
            return Err(SedaError::Limit {
                resource: "context combinations",
                spent: combinations,
                budget: self.config.complete_result_limit,
            });
        }
        Ok(combinations)
    }

    /// Computes the complete (non-top-k) result set R(q) for a refined query
    /// (Sec. 7): every term restricted to its resolved candidate contexts
    /// (`term_paths`, from [`SedaEngine::term_paths`] — a plan resolves them
    /// once and every execution reuses them), tuples restricted to the
    /// selected connections, every graph traversal reusing the caller's
    /// scratch.
    ///
    /// Fails with [`SedaError::Limit`] instead of silently clipping when the
    /// context combinations or materialised rows would exceed
    /// [`EngineConfig::complete_result_limit`].
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
        query: &SedaQuery,
        term_paths: &[Vec<PathId>],
        connections: &[Connection],
        scratch: &mut SearchScratch,
        ctx: &RequestContext,
    ) -> Result<GovernedTable, SedaError> {
        let column_names = query.terms.iter().map(|t| t.label()).collect();
        let mut out = GovernedTable {
            table: QueryResultTable::new(column_names),
            ..GovernedTable::default()
        };

        if self.context_combinations_of(term_paths)? == 0 {
            return Ok(out);
        }

        // Enumerate one concrete context per term (usually a single
        // combination once the user has refined their query) and evaluate a
        // twig per combination; union the rows.
        let probes_before = scratch.traversal_mut().label_probes;
        let mut combination = vec![0usize; term_paths.len()];
        loop {
            ctx.check_cancelled()?;
            out.breach = ctx.deadline_breach();
            if out.breach.is_none() {
                let chosen: Vec<PathId> =
                    combination.iter().enumerate().map(|(t, &i)| term_paths[t][i]).collect();
                self.evaluate_combination(query, &chosen, connections, &mut out, scratch, ctx)?;
                // The cross-root join checks the ceiling per source row; the
                // connection filter's probes are checked here.
                out.label_probes = scratch.traversal_mut().label_probes - probes_before;
                out.breach = out.breach.take().or_else(|| ctx.label_probe_breach(out.label_probes));
            }
            let table = &mut out.table;
            if out.breach.is_some() {
                table.rows.sort();
                table.rows.dedup();
                return Ok(out);
            }
            if table.rows.len() > self.config.complete_result_limit {
                // Different combinations may produce overlapping rows, so
                // dedup before concluding the (final) result is over-limit.
                table.rows.sort();
                table.rows.dedup();
                if table.rows.len() > self.config.complete_result_limit {
                    return Err(SedaError::Limit {
                        resource: "complete-result tuples",
                        spent: table.rows.len(),
                        budget: self.config.complete_result_limit,
                    });
                }
            }
            if ctx.row_breach(table.rows.len()).is_some() {
                // Overlapping combinations may shrink below the ceiling once
                // deduplicated; only a post-dedup excess is a real breach.
                table.rows.sort();
                table.rows.dedup();
                if let Some(breach) = ctx.row_breach(table.rows.len()) {
                    table.rows.truncate(breach.budget as usize);
                    out.breach = Some(breach);
                    return Ok(out);
                }
            }

            // Advance the mixed-radix counter.
            let mut pos = 0;
            loop {
                if pos == combination.len() {
                    // Deduplicate rows that different combinations may share.
                    table.rows.sort();
                    table.rows.dedup();
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
        self.context_index.context_bucket(search).into_iter().map(|e| e.path).collect()
    }

    /// Evaluates one concrete combination of per-term contexts via a twig
    /// pattern (all contexts in one document tree) and appends the matching
    /// rows to `out.table`, applying the connection filter; a twig evaluation
    /// or cross-root join the request's context stopped leaves its breach in
    /// `out.breach`.
    fn evaluate_combination(
        &self,
        query: &SedaQuery,
        chosen: &[PathId],
        connections: &[Connection],
        out: &mut GovernedTable,
        scratch: &mut SearchScratch,
        ctx: &RequestContext,
    ) -> Result<(), SedaError> {
        // All chosen contexts must share the same root label to form a single
        // twig; otherwise fall back to graph enumeration.
        let path_strings: Vec<String> =
            chosen.iter().map(|&p| self.collection.path_string(p)).collect();
        let roots: Vec<&str> = path_strings
            .iter()
            .map(|p| p.trim_start_matches('/').split('/').next().unwrap_or_default())
            .collect();
        let same_root = roots.windows(2).all(|w| w[0] == w[1]);

        let rows: Vec<Vec<NodeId>> = if same_root {
            self.twig_rows(query, chosen, &path_strings, out, ctx)?
        } else {
            self.graph_rows(query, chosen, out, scratch, ctx)?
        };

        for nodes in rows {
            if !connections.is_empty()
                && !self.row_satisfies_connections(&nodes, connections, scratch)
            {
                continue;
            }
            let row: Vec<(NodeId, PathId)> =
                nodes.iter().zip(chosen.iter()).map(|(&n, &p)| (n, p)).collect();
            out.table.rows.push(row);
        }
        Ok(())
    }

    /// Structural evaluation: builds one twig from the chosen context paths
    /// (shared prefixes merged, the root anchored at the document's root
    /// element), attaches the term predicates and returns one row per twig
    /// match, with columns in term order.  Only the documents the node index
    /// says can match are visited ([`SedaEngine::documents_holding`]); their
    /// node count is added to `out.nodes_visited`, and a stop by `ctx` leaves
    /// its breach in `out.breach` and the rows a prefix.
    fn twig_rows(
        &self,
        query: &SedaQuery,
        chosen: &[PathId],
        path_strings: &[String],
        out: &mut GovernedTable,
        ctx: &RequestContext,
    ) -> Result<Vec<Vec<NodeId>>, SedaError> {
        // Build the pattern manually so we know which pattern node belongs to
        // which term.
        let root_label = path_strings[0].trim_start_matches('/').split('/').next().unwrap_or("");
        if root_label.is_empty() {
            return Ok(Vec::new());
        }
        let mut pattern = TwigPattern::with_root(root_label);
        let mut term_nodes = Vec::with_capacity(path_strings.len());
        for (term_idx, path) in path_strings.iter().enumerate() {
            let mut current = pattern.root();
            for label in path.trim_start_matches('/').split('/').skip(1) {
                let existing = pattern.node(current).children.iter().copied().find(|&c| {
                    pattern.node(c).label == label && pattern.node(c).axis == Axis::Child
                });
                current = match existing {
                    Some(c) => c,
                    None => pattern.add_child(current, label, Axis::Child),
                };
            }
            pattern.set_output(current, true);
            if !query.terms[term_idx].search.is_match_all() {
                // Combine predicates if two terms map to the same pattern node.
                let predicate = match pattern.node(current).predicate.clone() {
                    Some(existing) => FullTextQuery::And(
                        Box::new(existing),
                        Box::new(query.terms[term_idx].search.clone()),
                    ),
                    None => query.terms[term_idx].search.clone(),
                };
                pattern.set_predicate(current, predicate);
            }
            term_nodes.push(current);
        }

        let (matches, breach) = match self.documents_holding(query, chosen) {
            Some(holding) => {
                let documents =
                    holding.iter().filter_map(|&doc| self.collection.document(doc).ok());
                self.evaluate_twig_governed(&pattern, documents, ctx)?
            }
            None => self.evaluate_twig_governed(&pattern, self.collection.documents(), ctx)?,
        };
        out.nodes_visited += matches.nodes_visited;
        out.breach = breach;
        let columns: Vec<usize> =
            term_nodes.iter().map(|&n| matches.column_of(n).unwrap_or(usize::MAX)).collect();
        if columns.contains(&usize::MAX) {
            return Ok(Vec::new());
        }
        Ok(matches.rows.iter().map(|row| columns.iter().map(|&c| row[c]).collect()).collect())
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

    /// [`evaluate_twig_in`] under the request's context: `ctx` is asked
    /// before document 0 and before every [`SearchLimits::DEADLINE_STRIDE`]th
    /// after it — only when there is such a document, so an evaluation that
    /// visited them all is never reported as cut short.  A deadline ends the
    /// iteration — the matches are then a prefix of the full answer and the
    /// breach comes back with them; cancellation is the error it is.
    fn evaluate_twig_governed<'a>(
        &self,
        pattern: &TwigPattern,
        documents: impl Iterator<Item = &'a Document>,
        ctx: &RequestContext,
    ) -> Result<(TwigMatches, Option<LimitBreach>), SedaError> {
        let mut stop: Result<Option<LimitBreach>, SedaError> = Ok(None);
        let governed = documents.enumerate().map_while(|(visited, document)| {
            if visited % SearchLimits::DEADLINE_STRIDE == 0 {
                stop = ctx.check_cancelled().map(|()| ctx.deadline_breach());
            }
            matches!(stop, Ok(None)).then_some(document)
        });
        let matches = evaluate_twig_in(&self.collection, pattern, governed);
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
    /// whole rows found so far (none before the last term's stage).
    fn graph_rows(
        &self,
        query: &SedaQuery,
        chosen: &[PathId],
        out: &mut GovernedTable,
        scratch: &mut SearchScratch,
        ctx: &RequestContext,
    ) -> Result<Vec<Vec<NodeId>>, SedaError> {
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
        let max_depth = self.config.connection_max_depth;
        let limit = self.config.complete_result_limit;
        let traversal = scratch.traversal_mut();
        let probes_before = traversal.label_probes - out.label_probes;
        // A row is allocated, at full width, once its newest member has
        // passed the test.
        let admit = |next: &mut Vec<Vec<NodeId>>, row: &[NodeId], candidate: NodeId| {
            let mut extended = Vec::with_capacity(candidates.len());
            extended.extend_from_slice(row);
            extended.push(candidate);
            next.push(extended);
            if next.len() > limit {
                return Err(SedaError::Limit {
                    resource: "graph-join frontier tuples",
                    spent: next.len(),
                    budget: limit,
                });
            }
            Ok(())
        };
        let mut rows: Vec<Vec<NodeId>> = vec![Vec::new()];
        for (stage, term_candidates) in candidates.iter().enumerate() {
            let mut next = Vec::new();
            for row in &rows {
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
                // `max_depth` of its first ([`is_connected_with`]), and the
                // row's members passed that test when the row was formed: only
                // the candidate is new.  The first node is one source for the
                // whole candidate list, so it is pinned.
                let Some(mut first) = pin(&self.graph, traversal, source) else {
                    for &candidate in term_candidates {
                        if is_connected_with(
                            &self.graph,
                            traversal,
                            &[source, candidate],
                            max_depth,
                        ) {
                            admit(&mut next, row, candidate)?;
                        }
                    }
                    continue;
                };
                for &candidate in term_candidates {
                    if first.distance_to(candidate, max_depth).is_some() {
                        admit(&mut next, row, candidate)?;
                    }
                }
            }
            rows = next;
            if rows.is_empty() {
                break;
            }
        }
        Ok(rows)
    }

    /// Checks the selected-connection constraint for one result row: every
    /// pair of nodes whose contexts are the endpoints of some selected
    /// connection must be related by one of the selected signatures.
    fn row_satisfies_connections(
        &self,
        nodes: &[NodeId],
        connections: &[Connection],
        scratch: &mut SearchScratch,
    ) -> bool {
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                let (Ok(pa), Ok(pb)) =
                    (self.collection.context(nodes[i]), self.collection.context(nodes[j]))
                else {
                    return false;
                };
                let relevant: Vec<&Connection> = connections
                    .iter()
                    .filter(|c| {
                        (c.from_path == pa && c.to_path == pb)
                            || (c.from_path == pb && c.to_path == pa)
                    })
                    .collect();
                if relevant.is_empty() {
                    continue;
                }
                let Some(hops) = shortest_path_with(
                    &self.graph,
                    scratch.traversal_mut(),
                    nodes[i],
                    nodes[j],
                    self.config.connection_max_depth,
                ) else {
                    return false;
                };
                let mut signature = vec![pa];
                for hop in &hops {
                    match self.collection.context(hop.node) {
                        Ok(p) => signature.push(p),
                        Err(_) => return false,
                    }
                }
                let reversed: Vec<PathId> = signature.iter().rev().copied().collect();
                let matched =
                    relevant.iter().any(|c| c.signature == signature || c.signature == reversed);
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

    /// Evaluates a compiled twig pattern over every document and shapes the
    /// matches as a [`QueryResultTable`]: one column per output pattern node
    /// (labelled with the node's root-to-leaf label chain), one row per
    /// match, with the document nodes the evaluation visited
    /// ([`seda_twigjoin::TwigMatches::nodes_visited`]).  A deadline that runs
    /// out during the evaluation returns the prefix matched so far with the
    /// breach; cancellation errors.
    pub(crate) fn twig_table(
        &self,
        pattern: &TwigPattern,
        ctx: &RequestContext,
    ) -> Result<GovernedTable, SedaError> {
        let outputs = pattern.output_nodes();
        let column_names: Vec<String> = outputs
            .iter()
            .map(|&node| {
                let mut labels = Vec::new();
                let mut current = Some(node);
                while let Some(idx) = current {
                    labels.push(pattern.node(idx).label.clone());
                    current = pattern.node(idx).parent;
                }
                labels.reverse();
                format!("/{}", labels.join("/"))
            })
            .collect();
        let (matches, breach) =
            self.evaluate_twig_governed(pattern, self.collection.documents(), ctx)?;
        let columns: Vec<Option<usize>> = outputs.iter().map(|&n| matches.column_of(n)).collect();
        let mut table = QueryResultTable::new(column_names);
        for row in &matches.rows {
            let shaped: Option<Vec<(NodeId, PathId)>> = columns
                .iter()
                .map(|&c| {
                    let node = row[c?];
                    let path = self.collection.context(node).ok()?;
                    Some((node, path))
                })
                .collect();
            if let Some(shaped) = shaped {
                table.rows.push(shaped);
            }
        }
        Ok(GovernedTable { table, nodes_visited: matches.nodes_visited, label_probes: 0, breach })
    }
}

/// A result table computed under a [`RequestContext`], with what the
/// computation cost and whether the context cut it short.
#[derive(Debug, Default)]
pub(crate) struct GovernedTable {
    /// The rows computed; a prefix of the full answer's when `breach` is a
    /// deadline that stopped a twig evaluation.
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

    /// Ungoverned top-k through a fresh reader.
    fn top_k(
        e: &SedaEngine,
        q: &SedaQuery,
        selections: &ContextSelections,
        k: usize,
    ) -> TopKResult {
        e.reader().top_k_governed(q, selections, k, &RequestContext::unlimited()).unwrap().0
    }

    fn query1() -> SedaQuery {
        SedaQuery::parse(r#"(*, "United States") AND (trade_country, *) AND (percentage, *)"#)
            .unwrap()
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
        let topk = top_k(&e, &q, &ContextSelections::none(), 10);
        assert!(!topk.tuples.is_empty());
        let connections = e.connection_summary(&topk);
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
        assert!(!connections.between(tc, pct).is_empty());
    }

    #[test]
    fn context_selection_restricts_topk_results() {
        let e = engine();
        let q = query1();
        let c = e.collection();
        let name = c.paths().get_str(c.symbols(), "/country/name").unwrap();
        let mut selections = ContextSelections::none();
        selections.select(0, vec![name]);
        let topk = top_k(&e, &q, &selections, 20);
        for t in &topk.tuples {
            assert_eq!(c.context_string(t.nodes[0]).unwrap(), "/country/name");
        }
    }

    #[test]
    fn complete_results_for_query1_import_refinement() {
        let e = engine();
        let q = query1();
        let c = e.collection();
        let name = c.paths().get_str(c.symbols(), "/country/name").unwrap();
        let tc = c
            .paths()
            .get_str(c.symbols(), "/country/economy/import_partners/item/trade_country")
            .unwrap();
        let pct = c
            .paths()
            .get_str(c.symbols(), "/country/economy/import_partners/item/percentage")
            .unwrap();
        let mut selections = ContextSelections::none();
        selections.select(0, vec![name]);
        selections.select(1, vec![tc]);
        selections.select(2, vec![pct]);
        let result = e.reader().complete_results(&q, &selections, &[]).unwrap();
        // US 2006 has two import items, US 2005 has two: four rows in total
        // (Mexico's document has no import partners and its name is not
        // "United States").
        assert_eq!(result.len(), 4);
        for row in &result.rows {
            let name_content = c.content(row[0].0).unwrap();
            assert_eq!(name_content, "United States");
        }
    }

    #[test]
    fn connection_filter_excludes_cross_item_pairings() {
        let e = engine();
        let q = query1();
        let c = e.collection();
        let name = c.paths().get_str(c.symbols(), "/country/name").unwrap();
        let tc = c
            .paths()
            .get_str(c.symbols(), "/country/economy/import_partners/item/trade_country")
            .unwrap();
        let pct = c
            .paths()
            .get_str(c.symbols(), "/country/economy/import_partners/item/percentage")
            .unwrap();
        let mut selections = ContextSelections::none();
        selections.select(0, vec![name]);
        selections.select(1, vec![tc]);
        selections.select(2, vec![pct]);
        // Discover connections from the top-k and keep only the same-item one
        // (length 2).
        let topk = top_k(&e, &q, &selections, 10);
        let summary = e.connection_summary(&topk);
        let same_item: Vec<Connection> = summary
            .connections
            .iter()
            .filter(|conn| conn.from_path == tc && conn.to_path == pct && conn.length() == 2)
            .cloned()
            .collect();
        assert!(!same_item.is_empty());
        let result = e.reader().complete_results(&q, &selections, &same_item).unwrap();
        assert_eq!(result.len(), 4);
        for row in &result.rows {
            let tc_node = row[1].0;
            let pct_node = row[2].0;
            let tc_parent = c.node(tc_node).unwrap().parent;
            let pct_parent = c.node(pct_node).unwrap().parent;
            assert_eq!(tc_parent, pct_parent, "connection filter must keep same-item pairs only");
        }
    }

    #[test]
    fn end_to_end_star_schema_matches_figure_3() {
        let e = engine();
        let q = query1();
        let c = e.collection();
        let name = c.paths().get_str(c.symbols(), "/country/name").unwrap();
        let tc = c
            .paths()
            .get_str(c.symbols(), "/country/economy/import_partners/item/trade_country")
            .unwrap();
        let pct = c
            .paths()
            .get_str(c.symbols(), "/country/economy/import_partners/item/percentage")
            .unwrap();
        let mut selections = ContextSelections::none();
        selections.select(0, vec![name]);
        selections.select(1, vec![tc]);
        selections.select(2, vec![pct]);
        let result = e.reader().complete_results(&q, &selections, &[]).unwrap();
        let build = e.build_star_schema(&result, &BuildOptions::default());
        let fact = build.schema.fact("import-trade-percentage").expect("fact table");
        assert_eq!(fact.dimension_columns, vec!["country", "year", "import-country"]);
        assert_eq!(fact.len(), 4);
        assert!(fact.dimensions_form_key());
    }

    #[test]
    fn dataguide_stats_report_merge_outcome() {
        let e = engine();
        let stats = e.dataguide_stats();
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
        assert_eq!(parallel.guides(), sequential.guides());
        assert_eq!(parallel.guide_links(), sequential.guide_links());
        assert_eq!(parallel.dataguide_stats(), sequential.dataguide_stats());

        // Same query, same answers.
        let q = SedaQuery::parse(r#"(/country/name, *) AND (/sea/name, *)"#).unwrap();
        let seq_result =
            sequential.reader().complete_results(&q, &ContextSelections::none(), &[]).unwrap();
        let par_result =
            parallel.reader().complete_results(&q, &ContextSelections::none(), &[]).unwrap();
        assert_eq!(seq_result.rows, par_result.rows);
    }

    #[test]
    fn build_profile_reflects_the_build_shape() {
        let e = engine();
        let profile = e.build_profile();
        assert_eq!(profile.parallelism, 1);
        assert_eq!(profile.documents, 3);
        assert!(profile.total_secs > 0.0);
        assert!(profile.merge_secs() > 0.0, "one thread runs the same serial phases");
        assert!(!profile.render().is_empty());

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

    #[test]
    fn parallel_build_of_empty_collection_works() {
        let engine = SedaEngine::build(
            Collection::new(),
            Registry::new(),
            EngineConfig { parallelism: 4, ..EngineConfig::default() },
        )
        .unwrap();
        assert_eq!(engine.collection().len(), 0);
        assert!(engine.guides().is_empty());
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
        let result = e.reader().complete_results(&q, &ContextSelections::none(), &[]).unwrap();
        assert_eq!(result.len(), 1, "country and sea are connected via the IDREF edge");
        let contents: Vec<String> =
            result.rows[0].iter().map(|(n, _)| e.collection().content(*n).unwrap()).collect();
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
            e.evaluate_twig_governed(&pattern, all(), &RequestContext::unlimited()).unwrap();
        assert_eq!((full.len(), breach), (documents, None));

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
        let outcome = e.evaluate_twig_governed(&pattern, cancelling, &ctx);
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
        let (prefix, breach) = e.evaluate_twig_governed(&pattern, outlasting, &ctx).unwrap();
        assert_eq!(breach.map(|b| b.resource), Some("deadline"));
        assert!(prefix.len() <= 2 * STRIDE && prefix.len() % STRIDE == 0, "{}", prefix.len());
        assert_eq!(prefix.rows[..], full.rows[..prefix.len()]);

        // Outlasted after the last boundary: every document was visited, so
        // the evaluation reports nothing (the statement's own final check of
        // the clock does).
        let ctx = RequestContext::new(Budget::unlimited().with_deadline(deadline));
        let outlasting = all().inspect(|document| {
            if document.id.index() == documents - 1 {
                std::thread::sleep(deadline);
            }
        });
        let (late, breach) = e.evaluate_twig_governed(&pattern, outlasting, &ctx).unwrap();
        assert_eq!((late.rows.len(), breach), (documents, None));
        assert!(ctx.deadline_breach().is_some());
    }
}
