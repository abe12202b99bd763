//! Property tests for the shard → merge build lifecycle: merging
//! per-document shards of a randomly generated multi-document collection must
//! produce byte-for-byte the same substrates as the sequential single-pass
//! build — identical `NodeIndex` postings, identical `DataGraph` edges, and
//! identical `DataGuideSet` contents and Table-1 statistics.  (The context
//! index has no shard lifecycle; the engine property below still compares
//! it across build paths.)
//!
//! `NodeIndex` is compared by its derived `PartialEq`, field by field, so the
//! whole frozen read model is covered: term dictionary, posting arena, the
//! per-posting path array and the path-partitioned match-all runs.

use proptest::prelude::*;

use seda_core::{EngineConfig, SedaEngine};
use seda_datagraph::{DataGraph, GraphConfig, ValueKeySpec};
use seda_dataguide::DataGuideSet;
use seda_olap::Registry;
use seda_textindex::NodeIndex;
use seda_xmlstore::{Collection, DocId};

/// Builds a heterogeneous collection from a compact random description: each
/// document picks one of six shapes, gets a couple of keyword-bearing leaves,
/// and some documents carry id / idref attributes so the data graph has
/// cross-document edges to resolve at merge time.
fn random_collection(docs: &[(u8, String, String)]) -> Collection {
    let mut collection = Collection::new();
    for (i, (shape, word_a, word_b)) in docs.iter().enumerate() {
        let shape = shape % 6;
        collection
            .add_document(format!("doc{i}.xml"), |b| {
                b.start_element(&format!("shape{shape}"))?;
                b.attribute("id", &format!("node-{i}"))?;
                if i > 0 {
                    // Reference some earlier document to exercise IDREF
                    // resolution across shard boundaries.
                    b.start_element("link")?;
                    b.attribute("target_idref", &format!("node-{}", i / 2))?;
                    b.end_element()?;
                }
                b.leaf("title", word_a)?;
                for f in 0..(shape + 1) {
                    b.leaf(&format!("field_{shape}_{f}"), word_b)?;
                }
                if shape % 2 == 0 {
                    b.start_element("nested")?;
                    b.leaf("inner", &format!("{word_a} {word_b}"))?;
                    b.end_element()?;
                }
                b.end_element()?;
                Ok(())
            })
            .expect("document builds");
    }
    collection
}

fn arb_docs() -> impl Strategy<Value = Vec<(u8, String, String)>> {
    proptest::collection::vec((0u8..6, "[a-z]{1,8}", "[a-z]{1,8}"), 1..16)
}

fn graph_config() -> GraphConfig {
    // A value key linking titles to nested inner text exercises the
    // cross-document value join in the merge phase.
    GraphConfig::with_value_keys(vec![ValueKeySpec::new("/shape0/title", "/shape2/title")])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `NodeIndex::merge` over per-document shards equals the sequential
    /// build, posting for posting.
    #[test]
    fn node_index_merge_equals_sequential(docs in arb_docs()) {
        let c = random_collection(&docs);
        let sequential = NodeIndex::build(&c);
        let mut shards: Vec<_> = c.documents().map(NodeIndex::build_shard).collect();
        shards.reverse();
        let merged = NodeIndex::merge(shards);
        prop_assert_eq!(&merged, &sequential);
        prop_assert_eq!(merged.indexed_node_count(), sequential.indexed_node_count());
    }

    /// `DataGraph::merge` resolves IDREF and value-key edges identically to
    /// the sequential two-pass build.
    #[test]
    fn data_graph_merge_equals_sequential(docs in arb_docs()) {
        let c = random_collection(&docs);
        let config = graph_config();
        let sequential = DataGraph::build(&c, &config);
        let mut shards: Vec<_> = c
            .documents()
            .map(|d| DataGraph::build_shard(&c, d.id, &config))
            .collect();
        shards.reverse();
        let merged = DataGraph::merge(&c, shards);
        prop_assert_eq!(&merged, &sequential);
        prop_assert_eq!(merged.edges(), sequential.edges());
    }

    /// `DataGuideSet::merge` over arbitrary shard partitions reproduces the
    /// sequential greedy merge exactly — same guides, same assignment, same
    /// Table-1 statistics.
    #[test]
    fn dataguide_merge_equals_sequential(docs in arb_docs(), split in 1usize..8) {
        let c = random_collection(&docs);
        let sequential = DataGuideSet::build(&c, 0.4).unwrap();
        // Partition documents round-robin into `split` shards so shard
        // boundaries cut across document order.
        let mut partitions: Vec<Vec<DocId>> = vec![Vec::new(); split];
        for (i, doc) in c.documents().enumerate() {
            partitions[i % split].push(doc.id);
        }
        let shards: Vec<_> = partitions
            .into_iter()
            .filter(|p| !p.is_empty())
            .map(|p| DataGuideSet::build_shard(&c, p).unwrap())
            .collect();
        let merged = DataGuideSet::merge(0.4, shards);
        prop_assert_eq!(&merged, &sequential);
        prop_assert_eq!(merged.stats(c.len()), sequential.stats(c.len()));
    }

    /// The full engine built in parallel answers queries identically to the
    /// sequential engine: same substrates, same context summaries, same
    /// dataguide statistics.
    #[test]
    fn parallel_engine_equals_sequential(docs in arb_docs(), threads in 2usize..6) {
        let c = random_collection(&docs);
        let sequential = SedaEngine::build(
            c.clone(),
            Registry::new(),
            EngineConfig { graph: graph_config(), ..EngineConfig::default() },
        )
        .unwrap();
        let parallel = SedaEngine::build(
            c,
            Registry::new(),
            EngineConfig { graph: graph_config(), parallelism: threads, ..EngineConfig::default() },
        )
        .unwrap();

        // Equivalence alone could hold for two equally-corrupt engines: both
        // variants must also pass the full structural audit.
        prop_assert!(sequential.verify().is_ok(), "sequential engine fails audit");
        prop_assert!(parallel.verify().is_ok(), "parallel engine fails audit");

        prop_assert_eq!(parallel.node_index(), sequential.node_index());
        prop_assert_eq!(parallel.context_index(), sequential.context_index());
        prop_assert_eq!(parallel.graph(), sequential.graph());
        prop_assert_eq!(parallel.guides(), sequential.guides());
        prop_assert_eq!(parallel.guide_links(), sequential.guide_links());
        prop_assert_eq!(parallel.dataguide_stats(), sequential.dataguide_stats());

        let query = seda_core::SedaQuery::parse("(title, *)").unwrap();
        let seq_summary = sequential.context_summary(&query);
        let par_summary = parallel.context_summary(&query);
        prop_assert_eq!(seq_summary.buckets.len(), par_summary.buckets.len());
        for (a, b) in seq_summary.buckets.iter().zip(par_summary.buckets.iter()) {
            prop_assert_eq!(&a.entries, &b.entries);
        }
    }
}
