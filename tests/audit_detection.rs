//! Seeded-corruption detection suite: every frozen arena class of every
//! substrate carries a test-only corruption hook; injecting each corruption
//! into a fully built engine must make [`SedaEngine::verify`] report exactly
//! that violation class, and freshly built engines — over the synthetic
//! corpora and over randomized collections — must always pass.
//!
//! This is the integration-level counterpart of the per-crate unit tests in
//! each substrate's `audit` module: the corruptions here travel through
//! `SedaEngine::substrates_mut()`, proving the engine-level aggregation
//! attributes violations to the right substrate.  The engine holds no
//! dataguides, so the dataguide classes are seeded into a standalone
//! [`DataGuideSet`] built over the engine's collection.

use seda_core::trace::span;
use seda_core::{BuildProfile, EngineConfig, SedaEngine, SedaRequest, Statement};
use seda_datagen::Dataset;
use seda_dataguide::{DataGuideSet, GuideId};
use seda_olap::Registry;
use seda_xmlstore::{parse_collection, DocId, NodeId};

/// A small heterogeneous corpus exercising every substrate: two IDREF cross
/// edges closing a ring through sea.xml and us.xml (a 2-core with labels,
/// and peeled nodes hanging from it), a repeated term with distinct scores
/// ("united" in two documents of different length — swappable postings) and
/// two distinct document shapes (two dataguides with a populated path→guide index, once
/// a [`DataGuideSet`] is built over it).
fn engine() -> SedaEngine {
    let collection = parse_collection(vec![
        (
            "sea.xml",
            r#"<sea id="sea-1"><name>Pacific</name>
                 <bordering country_idref="cty-us"/></sea>"#,
        ),
        (
            "us.xml",
            r#"<country id="cty-us"><name>United States</name><year>2006</year>
                 <coast sea_idref="sea-1"/></country>"#,
        ),
        (
            "mx.xml",
            r#"<country id="cty-mx"><name>United Mexican States</name><year>2003</year></country>"#,
        ),
    ])
    .unwrap();
    SedaEngine::build(collection, Registry::new(), EngineConfig::default()).unwrap()
}

/// The statement `text` names, whose latency histogram a metrics test corrupts.
fn statement(text: &str) -> Statement {
    SedaRequest::parse(text).unwrap().statement
}

/// Asserts that the engine audit fails, that every violation is attributed to
/// `substrate`, and that the injected `class` is among the reported classes.
fn expect_violation(engine: &SedaEngine, substrate: &str, class: &str) {
    let violations = engine.verify().expect_err("corrupted engine must fail its audit");
    assert!(!violations.is_empty());
    assert!(
        violations.iter().all(|v| v.substrate == substrate),
        "expected only {substrate} violations: {violations:?}"
    );
    assert!(
        violations.iter().any(|v| v.invariant == class),
        "expected a {class} violation: {violations:?}"
    );
}

#[test]
fn fresh_engine_passes_its_audit() {
    let e = engine();
    e.verify().unwrap();
    assert!(verify_ms(e.build_profile()) >= 0.0);
}

/// Milliseconds the build's own audit took: its `build:audit-verify` span.
fn verify_ms(profile: &BuildProfile) -> f64 {
    let verify = profile.spans.iter().find(|s| s.name == span::BUILD_VERIFY);
    verify.expect("every build records its audit").wall_secs * 1e3
}

/// The dataguide set of [`engine`]'s collection at the paper's threshold.
fn guides(engine: &SedaEngine) -> DataGuideSet {
    DataGuideSet::build(engine.collection(), engine.config().dataguide_threshold).unwrap()
}

/// Asserts that the dataguide audit fails with `class` among its classes.
fn expect_guide_violation(guides: &DataGuideSet, class: &str) {
    let violations = guides.verify().expect_err("corrupted dataguides must fail their audit");
    assert!(violations.iter().all(|v| v.substrate == "dataguide"), "{violations:?}");
    assert!(violations.iter().any(|v| v.invariant == class), "expected {class}: {violations:?}");
}

/// Asserts that the engine audit fails with `class` of `substrate` alone.
fn expect_only(engine: &SedaEngine, substrate: &str, class: &str) {
    let violations = engine.verify().expect_err("corrupted engine must fail its audit");
    assert!(
        violations.iter().all(|v| v.substrate == substrate && v.invariant == class),
        "expected only {substrate}/{class} violations: {violations:?}"
    );
}

#[test]
fn swapped_children_entries_are_detected_as_xmlstore_preorder() {
    let mut e = engine();
    // us.xml is document 1; the root's children are its `id` attribute and
    // the name/year leaves.  Swapping two entries keeps every link intact.
    let us = DocId(1);
    {
        let (collection, ..) = e.substrates_mut();
        collection.corrupt_document(us, |doc| doc.corrupt_swap_children(0, 1, 2));
    }
    expect_only(&e, "xmlstore", "preorder");
}

#[test]
fn a_re_pointed_node_context_is_detected_as_xmlstore_path_parent() {
    let mut e = engine();
    let us = DocId(1);
    let country = e.collection().paths().get_str(e.collection().symbols(), "/country").unwrap();
    {
        let (collection, ..) = e.substrates_mut();
        // The `year` leaf (node 3) gets its parent's context.
        collection.corrupt_document(us, |doc| doc.corrupt_node_path(3, country));
    }
    expect_only(&e, "xmlstore", "path-parent");
}

#[test]
fn swapped_postings_are_detected_as_textindex_postings_sorted() {
    let mut e = engine();
    {
        let (_, node_index, ..) = e.substrates_mut();
        let term = node_index.term_dict().get("united").expect("indexed term");
        let (start, end) = node_index.posting_range(term);
        assert!(end - start >= 2, "'united' must have two postings to swap");
        node_index.corrupt_swap_sorted_postings(start, start + 1);
    }
    expect_violation(&e, "textindex", "postings-sorted");
}

#[test]
fn broken_posting_offset_is_detected_as_textindex_csr_offsets() {
    let mut e = engine();
    {
        let (_, node_index, ..) = e.substrates_mut();
        node_index.corrupt_posting_offset(1, u32::MAX);
    }
    expect_violation(&e, "textindex", "csr-offsets");
}

#[test]
fn rewritten_posting_path_is_detected_as_textindex_posting_paths() {
    let mut e = engine();
    let year = e.collection().paths().get_str(e.collection().symbols(), "/country/year").unwrap();
    {
        let (_, node_index, ..) = e.substrates_mut();
        // Both postings of "united" sit on /country/name.
        let term = node_index.term_dict().get("united").expect("indexed term");
        node_index.corrupt_posting_path(node_index.posting_range(term).0, year);
    }
    expect_violation(&e, "textindex", "posting-paths");
}

#[test]
fn swapped_run_entries_are_detected_as_textindex_path_runs() {
    let mut e = engine();
    {
        let (_, node_index, ..) = e.substrates_mut();
        // The first and the last entry of the match-all runs belong to the
        // lowest and the highest indexed path.
        let last = node_index.indexed_node_count() - 1;
        node_index.corrupt_swap_path_runs(0, last);
    }
    expect_violation(&e, "textindex", "path-runs");
}

#[test]
fn rewritten_token_is_detected_as_textindex_token_arena() {
    let mut e = engine();
    {
        let (_, node_index, ..) = e.substrates_mut();
        // The arena's first token belongs to sea.xml (`id="sea-1"`): as
        // "united" it leaves a posting without its token and a token without
        // its posting.
        let term = node_index.term_dict().get("united").expect("indexed term");
        node_index.corrupt_token(0, term);
    }
    expect_violation(&e, "textindex", "token-arena");
}

#[test]
fn a_rewritten_term_path_is_detected_as_textindex_term_paths() {
    let mut e = engine();
    let year = e.collection().paths().get_str(e.collection().symbols(), "/country/year").unwrap();
    {
        let (_, node_index, ..) = e.substrates_mut();
        // Both postings of "united" sit on /country/name; its run in the
        // term → paths table claims /country/year instead.
        let term = node_index.term_dict().get("united").expect("indexed term");
        node_index.corrupt_term_path(term, year);
    }
    expect_only(&e, "textindex", "term-paths");
}

#[test]
fn bogus_context_path_is_detected_as_textindex_context_paths() {
    let mut e = engine();
    {
        // The first path of the first tag-name keyword's run in the context
        // index's label table, moved outside the path universe.
        let (_, _, context_index, ..) = e.substrates_mut();
        context_index.corrupt_label_path(0, seda_xmlstore::PathId(u32::MAX / 2));
    }
    expect_violation(&e, "textindex", "context-paths");
}

#[test]
fn broken_adjacency_offset_is_detected_as_datagraph_csr_offsets() {
    let mut e = engine();
    {
        let (.., graph) = e.substrates_mut();
        graph.corrupt_adj_offset(1, u32::MAX);
    }
    expect_violation(&e, "datagraph", "csr-offsets");
}

#[test]
fn dropped_connectivity_labels_are_detected_as_datagraph_labels_sound() {
    let mut e = engine();
    {
        let (.., graph) = e.substrates_mut();
        graph.corrupt_clear_labels(0);
    }
    expect_violation(&e, "datagraph", "labels-sound");
}

#[test]
fn a_moved_peel_depth_is_detected_as_datagraph_fringe_peel() {
    let mut e = engine();
    {
        let (.., graph) = e.substrates_mut();
        // The name of sea.xml hangs one step below the sea element.
        let name = graph.dense(NodeId::new(DocId(0), 2)).expect("sea.xml has a name");
        assert_eq!(graph.peel_depth(name), 1);
        graph.corrupt_peel_depth(name, 2);
    }
    expect_violation(&e, "datagraph", "fringe-peel");
}

#[test]
fn a_first_neighbour_other_than_the_parent_is_detected_as_datagraph_tree_parent() {
    let mut e = engine();
    {
        let (.., graph) = e.substrates_mut();
        // mx.xml (document 2) is a tree document: no cross edge touches it.
        let node = graph.dense(NodeId::new(DocId(2), 1)).expect("mx.xml has a second node");
        graph.corrupt_first_neighbor(node, node);
    }
    expect_violation(&e, "datagraph", "tree-parent");
}

#[test]
fn a_cleared_hub_document_bit_is_detected_as_datagraph_labels_sorted() {
    let mut e = engine();
    {
        let (.., graph) = e.substrates_mut();
        // sea.xml (document 0) holds the IDREF cross edge.
        graph.corrupt_clear_hub_doc(0);
    }
    expect_violation(&e, "datagraph", "labels-sorted");
}

#[test]
fn desynced_path_index_is_detected_as_dataguide_path_index() {
    let e = engine();
    let mut guides = guides(&e);
    guides.verify().unwrap();
    let c = e.collection();
    let name = c.paths().get_str(c.symbols(), "/country/name").unwrap();
    assert!(guides.corrupt_drop_path_index(name), "path must be indexed");
    expect_guide_violation(&guides, "path-index");
}

#[test]
fn reassigned_document_is_detected_as_dataguide_assignment() {
    let mut guides = guides(&engine());
    guides.corrupt_reassign_document(DocId(0), GuideId(999));
    expect_guide_violation(&guides, "assignment");
}

#[test]
fn histogram_bucket_drift_is_detected_as_metrics_histogram_buckets() {
    let mut e = engine();
    {
        // Record a real latency so the corrupted histogram is non-empty.
        let mut reader = e.reader();
        reader.execute_text("TOPK 5 FOR (name, *)").unwrap();
    }
    let histogram = e.metrics_mut().latency_mut(&statement("TOPK 5 FOR (name, *)"));
    assert!(histogram.count() > 0, "the TOPK request must have recorded a latency");
    histogram.corrupt_bucket(0, 3);
    expect_violation(&e, "metrics", "histogram-buckets");
}

#[test]
fn swapped_histogram_bounds_are_detected_as_metrics_histogram_buckets() {
    let mut e = engine();
    e.metrics_mut().latency_mut(&statement("TWIG /country")).corrupt_swap_bounds(3, 200);
    expect_violation(&e, "metrics", "histogram-buckets");
}

#[test]
fn inverted_histogram_minmax_is_detected_as_metrics_histogram_minmax() {
    let mut e = engine();
    {
        let mut reader = e.reader();
        reader.execute_text("TOPK 5 FOR (name, *)").unwrap();
    }
    e.metrics_mut().latency_mut(&statement("TOPK 5 FOR (name, *)")).corrupt_minmax();
    expect_violation(&e, "metrics", "histogram-minmax");
}

#[test]
fn fresh_engines_pass_over_every_datagen_corpus() {
    // All four synthetic corpus shapes, including the RecipeML generator —
    // one-thread and two-thread builds alike must freeze audit-clean
    // arenas (the build itself re-checks this, so a failure here would
    // surface as a build error too).
    for dataset in Dataset::ALL {
        for parallelism in [1, 3] {
            let collection = dataset.generate_small().unwrap();
            let engine = SedaEngine::build(
                collection,
                Registry::new(),
                EngineConfig { parallelism, ..EngineConfig::default() },
            )
            .unwrap_or_else(|e| panic!("{} (parallelism {parallelism}): {e}", dataset.name()));
            engine.verify().unwrap_or_else(|v| {
                panic!("{} (parallelism {parallelism}): {v:?}", dataset.name())
            });
            assert!(verify_ms(engine.build_profile()) >= 0.0);
        }
    }
}

#[test]
fn mondial_full_engine_audit_stays_under_100ms() {
    let collection = Dataset::Mondial.generate_small().unwrap();
    let engine = SedaEngine::build(collection, Registry::new(), EngineConfig::default()).unwrap();
    let verify_ms = verify_ms(engine.build_profile());
    assert!(verify_ms < 100.0, "mondial full-engine verify took {verify_ms:.2}ms, budget is 100ms");
}

mod random_corpora {
    use super::*;
    use proptest::prelude::*;

    /// A random two-level collection over a tiny vocabulary, mixing two
    /// document shapes so dataguide merging has real work to do.
    fn random_collection(words: &[u8]) -> seda_xmlstore::Collection {
        let mut c = seda_xmlstore::Collection::new();
        let vocab = ["alpha", "beta", "gamma", "delta united"];
        for (i, chunk) in words.chunks(3).enumerate() {
            let shape = i % 2;
            c.add_document(format!("d{i}.xml"), |b| {
                b.start_element(if shape == 0 { "doc" } else { "item" })?;
                for (j, &w) in chunk.iter().enumerate() {
                    b.leaf(&format!("field{j}"), vocab[w as usize % vocab.len()])?;
                }
                b.end_element()?;
                Ok(())
            })
            .unwrap();
        }
        c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Freshly built engines over randomized corpora always pass their
        /// structural audit, built on one thread or two, and so do the
        /// dataguides of those corpora.
        #[test]
        fn freshly_built_engines_always_pass(
            words in proptest::collection::vec(0u8..4, 1..24),
            parallelism in 1usize..4,
        ) {
            let c = random_collection(&words);
            let engine = SedaEngine::build(
                c,
                Registry::new(),
                EngineConfig { parallelism, ..EngineConfig::default() },
            )
            .unwrap();
            prop_assert!(engine.verify().is_ok());
            prop_assert!(guides(&engine).verify().is_ok());
        }
    }
}
