//! Determinism of the two-thread engine build: building the same collection
//! twice with `parallelism > 1` — the node index built and audited on a
//! second thread — and once on one thread must yield identical substrates
//! and identical query answers, regardless of thread scheduling.  Built from
//! XML text, the second thread also parses the second half of the documents,
//! and the spliced collection must equal the one-thread parse.
//!
//! `NodeIndex` and `Collection` equality are derived `PartialEq` over every
//! field, so they cover the whole frozen read model — the per-posting path
//! array, the path-partitioned match-all runs and the intern tables'
//! lookup maps included.

use seda_core::trace::span;
use seda_core::{EngineConfig, SedaEngine, SedaQuery, SedaRequest, SedaResponse};
use seda_datagen::{factbook, Dataset, FactbookConfig};
use seda_olap::Registry;
use seda_xmlstore::{Collection, Document, NodeKind};

fn build(parallelism: usize) -> SedaEngine {
    let collection = factbook::generate(&FactbookConfig::small()).unwrap();
    SedaEngine::build(
        collection,
        Registry::factbook_defaults(),
        EngineConfig { parallelism, ..EngineConfig::default() },
    )
    .unwrap()
}

#[test]
fn parallel_builds_are_identical_across_runs_and_to_sequential() {
    let sequential = build(1);
    let first = build(4);
    let second = build(4);

    for parallel in [&first, &second] {
        assert_eq!(parallel.node_index(), sequential.node_index());
        assert_eq!(parallel.context_index(), sequential.context_index());
        assert_eq!(parallel.graph(), sequential.graph());
    }
}

#[test]
fn parallel_query_answers_match_sequential_byte_for_byte() {
    let sequential = build(1);
    let parallel = build(3);

    let query =
        SedaQuery::parse(r#"(*, "United States") AND (trade_country, *) AND (percentage, *)"#)
            .unwrap();

    let seq_summary = sequential.context_summary(&query);
    let par_summary = parallel.context_summary(&query);
    assert_eq!(seq_summary.buckets.len(), par_summary.buckets.len());
    for (a, b) in seq_summary.buckets.iter().zip(par_summary.buckets.iter()) {
        assert_eq!(a.entries, b.entries);
    }

    let answer = |engine: &SedaEngine, request: SedaRequest| -> SedaResponse {
        engine.reader().execute(&request).unwrap()
    };
    let top_k = SedaRequest::builder().top_k(10).query(query.clone()).build();
    let (seq_topk, par_topk) = (answer(&sequential, top_k.clone()), answer(&parallel, top_k));
    let (seq_topk, par_topk) = (seq_topk.top_k().unwrap(), par_topk.top_k().unwrap());
    assert_eq!(seq_topk.tuples.len(), par_topk.tuples.len());
    for (a, b) in seq_topk.tuples.iter().zip(par_topk.tuples.iter()) {
        assert_eq!(a.nodes, b.nodes);
        assert!((a.score - b.score).abs() < 1e-12);
    }

    let results = SedaRequest::builder().complete_results().query(query).build();
    let seq_complete = answer(&sequential, results.clone());
    let par_complete = answer(&parallel, results);
    assert_eq!(seq_complete.table().unwrap(), par_complete.table().unwrap());
}

#[test]
fn build_profile_is_surfaced_for_parallel_builds() {
    let engine = build(4);
    let profile = engine.build_profile();
    // A request for four threads uses two: the build splits by substrate,
    // and the node index's build and audit leave the calling thread (the
    // parse's second half too, in a build from sources).
    assert_eq!(profile.parallelism, 2);
    assert_eq!(profile.documents, engine.collection().len());
    let secs = |name: &str| {
        let span = profile.spans.iter().find(|s| s.name == name);
        span.unwrap_or_else(|| panic!("missing {name}: {:?}", profile.spans)).wall_secs
    };
    let [graph, context_index, node_index] =
        [span::BUILD_GRAPH, span::BUILD_CONTEXT_INDEX, span::BUILD_NODE_INDEX].map(secs);
    assert!([graph, context_index, node_index].iter().all(|&s| s > 0.0));
    assert!(profile.total_secs >= graph + context_index + secs(span::BUILD_VERIFY));
    assert!(profile.total_secs >= node_index);
    // The read model's bytes, table by table, are a function of the
    // collection, not of how it was built, and reach the rendered table.
    assert!(profile.node_index_bytes.total() > 0);
    assert_eq!(profile.node_index_bytes, build(1).build_profile().node_index_bytes);
    assert!(profile.render().contains("index postings"));
}

/// Serialises a collection to XML text, one `(uri, xml)` pair a document:
/// attributes in the start tag, then the element's own text, then its child
/// elements.
fn to_xml(collection: &Collection) -> Vec<(String, String)> {
    fn escape(text: &str) -> String {
        text.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;")
    }
    fn element(collection: &Collection, doc: &Document, ordinal: u32, out: &mut String) {
        let node = doc.node_unchecked(ordinal);
        let name = collection.symbols().resolve(node.name);
        out.push_str(&format!("<{name}"));
        let children = doc.children(ordinal).iter().map(|&c| (c, doc.node_unchecked(c)));
        for (_, attribute) in children.clone().filter(|(_, n)| n.kind == NodeKind::Attribute) {
            let key = collection.symbols().resolve(attribute.name);
            out.push_str(&format!(
                " {key}=\"{}\"",
                escape(attribute.text.as_deref().unwrap_or(""))
            ));
        }
        out.push('>');
        out.push_str(&escape(node.text.as_deref().unwrap_or("")));
        for (child, _) in children.filter(|(_, n)| n.kind == NodeKind::Element) {
            element(collection, doc, child, out);
        }
        out.push_str(&format!("</{name}>"));
    }
    collection
        .documents()
        .map(|doc| {
            let mut xml = String::new();
            element(collection, doc, doc.root(), &mut xml);
            (doc.uri.clone(), xml)
        })
        .collect()
}

fn build_from_sources(sources: &[(String, String)], parallelism: usize) -> SedaEngine {
    SedaEngine::build_from_sources(
        sources.iter().map(|(uri, xml)| (uri.as_str(), xml.as_str())),
        Registry::factbook_defaults(),
        EngineConfig { parallelism, ..EngineConfig::default() },
    )
    .unwrap()
}

/// The payload of each of a few requests over the two names most often
/// carrying text — what any corpus shape can answer.
fn answers(engine: &SedaEngine) -> Vec<String> {
    let collection = engine.collection();
    let mut counts = vec![0usize; collection.symbols().len()];
    for doc in collection.documents() {
        for (_, node) in doc.iter().filter(|(_, node)| node.text.is_some()) {
            counts[node.name.index()] += 1;
        }
    }
    let mut names: Vec<usize> = (0..counts.len()).collect();
    names.sort_by_key(|&i| std::cmp::Reverse(counts[i]));
    let name = |i: usize| collection.symbols().iter().nth(names[i]).unwrap().1.to_string();
    let terms = format!("({}, *) AND ({}, *)", name(0), name(1));
    let mut reader = engine.reader();
    ["TOPK 10 FOR", "CONTEXTS FOR", "RESULTS FOR"]
        .iter()
        .map(|statement| {
            let response = reader.execute_text(&format!("{statement} {terms}"));
            format!("{:?}", response.map(|r| r.payload))
        })
        .collect()
}

#[test]
fn builds_from_sources_are_identical_at_one_and_two_threads() {
    for dataset in Dataset::ALL {
        let sources = to_xml(&dataset.generate_small().unwrap());
        let one = build_from_sources(&sources, 1);
        let two = build_from_sources(&sources, 2);
        let name = dataset.name();
        assert_eq!(two.build_profile().parallelism, 2);
        assert_eq!(one.collection().len(), sources.len(), "{name}");
        assert!(two.collection() == one.collection(), "{name}: the spliced collection differs");
        assert!(two.node_index() == one.node_index(), "{name}: node index");
        assert_eq!(two.context_index(), one.context_index(), "{name}");
        assert_eq!(two.graph(), one.graph(), "{name}");
        let answered = answers(&two);
        assert!(answered[0].starts_with("Ok(TopK(TopKResult { tuples: [ResultTuple"), "{name}");
        assert_eq!(answered, answers(&one), "{name}");
        // One document: the second thread parses all of it.
        let first = &sources[..1];
        assert!(
            build_from_sources(first, 2).collection() == build_from_sources(first, 1).collection()
        );
    }
}
