//! Span-tracing integration: reader-level tracing toggles per handle, build
//! profiles carry their span trees, and span wall times nest consistently
//! inside the profile totals.

use seda_core::{EngineConfig, SedaEngine, SedaRequest};
use seda_olap::Registry;
use seda_xmlstore::parse_collection;

fn engine_with_parallelism(parallelism: usize) -> SedaEngine {
    let collection = parse_collection(vec![
        (
            "us.xml",
            r#"<country><name>United States</name><year>2006</year>
                 <economy><import_partners>
                   <item><trade_country>China</trade_country><percentage>15</percentage></item>
                 </import_partners></economy></country>"#,
        ),
        ("mx.xml", r#"<country><name>Mexico</name><year>2003</year></country>"#),
    ])
    .unwrap();
    SedaEngine::build(
        collection,
        Registry::factbook_defaults(),
        EngineConfig { parallelism, ..EngineConfig::default() },
    )
    .unwrap()
}

#[test]
fn tracing_is_off_by_default_and_toggles_per_reader() {
    let e = engine_with_parallelism(1);
    let mut reader = e.reader();
    assert!(!reader.tracing_enabled());
    let untraced = reader.execute_text("TOPK 5 FOR (name, *)").unwrap();
    assert!(untraced.profile.spans.is_empty());

    reader.set_tracing(true);
    assert!(reader.tracing_enabled());
    let traced = reader.execute_text("TOPK 5 FOR (name, *)").unwrap();
    assert!(!traced.profile.spans.is_empty());
    assert_eq!(untraced.payload, traced.payload, "tracing must not change answers");

    reader.set_tracing(false);
    let untraced_again = reader.execute_text("TOPK 5 FOR (name, *)").unwrap();
    assert!(untraced_again.profile.spans.is_empty());
}

#[test]
fn traced_requests_record_the_request_lifecycle() {
    let e = engine_with_parallelism(1);
    let mut reader = e.reader();
    reader.set_tracing(true);
    let response = reader.execute_text("TOPK 5 FOR (name, *)").unwrap();
    let spans = &response.profile.spans;
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    assert!(names.contains(&"parse"), "{names:?}");
    assert!(names.contains(&"plan"), "{names:?}");
    assert!(names.contains(&"execute"), "{names:?}");
    assert!(names.contains(&"search"), "{names:?}");
    // The search span nests inside execute.
    let execute = spans.iter().find(|s| s.name == "execute").unwrap();
    let search = spans.iter().find(|s| s.name == "search").unwrap();
    assert_eq!(search.depth, execute.depth + 1);
    assert!(search.wall_secs <= execute.wall_secs + 1e-9);
    // The search span carries the profile's counters.
    assert_eq!(search.counters.sorted_accesses, response.profile.sorted_accesses);
    for span in spans {
        assert!(span.wall_secs >= 0.0 && span.start_secs >= 0.0);
    }
}

#[test]
fn typed_requests_trace_without_the_parse_span() {
    let e = engine_with_parallelism(1);
    let mut reader = e.reader();
    reader.set_tracing(true);
    let request = SedaRequest::parse("TWIG /country/name").unwrap();
    let response = reader.execute(&request).unwrap();
    let names: Vec<&str> = response.profile.spans.iter().map(|s| s.name.as_str()).collect();
    assert!(!names.contains(&"parse"), "{names:?}");
    assert!(names.contains(&"twig-evaluate"), "{names:?}");
    let twig = response.profile.spans.iter().find(|s| s.name == "twig-evaluate").unwrap();
    assert!(twig.counters.nodes_visited > 0, "twig evaluation reports scanned nodes");
}

#[test]
fn consecutive_traced_requests_never_leak_spans() {
    let e = engine_with_parallelism(1);
    let mut reader = e.reader();
    reader.set_tracing(true);
    let first = reader.execute_text("TOPK 5 FOR (name, *)").unwrap();
    let second = reader.execute_text("TOPK 5 FOR (name, *)").unwrap();
    let count = |r: &seda_core::SedaResponse, name: &str| {
        r.profile.spans.iter().filter(|s| s.name == name).count()
    };
    for name in ["parse", "plan", "execute", "search"] {
        assert_eq!(count(&first, name), 1, "first request: {name}");
        assert_eq!(count(&second, name), 1, "second request: {name}");
    }
    // A failed parse must not pollute the next request's trace either.
    assert!(reader.execute_text("TOPK banana").is_err());
    let third = reader.execute_text("TOPK 5 FOR (name, *)").unwrap();
    assert_eq!(count(&third, "parse"), 1);
}

#[test]
fn sequential_build_profiles_carry_substrate_spans() {
    let e = engine_with_parallelism(1);
    let spans = &e.build_profile().spans;
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    for expected in [
        "build:data-graph",
        "build:node-index",
        "build:context-index",
        "build:dataguides",
        "build:guide-links",
        "build:audit-verify",
    ] {
        assert!(names.contains(&expected), "missing {expected}: {names:?}");
    }
    // One thread runs the one orchestration: the same phases as two threads.
    let phases = |e: &SedaEngine| -> Vec<(String, usize)> {
        e.build_profile().spans.iter().map(|s| (s.name.clone(), s.depth)).collect()
    };
    assert_eq!(phases(&e), phases(&engine_with_parallelism(2)));
    assert_eq!(names.iter().filter(|&&n| n == "shard").count(), 3, "{names:?}");
}

#[test]
fn sharded_build_profiles_nest_shard_and_merge_phases() {
    let e = engine_with_parallelism(2);
    let spans = &e.build_profile().spans;
    let graph = spans.iter().find(|s| s.name == "build:data-graph").unwrap();
    assert_eq!(graph.depth, 0);
    let shard_count = spans.iter().filter(|s| s.name == "shard" && s.depth == 1).count();
    let merge_count = spans.iter().filter(|s| s.name == "merge" && s.depth == 1).count();
    // The context index is one serial fold: a merge phase, no shard phase.
    assert_eq!(shard_count, 3, "one shard phase per sharded substrate: {spans:?}");
    assert_eq!(merge_count, 4, "one serial phase per substrate: {spans:?}");
    let total = e.build_profile().total_secs;
    for span in spans {
        assert!(span.wall_secs <= total + 1e-9, "span exceeds the build wall time: {span:?}");
    }
}
