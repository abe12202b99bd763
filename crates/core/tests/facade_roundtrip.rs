//! Serialisation round-trips of the facade's request types.
//!
//! `Statement` and `SedaRequest` derive the workspace's `Serialize` /
//! `Deserialize` markers, but the offline serde stand-in has no data format;
//! the canonical wire form is the textual front-end, so the round-trip under
//! test is `parse ∘ render = id` — fixed cases here, property-generated
//! requests in the companion proptest module below.

use proptest::prelude::*;

use seda_core::{
    ContextSpec, EngineConfig, SedaEngine, SedaError, SedaQuery, SedaRequest, Statement,
};
use seda_olap::{AggFn, BuildOptions, Registry};

#[test]
fn fixed_statement_round_trips() {
    let cases = [
        r#"TOPK 10 FOR (*, "united states") AND (trade_country, *) AND (percentage, *)"#,
        "TOPK 1 FOR (a|b|/c/d, x)",
        "CONTEXTS FOR (name, china OR canada)",
        "CONNECTIONS 25 FOR (name, *) AND (population, (NOT x) AND y)",
        "RESULTS FOR (percentage, *) WITH 0 IN /a/b|/c/d WITH 1 IN /e",
        "TWIG /country/economy//trade_country",
        "CUBE pct BY country AGG sum FOR (name, *)",
        "CUBE pct BY country, year AGG avg MEASURE pct FOR (name, *) WITH 0 IN /x/y",
        "EXPLAIN CUBE pct BY country AGG max FOR (name, *)",
        "EXPLAIN TOPK 3 FOR (tr*de, *)",
        "RESULTS FOR (a, *) AND (b, *) WITH 1 IN /r/b VIA /r/a ~ /r ~ /r/b VIA /r/a ~ /r/b",
        "CONNECTIONS 4 FOR (a, *) AND (b, *) VIA /r/a ~ /r/b WITH 0 IN /r/a",
        "CUBE pct BY country AGG sum ADD year, region REMOVE country FOR (name, *) VIA /x ~ /y",
        "EXPLAIN ANALYZE CUBE pct BY c MEASURE m REMOVE c FOR (name, *)",
    ];
    for text in cases {
        let parsed = SedaRequest::parse(text).unwrap();
        let rendered = parsed.render();
        let reparsed = SedaRequest::parse(&rendered).unwrap();
        assert_eq!(reparsed, parsed, "{text:?} → {rendered:?} must round-trip");
        // Render is canonical: a second render is a fixpoint.
        assert_eq!(reparsed.render(), rendered, "render must be a fixpoint for {text:?}");
    }
}

#[test]
fn connection_refinements_and_cube_options_have_a_textual_form() {
    let request = SedaRequest::parse(
        "CUBE f BY d ADD year, region REMOVE country FOR (a, *) AND (b, *) \
         VIA /r/a ~ /r ~ /r/b",
    )
    .unwrap();
    assert_eq!(request.connections, vec![vec!["/r/a", "/r", "/r/b"]]);
    assert_eq!(
        request.cube_options,
        BuildOptions { add: vec!["year".into(), "region".into()], remove: vec!["country".into()] }
    );
    let built = SedaRequest::builder()
        .cube("f", &["d"])
        .query(SedaQuery::parse("(a, *) AND (b, *)").unwrap())
        .via(["/r/a", "/r", "/r/b"])
        .cube_options(request.cube_options.clone())
        .build();
    assert_eq!(built, request);
    // Only a cube keeps star-schema options, and a twig keeps only its path.
    let results = SedaRequest::builder()
        .complete_results()
        .cube_options(request.cube_options.clone())
        .build();
    assert_eq!(results.cube_options, BuildOptions::default());
    let twig = SedaRequest::builder()
        .twig("/r/a")
        .query(SedaQuery::parse("(a, *)").unwrap())
        .select_paths(0, ["/r/a"])
        .via(["/r/a", "/r"])
        .build();
    assert_eq!(twig, SedaRequest::parse("TWIG /r/a").unwrap());
}

#[test]
fn malformed_via_add_and_remove_clauses_are_parse_errors() {
    for text in [
        "RESULTS FOR (a, *) VIA",
        "RESULTS FOR (a, *) VIA /r/a ~",
        "RESULTS FOR (a, *) VIA /r/a ~~ /r/b",
        "RESULTS FOR (a, *) VIA /r/a /r/b",
        "RESULTS FOR (a, *) WITH 0 IN /r/a VIA",
        "RESULTS FOR (a, *) WITH",
        "CUBE f BY d ADD FOR (a, *)",
        "CUBE f BY d ADD x, FOR (a, *)",
        "CUBE f BY d ADD x y FOR (a, *)",
        "CUBE f BY d REMOVE FOR (a, *)",
        "CUBE f BY d REMOVE a,,b FOR (a, *)",
        "CUBE f BY d REMOVE x ADD y FOR (a, *)",
        "CUBE f BY d AGG sum junk FOR (a, *)",
    ] {
        let outcome = SedaRequest::parse(text);
        assert!(matches!(outcome, Err(SedaError::Parse(_))), "{text:?}: {outcome:?}");
    }
}

#[test]
fn an_unknown_via_path_is_an_unknown_path() {
    let engine = SedaEngine::build_from_sources(
        [("r.xml", "<r><a>x</a><b>y</b></r>")],
        Registry::new(),
        EngineConfig::default(),
    )
    .unwrap();
    let mut reader = engine.reader();
    let known = "RESULTS FOR (a, *) AND (b, *) VIA /r/a ~ /r ~ /r/b";
    assert_eq!(reader.execute_text(known).unwrap().table().unwrap().len(), 1);
    for text in [
        "RESULTS FOR (a, *) AND (b, *) VIA /r/a ~ /r/nowhere ~ /r/b",
        "CUBE f BY d FOR (a, *) VIA /r/nowhere ~ /r/a",
        "TOPK 5 FOR (a, *) VIA /r/a ~ /r/nowhere",
    ] {
        let err = reader.execute_text(text).unwrap_err();
        assert_eq!(err, SedaError::UnknownPath("/r/nowhere".into()), "{text}");
    }
}

#[test]
fn statement_accessors_expose_the_shape() {
    let req = SedaRequest::parse("CUBE f BY a, b AGG min MEASURE m FOR (x, *)").unwrap();
    match &req.statement {
        Statement::Cube { fact, group_by, agg, measure } => {
            assert_eq!(fact, "f");
            assert_eq!(group_by, &["a", "b"]);
            assert_eq!(*agg, AggFn::Min);
            assert_eq!(measure.as_deref(), Some("m"));
        }
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(req.statement.name(), "CUBE");
}

// ---- property tests: generated requests survive parse ∘ render ----

/// Words with grammar meaning: boolean operators inside search components,
/// clause keywords at the top level of the request language.  Generated
/// identifiers avoid them — user queries containing them belong in quotes,
/// which the fixed cases cover.
const RESERVED: &[&str] = &[
    "and",
    "or",
    "not",
    "for",
    "with",
    "in",
    "by",
    "agg",
    "measure",
    "add",
    "remove",
    "via",
    "explain",
    "analyze",
    "topk",
    "contexts",
    "connections",
    "results",
    "twig",
    "cube",
];

fn ident(pattern: &'static str) -> impl Strategy<Value = String> {
    pattern.prop_filter("reserved word", |s: &String| !RESERVED.contains(&s.as_str()))
}

fn tag_strategy() -> impl Strategy<Value = String> {
    ident("[a-z][a-z_]{0,7}")
}

fn context_strategy() -> impl Strategy<Value = ContextSpec> {
    prop_oneof![
        Just(ContextSpec::Any),
        tag_strategy().prop_map(ContextSpec::Tag),
        // Wildcard tags.
        "[a-z]{1,3}\\*[a-z]{0,3}".prop_map(ContextSpec::Tag),
        proptest::collection::vec(ident("[a-z][a-z_]{0,5}"), 1..3)
            .prop_map(|steps| ContextSpec::Path(format!("/{}", steps.join("/")))),
        // Disjunctions built through the normalising constructor, so the
        // generated value is already canonical.
        proptest::collection::vec(
            prop_oneof![
                tag_strategy().prop_map(ContextSpec::Tag),
                proptest::collection::vec(ident("[a-z]{1,5}"), 1..3)
                    .prop_map(|steps| ContextSpec::Path(format!("/{}", steps.join("/")))),
            ],
            2..4
        )
        .prop_map(ContextSpec::disjunction),
    ]
}

fn search_strategy() -> impl Strategy<Value = seda_textindex::FullTextQuery> {
    use seda_textindex::FullTextQuery;
    let leaf = prop_oneof![
        Just(FullTextQuery::Any),
        proptest::collection::vec(ident("[a-z0-9]{1,6}"), 1..4).prop_map(FullTextQuery::Keywords),
        proptest::collection::vec(ident("[a-z0-9]{1,6}"), 1..4).prop_map(FullTextQuery::Phrase),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| FullTextQuery::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| FullTextQuery::Or(Box::new(a), Box::new(b))),
            inner.prop_map(|q| FullTextQuery::Not(Box::new(q))),
        ]
    })
}

fn query_strategy() -> impl Strategy<Value = SedaQuery> {
    proptest::collection::vec(
        (context_strategy(), search_strategy()).prop_map(|(c, s)| seda_core::QueryTerm::new(c, s)),
        1..4,
    )
    .prop_map(SedaQuery::new)
}

fn twig_path_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(("[a-z]{1,6}", any::<bool>()), 1..4).prop_map(|steps| {
        let mut path = String::new();
        for (i, (label, descendant)) in steps.iter().enumerate() {
            path.push_str(if *descendant && i > 0 { "//" } else { "/" });
            path.push_str(label);
        }
        path
    })
}

fn path_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z]{1,5}", 1..4).prop_map(|steps| format!("/{}", steps.join("/")))
}

fn statement_strategy() -> impl Strategy<Value = Statement> {
    prop_oneof![
        twig_path_strategy().prop_map(|path| Statement::Twig { path }),
        (1usize..100).prop_map(|k| Statement::TopK { k }),
        Just(Statement::ContextSummary),
        (1usize..100).prop_map(|k| Statement::ConnectionSummary { k }),
        Just(Statement::CompleteResults),
        (
            ident("[a-z][a-z-]{0,8}"),
            proptest::collection::vec(ident("[a-z][a-z-]{0,6}"), 1..3),
            prop_oneof![
                Just(AggFn::Sum),
                Just(AggFn::Avg),
                Just(AggFn::Count),
                Just(AggFn::Min),
                Just(AggFn::Max)
            ],
            proptest::option::of(ident("[a-z][a-z-]{0,6}")),
        )
            .prop_map(|(fact, group_by, agg, measure)| Statement::Cube {
                fact,
                group_by,
                agg,
                measure
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every builder-made request — all six statements, `WITH` on each,
    /// `VIA`, `ADD` / `REMOVE`, `EXPLAIN [ANALYZE]` — survives
    /// `parse(render(request))` exactly.
    #[test]
    fn request_render_parse_fixpoint(
        statement in statement_strategy(),
        query in query_strategy(),
        explain in 0u8..3,
        selection_paths in proptest::collection::vec(
            proptest::collection::vec(path_strategy(), 1..3), 0..3),
        signatures in proptest::collection::vec(
            proptest::collection::vec(path_strategy(), 1..4), 0..3),
        options in (
            proptest::collection::vec(ident("[a-z][a-z-]{0,8}"), 0..3),
            proptest::collection::vec(ident("[a-z][a-z-]{0,8}"), 0..3),
        ),
    ) {
        let mut builder = SedaRequest::builder().statement(statement).query(query);
        builder = match explain {
            0 => builder,
            1 => builder.explain(),
            _ => builder.analyze(),
        };
        for (term, paths) in selection_paths.into_iter().enumerate() {
            builder = builder.select_paths(term, paths);
        }
        for signature in signatures {
            builder = builder.via(signature);
        }
        let (add, remove) = options;
        let request = builder.cube_options(BuildOptions { add, remove }).build();
        let rendered = request.render();
        let reparsed = SedaRequest::parse(&rendered);
        prop_assert!(reparsed.is_ok(), "render must be parseable: {rendered:?}");
        prop_assert_eq!(reparsed.unwrap(), request, "round-trip failed for {}", rendered);
    }

    /// The textual query language itself is a fixpoint under
    /// `parse ∘ to_string`.
    #[test]
    fn query_render_parse_fixpoint(query in query_strategy()) {
        let rendered = query.to_string();
        let reparsed = SedaQuery::parse(&rendered);
        prop_assert!(reparsed.is_ok(), "render must be parseable: {rendered:?}");
        prop_assert_eq!(reparsed.unwrap(), query, "round-trip failed for {}", rendered);
    }

    /// Twig statements round-trip for arbitrary child/descendant paths.
    #[test]
    fn twig_render_parse_fixpoint(
        steps in proptest::collection::vec(("[a-z]{1,6}", any::<bool>()), 1..4)
    ) {
        let mut path = String::new();
        for (i, (label, descendant)) in steps.iter().enumerate() {
            path.push_str(if *descendant && i > 0 { "//" } else { "/" });
            path.push_str(label);
        }
        let request = SedaRequest::builder().twig(path).build();
        let reparsed = SedaRequest::parse(&request.render()).unwrap();
        prop_assert_eq!(reparsed, request);
    }
}
