//! Parser robustness: [`seda_xmlstore::parse_collection`] and
//! [`SedaRequest::parse`] must return a typed result — never panic — on
//! arbitrarily mangled input.  The strategy mangles well-formed base text
//! byte-by-byte (overwrites, truncation, garbage suffixes), which reaches far
//! deeper into a tokenizer's state machine than fully random strings would.
//! Hostile nesting is refused with a typed error instead of exhausting memory
//! or the parsing thread's stack: at [`MAX_NESTING`] levels of XML, and past
//! 256 levels of a request's search expression.

use proptest::prelude::*;
use seda_core::{EngineConfig, SedaEngine, SedaError, SedaRequest};
use seda_olap::Registry;
use seda_xmlstore::{parse_collection, XmlStoreError, MAX_NESTING};

const BASE: &str = r#"<country id="c1"><name>Andorra</name>
  <economy><import_partners><item seq="1">
    <trade_country ref="c2">Spain</trade_country>
    <percentage>48.7</percentage>
  </item></import_partners></economy>
</country>"#;

/// Parses `xml` and requires a non-panicking outcome; `Ok` and `Err` are
/// both acceptable, aborting the process is not.
fn parse_never_panics(label: &str, xml: &str) {
    let _ = parse_collection([(label, xml)]);
}

/// `<a>` nested `depth` deep around one text node.
fn nested(depth: usize) -> String {
    format!("{}x{}", "<a>".repeat(depth), "</a>".repeat(depth))
}

#[test]
fn nesting_up_to_the_limit_parses() {
    let collection = parse_collection([("deep.xml", nested(MAX_NESTING).as_str())]).unwrap();
    assert_eq!(collection.total_nodes(), MAX_NESTING);
    let document = collection.documents().next().unwrap();
    let deepest = document.node(MAX_NESTING as u32 - 1).unwrap().path;
    assert_eq!(collection.paths().resolve(deepest).len(), MAX_NESTING);
}

#[test]
fn nesting_past_the_limit_is_a_typed_error() {
    for depth in [MAX_NESTING + 1, 100_000] {
        let err = parse_collection([("deep.xml", nested(depth).as_str())]).unwrap_err();
        assert_eq!(
            err,
            XmlStoreError::NestingTooDeep { document: "deep.xml".into(), limit: MAX_NESTING },
            "depth {depth}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn byte_mangled_documents_never_panic(
        edits in proptest::collection::vec((0usize..BASE.len(), any::<u8>()), 1..8),
        truncate_at in 1usize..BASE.len(),
    ) {
        let mut bytes = BASE.as_bytes().to_vec();
        for &(position, byte) in &edits {
            bytes[position] = byte;
        }
        bytes.truncate(truncate_at);
        let mangled = String::from_utf8_lossy(&bytes);
        parse_never_panics("mangled.xml", &mangled);
    }

    #[test]
    fn random_garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..120)) {
        let garbage = String::from_utf8_lossy(&bytes);
        parse_never_panics("garbage.xml", &garbage);
        // Garbage grafted onto a well-formed prefix exercises the recovery
        // paths after the tokenizer has committed to element state.
        let grafted = format!("<country><name>{garbage}</name>{garbage}");
        parse_never_panics("grafted.xml", &grafted);
    }
}

/// Well-formed requests: all six statements, `EXPLAIN [ANALYZE]`, `WITH`,
/// `VIA` and a full cube head.
const REQUESTS: [&str; 6] = [
    r#"TOPK 10 FOR (*, "united states") AND (trade_country, *) AND (percentage, *)"#,
    "EXPLAIN CONTEXTS FOR (name, china OR canada) AND (year, NOT (a AND b))",
    "EXPLAIN ANALYZE CONNECTIONS 5 FOR (a|/b/c, x y) ∧ (tr*de, *) WITH 1 IN /a/b|/c/d",
    r#"RESULTS FOR (a, *) AND (b, "x y") WITH 0 IN /r/a VIA /r/a ~ /r ~ /r/b"#,
    "TWIG /country/economy//trade_country",
    "CUBE pct BY country, year AGG avg MEASURE pct ADD region REMOVE country \
     FOR (name, *) WITH 0 IN /x VIA /x ~ /y",
];

/// `text` parses to a request that survives `parse ∘ render` unchanged, or
/// fails with a parse error; any other outcome, a panic included, fails.
fn parses_or_fails_typed(text: &str) {
    match SedaRequest::parse(text) {
        Ok(request) => {
            let rendered = request.render();
            let reparsed = SedaRequest::parse(&rendered);
            assert_eq!(reparsed.as_ref(), Ok(&request), "{text:?} rendered as {rendered:?}");
        }
        Err(SedaError::Parse(_)) => {}
        Err(other) => panic!("{text:?} failed with {other:?}, not a parse error"),
    }
}

#[test]
fn the_base_requests_parse() {
    for text in REQUESTS {
        assert!(SedaRequest::parse(text).is_ok(), "{text}");
        parses_or_fails_typed(text);
    }
}

/// Searches nested far past the limit, in each shape that builds a deep tree
/// or a deep descent: parentheses, a `NOT` chain and an `AND` chain.  On a
/// spawned thread's default stack they are parse errors, and the process
/// survives them; at the limit the request still answers.
#[test]
fn deep_search_nesting_is_a_parse_error_on_a_default_stack() {
    let engine = SedaEngine::build_from_sources(
        [("r.xml", "<r><name>x</name></r>")],
        Registry::new(),
        EngineConfig::default(),
    )
    .unwrap();
    let nested = |n: usize| format!("TOPK 1 FOR (name, {}x{})", "(".repeat(n), ")".repeat(n));
    let hostile = [
        nested(5_000),
        format!("TOPK 1 FOR (name, {}x)", "NOT ".repeat(20_000)),
        format!("TOPK 1 FOR (name, x{})", " AND x".repeat(20_000)),
    ];
    let on_a_spawned_thread = |text: &str| {
        std::thread::scope(|scope| {
            let answer =
                scope.spawn(|| engine.reader().execute_text(text).map(|r| r.payload.rows()));
            answer.join().expect("the parsing thread survives")
        })
    };
    assert_eq!(on_a_spawned_thread(&nested(256)), Ok(1));
    for text in &hostile {
        let outcome = on_a_spawned_thread(text);
        assert!(matches!(outcome, Err(SedaError::Parse(_))), "{outcome:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn byte_mangled_requests_parse_or_fail_typed(
        which in 0usize..REQUESTS.len(),
        edits in proptest::collection::vec((0usize..1_000, any::<u8>()), 1..8),
        truncate_at in 0usize..1_000,
    ) {
        let mut bytes = REQUESTS[which].as_bytes().to_vec();
        for &(position, byte) in &edits {
            let at = position % bytes.len();
            bytes[at] = byte;
        }
        bytes.truncate(truncate_at % (bytes.len() + 1));
        parses_or_fails_typed(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn garbage_suffixed_requests_parse_or_fail_typed(
        which in 0usize..REQUESTS.len(),
        bytes in proptest::collection::vec(any::<u8>(), 0..60),
    ) {
        let garbage = String::from_utf8_lossy(&bytes);
        parses_or_fails_typed(&garbage);
        parses_or_fails_typed(&format!("{} {garbage}", REQUESTS[which]));
        parses_or_fails_typed(&format!("{}{garbage}", REQUESTS[which]));
    }
}
