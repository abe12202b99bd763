//! Parser robustness: [`seda_xmlstore::parse_collection`] must return a typed
//! result — never panic — on arbitrarily mangled input.  The strategy mangles
//! a well-formed base document byte-by-byte (overwrites, truncation, garbage
//! suffixes), which reaches far deeper into the tokenizer's state machine
//! than fully random strings would.  Hostile nesting is refused with a typed
//! error at [`MAX_NESTING`] levels instead of exhausting memory.

use proptest::prelude::*;
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
