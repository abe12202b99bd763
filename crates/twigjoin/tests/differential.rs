//! Differential test of the region-encoded twig evaluator against the
//! evaluator it replaced (`reference/mod.rs`, which shares no code with it):
//! identical `rows` and `output_nodes` on random trees × random patterns, on
//! the fixed cases a lazy `end` computation or a sloppy self-match gets wrong,
//! and the subsequence / prefix contract of [`evaluate_twig_in`].

mod reference;

use seda_textindex::FullTextQuery;
use seda_twigjoin::{evaluate_twig, evaluate_twig_in, Axis, TwigPattern};
use seda_xmlstore::{parse_collection, Collection, DocumentBuilder};

/// Four labels, so labels repeat along a path and across pattern nodes.
const LABELS: [&str; 4] = ["r", "a", "b", "c"];
const WORDS: [&str; 3] = ["x", "y", "z"];

/// xorshift64*: the suite needs reproducible cases, not good randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// Zero to two words of [`WORDS`]; `None` for a node without text.
fn random_text(rng: &mut Rng) -> Option<String> {
    match rng.below(4) {
        0 => None,
        1 => Some(rng.pick(&WORDS).to_string()),
        _ => Some(format!("{} {}", rng.pick(&WORDS), rng.pick(&WORDS))),
    }
}

/// A random subtree of depth ≤ `depth` and fanout < `fanout` under the
/// builder's open element.
fn random_children(
    b: &mut DocumentBuilder<'_>,
    rng: &mut Rng,
    depth: usize,
    fanout: usize,
) -> seda_xmlstore::Result<()> {
    if depth == 0 {
        return Ok(());
    }
    for _ in 0..rng.below(fanout) {
        b.start_element(rng.pick(&LABELS))?;
        if let Some(text) = random_text(rng) {
            b.text(&text)?;
        }
        random_children(b, rng, depth - 1, fanout)?;
        b.end_element()?;
    }
    Ok(())
}

/// Up to six documents of depth ≤ 5; most roots are `r`, some another label.
fn random_collection(rng: &mut Rng) -> Collection {
    let mut collection = Collection::new();
    // Sparse corpora reach the empty-stream exits, bushy ones the expansion
    // of many solutions per leaf.
    let fanout = 3 + rng.below(3);
    for d in 0..1 + rng.below(6) {
        collection
            .add_document(format!("d{d}.xml"), |b| {
                b.start_element(if rng.chance(75) { "r" } else { rng.pick(&LABELS) })?;
                if let Some(text) = random_text(rng) {
                    b.text(&text)?;
                }
                random_children(b, rng, 4, fanout)?;
                b.end_element()
            })
            .expect("the builder calls are well formed");
    }
    collection
}

fn random_predicate(rng: &mut Rng) -> FullTextQuery {
    let word = |rng: &mut Rng| FullTextQuery::Keywords(vec![rng.pick(&WORDS).to_string()]);
    match rng.below(5) {
        0 => FullTextQuery::Not(Box::new(word(rng))),
        1 => FullTextQuery::Or(Box::new(word(rng)), Box::new(word(rng))),
        2 => {
            FullTextQuery::Phrase(vec![rng.pick(&WORDS).to_string(), rng.pick(&WORDS).to_string()])
        }
        _ => word(rng),
    }
}

/// Up to six pattern nodes: a root that is anchored (`/label`) or not
/// (`//label`), random parents, axes, output flags (none and several
/// included) and predicates, now and then a label the corpus lacks.
fn random_pattern(rng: &mut Rng) -> TwigPattern {
    let label = |rng: &mut Rng| if rng.chance(4) { "missing" } else { rng.pick(&LABELS) };
    let root = if rng.chance(60) { "r" } else { label(rng) };
    let mut pattern = if rng.chance(50) {
        TwigPattern::with_root(root)
    } else {
        TwigPattern::parse(&format!("//{root}")).expect("a one-step path parses")
    };
    for _ in 0..rng.below(6) {
        let parent = rng.below(pattern.len());
        let axis = if rng.chance(50) { Axis::Child } else { Axis::Descendant };
        pattern.add_child(parent, label(rng), axis);
    }
    let always = rng.below(pattern.len());
    let no_output = rng.chance(3);
    for q in 0..pattern.len() {
        pattern.set_output(q, !no_output && (q == always || rng.chance(35)));
        if rng.chance(20) {
            pattern.set_predicate(q, random_predicate(rng));
        }
    }
    pattern
}

fn assert_same(collection: &Collection, pattern: &TwigPattern, case: &str) -> usize {
    let new = evaluate_twig(collection, pattern);
    let old = reference::evaluate_twig(collection, pattern);
    assert_eq!(new.output_nodes, old.output_nodes, "{case}: {pattern:?}");
    assert_eq!(new.rows, old.rows, "{case}: {pattern:?}");
    let scanned: usize = collection.documents().map(|d| d.len()).sum();
    assert!(new.nodes_visited <= scanned, "{case}: every node is visited at most once");
    new.rows.len()
}

#[test]
fn random_trees_and_patterns_match_the_reference_evaluator() {
    let mut rng = Rng(0x5EDA_2009);
    let (mut non_empty, mut rows) = (0, 0);
    let cases = 6_000;
    for case in 0..cases {
        let collection = random_collection(&mut rng);
        for variant in 0..2 {
            let pattern = random_pattern(&mut rng);
            let matched = assert_same(&collection, &pattern, &format!("case {case}.{variant}"));
            non_empty += usize::from(matched > 0);
            rows += matched;
        }
    }
    // The generator must reach the interesting part of the space.
    // (12,000 cases; 4,051 of them non-empty, 58,758 rows in all.)
    assert!(non_empty > 2_000, "only {non_empty} non-empty results");
    assert!(rows > 4 * cases, "only {rows} rows");
}

#[test]
fn an_element_is_closed_by_every_later_node_not_only_by_stream_elements() {
    // Closing `a` lazily — when the next stream element arrives — would find
    // it still open at the second `b`: `c` is in no stream.
    let collection =
        parse_collection(vec![("d.xml", "<r><a><b/></a><c><b/></c></r>")]).expect("parses");
    let pattern = TwigPattern::parse("//a//b").expect("parses");
    let matches = evaluate_twig(&collection, &pattern);
    let nodes: Vec<u32> = matches.rows.iter().map(|row| row[0].node).collect();
    assert_eq!(nodes, vec![2], "only the first b lies under a");
    assert_same(&collection, &pattern, "lazy close");
}

#[test]
fn a_node_matching_two_chain_positions_never_matches_itself() {
    let collection =
        parse_collection(vec![("d.xml", "<a><a><a/><b/></a><a/></a>")]).expect("parses");
    let mut pattern = TwigPattern::parse("//a//a").expect("parses");
    pattern.set_output(0, true);
    let matches = evaluate_twig(&collection, &pattern);
    let pairs: Vec<(u32, u32)> = matches.rows.iter().map(|r| (r[0].node, r[1].node)).collect();
    assert_eq!(pairs, vec![(0, 1), (0, 2), (0, 4), (1, 2)]);
    assert_same(&collection, &pattern, "//a//a");
    for text in ["//a/a", "/a//a", "/a/a/a", "//a//a//a", "/a//a//b"] {
        assert_same(&collection, &TwigPattern::parse(text).expect("parses"), text);
    }
}

#[test]
fn an_anchored_root_is_the_root_element_and_a_descendant_root_is_any_element() {
    let collection = parse_collection(vec![
        ("city.xml", "<city><name>Paris</name></city>"),
        (
            "country.xml",
            "<country><name>France</name><province><city><name>Lyon</name></city></province></country>",
        ),
    ])
    .expect("parses");
    let anchored = evaluate_twig(&collection, &TwigPattern::parse("/city/name").expect("parses"));
    assert_eq!(anchored.len(), 1);
    assert_eq!(collection.content(anchored.rows[0][0]).expect("node exists"), "Paris");
    // Only the document whose root element is `city` was scanned.
    assert_eq!(anchored.nodes_visited, 2);
    assert_eq!(evaluate_twig(&collection, &TwigPattern::from_path("/city/name").unwrap()).len(), 1);
    let anywhere = evaluate_twig(&collection, &TwigPattern::parse("//city/name").expect("parses"));
    assert_eq!(anywhere.len(), 2);
    assert_eq!(anywhere.nodes_visited, collection.total_nodes());
}

#[test]
fn an_unknown_label_touches_no_document() {
    let collection = parse_collection(vec![("d.xml", "<r><a>x</a></r>")]).expect("parses");
    let matches = evaluate_twig(&collection, &TwigPattern::parse("//r/nowhere").expect("parses"));
    assert!(matches.is_empty());
    assert_eq!(matches.nodes_visited, 0);
    assert_eq!(matches.output_nodes, vec![1]);
}

/// What makes the evaluator usable behind a document pre-filter and a
/// deadline: over a subsequence of the documents it returns exactly the full
/// answer's rows in those documents, so over a prefix it returns a prefix.
#[test]
fn a_subsequence_of_the_documents_yields_that_subsequence_of_the_rows() {
    let mut rng = Rng(0xC1D2_2009);
    let mut cut_short = 0;
    for case in 0..1_500 {
        let collection = random_collection(&mut rng);
        let pattern = random_pattern(&mut rng);
        let full = evaluate_twig(&collection, &pattern);

        let keep = rng.below(collection.len() + 1);
        let prefix = evaluate_twig_in(&collection, &pattern, collection.documents().take(keep));
        assert_eq!(prefix.output_nodes, full.output_nodes);
        assert_eq!(prefix.rows[..], full.rows[..prefix.rows.len()], "case {case}: not a prefix");
        assert!(full.rows[prefix.rows.len()..].iter().all(|row| row[0].doc.index() >= keep));
        cut_short += usize::from(prefix.rows.len() < full.rows.len());

        let chosen: Vec<bool> = collection.documents().map(|_| rng.chance(50)).collect();
        let some = evaluate_twig_in(
            &collection,
            &pattern,
            collection.documents().filter(|d| chosen[d.id.index()]),
        );
        let expected: Vec<_> =
            full.rows.iter().filter(|row| chosen[row[0].doc.index()]).cloned().collect();
        assert_eq!(some.rows, expected, "case {case}: not the chosen documents' rows");
    }
    assert!(cut_short > 100, "only {cut_short} proper prefixes");
}
