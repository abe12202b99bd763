//! Relative XML keys (Sec. 7, after Buneman et al.).
//!
//! SEDA requires every dimension (and fact) to have a key so aggregates are
//! well defined.  A relative key for a node `n` is a list of path expressions;
//! each is either *absolute* (starts at the document root, e.g.
//! `/country/year`) or *relative* (starts at `n`, e.g. `../trade_country` or
//! `.`).  The key of the `percentage` fact in the paper is
//! `(/country, /country/year, ../trade_country)`: for every percentage node
//! the key collects the country, the year and the sibling trade country.

use serde::{Deserialize, Serialize};

use seda_xmlstore::{Collection, DocId, NodeId, PathId, RelativeStep};

/// One component of a relative key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum KeyPart {
    /// Absolute path expression, evaluated from the document root.
    Absolute(String),
    /// Relative path expression, evaluated from the keyed node.
    Relative(String),
}

impl KeyPart {
    /// Parses a textual component: expressions starting with `/` are
    /// absolute, everything else (`.`, `..`, `../x`) is relative.
    pub fn parse(expr: &str) -> Self {
        if expr.starts_with('/') {
            KeyPart::Absolute(expr.to_string())
        } else {
            KeyPart::Relative(expr.to_string())
        }
    }

    /// The textual expression.
    pub fn expression(&self) -> &str {
        match self {
            KeyPart::Absolute(e) | KeyPart::Relative(e) => e,
        }
    }
}

/// A relative key: an ordered list of key parts.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RelativeKey {
    parts: Vec<KeyPart>,
}

/// The values a key evaluates to for one node, one string per key part.
pub type KeyValues = Vec<String>;

/// Problems detected while evaluating or verifying a key.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum KeyViolation {
    /// A key part evaluated to no node for the given keyed node.
    MissingComponent {
        /// The offending expression.
        expression: String,
        /// The keyed node.
        node: NodeId,
    },
    /// A key part evaluated to more than one node.
    AmbiguousComponent {
        /// The offending expression.
        expression: String,
        /// The keyed node.
        node: NodeId,
        /// How many nodes it evaluated to.
        matches: usize,
    },
    /// Two distinct keyed nodes produced identical key values.
    DuplicateKey {
        /// The duplicated key values.
        values: KeyValues,
    },
}

impl std::fmt::Display for KeyViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KeyViolation::MissingComponent { expression, node } => {
                write!(f, "key component {expression:?} evaluated to no node for {node:?}")
            }
            KeyViolation::AmbiguousComponent { expression, node, matches } => {
                write!(
                    f,
                    "key component {expression:?} evaluated to {matches} nodes for {node:?} \
                     (expected exactly one)"
                )
            }
            KeyViolation::DuplicateKey { values } => {
                write!(f, "two distinct nodes produced the same key values {values:?}")
            }
        }
    }
}

impl std::error::Error for KeyViolation {}

impl RelativeKey {
    /// Builds a key from textual component expressions, e.g.
    /// `["/country", "/country/year", "../trade_country"]`.
    pub fn parse(parts: &[&str]) -> Self {
        RelativeKey { parts: parts.iter().map(|p| KeyPart::parse(p)).collect() }
    }

    /// The components of the key.
    pub fn parts(&self) -> &[KeyPart] {
        &self.parts
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True when the key has no components.
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// The absolute components of the key (used by the augmentation step to
    /// add missing columns such as `/country/year`).
    pub fn absolute_paths(&self) -> Vec<&str> {
        self.parts
            .iter()
            .filter_map(|p| match p {
                KeyPart::Absolute(e) => Some(e.as_str()),
                KeyPart::Relative(_) => None,
            })
            .collect()
    }

    /// Evaluates the key for one node, returning the key values (one per
    /// part) or the first violation encountered.  Evaluating many nodes is
    /// cheaper through one compiled evaluator, as [`RelativeKey::verify`] does.
    pub fn evaluate(
        &self,
        collection: &Collection,
        node: NodeId,
    ) -> Result<KeyValues, KeyViolation> {
        self.compile(collection).evaluate(node)
    }

    /// Resolves the key's parts against `collection` once — absolute paths to
    /// their interned ids, relative expressions to parsed steps — for
    /// evaluating many nodes.
    pub(crate) fn compile<'a>(&'a self, collection: &'a Collection) -> CompiledKey<'a> {
        let parts = self
            .parts
            .iter()
            .map(|part| match part {
                KeyPart::Absolute(expr) => {
                    CompiledPart::Absolute(collection.paths().get_str(collection.symbols(), expr))
                }
                KeyPart::Relative(expr) => CompiledPart::Relative(RelativeStep::parse_expr(expr)),
            })
            .collect();
        CompiledKey { key: self, collection, parts, document: None, absolute: Vec::new() }
    }

    /// Verifies that the key uniquely identifies every node in `nodes`
    /// ("the system automatically verifies the keys by computing them for
    /// every cni in R(q) and checking their uniqueness").  Returns all
    /// violations found; an empty vector means the key is valid.
    pub fn verify(&self, collection: &Collection, nodes: &[NodeId]) -> Vec<KeyViolation> {
        let mut violations = Vec::new();
        let mut seen: std::collections::HashMap<KeyValues, NodeId> =
            std::collections::HashMap::new();
        let mut compiled = self.compile(collection);
        for &node in nodes {
            match compiled.evaluate(node) {
                Ok(values) => {
                    if let Some(&previous) = seen.get(&values) {
                        if previous != node {
                            violations.push(KeyViolation::DuplicateKey { values: values.clone() });
                        }
                    } else {
                        seen.insert(values, node);
                    }
                }
                Err(v) => violations.push(v),
            }
        }
        violations
    }
}

/// One key part resolved against a collection.
#[derive(Debug)]
enum CompiledPart {
    /// The interned path; `None` for a path no node of the collection has.
    Absolute(Option<PathId>),
    /// The parsed steps.
    Relative(Vec<RelativeStep>),
}

/// A [`RelativeKey`] resolved against one collection
/// ([`RelativeKey::compile`]).  Besides the resolved parts it remembers what
/// the absolute parts match in the document evaluated last, so nodes that
/// arrive grouped by document (as sorted fact instances do) cost one pass
/// over each document instead of one per node and part.
#[derive(Debug)]
pub(crate) struct CompiledKey<'a> {
    key: &'a RelativeKey,
    collection: &'a Collection,
    parts: Vec<CompiledPart>,
    /// The document `absolute` describes.
    document: Option<DocId>,
    /// Per key part: how many nodes of `document` an absolute part matches,
    /// and the first of them; unused for relative parts.
    absolute: Vec<(usize, u32)>,
}

impl CompiledKey<'_> {
    /// What [`RelativeKey::evaluate`] returns for `node`.
    pub(crate) fn evaluate(&mut self, node: NodeId) -> Result<KeyValues, KeyViolation> {
        let Ok(document) = self.collection.document(node.doc) else {
            return Err(KeyViolation::MissingComponent {
                expression: "<document>".to_string(),
                node,
            });
        };
        if self.document != Some(node.doc) {
            self.document = Some(node.doc);
            self.absolute.clear();
            self.absolute.resize(self.parts.len(), (0, 0));
            for (ordinal, data_node) in document.iter() {
                for (part, matched) in self.parts.iter().zip(&mut self.absolute) {
                    if matches!(part, CompiledPart::Absolute(Some(path)) if *path == data_node.path)
                    {
                        if matched.0 == 0 {
                            matched.1 = ordinal;
                        }
                        matched.0 += 1;
                    }
                }
            }
        }
        let mut values = Vec::with_capacity(self.parts.len());
        for (i, part) in self.parts.iter().enumerate() {
            let (matches, first) = match part {
                CompiledPart::Absolute(_) => self.absolute[i],
                CompiledPart::Relative(steps) => {
                    let reached =
                        document.eval_relative_steps(node.node, steps, self.collection.symbols());
                    (reached.len(), reached.first().copied().unwrap_or(0))
                }
            };
            let expression = || self.key.parts[i].expression().to_string();
            match matches {
                0 => return Err(KeyViolation::MissingComponent { expression: expression(), node }),
                1 => values.push(document.content(first)),
                matches => {
                    return Err(KeyViolation::AmbiguousComponent {
                        expression: expression(),
                        node,
                        matches,
                    })
                }
            }
        }
        Ok(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_xmlstore::parse_collection;

    fn us_doc() -> Collection {
        parse_collection(vec![(
            "us.xml",
            r#"<country><name>United States</name><year>2006</year>
                 <economy><import_partners>
                   <item><trade_country>China</trade_country><percentage>15</percentage></item>
                   <item><trade_country>Canada</trade_country><percentage>16.9</percentage></item>
                 </import_partners></economy></country>"#,
        )])
        .unwrap()
    }

    fn percentage_nodes(c: &Collection) -> Vec<NodeId> {
        let p = c
            .paths()
            .get_str(c.symbols(), "/country/economy/import_partners/item/percentage")
            .unwrap();
        c.nodes_with_path(p)
    }

    #[test]
    fn paper_key_for_percentage_fact_evaluates() {
        let c = us_doc();
        let key = RelativeKey::parse(&["/country/name", "/country/year", "../trade_country"]);
        let nodes = percentage_nodes(&c);
        let v0 = key.evaluate(&c, nodes[0]).unwrap();
        assert_eq!(v0, vec!["United States", "2006", "China"]);
        let v1 = key.evaluate(&c, nodes[1]).unwrap();
        assert_eq!(v1, vec!["United States", "2006", "Canada"]);
        assert!(key.verify(&c, &nodes).is_empty(), "the key uniquely identifies both percentages");
    }

    #[test]
    fn dropping_the_relative_part_makes_the_key_ambiguous_across_nodes() {
        let c = us_doc();
        // Without ../trade_country the two percentage nodes collide: this is
        // exactly the paper's argument for the year/trade_country key columns.
        let key = RelativeKey::parse(&["/country/name", "/country/year"]);
        let nodes = percentage_nodes(&c);
        let violations = key.verify(&c, &nodes);
        assert!(violations.iter().any(|v| matches!(v, KeyViolation::DuplicateKey { .. })));
    }

    #[test]
    fn missing_and_ambiguous_components_are_reported() {
        let c = us_doc();
        let nodes = percentage_nodes(&c);
        let missing = RelativeKey::parse(&["/country/population"]);
        assert!(matches!(
            missing.evaluate(&c, nodes[0]),
            Err(KeyViolation::MissingComponent { .. })
        ));
        // /country/economy/import_partners/item is ambiguous at document level
        // (two items exist).
        let ambiguous = RelativeKey::parse(&["/country/economy/import_partners/item"]);
        assert!(matches!(
            ambiguous.evaluate(&c, nodes[0]),
            Err(KeyViolation::AmbiguousComponent { matches: 2, .. })
        ));
    }

    /// The evaluation as it was before keys were compiled: every part resolved
    /// from its text and matched by a scan of the document, per node.
    fn evaluate_uncompiled(
        key: &RelativeKey,
        collection: &Collection,
        node: NodeId,
    ) -> Result<KeyValues, KeyViolation> {
        let document = collection.document(node.doc).unwrap();
        let mut values = Vec::new();
        for part in key.parts() {
            let matches: Vec<u32> = match part {
                KeyPart::Absolute(expr) => collection
                    .paths()
                    .get_str(collection.symbols(), expr)
                    .map(|path| document.nodes_with_path(path))
                    .unwrap_or_default(),
                KeyPart::Relative(expr) => document.eval_relative_steps(
                    node.node,
                    &RelativeStep::parse_expr(expr),
                    collection.symbols(),
                ),
            };
            let expression = part.expression().to_string();
            match matches.len() {
                0 => return Err(KeyViolation::MissingComponent { expression, node }),
                1 => values.push(document.content(matches[0])),
                matches => {
                    return Err(KeyViolation::AmbiguousComponent { expression, node, matches })
                }
            }
        }
        Ok(values)
    }

    #[test]
    fn a_compiled_key_evaluates_like_the_uncompiled_one_across_documents() {
        let c = parse_collection(vec![
            (
                "us.xml",
                r#"<country><name>United States</name><year>2006</year>
                     <economy><import_partners>
                       <item><trade_country>China</trade_country><percentage>15</percentage></item>
                       <item><trade_country>Canada</trade_country><percentage>16.9</percentage></item>
                     </import_partners></economy></country>"#,
            ),
            // No year; two names.
            (
                "xx.xml",
                r#"<country><name>A</name><name>B</name>
                     <economy><import_partners>
                       <item><trade_country>China</trade_country><percentage>1</percentage></item>
                     </import_partners></economy></country>"#,
            ),
            (
                "mx.xml",
                r#"<country><name>Mexico</name><year>2005</year>
                     <economy><import_partners>
                       <item><trade_country>China</trade_country><percentage>15</percentage></item>
                     </import_partners></economy></country>"#,
            ),
        ])
        .unwrap();
        let mut nodes = percentage_nodes(&c);
        // Back to the first document after the others: the per-document
        // memory must follow the node, not the call order.
        nodes.push(nodes[0]);
        let keys = [
            vec!["/country/name", "/country/year", "../trade_country"],
            vec!["/country/year", "/country/name", "."],
            vec!["/country/economy/import_partners/item", "/country/name"],
            vec!["/country/population", "/country/name"],
            vec!["/nowhere/at/all"],
            vec!["../missing", "/country/name"],
            vec![".."],
        ];
        for parts in keys {
            let key = RelativeKey::parse(&parts);
            let mut compiled = key.compile(&c);
            for &node in &nodes {
                let expected = evaluate_uncompiled(&key, &c, node);
                assert_eq!(compiled.evaluate(node), expected, "{parts:?} at {node:?}");
                assert_eq!(key.evaluate(&c, node), expected, "{parts:?} at {node:?}");
            }
            // Same violations in the same order.
            let mut seen = std::collections::HashMap::new();
            let mut expected = Vec::new();
            for &node in &nodes {
                match evaluate_uncompiled(&key, &c, node) {
                    Ok(values) => match seen.get(&values) {
                        Some(&previous) if previous != node => {
                            expected.push(KeyViolation::DuplicateKey { values })
                        }
                        Some(_) => {}
                        None => drop(seen.insert(values, node)),
                    },
                    Err(violation) => expected.push(violation),
                }
            }
            assert_eq!(key.verify(&c, &nodes), expected, "{parts:?}");
        }
    }

    #[test]
    fn self_relative_component_keys_on_own_content() {
        let c = us_doc();
        let tc_path = c
            .paths()
            .get_str(c.symbols(), "/country/economy/import_partners/item/trade_country")
            .unwrap();
        let nodes = c.nodes_with_path(tc_path);
        let key = RelativeKey::parse(&["/country/name", "/country/year", "."]);
        assert!(key.verify(&c, &nodes).is_empty());
        let values = key.evaluate(&c, nodes[0]).unwrap();
        assert_eq!(values[2], "China");
    }

    #[test]
    fn key_part_parsing_distinguishes_absolute_and_relative() {
        assert_eq!(KeyPart::parse("/country"), KeyPart::Absolute("/country".into()));
        assert_eq!(
            KeyPart::parse("../trade_country"),
            KeyPart::Relative("../trade_country".into())
        );
        assert_eq!(KeyPart::parse("."), KeyPart::Relative(".".into()));
        let key = RelativeKey::parse(&["/country", "/country/year", "../trade_country"]);
        assert_eq!(key.len(), 3);
        assert_eq!(key.absolute_paths(), vec!["/country", "/country/year"]);
    }
}
