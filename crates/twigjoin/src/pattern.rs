//! Query pattern trees (twigs).
//!
//! Sec. 7 of the paper partitions the user's connection graph into *twigs*:
//! "each twig is a query pattern tree, which includes the connection nodes and
//! parent/child edges within the same document".  A [`TwigPattern`] is such a
//! tree: every node carries a label test, an axis relating it to its parent
//! (child or descendant), an optional full-text predicate on its content, and
//! a flag marking it as an output (query) node.
//!
//! A pattern comes from one of two constructors: [`TwigPattern::parse`]
//! reads the textual syntax of a `TWIG` statement (`/a//b`), and
//! [`TwigPattern::from_paths`] merges the root-to-leaf child paths of a
//! complete result's chosen contexts, given as their labels.
//! [`TwigPattern::expression`] renders a node's path back in the textual
//! syntax, axes included.

use std::fmt;

use seda_textindex::FullTextQuery;

/// Error produced when a textual twig path cannot be compiled into a
/// [`TwigPattern`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwigParseError {
    message: String,
}

impl TwigParseError {
    fn new(message: impl Into<String>) -> Self {
        TwigParseError { message: message.into() }
    }
}

impl fmt::Display for TwigParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "twig parse error: {}", self.message)
    }
}

impl std::error::Error for TwigParseError {}

/// Axis between a pattern node and its parent pattern node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Direct parent/child edge (`/`).
    Child,
    /// Ancestor/descendant edge (`//`).
    Descendant,
}

/// One node of a twig pattern.
// surface: type in a public signature (`TwigPattern::node`)
#[derive(Debug, Clone)]
pub struct TwigNode {
    /// Element/attribute label the node must match.
    pub label: String,
    /// Axis to the parent pattern node.  For the root it relates the node to
    /// the document: [`Axis::Child`] (`/a`) matches only the document's root
    /// element, [`Axis::Descendant`] (`//a`) an `a` at any depth.
    pub axis: Axis,
    /// Optional full-text predicate on the matched node's direct content.
    pub predicate: Option<FullTextQuery>,
    /// True when matches of this node are part of the output tuples.
    pub output: bool,
    /// Parent pattern-node index.
    pub parent: Option<usize>,
    /// Child pattern-node indices.
    pub children: Vec<usize>,
}

/// A query pattern tree.
#[derive(Debug, Clone, Default)]
pub struct TwigPattern {
    nodes: Vec<TwigNode>,
}

impl TwigPattern {
    /// Creates a pattern with only a root node, anchored at the document's
    /// root element (`/label`).
    pub fn with_root(label: impl Into<String>) -> Self {
        TwigPattern {
            nodes: vec![TwigNode {
                label: label.into(),
                axis: Axis::Child,
                predicate: None,
                output: false,
                parent: None,
                children: Vec::new(),
            }],
        }
    }

    /// Compiles the textual twig syntax `/a/b//c`: `/` introduces a
    /// child-axis step, `//` a descendant-axis step — for the first step too,
    /// so `/a/…` starts at the document's root element and `//a/…` at any `a`.
    /// The leaf of the path is marked as an output node.
    pub fn parse(expr: &str) -> Result<Self, TwigParseError> {
        let trimmed = expr.trim();
        if trimmed.is_empty() {
            return Err(TwigParseError::new("empty twig path"));
        }
        if !trimmed.starts_with('/') {
            return Err(TwigParseError::new(format!("twig path must start with '/': {trimmed:?}")));
        }
        let mut steps = Vec::new();
        let mut rest = trimmed;
        while !rest.is_empty() {
            let axis = if let Some(stripped) = rest.strip_prefix("//") {
                rest = stripped;
                Axis::Descendant
            } else if let Some(stripped) = rest.strip_prefix('/') {
                rest = stripped;
                Axis::Child
            } else {
                return Err(TwigParseError::new(format!(
                    "expected '/' before the next step in twig path {trimmed:?}"
                )));
            };
            let end = rest.find('/').unwrap_or(rest.len());
            let label = &rest[..end];
            if label.is_empty() {
                return Err(TwigParseError::new(format!("empty step in twig path {trimmed:?}")));
            }
            steps.push((axis, label));
            rest = &rest[end..];
        }
        let mut iter = steps.into_iter();
        let (root_axis, root) =
            iter.next().expect("invariant: a parsed twig path has at least one step");
        let mut pattern = TwigPattern::with_root(root);
        pattern.nodes[0].axis = root_axis;
        let mut current = 0usize;
        for (axis, label) in iter {
            current = pattern.add_child(current, label, axis);
        }
        pattern.nodes[current].output = true;
        Ok(pattern)
    }

    /// Merges root-to-leaf child paths into one pattern, shared prefixes
    /// merged and the root anchored at the document's root element.  Each
    /// path is given as its labels, root first, and its last node becomes an
    /// output node.  Returns the pattern and, per path in order, the pattern
    /// node it ends on: two paths that end on one node get the same node.
    /// Fails when there is no path, a path has no labels, or two paths start
    /// with different labels.
    pub fn from_paths<P, L>(
        paths: impl IntoIterator<Item = P>,
    ) -> Result<(Self, Vec<usize>), TwigParseError>
    where
        P: IntoIterator<Item = L>,
        L: AsRef<str>,
    {
        let mut pattern = TwigPattern::default();
        let mut ends = Vec::new();
        for path in paths {
            let mut labels = path.into_iter();
            let root =
                labels.next().ok_or_else(|| TwigParseError::new("a twig path has no steps"))?;
            let root = root.as_ref();
            if pattern.is_empty() {
                pattern = TwigPattern::with_root(root);
            } else if root != pattern.nodes[0].label {
                return Err(TwigParseError::new(format!(
                    "twig paths have different roots: {:?} vs {root:?}",
                    pattern.nodes[0].label
                )));
            }
            let mut current = 0usize;
            for label in labels {
                let label = label.as_ref();
                current = match pattern.nodes[current].children.iter().copied().find(|&c| {
                    pattern.nodes[c].label == label && pattern.nodes[c].axis == Axis::Child
                }) {
                    Some(existing) => existing,
                    None => pattern.add_child(current, label, Axis::Child),
                };
            }
            pattern.nodes[current].output = true;
            ends.push(current);
        }
        if pattern.is_empty() {
            return Err(TwigParseError::new("no twig paths to merge"));
        }
        Ok((pattern, ends))
    }

    /// Adds a child pattern node and returns its index.
    pub fn add_child(&mut self, parent: usize, label: impl Into<String>, axis: Axis) -> usize {
        let idx = self.nodes.len();
        self.nodes.push(TwigNode {
            label: label.into(),
            axis,
            predicate: None,
            output: false,
            parent: Some(parent),
            children: Vec::new(),
        });
        self.nodes[parent].children.push(idx);
        idx
    }

    /// Sets the full-text predicate of a pattern node.
    pub fn set_predicate(&mut self, node: usize, predicate: FullTextQuery) {
        self.nodes[node].predicate = Some(predicate);
    }

    /// Marks a pattern node as an output node.
    pub fn set_output(&mut self, node: usize, output: bool) {
        self.nodes[node].output = output;
    }

    /// The root pattern-node index (always 0).
    pub fn root(&self) -> usize {
        0
    }

    /// Number of pattern nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the pattern has no nodes (only possible via `Default`).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow a pattern node.
    pub fn node(&self, idx: usize) -> &TwigNode {
        &self.nodes[idx]
    }

    /// The path from the root to `node` in the syntax [`TwigPattern::parse`]
    /// reads, axes included: `/` before a child step, `//` before a
    /// descendant step, so the output node of `parse("/a//b")` renders as
    /// `/a//b`.
    pub fn expression(&self, node: usize) -> String {
        let mut chain = vec![node];
        let mut current = node;
        while let Some(parent) = self.nodes[current].parent {
            chain.push(parent);
            current = parent;
        }
        let mut out = String::new();
        for &step in chain.iter().rev() {
            let step = &self.nodes[step];
            out.push_str(if step.axis == Axis::Descendant { "//" } else { "/" });
            out.push_str(&step.label);
        }
        out
    }

    /// Indices of all pattern nodes, root first (pre-order).
    pub fn node_indices(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root()];
        while let Some(n) = stack.pop() {
            order.push(n);
            for &c in self.nodes[n].children.iter().rev() {
                stack.push(c);
            }
        }
        order
    }

    /// Indices of leaf pattern nodes.
    fn leaves(&self) -> Vec<usize> {
        (0..self.nodes.len()).filter(|&i| self.nodes[i].children.is_empty()).collect()
    }

    /// Indices of output pattern nodes, in index order.
    pub fn output_nodes(&self) -> Vec<usize> {
        (0..self.nodes.len()).filter(|&i| self.nodes[i].output).collect()
    }

    /// Root-to-leaf decomposition: for every leaf, the chain of pattern-node
    /// indices from the root down to that leaf.  The stack-based evaluation
    /// processes one chain at a time and merges the per-chain solutions.
    pub fn root_to_leaf_chains(&self) -> Vec<Vec<usize>> {
        self.leaves()
            .into_iter()
            .map(|leaf| {
                let mut chain = vec![leaf];
                let mut current = leaf;
                while let Some(p) = self.nodes[current].parent {
                    chain.push(p);
                    current = p;
                }
                chain.reverse();
                chain
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_of_a_child_path_builds_a_chain() {
        let p = TwigPattern::parse("/country/economy/GDP").unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.node(0).label, "country");
        assert_eq!(p.node(2).label, "GDP");
        assert!(p.node(2).output);
        assert!(!p.node(0).output);
        assert_eq!(p.leaves(), vec![2]);
    }

    #[test]
    fn from_paths_merges_shared_prefixes() {
        let (p, ends) = TwigPattern::from_paths([
            &["country", "economy", "import_partners", "item", "trade_country"][..],
            &["country", "economy", "import_partners", "item", "percentage"],
            &["country", "name"],
        ])
        .unwrap();
        // country, economy, import_partners, item, trade_country, percentage, name
        assert_eq!(p.len(), 7);
        assert_eq!(p.output_nodes().len(), 3);
        assert_eq!(p.leaves().len(), 3);
        assert_eq!(ends, vec![4, 5, 6]);
        assert_eq!(p.node(ends[0]).label, "trade_country");
        assert_eq!(p.node(ends[1]).label, "percentage");
        // The two partner leaves share the same `item` parent node.
        assert_eq!(p.node(ends[0]).parent, p.node(ends[1]).parent);
        assert_eq!(p.expression(ends[2]), "/country/name");
    }

    #[test]
    fn paths_that_end_on_one_node_get_the_same_node() {
        let (p, ends) =
            TwigPattern::from_paths([["a", "b"], ["a", "b"]].iter().map(|path| path.iter()))
                .unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(ends, vec![1, 1]);
        assert_eq!(p.output_nodes(), vec![1]);
        // A path that ends above another's end is an inner output node.
        let (p, ends) = TwigPattern::from_paths([vec!["a", "b", "c"], vec!["a", "b"]]).unwrap();
        assert_eq!(ends, vec![2, 1]);
        assert_eq!(p.output_nodes(), vec![1, 2]);
        assert_eq!(p.leaves(), vec![2]);
    }

    #[test]
    fn from_paths_rejects_mismatched_roots() {
        let err = TwigPattern::from_paths([["country", "name"], ["sea", "name"]]).unwrap_err();
        assert!(err.to_string().contains("different roots"), "{err}");
        assert!(TwigPattern::from_paths(Vec::<[&str; 1]>::new()).is_err());
        assert!(TwigPattern::from_paths([Vec::<&str>::new()]).is_err());
    }

    #[test]
    fn expressions_keep_their_axes() {
        for text in ["/country/economy//trade_country", "//a/b", "//a//b/c", "/a"] {
            let p = TwigPattern::parse(text).unwrap();
            assert_eq!(p.expression(p.output_nodes()[0]), text);
        }
        let p = TwigPattern::parse("/a/b//c").unwrap();
        assert_eq!(p.expression(p.root()), "/a");
        assert_eq!(p.expression(1), "/a/b");
    }

    #[test]
    fn parse_supports_child_and_descendant_axes() {
        let p = TwigPattern::parse("/country/economy//trade_country").unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.node(1).axis, Axis::Child);
        assert_eq!(p.node(2).axis, Axis::Descendant);
        assert!(p.node(2).output);
        assert_eq!(p.output_nodes(), vec![2]);
    }

    #[test]
    fn parse_keeps_the_axis_of_the_first_step() {
        assert_eq!(TwigPattern::parse("/city/name").unwrap().node(0).axis, Axis::Child);
        let anywhere = TwigPattern::parse("//city/name").unwrap();
        assert_eq!(anywhere.node(0).axis, Axis::Descendant);
        assert_eq!(anywhere.node(1).axis, Axis::Child);
        let (merged, _) = TwigPattern::from_paths([["city", "name"]]).unwrap();
        assert_eq!(merged.node(0).axis, Axis::Child);
    }

    #[test]
    fn parse_rejects_malformed_paths() {
        assert!(TwigPattern::parse("").is_err());
        assert!(TwigPattern::parse("country/name").is_err());
        assert!(TwigPattern::parse("/country///name").is_err());
        let err = TwigPattern::parse("  ").unwrap_err();
        assert!(err.to_string().contains("twig parse error"));
    }

    #[test]
    fn chains_cover_every_leaf() {
        let paths = [&["a", "b", "c"][..], &["a", "b", "d"], &["a", "e"]];
        let (p, _) = TwigPattern::from_paths(paths).unwrap();
        let chains = p.root_to_leaf_chains();
        assert_eq!(chains.len(), 3);
        for chain in &chains {
            assert_eq!(chain[0], p.root());
            assert!(p.node(*chain.last().unwrap()).children.is_empty());
        }
    }

    #[test]
    fn descendant_axis_and_predicates_are_recorded() {
        let mut p = TwigPattern::with_root("country");
        let any_tc = p.add_child(0, "trade_country", Axis::Descendant);
        p.set_predicate(any_tc, FullTextQuery::phrase("United States"));
        p.set_output(any_tc, true);
        assert_eq!(p.node(any_tc).axis, Axis::Descendant);
        assert!(p.node(any_tc).predicate.is_some());
        assert_eq!(p.output_nodes(), vec![any_tc]);
    }

    #[test]
    fn preorder_enumeration_starts_at_root() {
        let (p, _) = TwigPattern::from_paths([&["a", "b", "c"][..], &["a", "d"]]).unwrap();
        let order = p.node_indices();
        assert_eq!(order[0], 0);
        assert_eq!(order.len(), p.len());
    }
}
