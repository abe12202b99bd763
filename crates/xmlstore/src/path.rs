//! Interning of root-to-leaf label paths ("contexts" in SEDA terminology).
//!
//! The *context* of a data node is its root-to-leaf path following only
//! parent/child edges (Definition 2 of the paper), e.g.
//! `/country/economy/import_partners/item/percentage`.  Contexts are the unit
//! the context summary, the keyword→path index (Fig. 8), dataguides, and the
//! fact/dimension definitions all operate on, so the store interns every
//! distinct path once and hands out a dense [`PathId`].

use std::collections::HashMap;

use crate::symbol::{Symbol, SymbolTable};

/// Interned identifier for a distinct root-to-leaf label path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(pub u32);

impl PathId {
    /// Raw index into the owning [`PathTable`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A single interned path: the sequence of label symbols from the document
/// root to the node.
// surface: type in a public signature (`PathTable::resolve`)
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LabelPath {
    steps: Vec<Symbol>,
}

impl LabelPath {
    /// The label symbols, root first.
    pub fn steps(&self) -> &[Symbol] {
        &self.steps
    }

    /// The last (leaf) label of the path, if any.
    pub fn leaf(&self) -> Option<Symbol> {
        self.steps.last().copied()
    }

    /// Number of steps (the depth of nodes with this context).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True for the empty path (never produced for real nodes).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Renders the path in the `/a/b/c` notation used throughout the paper.
    pub fn display(&self, symbols: &SymbolTable) -> String {
        let mut s = String::new();
        for step in &self.steps {
            s.push('/');
            s.push_str(symbols.resolve(*step));
        }
        if s.is_empty() {
            s.push('/');
        }
        s
    }
}

/// Append-only intern table for label paths.
///
/// A context is interned as one edge from its parent's context: the table is
/// keyed by `(parent context, or `None` for a root, label)`, so interning a
/// node's context never builds or hashes its whole label list.  Ids are dense
/// and in first-seen order.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct PathTable {
    paths: Vec<LabelPath>,
    edges: HashMap<(Option<PathId>, Symbol), PathId>,
}

impl PathTable {
    /// Interns the context one `label` step below `parent` (`None`: a root
    /// element's context), returning the existing id if it was seen before.
    pub(crate) fn child(&mut self, parent: Option<PathId>, label: Symbol) -> PathId {
        let paths = &mut self.paths;
        *self.edges.entry((parent, label)).or_insert_with(|| {
            let mut steps = parent.map_or_else(Vec::new, |p| paths[p.index()].steps.clone());
            steps.push(label);
            paths.push(LabelPath { steps });
            PathId(paths.len() as u32 - 1)
        })
    }

    /// Interns every path of `other` here in id order, parents first, its
    /// labels renamed through `symbols` (`other`'s symbol → this table's);
    /// returns `other`'s id → this table's id.  Ids are first-seen order in
    /// both tables, so the paths new here get the ids interning `other`'s
    /// documents here would have given them.
    pub(crate) fn intern_all(&mut self, other: &PathTable, symbols: &[Symbol]) -> Vec<PathId> {
        // Every path is the target of exactly one edge; the placeholder is
        // overwritten for each.
        let mut edges = vec![(None, Symbol(0)); other.len()];
        for (&edge, &id) in &other.edges {
            edges[id.index()] = edge;
        }
        let mut ids: Vec<PathId> = Vec::with_capacity(other.len());
        for (parent, label) in edges {
            // A parent is interned before its children, so its id is mapped.
            let id = self.child(parent.map(|p| ids[p.index()]), symbols[label.index()]);
            ids.push(id);
        }
        ids
    }

    /// Looks up an already-interned path without inserting.
    pub fn get(&self, path: &LabelPath) -> Option<PathId> {
        self.walk(path.steps.iter().map(|&step| Some(step)))
    }

    /// Follows one edge per label from the root; `None` when a label is
    /// unknown (`None` items) or unreached, or when there is no label at all.
    fn walk(&self, labels: impl IntoIterator<Item = Option<Symbol>>) -> Option<PathId> {
        let mut current = None;
        for label in labels {
            current = Some(*self.edges.get(&(current, label?))?);
        }
        current
    }

    /// Resolves a path id back to the label path.
    pub fn resolve(&self, id: PathId) -> &LabelPath {
        &self.paths[id.index()]
    }

    /// Number of distinct paths interned so far.  For the World Factbook data
    /// set the paper reports 1984 distinct paths.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    /// True when no path has been interned.
    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Iterates over `(id, path)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (PathId, &LabelPath)> {
        self.paths.iter().enumerate().map(|(i, p)| (PathId(i as u32), p))
    }

    /// All path ids whose leaf label equals `leaf`.
    pub fn paths_with_leaf(&self, leaf: Symbol) -> Vec<PathId> {
        self.iter().filter(|(_, p)| p.leaf() == Some(leaf)).map(|(id, _)| id).collect()
    }

    /// Looks up a `/a/b/c` string without interning. Returns `None` when the
    /// path (or any of its labels) is unknown, and for `/`.
    pub fn get_str(&self, symbols: &SymbolTable, path: &str) -> Option<PathId> {
        self.walk(path.split('/').filter(|s| !s.is_empty()).map(|s| symbols.get(s)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Interns a `/a/b/c` string one edge at a time, as the builder does.
    fn intern(table: &mut PathTable, symbols: &mut SymbolTable, path: &str) -> PathId {
        let mut current = None;
        for label in path.split('/').filter(|s| !s.is_empty()) {
            current = Some(table.child(current, symbols.intern(label)));
        }
        current.expect("a path with at least one label")
    }

    fn table_with(paths: &[&str]) -> (SymbolTable, PathTable, Vec<PathId>) {
        let mut symbols = SymbolTable::default();
        let mut table = PathTable::default();
        let ids = paths.iter().map(|p| intern(&mut table, &mut symbols, p)).collect();
        (symbols, table, ids)
    }

    #[test]
    fn interning_is_idempotent_and_interns_every_prefix() {
        let (_, table, ids) = table_with(&["/country/economy/GDP", "/country/economy/GDP"]);
        assert_eq!(ids[0], ids[1]);
        // /country, /country/economy and /country/economy/GDP, in that order.
        assert_eq!(table.len(), 3);
        assert_eq!(ids[0], PathId(2));
    }

    #[test]
    fn display_roundtrips_slash_notation() {
        let (symbols, table, ids) = table_with(&["/country/economy/import_partners/item"]);
        let rendered = table.resolve(ids[0]).display(&symbols);
        assert_eq!(rendered, "/country/economy/import_partners/item");
    }

    #[test]
    fn get_str_finds_interned_paths_only() {
        let (symbols, table, ids) = table_with(&["/country/year"]);
        assert_eq!(table.get_str(&symbols, "/country/year"), Some(ids[0]));
        assert_eq!(table.get(table.resolve(ids[0])), Some(ids[0]));
        assert!(table.get_str(&symbols, "/country/economy").is_none());
        assert!(table.get_str(&symbols, "/year").is_none());
    }

    #[test]
    fn get_str_of_the_root_slash_is_none() {
        let (symbols, table, _) = table_with(&["/country/year"]);
        assert_eq!(table.get_str(&symbols, "/"), None);
        assert_eq!(table.get_str(&symbols, ""), None);
        assert_eq!(table.get(&LabelPath { steps: Vec::new() }), None);
    }

    #[test]
    fn get_str_with_an_unknown_label_is_none() {
        let (symbols, table, _) = table_with(&["/country/year"]);
        assert_eq!(table.get_str(&symbols, "/country/unknown_label"), None);
        assert_eq!(table.get_str(&symbols, "/unknown_label/year"), None);
    }

    #[test]
    fn paths_with_leaf_filters_by_last_label() {
        let (symbols, table, _) = table_with(&[
            "/country/economy/import_partners/item/trade_country",
            "/country/economy/export_partners/item/trade_country",
            "/country/economy/GDP",
        ]);
        let leaf = symbols.get("trade_country").unwrap();
        assert_eq!(table.paths_with_leaf(leaf).len(), 2);
        let gdp = symbols.get("GDP").unwrap();
        assert_eq!(table.paths_with_leaf(gdp).len(), 1);
    }

    #[test]
    fn leaf_and_len() {
        let (symbols, table, ids) = table_with(&["/country/economy/GDP"]);
        let p = table.resolve(ids[0]);
        assert_eq!(p.len(), 3);
        assert_eq!(symbols.resolve(p.leaf().unwrap()), "GDP");
    }
}
