//! Documents and the programmatic document builder.

use std::borrow::Cow;

use crate::error::{Result, XmlStoreError};
use crate::node::{DocId, Node, NodeId, NodeKind};
use crate::path::{PathId, PathTable};
use crate::symbol::{Symbol, SymbolTable};

/// Deepest element nesting a document may have; a deeper one is refused with
/// [`XmlStoreError::NestingTooDeep`].  It is libxml2's default depth limit.
/// Each level is a context of its own, so a hostile document nested without a
/// bound would cost memory quadratic in its depth.
pub const MAX_NESTING: usize = 256;

/// A stored XML document: an arena of nodes in document order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// Identifier of the document within its collection.
    pub id: DocId,
    /// Source URI or generated name of the document.
    pub uri: String,
    nodes: Vec<Node>,
}

impl Document {
    pub(crate) fn from_parts(id: DocId, uri: String, nodes: Vec<Node>) -> Self {
        Document { id, uri, nodes }
    }

    /// Ordinal of the root element (always 0 for non-empty documents).
    pub fn root(&self) -> u32 {
        0
    }

    /// Number of nodes in the document.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the document holds no nodes (never the case for documents
    /// produced by the builder or parser).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow a node by its ordinal.
    pub fn node(&self, ordinal: u32) -> Result<&Node> {
        self.nodes
            .get(ordinal as usize)
            .ok_or(XmlStoreError::UnknownNode { doc: self.id.0, node: ordinal })
    }

    /// Borrow a node by its ordinal without bounds diagnostics.
    pub fn node_unchecked(&self, ordinal: u32) -> &Node {
        &self.nodes[ordinal as usize]
    }

    /// Iterates over `(ordinal, node)` pairs in document order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (i as u32, n))
    }

    /// Global node ids of all nodes, in document order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(move |n| NodeId::new(self.id, n))
    }

    /// Ordinals of the children of `ordinal`, in document order.
    pub fn children(&self, ordinal: u32) -> &[u32] {
        &self.nodes[ordinal as usize].children
    }

    /// Ordinal of the parent of `ordinal`, if any.
    pub fn parent(&self, ordinal: u32) -> Option<u32> {
        self.nodes[ordinal as usize].parent
    }

    /// The SEDA `content(n)` of a node: the concatenation of the node's own
    /// text and all descendant text, in document order, separated by single
    /// spaces.
    pub fn content(&self, ordinal: u32) -> String {
        self.content_cow(ordinal).into_owned()
    }

    /// [`Document::content`], borrowed from the document when one piece of
    /// text makes it up (a leaf's own trimmed text, as most key values and
    /// measures are) and joined into a new string only when several do.
    pub fn content_cow(&self, ordinal: u32) -> Cow<'_, str> {
        let node = &self.nodes[ordinal as usize];
        if node.children.is_empty() {
            return Cow::Borrowed(node.text.as_deref().map_or("", str::trim));
        }
        let mut pieces: Vec<&str> = Vec::new();
        let mut stack = vec![ordinal];
        // Iterative pre-order walk; children are pushed in reverse so they are
        // visited in document order.
        while let Some(current) = stack.pop() {
            let node = &self.nodes[current as usize];
            if let Some(text) = node.text.as_deref() {
                let trimmed = text.trim();
                if !trimmed.is_empty() {
                    pieces.push(trimmed);
                }
            }
            for &child in node.children.iter().rev() {
                stack.push(child);
            }
        }
        match pieces[..] {
            [] => Cow::Borrowed(""),
            [piece] => Cow::Borrowed(piece),
            _ => Cow::Owned(pieces.join(" ")),
        }
    }

    /// Ordinals of all nodes whose context equals `path`.
    pub fn nodes_with_path(&self, path: PathId) -> Vec<u32> {
        self.iter().filter(|(_, n)| n.path == path).map(|(i, _)| i).collect()
    }

    /// The set of distinct context paths occurring in this document.
    pub fn distinct_paths(&self) -> Vec<PathId> {
        let mut paths: Vec<PathId> = self.nodes.iter().map(|n| n.path).collect();
        paths.sort_unstable();
        paths.dedup();
        paths
    }

    /// Renumbers the document as `id`, and its nodes' names and contexts
    /// through `symbols` and `paths` (old id → new id), for
    /// `Collection::append`.
    pub(crate) fn rebase(&mut self, id: DocId, symbols: &[Symbol], paths: &[PathId]) {
        self.id = id;
        for node in &mut self.nodes {
            node.name = symbols[node.name.index()];
            node.path = paths[node.path.index()];
        }
    }

    /// Test-only corruption hook: swaps entries `a` and `b` of a node's
    /// children list so the seeded-corruption suite can break `preorder` in
    /// isolation.  Hidden from docs; never called by library code.
    #[doc(hidden)]
    pub fn corrupt_swap_children(&mut self, ordinal: u32, a: usize, b: usize) {
        self.nodes[ordinal as usize].children.swap(a, b);
    }

    /// Test-only corruption hook: re-points one node's context so the
    /// seeded-corruption suite can break `path-parent` in isolation.  Hidden
    /// from docs; never called by library code.
    #[doc(hidden)]
    pub fn corrupt_node_path(&mut self, ordinal: u32, path: PathId) {
        self.nodes[ordinal as usize].path = path;
    }
}

/// Streaming builder for a single document.
///
/// The builder links parents and children and interns each node's context as
/// one step below its parent's while elements are opened and closed, so the
/// finished [`Document`] is immediately usable by the indexes without a second
/// pass.
pub struct DocumentBuilder<'a> {
    symbols: &'a mut SymbolTable,
    paths: &'a mut PathTable,
    doc_id: DocId,
    uri: String,
    nodes: Vec<Node>,
    /// Stack of open element ordinals.
    open: Vec<u32>,
}

impl<'a> DocumentBuilder<'a> {
    /// Creates a builder that interns names and paths into the given tables.
    pub(crate) fn new(
        symbols: &'a mut SymbolTable,
        paths: &'a mut PathTable,
        doc_id: DocId,
        uri: impl Into<String>,
    ) -> Self {
        DocumentBuilder {
            symbols,
            paths,
            doc_id,
            uri: uri.into(),
            nodes: Vec::new(),
            open: Vec::new(),
        }
    }

    fn push_node(&mut self, name: Symbol, kind: NodeKind, text: Option<String>) -> u32 {
        let ordinal = self.nodes.len() as u32;
        let parent = self.open.last().copied();
        let path = self.paths.child(parent.map(|p| self.nodes[p as usize].path), name);
        if let Some(parent) = parent {
            self.nodes[parent as usize].children.push(ordinal);
        }
        self.nodes.push(Node { name, kind, parent, children: Vec::new(), text, path });
        ordinal
    }

    /// Opens a new element.  Returns its ordinal.  Fails with
    /// [`XmlStoreError::NestingTooDeep`] when [`MAX_NESTING`] elements are
    /// already open.
    pub fn start_element(&mut self, name: &str) -> Result<u32> {
        if self.open.is_empty() && !self.nodes.is_empty() {
            return Err(XmlStoreError::BuilderState(format!(
                "second root element {name:?} in document {}",
                self.uri
            )));
        }
        if self.open.len() == MAX_NESTING {
            return Err(XmlStoreError::NestingTooDeep {
                document: self.uri.clone(),
                limit: MAX_NESTING,
            });
        }
        let sym = self.symbols.intern(name);
        let ordinal = self.push_node(sym, NodeKind::Element, None);
        self.open.push(ordinal);
        Ok(ordinal)
    }

    /// Closes the most recently opened element.
    pub fn end_element(&mut self) -> Result<()> {
        self.open.pop().ok_or_else(|| {
            XmlStoreError::BuilderState("end_element without matching start_element".into())
        })?;
        Ok(())
    }

    /// Adds an attribute to the currently open element.
    pub fn attribute(&mut self, name: &str, value: &str) -> Result<u32> {
        if self.open.is_empty() {
            return Err(XmlStoreError::BuilderState(format!(
                "attribute {name:?} outside of any element"
            )));
        }
        let sym = self.symbols.intern(name);
        Ok(self.push_node(sym, NodeKind::Attribute, Some(value.to_string())))
    }

    /// Appends text to the currently open element.
    pub fn text(&mut self, value: &str) -> Result<()> {
        let &current = self.open.last().ok_or_else(|| {
            XmlStoreError::BuilderState("text content outside of any element".into())
        })?;
        let node = &mut self.nodes[current as usize];
        match &mut node.text {
            Some(existing) => {
                existing.push(' ');
                existing.push_str(value);
            }
            None => node.text = Some(value.to_string()),
        }
        Ok(())
    }

    /// Convenience: `start_element`, `text`, `end_element` in one call.
    pub fn leaf(&mut self, name: &str, value: &str) -> Result<u32> {
        let ordinal = self.start_element(name)?;
        self.text(value)?;
        self.end_element()?;
        Ok(ordinal)
    }

    /// Finishes the document, its node arena at exact capacity.  Fails if
    /// elements are still open or the document is empty.
    pub(crate) fn finish(self) -> Result<Document> {
        if !self.open.is_empty() {
            return Err(XmlStoreError::BuilderState(format!(
                "{} element(s) still open at finish",
                self.open.len()
            )));
        }
        if self.nodes.is_empty() {
            return Err(XmlStoreError::EmptyDocument);
        }
        // The arena grew by doubling; the document keeps only its nodes.
        let mut nodes = self.nodes;
        nodes.shrink_to_fit();
        Ok(Document::from_parts(self.doc_id, self.uri, nodes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_sample() -> (SymbolTable, PathTable, Document) {
        let mut symbols = SymbolTable::default();
        let mut paths = PathTable::default();
        let mut b = DocumentBuilder::new(&mut symbols, &mut paths, DocId(0), "sample.xml");
        b.start_element("country").unwrap();
        b.attribute("name", "United States").unwrap();
        b.leaf("year", "2006").unwrap();
        b.start_element("economy").unwrap();
        b.leaf("GDP_ppp", "12.31T").unwrap();
        b.start_element("import_partners").unwrap();
        b.start_element("item").unwrap();
        b.leaf("trade_country", "China").unwrap();
        b.leaf("percentage", "15").unwrap();
        b.end_element().unwrap();
        b.start_element("item").unwrap();
        b.leaf("trade_country", "Canada").unwrap();
        b.leaf("percentage", "16.9").unwrap();
        b.end_element().unwrap();
        b.end_element().unwrap();
        b.end_element().unwrap();
        b.end_element().unwrap();
        let doc = b.finish().unwrap();
        (symbols, paths, doc)
    }

    #[test]
    fn builder_interns_contexts() {
        let (symbols, paths, doc) = build_sample();
        let percentage_path =
            paths.get_str(&symbols, "/country/economy/import_partners/item/percentage").unwrap();
        let hits = doc.nodes_with_path(percentage_path);
        assert_eq!(hits.len(), 2);
        for h in hits {
            assert_eq!(symbols.resolve(doc.node(h).unwrap().name), "percentage");
        }
    }

    #[test]
    fn content_concatenates_descendant_text_in_document_order() {
        let (symbols, _, doc) = build_sample();
        let item_name = symbols.get("item").unwrap();
        let first_item = doc.iter().find(|(_, n)| n.name == item_name).unwrap().0;
        assert_eq!(doc.content(first_item), "China 15");
        assert!(doc.content(0).contains("United States"));
        assert!(doc.content(0).contains("16.9"));
        // One piece of text is borrowed, several are joined.
        assert!(matches!(doc.content_cow(first_item), Cow::Owned(_)));
        let leaf = doc.children(first_item)[0];
        assert!(matches!(doc.content_cow(leaf), Cow::Borrowed("China")));
    }

    #[test]
    fn attributes_are_children_with_text() {
        let (symbols, paths, doc) = build_sample();
        let name_path = paths.get_str(&symbols, "/country/name").unwrap();
        let hits = doc.nodes_with_path(name_path);
        assert_eq!(hits.len(), 1);
        let attr = doc.node(hits[0]).unwrap();
        assert_eq!(attr.kind, NodeKind::Attribute);
        assert_eq!(attr.text.as_deref(), Some("United States"));
        assert_eq!(attr.parent, Some(0));
    }

    #[test]
    fn builder_rejects_unbalanced_usage() {
        let mut symbols = SymbolTable::default();
        let mut paths = PathTable::default();
        let mut b = DocumentBuilder::new(&mut symbols, &mut paths, DocId(0), "bad.xml");
        assert!(b.end_element().is_err());
        assert!(b.text("dangling").is_err());
        assert!(b.attribute("a", "b").is_err());
        b.start_element("root").unwrap();
        let unfinished = b.finish();
        assert!(unfinished.is_err());
    }

    #[test]
    fn builder_rejects_second_root() {
        let mut symbols = SymbolTable::default();
        let mut paths = PathTable::default();
        let mut b = DocumentBuilder::new(&mut symbols, &mut paths, DocId(0), "two_roots.xml");
        b.start_element("a").unwrap();
        b.end_element().unwrap();
        assert!(b.start_element("b").is_err());
    }

    #[test]
    fn empty_document_rejected() {
        let mut symbols = SymbolTable::default();
        let mut paths = PathTable::default();
        let b = DocumentBuilder::new(&mut symbols, &mut paths, DocId(0), "empty.xml");
        assert!(matches!(b.finish(), Err(XmlStoreError::EmptyDocument)));
    }

    #[test]
    fn finished_documents_keep_no_growth_slack() {
        let (_, _, doc) = build_sample();
        assert_eq!(doc.nodes.capacity(), doc.len());
    }

    #[test]
    fn distinct_paths_deduplicates() {
        let (_, _, doc) = build_sample();
        let distinct = doc.distinct_paths();
        // 9 distinct contexts in the sample document even though `item`,
        // `trade_country` and `percentage` occur twice each.
        assert_eq!(distinct.len(), 9);
    }
}
