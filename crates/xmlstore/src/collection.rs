//! Collections: the unit SEDA operates on.
//!
//! A [`Collection`] owns the symbol and path intern tables shared by all of
//! its documents, plus the documents themselves.  Every index (full-text,
//! context, dataguide) is built over a collection.

use crate::document::{Document, DocumentBuilder};
use crate::error::{Result, XmlStoreError};
use crate::node::{DocId, Node, NodeId};
use crate::path::{PathId, PathTable};
use crate::symbol::{Symbol, SymbolTable};

/// A collection of XML documents sharing one symbol table and one path table.
///
/// Equality is derived over every field, the intern tables' lookup maps
/// included, so two equal collections number every name, path and document
/// alike.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Collection {
    symbols: SymbolTable,
    paths: PathTable,
    documents: Vec<Document>,
}

impl Collection {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Shared symbol table.
    pub fn symbols(&self) -> &SymbolTable {
        &self.symbols
    }

    /// Shared path (context) table.
    pub fn paths(&self) -> &PathTable {
        &self.paths
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.documents.len()
    }

    /// True when the collection holds no documents.
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }

    /// Total number of nodes across all documents.
    pub fn total_nodes(&self) -> usize {
        self.documents.iter().map(Document::len).sum()
    }

    /// Number of distinct root-to-leaf paths across the collection (1984 for
    /// the paper's World Factbook corpus).
    pub fn distinct_path_count(&self) -> usize {
        self.paths.len()
    }

    /// Borrow a document.
    pub fn document(&self, id: DocId) -> Result<&Document> {
        self.documents.get(id.index()).ok_or(XmlStoreError::UnknownDocument(id.0))
    }

    /// Iterate over all documents.
    pub fn documents(&self) -> impl Iterator<Item = &Document> {
        self.documents.iter()
    }

    /// Borrow a node by global id.
    pub fn node(&self, id: NodeId) -> Result<&Node> {
        self.document(id.doc)?.node(id.node)
    }

    /// The SEDA `content(n)` of a node (concatenated descendant text).
    pub fn content(&self, id: NodeId) -> Result<String> {
        Ok(self.document(id.doc)?.content(id.node))
    }

    /// The SEDA `context(n)` of a node (its root-to-leaf path id).
    pub fn context(&self, id: NodeId) -> Result<PathId> {
        Ok(self.node(id)?.path)
    }

    /// Renders a node's context in `/a/b/c` notation.
    pub fn context_string(&self, id: NodeId) -> Result<String> {
        let path = self.context(id)?;
        Ok(self.paths.resolve(path).display(&self.symbols))
    }

    /// Renders a path id in `/a/b/c` notation.
    pub fn path_string(&self, path: PathId) -> String {
        self.paths.resolve(path).display(&self.symbols)
    }

    /// Resolves a node's name.
    pub fn node_name(&self, id: NodeId) -> Result<&str> {
        Ok(self.symbols.resolve(self.node(id)?.name))
    }

    /// Builds and inserts a document in one closure-driven call.
    pub fn add_document<F>(&mut self, uri: impl Into<String>, f: F) -> Result<DocId>
    where
        F: FnOnce(&mut DocumentBuilder<'_>) -> Result<()>,
    {
        let id = DocId(self.documents.len() as u32);
        let mut builder = DocumentBuilder::new(&mut self.symbols, &mut self.paths, id, uri);
        f(&mut builder)?;
        self.documents.push(builder.finish()?);
        Ok(id)
    }

    /// Splices `tail`'s documents on after this collection's, as if they had
    /// been parsed into it: `tail`'s symbols, then its paths, are re-interned
    /// here in id order, and each of its documents is renumbered to follow
    /// this collection's, its nodes' names and contexts rewritten through the
    /// two maps.  Both tables number in first-seen order, so the result
    /// equals one collection built from all the documents, id for id: a
    /// list's head and tail parsed apart and appended equal the whole list
    /// parsed.
    pub fn append(&mut self, tail: Collection) {
        let symbols: Vec<Symbol> =
            tail.symbols.iter().map(|(_, name)| self.symbols.intern(name)).collect();
        let paths = self.paths.intern_all(&tail.paths, &symbols);
        let first = self.documents.len() as u32;
        self.documents.reserve(tail.documents.len());
        for mut document in tail.documents {
            document.rebase(DocId(first + document.id.0), &symbols, &paths);
            self.documents.push(document);
        }
    }

    /// Test-only corruption hook: hands out mutable access to one document so
    /// the seeded-corruption suite can perturb frozen state that library code
    /// never mutates.  Hidden from docs; never called by library code.
    #[doc(hidden)]
    pub fn corrupt_document(&mut self, id: DocId, f: impl FnOnce(&mut Document)) {
        f(&mut self.documents[id.index()]);
    }

    /// All nodes in the collection whose context equals `path`.
    pub fn nodes_with_path(&self, path: PathId) -> Vec<NodeId> {
        let mut out = Vec::new();
        for doc in &self.documents {
            for ordinal in doc.nodes_with_path(path) {
                out.push(NodeId::new(doc.id, ordinal));
            }
        }
        out
    }

    /// The two per-path counts of the collection, indexed by [`PathId`] —
    /// one entry per path of the table — in one pass over the nodes.  The
    /// paper reports `/country` occurring in 1577 of 1600 World Factbook
    /// documents while rare paths occur in fewer than 200.
    pub fn path_counts(&self) -> PathCounts {
        let paths = self.paths.len();
        let mut counts = PathCounts { occurrences: vec![0; paths], documents: vec![0; paths] };
        // A path's document count is the number of documents that stamped
        // it: `stamp[path]` is the last document seen on the path, so no
        // per-document set is needed.
        let mut stamp: Vec<Option<DocId>> = vec![None; paths];
        for doc in &self.documents {
            for (_, node) in doc.iter() {
                let at = node.path.index();
                counts.occurrences[at] += 1;
                if stamp[at] != Some(doc.id) {
                    stamp[at] = Some(doc.id);
                    counts.documents[at] += 1;
                }
            }
        }
        counts
    }
}

/// Per-path counts of a collection ([`Collection::path_counts`]), each
/// indexed by [`PathId`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PathCounts {
    /// Nodes whose context is the path, across all documents.
    pub occurrences: Vec<usize>,
    /// Documents holding at least one node on the path.
    pub documents: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_country_collection() -> Collection {
        let mut c = Collection::new();
        c.add_document("us.xml", |b| {
            b.start_element("country")?;
            b.leaf("name", "United States")?;
            b.leaf("year", "2006")?;
            b.start_element("economy")?;
            b.leaf("GDP_ppp", "12310")?;
            b.end_element()?;
            b.end_element()?;
            Ok(())
        })
        .unwrap();
        c.add_document("mexico.xml", |b| {
            b.start_element("country")?;
            b.leaf("name", "Mexico")?;
            b.leaf("year", "2005")?;
            b.start_element("economy")?;
            b.leaf("GDP", "924")?;
            b.end_element()?;
            b.end_element()?;
            Ok(())
        })
        .unwrap();
        c
    }

    #[test]
    fn documents_share_path_table() {
        let c = two_country_collection();
        assert_eq!(c.len(), 2);
        // /country, /country/name, /country/year, /country/economy shared;
        // GDP_ppp and GDP differ -> 6 distinct paths.
        assert_eq!(c.distinct_path_count(), 6);
    }

    #[test]
    fn path_document_frequency_counts_documents_not_nodes() {
        let c = two_country_collection();
        let counts = c.path_counts();
        let country = c.paths().get_str(c.symbols(), "/country").unwrap();
        let gdp_ppp = c.paths().get_str(c.symbols(), "/country/economy/GDP_ppp").unwrap();
        assert_eq!(counts.documents[country.index()], 2);
        assert_eq!(counts.documents[gdp_ppp.index()], 1);
        assert_eq!(counts.occurrences[country.index()], 2);
        assert_eq!(counts.documents.len(), c.distinct_path_count());
    }

    #[test]
    fn nodes_with_path_spans_documents() {
        let c = two_country_collection();
        let year = c.paths().get_str(c.symbols(), "/country/year").unwrap();
        let nodes = c.nodes_with_path(year);
        assert_eq!(nodes.len(), 2);
        let contents: Vec<String> = nodes.iter().map(|&n| c.content(n).unwrap()).collect();
        assert_eq!(contents, vec!["2006", "2005"]);
    }

    #[test]
    fn context_and_content_accessors() {
        let c = two_country_collection();
        let gdp = c.paths().get_str(c.symbols(), "/country/economy/GDP").unwrap();
        let node = c.nodes_with_path(gdp)[0];
        assert_eq!(c.content(node).unwrap(), "924");
        assert_eq!(c.context_string(node).unwrap(), "/country/economy/GDP");
        assert_eq!(c.node_name(node).unwrap(), "GDP");
    }

    #[test]
    fn unknown_ids_are_reported() {
        let c = two_country_collection();
        assert!(c.document(DocId(99)).is_err());
        assert!(c.node(NodeId::new(DocId(0), 999)).is_err());
    }

    #[test]
    fn total_nodes_sums_documents() {
        let c = two_country_collection();
        assert_eq!(c.total_nodes(), 10);
    }
}
