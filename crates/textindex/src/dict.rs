//! Interned term dictionary for the node index read path.
//!
//! Query-time posting lookups used to hash full term strings on every access;
//! the dictionary interns every distinct term once at build time so the
//! hot path works with dense [`TermId`]s and array indexing (the same move
//! FIB-compression work makes for name-based forwarding tables).

use std::collections::HashMap;

/// Dense identifier of an interned term.  Ids are assigned in lexicographic
/// term order at build time, so they are deterministic for a given corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// Raw index of the term in the dictionary.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Bidirectional term ↔ id intern table.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TermDict {
    pub(crate) ids: HashMap<String, TermId>,
    pub(crate) terms: Vec<String>,
}

impl TermDict {
    /// Builds the dictionary from a **sorted, deduplicated** term iterator,
    /// assigning ids in iteration order.
    pub fn from_sorted<'a>(terms: impl Iterator<Item = &'a str>) -> Self {
        let mut dict = TermDict::default();
        for term in terms {
            dict.intern(term);
        }
        dict
    }

    /// Interns a term, returning its id (existing id when already interned).
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.ids.get(term) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(term.to_string());
        self.ids.insert(term.to_string(), id);
        id
    }

    /// Id of a term, or `None` when the term is not in the dictionary.
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.ids.get(term).copied()
    }

    /// The term of an id.
    ///
    /// # Panics
    /// Panics when the id was not produced by this dictionary.
    pub fn resolve(&self, id: TermId) -> &str {
        &self.terms[id.index()]
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    /// True when no term is interned.
    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// All interned terms in id order.
    pub fn terms(&self) -> impl Iterator<Item = (TermId, &str)> {
        self.terms.iter().enumerate().map(|(i, t)| (TermId(i as u32), t.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_round_trips() {
        let mut dict = TermDict::default();
        let a = dict.intern("alpha");
        let b = dict.intern("beta");
        assert_ne!(a, b);
        assert_eq!(dict.intern("alpha"), a, "re-interning returns the existing id");
        assert_eq!(dict.resolve(a), "alpha");
        assert_eq!(dict.resolve(b), "beta");
        assert_eq!(dict.get("alpha"), Some(a));
        assert_eq!(dict.get("gamma"), None);
        assert_eq!(dict.len(), 2);
    }

    #[test]
    fn from_sorted_assigns_ids_in_order() {
        let terms = ["apple", "banana", "cherry"];
        let dict = TermDict::from_sorted(terms.iter().copied());
        for (i, term) in terms.iter().enumerate() {
            assert_eq!(dict.get(term), Some(TermId(i as u32)));
            assert_eq!(dict.resolve(TermId(i as u32)), *term);
        }
        let collected: Vec<&str> = dict.terms().map(|(_, t)| t).collect();
        assert_eq!(collected, terms);
    }

    #[test]
    fn empty_dict() {
        let dict = TermDict::default();
        assert!(dict.is_empty());
        assert_eq!(dict.len(), 0);
        assert_eq!(dict.get("anything"), None);
    }
}
