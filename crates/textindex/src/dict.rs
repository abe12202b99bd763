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
pub struct TermId(pub(crate) u32);

impl TermId {
    /// Raw index of the term in the dictionary.
    pub(crate) fn index(self) -> usize {
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
    pub(crate) fn from_sorted<'a>(terms: impl Iterator<Item = &'a str>) -> Self {
        let mut dict = TermDict::default();
        for term in terms {
            dict.ids.insert(term.to_string(), TermId(dict.terms.len() as u32));
            dict.terms.push(term.to_string());
        }
        dict
    }

    /// Id of a term, or `None` when the term is not in the dictionary.
    pub fn get(&self, term: &str) -> Option<TermId> {
        self.ids.get(term).copied()
    }

    /// The term of an id.
    ///
    /// # Panics
    /// Panics when the id was not produced by this dictionary.
    pub(crate) fn resolve(&self, id: TermId) -> &str {
        &self.terms[id.index()]
    }

    /// Number of interned terms.
    pub(crate) fn len(&self) -> usize {
        self.terms.len()
    }

    /// All interned terms in id order.
    pub fn terms(&self) -> impl Iterator<Item = (TermId, &str)> {
        self.terms.iter().enumerate().map(|(i, t)| (TermId(i as u32), t.as_str()))
    }
}

/// Row `at` of a CSR table: `items[offsets[at]..offsets[at + 1]]`.
pub(crate) fn csr_row<'a, T>(offsets: &[u32], items: &'a [T], at: usize) -> &'a [T] {
    &items[offsets[at] as usize..offsets[at + 1] as usize]
}

/// The interning a build does while it reads tokens: one id per distinct
/// token, in order of first occurrence.  A token is looked up by `&str`, so
/// a `String` is made only for a token seen for the first time.
#[derive(Default)]
pub(crate) struct FirstSeen(HashMap<String, u32>);

impl FirstSeen {
    /// The token's first-seen id.
    pub(crate) fn id(&mut self, token: &str) -> u32 {
        match self.0.get(token) {
            Some(&id) => id,
            None => {
                let id = self.0.len() as u32;
                self.0.insert(token.to_string(), id);
                id
            }
        }
    }

    /// The dictionary of the tokens seen, ids renumbered to lexicographic
    /// ranks, and the rank of each first-seen id.
    pub(crate) fn into_ranked(self) -> (TermDict, Vec<u32>) {
        let mut distinct: Vec<(String, u32)> = self.0.into_iter().collect();
        distinct.sort_unstable();
        let mut rank = vec![0u32; distinct.len()];
        for (r, &(_, id)) in distinct.iter().enumerate() {
            rank[id as usize] = r as u32;
        }
        (TermDict::from_sorted(distinct.iter().map(|(term, _)| term.as_str())), rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(dict.get("gamma"), None);
        assert_eq!(dict.len(), 3);
    }

    #[test]
    fn empty_dict() {
        let dict = TermDict::default();
        assert_eq!(dict.len(), 0);
        assert_eq!(dict.get("anything"), None);
    }
}
