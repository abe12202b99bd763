//! Interned term dictionary for the node index read path.
//!
//! Query-time posting lookups used to hash full term strings on every access;
//! the dictionary interns every distinct term once at build time so the
//! hot path works with dense [`TermId`]s and array indexing (the same move
//! FIB-compression work makes for name-based forwarding tables).  It keeps
//! each term once: the terms are sorted, so one byte arena with an offset
//! per term answers both directions, a term's id by binary search.

use std::cmp::Ordering;
use std::collections::HashMap;

/// Dense identifier of an interned term.  Ids are assigned in lexicographic
/// term order at build time, so they are deterministic for a given corpus.
// surface: type in a public signature (`TermDict::get`)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub(crate) u32);

impl TermId {
    /// Raw index of the term in the dictionary.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// Bidirectional term ↔ id table over one sorted byte arena.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct TermDict {
    /// Every term, concatenated in id order — ascending by bytes.
    pub(crate) text: String,
    /// Term `i` is `text[offsets[i]..offsets[i + 1]]`: one offset a term plus
    /// one, or none at all in an empty dictionary.
    pub(crate) offsets: Vec<u32>,
}

impl TermDict {
    /// Builds the dictionary from a **sorted, deduplicated** term iterator,
    /// assigning ids in iteration order.
    pub(crate) fn from_sorted<'a>(terms: impl Iterator<Item = &'a str>) -> Self {
        let mut dict = TermDict { text: String::new(), offsets: vec![0] };
        for term in terms {
            dict.text.push_str(term);
            dict.offsets.push(dict.text.len() as u32);
        }
        dict.text.shrink_to_fit();
        dict.offsets.shrink_to_fit();
        dict
    }

    /// Id of a term, or `None` when the term is not in the dictionary: a
    /// binary search over the sorted terms.
    pub fn get(&self, term: &str) -> Option<TermId> {
        let (mut low, mut high) = (0, self.len());
        while low < high {
            let mid = low + (high - low) / 2;
            match self.resolve(TermId(mid as u32)).cmp(term) {
                Ordering::Less => low = mid + 1,
                Ordering::Greater => high = mid,
                Ordering::Equal => return Some(TermId(mid as u32)),
            }
        }
        None
    }

    /// The term of an id.
    ///
    /// # Panics
    /// Panics when the id was not produced by this dictionary.
    pub(crate) fn resolve(&self, id: TermId) -> &str {
        &self.text[self.offsets[id.index()] as usize..self.offsets[id.index() + 1] as usize]
    }

    /// Number of interned terms.
    pub(crate) fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// All interned terms in id order.
    pub fn terms(&self) -> impl Iterator<Item = (TermId, &str)> {
        (0..self.len() as u32).map(|id| (TermId(id), self.resolve(TermId(id))))
    }

    /// Heap bytes: the arena and its offsets.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.text.capacity() + self.offsets.capacity() * std::mem::size_of::<u32>()
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
        for absent in ["", "a", "apples", "b", "zzz", "gamma"] {
            assert_eq!(dict.get(absent), None, "{absent:?}");
        }
        assert_eq!(dict.len(), 3);
        assert_eq!(dict.heap_bytes(), "applebananacherry".len() + 4 * 4);
    }

    #[test]
    fn empty_dict() {
        for dict in [TermDict::default(), TermDict::from_sorted(std::iter::empty())] {
            assert_eq!(dict.len(), 0);
            assert_eq!(dict.get("anything"), None);
            assert_eq!(dict.terms().count(), 0);
        }
    }
}
