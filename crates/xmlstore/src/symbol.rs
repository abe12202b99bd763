//! Interning of element/attribute names.
//!
//! Heterogeneous XML corpora repeat a small vocabulary of tag names across a
//! very large number of nodes, so the store keeps each distinct name once and
//! refers to it by a dense `Symbol` index everywhere else.

use std::collections::HashMap;

/// Interned identifier for an element or attribute name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(pub u32);

impl Symbol {
    /// Raw index into the owning [`SymbolTable`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Append-only intern table for names.
// surface: type in a public signature (`Collection::symbols`)
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct SymbolTable {
    names: Vec<String>,
    lookup: HashMap<String, Symbol>,
}

impl SymbolTable {
    /// Interns `name`, returning the existing symbol if it was seen before.
    pub(crate) fn intern(&mut self, name: &str) -> Symbol {
        if let Some(&sym) = self.lookup.get(name) {
            return sym;
        }
        let sym = Symbol(self.names.len() as u32);
        self.names.push(name.to_string());
        self.lookup.insert(name.to_string(), sym);
        sym
    }

    /// Looks up an already-interned name without inserting.
    pub fn get(&self, name: &str) -> Option<Symbol> {
        self.lookup.get(name).copied()
    }

    /// Resolves a symbol back to its name. Panics if the symbol came from a
    /// different table.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.names[sym.index()]
    }

    /// Number of distinct names interned so far.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no name has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterates over `(symbol, name)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Symbol, &str)> {
        self.names.iter().enumerate().map(|(i, n)| (Symbol(i as u32), n.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = SymbolTable::default();
        let a = t.intern("country");
        let b = t.intern("country");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn distinct_names_get_distinct_symbols() {
        let mut t = SymbolTable::default();
        let a = t.intern("country");
        let b = t.intern("economy");
        assert_ne!(a, b);
        assert_eq!(t.resolve(a), "country");
        assert_eq!(t.resolve(b), "economy");
    }

    #[test]
    fn get_does_not_insert() {
        let mut t = SymbolTable::default();
        assert!(t.get("gdp").is_none());
        t.intern("gdp");
        assert!(t.get("gdp").is_some());
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn iteration_preserves_interning_order() {
        let mut t = SymbolTable::default();
        for name in ["a", "b", "c"] {
            t.intern(name);
        }
        let names: Vec<&str> = t.iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
    }
}
