//! # seda-twigjoin
//!
//! The complete-result machinery of SEDA's Sec. 7: query pattern trees
//! ([`TwigPattern`]) and holistic stack-based twig evaluation over
//! region-encoded input streams ([`evaluate_twig`], or [`evaluate_twig_in`]
//! over chosen documents).  A stream element is a preorder ordinal, which is
//! Dewey order, and labels are compared as the store's symbols; no Dewey ID
//! is built.  A complete result's twig is [`TwigPattern::from_paths`] over
//! the chosen contexts' labels, and a `TWIG` statement's is
//! [`TwigPattern::parse`].  Results that span documents are joined by the
//! engine over the data graph, not here.
//!
//! ```
//! use seda_twigjoin::{evaluate_twig, TwigPattern};
//! use seda_xmlstore::parse_collection;
//!
//! let collection = parse_collection(vec![
//!     ("us.xml", "<country><name>United States</name><year>2006</year></country>"),
//! ]).unwrap();
//! // The chosen contexts `/country/name` and `/country/year`, as labels.
//! let (pattern, ends) =
//!     TwigPattern::from_paths([["country", "name"], ["country", "year"]]).unwrap();
//! let matches = evaluate_twig(&collection, &pattern);
//! assert_eq!(matches.len(), 1);
//! let year = matches.rows().next().unwrap()[matches.column_of(ends[1]).unwrap()];
//! assert_eq!(collection.content(year).unwrap(), "2006");
//! assert_eq!(pattern.expression(ends[1]), "/country/year");
//! ```

mod eval;
mod pattern;

pub use eval::{evaluate_twig, evaluate_twig_in, TwigMatches};
pub use pattern::{Axis, TwigNode, TwigParseError, TwigPattern};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::{evaluate_twig, TwigPattern};
    use seda_xmlstore::Collection;

    /// Builds a collection of `n` documents each holding `items` repeated
    /// item elements with two leaves.
    fn item_collection(n: u8, items: u8) -> Collection {
        let mut c = Collection::new();
        for d in 0..n.max(1) {
            c.add_document(format!("d{d}.xml"), |b| {
                b.start_element("list")?;
                for i in 0..items.max(1) {
                    b.start_element("item")?;
                    b.leaf("key", &format!("k{d}_{i}"))?;
                    b.leaf("value", &format!("{}", (d as u32) * 100 + i as u32))?;
                    b.end_element()?;
                }
                b.end_element()?;
                Ok(())
            })
            .unwrap();
        }
        c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A branching twig over repeated siblings produces exactly one match
        /// per item (pairs never mix items), and a single-leaf twig produces
        /// one match per leaf instance.
        #[test]
        fn twig_match_counts(n in 1u8..5, items in 1u8..6) {
            let c = item_collection(n, items);
            let (branching, _) =
                TwigPattern::from_paths([["list", "item", "key"], ["list", "item", "value"]]).unwrap();
            let m = evaluate_twig(&c, &branching);
            prop_assert_eq!(m.len(), (n as usize) * (items as usize));
            for row in m.rows() {
                // key and value must come from the same item (same parent).
                let key_parent = c.node(row[0]).unwrap().parent;
                let value_parent = c.node(row[1]).unwrap().parent;
                prop_assert_eq!(key_parent, value_parent);
                prop_assert_eq!(row[0].doc, row[1].doc);
            }
            let single = TwigPattern::parse("/list/item/value").unwrap();
            prop_assert_eq!(evaluate_twig(&c, &single).len(), (n as usize) * (items as usize));
        }

        /// Evaluation is deterministic: two runs produce identical rows.
        #[test]
        fn twig_evaluation_is_deterministic(n in 1u8..4, items in 1u8..5) {
            let c = item_collection(n, items);
            let (p, _) =
                TwigPattern::from_paths([["list", "item", "key"], ["list", "item", "value"]]).unwrap();
            let a = evaluate_twig(&c, &p);
            let b = evaluate_twig(&c, &p);
            prop_assert_eq!(a, b);
        }
    }
}
