//! # seda-dataguide
//!
//! Dataguide summaries for SEDA (Sec. 6 of the paper): per-document
//! dataguides, the overlap-threshold merge algorithm behind Table 1,
//! inter-dataguide links, and connection discovery for the connection
//! summary, including the false-positive analysis of Sec. 6.1.
//!
//! ```
//! use seda_dataguide::DataGuideSet;
//! use seda_xmlstore::parse_collection;
//!
//! let collection = parse_collection(vec![
//!     ("a.xml", "<a><x>1</x></a>"),
//!     ("b.xml", "<a><x>2</x></a>"),
//!     ("c.xml", "<b><y>3</y></b>"),
//! ]).unwrap();
//! let guides = DataGuideSet::build(&collection, 0.4).unwrap();
//! assert_eq!(guides.len(), 2);
//! ```

mod audit;
mod connection;
mod guide;

pub use connection::{
    connection_signature, discover_connections, false_positive_connections, guide_connection,
    guide_links, Connection, GuideConnection, GuideLink,
};
pub use guide::{DataGuide, DataGuideSet, DataGuideStats, GuideId};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use crate::guide::DataGuideSet;
    use seda_xmlstore::Collection;

    /// Builds a collection of documents, each choosing one of `shapes`
    /// distinct flat schemas.
    fn shaped_collection(assignments: &[u8], shapes: u8) -> Collection {
        let mut c = Collection::new();
        for (i, &a) in assignments.iter().enumerate() {
            let shape = a % shapes.max(1);
            c.add_document(format!("d{i}.xml"), |b| {
                b.start_element(&format!("shape{shape}"))?;
                for f in 0..3 {
                    b.leaf(&format!("field_{shape}_{f}"), &format!("{i}"))?;
                }
                b.end_element()?;
                Ok(())
            })
            .unwrap();
        }
        c
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The number of dataguides never exceeds the number of documents,
        /// equals the number of distinct disjoint shapes, and every document
        /// is assigned to exactly one guide.
        #[test]
        fn guide_count_is_bounded(assignments in proptest::collection::vec(0u8..6, 1..40), shapes in 1u8..6) {
            let c = shaped_collection(&assignments, shapes);
            let set = DataGuideSet::build(&c, 0.4).unwrap();
            prop_assert!(set.len() <= c.len());
            let distinct_shapes: std::collections::HashSet<u8> =
                assignments.iter().map(|a| a % shapes.max(1)).collect();
            prop_assert_eq!(set.len(), distinct_shapes.len());
            let mut covered = 0usize;
            for (_, g) in set.iter() { covered += g.documents().len(); }
            prop_assert_eq!(covered, c.len());
        }

        /// Raising the threshold can only increase (or keep) the number of
        /// dataguides: merging becomes harder.
        #[test]
        fn guide_count_is_monotone_in_threshold(assignments in proptest::collection::vec(0u8..6, 1..30)) {
            let c = shaped_collection(&assignments, 6);
            let low = DataGuideSet::build(&c, 0.1).unwrap();
            let mid = DataGuideSet::build(&c, 0.5).unwrap();
            let high = DataGuideSet::build(&c, 0.9).unwrap();
            prop_assert!(low.len() <= mid.len());
            prop_assert!(mid.len() <= high.len());
        }

        /// Overlap is symmetric and within [0, 1] for arbitrary documents.
        #[test]
        fn overlap_properties(a in 0u8..6, b in 0u8..6) {
            let c = shaped_collection(&[a, b], 6);
            let g1 = crate::guide::DataGuide::of_document(&c, seda_xmlstore::DocId(0)).unwrap();
            let g2 = crate::guide::DataGuide::of_document(&c, seda_xmlstore::DocId(1)).unwrap();
            let o12 = g1.overlap(&g2);
            let o21 = g2.overlap(&g1);
            prop_assert!((o12 - o21).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&o12));
            if a % 6 == b % 6 { prop_assert!((o12 - 1.0).abs() < 1e-12); }
        }
    }
}
