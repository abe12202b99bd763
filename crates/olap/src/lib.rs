//! # seda-olap
//!
//! The OLAP side of SEDA (Sec. 7): relative XML keys, the fact/dimension
//! registry, matching of query-result columns to facts and dimensions,
//! key-column augmentation, extraction of fact and dimension tables (the
//! derived star schema), and a small in-memory cube engine providing the
//! aggregation functionality the paper delegates to an off-the-shelf OLAP
//! tool.
//!
//! ```
//! use seda_olap::{aggregate, CubeQuery, FactTable};
//!
//! let rows = [["China", "15"], ["Canada", "16.9"], ["China", "12.5"]];
//! let table = FactTable::from_rows("pct", &["country"], &["pct"], rows);
//! // Each column is a sorted dictionary; the rows hold codes into it.
//! assert_eq!(table.column_values(0), ["Canada", "China"]);
//! assert_eq!(table.row(1).unwrap().dimension(0), "Canada");
//! let cube = aggregate(&table, &CubeQuery::sum(&["country"], "pct")).unwrap();
//! assert_eq!(cube.cell(&["China"]).unwrap().value, 15.0 + 12.5);
//! ```

mod builder;
mod cube;
mod key;
mod schema;
mod table;

pub use builder::{BuildOptions, ColumnMatch, MatchingOutcome, StarSchemaBuild, StarSchemaBuilder};
pub use cube::{aggregate, rollup, AggFn, CubeCell, CubeError, CubeQuery, CubeResult};
pub use key::{KeyPart, KeyViolation, RelativeKey};
pub use schema::{ContextEntry, Registry, SchemaDef, SchemaRole};
pub use table::{parse_numeric, DimensionTable, FactRow, FactTable, QueryResultTable, StarSchema};

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use std::panic::{catch_unwind, AssertUnwindSafe};

    use seda_xmlstore::{DocId, NodeId};

    use crate::cube::{aggregate, AggFn, CubeQuery};
    use crate::table::{FactTable, QueryResultTable};

    /// The panic message of `f`, if it panics.
    fn panic_message(f: impl FnOnce()) -> Option<String> {
        let payload = catch_unwind(AssertUnwindSafe(f)).err()?;
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
    }

    fn table_from(rows: &[(u8, u8, f64)]) -> FactTable {
        let rows = rows.iter().map(|(a, b, v)| [format!("a{a}"), format!("b{b}"), format!("{v}")]);
        FactTable::from_rows("m", &["a", "b"], &["m"], rows)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Group-by sums partition the grand total: summing the per-group sums
        /// equals the ungrouped sum, for any grouping dimension.
        #[test]
        fn group_sums_partition_the_total(rows in proptest::collection::vec((0u8..4, 0u8..4, -100.0f64..100.0), 1..30)) {
            let table = table_from(&rows);
            let total = aggregate(&table, &CubeQuery::sum(&[], "m")).unwrap().cells[0].value;
            for dim in ["a", "b"] {
                let grouped = aggregate(&table, &CubeQuery::sum(&[dim], "m")).unwrap();
                let sum: f64 = grouped.cells.iter().map(|c| c.value).sum();
                prop_assert!((sum - total).abs() < 1e-6);
            }
        }

        /// Count cells always sum to the number of rows, and min <= avg <= max
        /// within every group.
        #[test]
        fn count_and_ordering_invariants(rows in proptest::collection::vec((0u8..4, 0u8..4, -100.0f64..100.0), 1..30)) {
            let table = table_from(&rows);
            let counts = aggregate(&table, &CubeQuery::sum(&["a"], "m").with_agg(AggFn::Count)).unwrap();
            let total: f64 = counts.cells.iter().map(|c| c.value).sum();
            prop_assert_eq!(total as usize, rows.len());
            let avg = aggregate(&table, &CubeQuery::sum(&["a"], "m").with_agg(AggFn::Avg)).unwrap();
            let min = aggregate(&table, &CubeQuery::sum(&["a"], "m").with_agg(AggFn::Min)).unwrap();
            let max = aggregate(&table, &CubeQuery::sum(&["a"], "m").with_agg(AggFn::Max)).unwrap();
            for cell in &avg.cells {
                let coord: Vec<&str> = cell.coordinates.iter().map(String::as_str).collect();
                let lo = min.cell(&coord).unwrap().value;
                let hi = max.cell(&coord).unwrap().value;
                prop_assert!(lo <= cell.value + 1e-9 && cell.value <= hi + 1e-9);
            }
        }

        /// The flat result table behaves as the nested-vector model it
        /// replaced, at every width from none to four: `len`, `rows`,
        /// `column_nodes`, `truncate` and `sort_dedup` agree with the same
        /// operations on `Vec<Vec<NodeId>>`, whether the rows arrive one by
        /// one or in bulk, and a row of the wrong arity fails as documented.
        #[test]
        fn the_flat_table_matches_the_nested_model(
            width in 0usize..5,
            drawn in proptest::collection::vec(proptest::collection::vec(0u32..6, 4..5), 0..16),
            keep in 0usize..20,
            arrival in 0u8..3,
        ) {
            // Few distinct nodes, so duplicate rows are common.
            let nested: Vec<Vec<NodeId>> = match width {
                0 => Vec::new(),
                _ => drawn
                    .iter()
                    .map(|row| row[..width].iter().map(|&n| NodeId::new(DocId(n % 2), n)).collect())
                    .collect(),
            };
            let names: Vec<String> = (0..width).map(|c| format!("t{c}")).collect();
            let mut table = QueryResultTable::new(names.clone());
            match arrival {
                0 => nested.iter().for_each(|row| table.push_row(row)),
                1 => table.extend_rows(&nested.concat()),
                _ => table = QueryResultTable::from_cells(names, nested.concat()),
            }
            let rows = |t: &QueryResultTable| t.rows().map(<[_]>::to_vec).collect::<Vec<_>>();
            prop_assert_eq!(table.len(), nested.len());
            prop_assert_eq!(table.is_empty(), nested.is_empty());
            prop_assert_eq!(rows(&table), nested.clone());
            prop_assert_eq!(table.row(keep), nested.get(keep).map(Vec::as_slice));
            for column in 0..width {
                let model: Vec<NodeId> = nested.iter().map(|row| row[column]).collect();
                prop_assert_eq!(table.column_nodes(column), model);
            }

            let mut sorted = nested.clone();
            sorted.sort();
            sorted.dedup();
            let mut deduped = table.clone();
            deduped.sort_dedup();
            prop_assert_eq!(rows(&deduped), sorted);

            let mut truncated = nested.clone();
            truncated.truncate(keep);
            table.truncate(keep);
            prop_assert_eq!(rows(&table), truncated);

            // One cell too many or too few is refused by the arity check,
            // never by an out-of-bounds slice.
            let arity_refused = |message: Option<String>| {
                message.is_some_and(|m| m.contains("row arity must match column count"))
            };
            let filler = vec![NodeId::new(DocId(0), 0); width + 1];
            for cells in [&filler[..width.saturating_sub(1)], &filler[..]] {
                if cells.len() != width {
                    prop_assert!(arity_refused(panic_message(|| table.clone().push_row(cells))));
                }
                let whole_rows = cells.is_empty() || cells.len().checked_rem(width) == Some(0);
                if !whole_rows {
                    prop_assert!(arity_refused(panic_message(|| table.clone().extend_rows(cells))));
                    let names = table.column_names.clone();
                    let taken = || drop(QueryResultTable::from_cells(names, cells.to_vec()));
                    prop_assert!(arity_refused(panic_message(taken)));
                }
            }
        }

        /// The coded fact table behaves as the string rows it was built
        /// from: it reads them back in order, its dictionaries are the sorted
        /// distinct values of its columns, `sort_dedup` sorts and dedups as
        /// the string rows do, and `dimensions_form_key` agrees with them.
        #[test]
        fn the_coded_fact_table_matches_its_string_rows(
            drawn in proptest::collection::vec(proptest::collection::vec(0u8..5, 3..4), 0..40),
            dimensions in 0usize..3,
        ) {
            // Few distinct values, so duplicates are common; "" among them.
            let value = |c: usize, v: u8| if v == 0 { String::new() } else { format!("c{c}v{v}") };
            let nested: Vec<Vec<String>> = drawn
                .iter()
                .map(|row| row.iter().enumerate().map(|(c, &v)| value(c, v)).collect())
                .collect();
            let names = ["x", "y", "z"];
            let table = FactTable::from_rows("f", &names[..dimensions], &names[dimensions..], &nested);
            let strings = |t: &FactTable| -> Vec<Vec<String>> {
                t.rows().map(|r| r.dimensions().chain(r.measures()).map(String::from).collect()).collect()
            };
            prop_assert_eq!(strings(&table), nested.clone());
            for column in 0..3 {
                let mut values: Vec<String> = nested.iter().map(|row| row[column].clone()).collect();
                values.sort();
                values.dedup();
                prop_assert_eq!(table.column_values(column), &values[..]);
            }
            let keys: std::collections::BTreeSet<&[String]> =
                nested.iter().map(|row| &row[..dimensions]).collect();
            prop_assert_eq!(table.dimensions_form_key(), keys.len() == nested.len());
            let mut sorted = nested.clone();
            sorted.sort();
            sorted.dedup();
            let mut deduped = table.clone();
            deduped.sort_dedup();
            prop_assert_eq!(strings(&deduped), sorted.clone());
            prop_assert_eq!(deduped, FactTable::from_rows("f", &names[..dimensions], &names[dimensions..], &sorted));
        }

        /// Slicing on a dimension value never yields more cells than the
        /// unsliced aggregation, and every sliced cell exists unsliced.
        #[test]
        fn slicing_is_a_restriction(rows in proptest::collection::vec((0u8..4, 0u8..4, 0.0f64..100.0), 1..30), pick in 0u8..4) {
            let table = table_from(&rows);
            let all = aggregate(&table, &CubeQuery::sum(&["b"], "m")).unwrap();
            let sliced = aggregate(&table, &CubeQuery::sum(&["b"], "m").filter("a", &format!("a{pick}"))).unwrap();
            prop_assert!(sliced.len() <= all.len());
            for cell in &sliced.cells {
                let coord: Vec<&str> = cell.coordinates.iter().map(String::as_str).collect();
                prop_assert!(all.cell(&coord).is_some());
            }
        }
    }
}
