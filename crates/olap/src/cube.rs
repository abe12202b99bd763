//! A small OLAP engine over the derived fact tables.
//!
//! The paper hands the generated star schema "into an OLAP tool to compute
//! the data cubes, one per fact table, and the desired aggregation functions
//! for further analysis".  This module plays the role of that off-the-shelf
//! tool: group-by aggregation, rollup along a dimension order, and
//! slicing/dicing, so the examples and experiments can complete the pipeline
//! end to end.  It aggregates a dictionary-encoded [`FactTable`] on its codes
//! and parses each distinct measure value once; strings appear only in the
//! cells it returns.

use crate::table::{parse_numeric, FactTable};

/// Aggregation functions supported by the cube engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFn {
    /// Sum of the measure.
    Sum,
    /// Number of contributing fact rows.
    Count,
    /// Arithmetic mean of the measure.
    Avg,
    /// Minimum measure value.
    Min,
    /// Maximum measure value.
    Max,
}

/// A cube/aggregation query over one fact table.
#[derive(Debug, Clone, PartialEq)]
pub struct CubeQuery {
    /// Dimension columns to group by (may be empty for a grand total).
    pub group_by: Vec<String>,
    /// Measure column to aggregate.
    pub measure: String,
    /// Aggregation function.
    pub agg: AggFn,
    /// Dimension equality filters (`dice`): only rows whose dimension value
    /// equals the given value contribute.
    pub filters: Vec<(String, String)>,
}

impl CubeQuery {
    /// Sum of `measure` grouped by `group_by`.
    pub fn sum(group_by: &[&str], measure: &str) -> Self {
        CubeQuery {
            group_by: group_by.iter().map(|s| s.to_string()).collect(),
            measure: measure.to_string(),
            agg: AggFn::Sum,
            filters: Vec::new(),
        }
    }

    /// Adds a slice filter.
    pub fn filter(mut self, dimension: &str, value: &str) -> Self {
        self.filters.push((dimension.to_string(), value.to_string()));
        self
    }

    /// Switches the aggregation function.
    pub fn with_agg(mut self, agg: AggFn) -> Self {
        self.agg = agg;
        self
    }
}

/// One cell of an aggregated cube.
// surface: type in a public signature (`CubeResult::cells`)
#[derive(Debug, Clone, PartialEq)]
pub struct CubeCell {
    /// Group-by coordinate values, aligned with the query's `group_by`.
    pub coordinates: Vec<String>,
    /// Aggregated value.
    pub value: f64,
    /// Number of fact rows that contributed.
    pub count: usize,
}

/// Result of a cube query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CubeResult {
    /// The group-by dimensions of the query.
    pub group_by: Vec<String>,
    /// Aggregated cells, ordered by coordinates.
    pub cells: Vec<CubeCell>,
    /// Fact rows examined by the aggregation (before filters), the work
    /// measure of the scan — surfaced so callers can attribute cube cost.
    pub rows_scanned: usize,
}

impl CubeResult {
    /// Looks up the cell with the given coordinates.
    pub fn cell(&self, coordinates: &[&str]) -> Option<&CubeCell> {
        self.cells.iter().find(|c| {
            c.coordinates.len() == coordinates.len()
                && c.coordinates.iter().zip(coordinates).all(|(a, b)| a == b)
        })
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the result has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Errors produced by the cube engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CubeError {
    /// A group-by or filter dimension does not exist in the fact table.
    UnknownDimension(String),
    /// The measure column does not exist in the fact table.
    UnknownMeasure(String),
}

impl std::fmt::Display for CubeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CubeError::UnknownDimension(d) => write!(f, "unknown dimension column {d:?}"),
            CubeError::UnknownMeasure(m) => write!(f, "unknown measure column {m:?}"),
        }
    }
}

impl std::error::Error for CubeError {}

/// Evaluates a cube query against a fact table, on its codes: each filter
/// value is resolved to its code once, by binary search in its dimension's
/// dictionary, each distinct measure value is parsed once, and the rows are
/// grouped on their group-by codes, whose order is their strings'.  Each
/// group accumulates its rows in table order, and strings are materialised
/// once per cell.
pub fn aggregate(table: &FactTable, query: &CubeQuery) -> Result<CubeResult, CubeError> {
    let group_indices: Vec<usize> = query
        .group_by
        .iter()
        .map(|d| table.dimension_index(d).ok_or_else(|| CubeError::UnknownDimension(d.clone())))
        .collect::<Result<_, _>>()?;
    let filter_indices: Vec<(usize, &str)> = query
        .filters
        .iter()
        .map(|(d, v)| {
            table
                .dimension_index(d)
                .map(|i| (i, v.as_str()))
                .ok_or_else(|| CubeError::UnknownDimension(d.clone()))
        })
        .collect::<Result<_, _>>()?;
    let measure_index = table
        .measure_index(&query.measure)
        .ok_or_else(|| CubeError::UnknownMeasure(query.measure.clone()))?;

    // `None` when a filter value is no member of its dimension: no row passes.
    let filters: Option<Vec<(usize, u32)>> = filter_indices
        .iter()
        .map(|&(i, value)| {
            let code = table.column_values(i).binary_search_by(|v| v.as_str().cmp(value));
            code.ok().map(|code| (i, code as u32))
        })
        .collect();
    let measure = table.dimension_columns().len() + measure_index;
    let values: Vec<Option<f64>> =
        table.column_values(measure).iter().map(|v| parse_numeric(v)).collect();
    let mut contributing: Vec<(&[u32], f64)> = match &filters {
        Some(filters) => table
            .code_rows()
            .filter(|row| filters.iter().all(|&(i, code)| row[i] == code))
            .filter_map(|row| values[row[measure] as usize].map(|value| (row, value)))
            .collect(),
        None => Vec::new(),
    };
    let group = |row| group_codes(row, &group_indices);
    // Stable, so each group keeps its rows in table order.
    contributing.sort_by(|a, b| group(a.0).cmp(group(b.0)));

    let cells = contributing
        .chunk_by(|a, b| group(a.0).eq(group(b.0)))
        .map(|run| {
            let (mut sum, mut min, mut max) = (0.0, f64::INFINITY, f64::NEG_INFINITY);
            for &(_, value) in run {
                sum += value;
                min = f64::min(min, value);
                max = f64::max(max, value);
            }
            let count = run.len();
            let value = match query.agg {
                AggFn::Sum => sum,
                AggFn::Count => count as f64,
                AggFn::Avg => sum / count as f64,
                AggFn::Min => min,
                AggFn::Max => max,
            };
            let coordinates = group_indices
                .iter()
                .map(|&i| table.column_values(i)[run[0].0[i] as usize].clone())
                .collect();
            CubeCell { coordinates, value, count }
        })
        .collect();
    Ok(CubeResult { group_by: query.group_by.clone(), cells, rows_scanned: table.len() })
}

/// The codes of `row`'s group-by columns.
fn group_codes<'r>(row: &'r [u32], group_by: &'r [usize]) -> impl Iterator<Item = u32> + 'r {
    group_by.iter().map(|&i| row[i])
}

/// Computes a rollup along the given dimension order: one [`CubeResult`] per
/// prefix of `dimensions`, from the full granularity down to the grand total.
pub fn rollup(
    table: &FactTable,
    dimensions: &[&str],
    measure: &str,
    agg: AggFn,
) -> Result<Vec<CubeResult>, CubeError> {
    let mut out = Vec::with_capacity(dimensions.len() + 1);
    for len in (0..=dimensions.len()).rev() {
        let query = CubeQuery {
            group_by: dimensions[..len].iter().map(|s| s.to_string()).collect(),
            measure: measure.to_string(),
            agg,
            filters: Vec::new(),
        };
        out.push(aggregate(table, &query)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Figure 3(c) fact table.
    fn figure3_table() -> FactTable {
        let rows = [
            ["United States", "2006", "China", "15"],
            ["United States", "2006", "Canada", "16.9"],
            ["United States", "2005", "China", "13.8"],
            ["United States", "2005", "Mexico", "10.3"],
            ["United States", "2004", "Mexico", "10.7"],
            ["United States", "2004", "China", "12.5"],
        ];
        let columns = ["country", "year", "import-country"];
        FactTable::from_rows("import-trade-percentage", &columns, &["percentage"], rows)
    }

    #[test]
    fn group_by_partner_sums_percentages() {
        let table = figure3_table();
        let result = aggregate(&table, &CubeQuery::sum(&["import-country"], "percentage")).unwrap();
        assert_eq!(result.len(), 3);
        let china = result.cell(&["China"]).unwrap();
        assert!((china.value - (15.0 + 13.8 + 12.5)).abs() < 1e-9);
        assert_eq!(china.count, 3);
        let canada = result.cell(&["Canada"]).unwrap();
        assert!((canada.value - 16.9).abs() < 1e-9);
    }

    #[test]
    fn average_by_year() {
        let table = figure3_table();
        let q = CubeQuery::sum(&["year"], "percentage").with_agg(AggFn::Avg);
        let result = aggregate(&table, &q).unwrap();
        let y2006 = result.cell(&["2006"]).unwrap();
        assert!((y2006.value - (15.0 + 16.9) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn min_max_and_count() {
        let table = figure3_table();
        let max =
            aggregate(&table, &CubeQuery::sum(&[], "percentage").with_agg(AggFn::Max)).unwrap();
        assert!((max.cells[0].value - 16.9).abs() < 1e-9);
        let min =
            aggregate(&table, &CubeQuery::sum(&[], "percentage").with_agg(AggFn::Min)).unwrap();
        assert!((min.cells[0].value - 10.3).abs() < 1e-9);
        let count =
            aggregate(&table, &CubeQuery::sum(&[], "percentage").with_agg(AggFn::Count)).unwrap();
        assert_eq!(count.cells[0].value as usize, 6);
    }

    #[test]
    fn slicing_restricts_rows() {
        let table = figure3_table();
        let q = CubeQuery::sum(&["import-country"], "percentage").filter("year", "2006");
        let result = aggregate(&table, &q).unwrap();
        assert_eq!(result.len(), 2);
        assert!(result.cell(&["Mexico"]).is_none());
        assert!((result.cell(&["China"]).unwrap().value - 15.0).abs() < 1e-9);
    }

    #[test]
    fn rollup_produces_all_granularities() {
        let table = figure3_table();
        let levels = rollup(&table, &["year", "import-country"], "percentage", AggFn::Sum).unwrap();
        assert_eq!(levels.len(), 3);
        // Finest level: (year, partner) pairs — 6 distinct.
        assert_eq!(levels[0].len(), 6);
        // Middle level: 3 years.
        assert_eq!(levels[1].len(), 3);
        // Grand total: one cell whose value is the sum of all percentages.
        assert_eq!(levels[2].len(), 1);
        let total: f64 = 15.0 + 16.9 + 13.8 + 10.3 + 10.7 + 12.5;
        assert!((levels[2].cells[0].value - total).abs() < 1e-9);
    }

    #[test]
    fn unknown_columns_are_errors() {
        let table = figure3_table();
        assert_eq!(
            aggregate(&table, &CubeQuery::sum(&["nope"], "percentage")),
            Err(CubeError::UnknownDimension("nope".into()))
        );
        assert_eq!(
            aggregate(&table, &CubeQuery::sum(&["year"], "nope")),
            Err(CubeError::UnknownMeasure("nope".into()))
        );
        assert!(aggregate(&table, &CubeQuery::sum(&["year"], "percentage").filter("nope", "x"))
            .is_err());
    }

    /// The Figure 3(c) fact table plus `extra` rows.
    fn figure3_with(extra: &[[&str; 4]]) -> FactTable {
        let table = figure3_table();
        let mut rows: Vec<Vec<&str>> =
            table.rows().map(|r| r.dimensions().chain(r.measures()).collect()).collect();
        rows.extend(extra.iter().map(|row| row.to_vec()));
        let columns = ["country", "year", "import-country"];
        FactTable::from_rows("import-trade-percentage", &columns, &["percentage"], rows)
    }

    #[test]
    fn non_numeric_measures_are_skipped() {
        let table = figure3_with(&[["United States", "2007", "China", "n/a"]]);
        let result = aggregate(&table, &CubeQuery::sum(&["year"], "percentage")).unwrap();
        assert!(
            result.cell(&["2007"]).is_none(),
            "rows without numeric measures contribute nothing"
        );
        assert_eq!(result.rows_scanned, 7);
    }

    #[test]
    fn non_finite_measures_are_skipped_and_sums_stay_finite() {
        let table = figure3_with(&[
            ["United States", "2007", "China", "NaN"],
            ["United States", "2006", "Mexico", "1e999"],
            ["United States", "2005", "Canada", "-inf"],
        ]);
        let result = aggregate(&table, &CubeQuery::sum(&["year"], "percentage")).unwrap();
        assert!(result.cell(&["2007"]).is_none(), "a NaN measure is no number");
        let y2006 = result.cell(&["2006"]).unwrap();
        assert_eq!((y2006.value, y2006.count), (15.0 + 16.9, 2));
        let y2005 = result.cell(&["2005"]).unwrap();
        assert_eq!((y2005.value, y2005.count), (13.8 + 10.3, 2));
    }
}
