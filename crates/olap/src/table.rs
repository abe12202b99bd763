//! Tabular building blocks: the full query result R(q), fact tables and
//! dimension tables.
//!
//! Both row tables are flat: R(q) holds `width × rows` node references, a
//! [`FactTable`] `width × rows` dictionary codes.  A fact table stores each
//! distinct value of a column once, in the column's sorted dictionary, so
//! sorting, deduplicating, merging and grouping its rows compare integers in
//! the strings' order, and a dimension table *is* a column's dictionary —
//! nothing derivable is stored twice.

use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, HashSet};

use seda_xmlstore::{Collection, NodeId, PathId};

/// The full (non-top-k) result of a SEDA query, as described in Sec. 1/7:
/// "two columns for each query term: the first one contains the Dewey ID XML
/// node reference, and the other one contains the full root-to-leaf path of
/// the node."  Here the node reference carries the document and the preorder
/// ordinal, which orders a document's nodes as their Dewey IDs do.
/// The path column is not stored either: a node's root-to-leaf path is a
/// function of the node (`Collection::context`), so R(q) keeps its two
/// columns a term while the table holds one cell —
/// [`QueryResultTable::column_paths`] derives the other on demand.
///
/// The rows live in one flat buffer, row *i* being `cells[i·w..(i+1)·w]` for
/// `w` = [`QueryResultTable::width`] columns.  A table without columns has no
/// rows.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QueryResultTable {
    /// Human-readable label per query term (e.g. the term's textual form).
    pub column_names: Vec<String>,
    /// The rows, one after the other: cell `i` of a row is the node of query
    /// term `i`.
    cells: Vec<NodeId>,
}

impl QueryResultTable {
    /// Creates an empty table with the given column labels.
    pub fn new(column_names: Vec<String>) -> Self {
        QueryResultTable { column_names, cells: Vec::new() }
    }

    /// A table over rows laid out one after the other in `cells`, which it
    /// takes over without copying; panics as [`QueryResultTable::extend_rows`]
    /// does unless `cells` holds a whole number of rows.
    pub fn from_cells(column_names: Vec<String>, cells: Vec<NodeId>) -> Self {
        let table = QueryResultTable::new(column_names);
        table.assert_whole_rows(&cells);
        QueryResultTable { cells, ..table }
    }

    /// Number of result tuples.
    pub fn len(&self) -> usize {
        self.cells.len() / self.width().max(1)
    }

    /// True when the result is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Number of query-term columns.
    pub fn width(&self) -> usize {
        self.column_names.len()
    }

    /// The rows, in order, each borrowed from the flat buffer.
    pub fn rows(&self) -> std::slice::ChunksExact<'_, NodeId> {
        // Without columns there are no cells, so any chunk size is empty.
        self.cells.chunks_exact(self.width().max(1))
    }

    /// Row `i`; `None` past the last row.
    pub fn row(&self, i: usize) -> Option<&[NodeId]> {
        self.rows().nth(i)
    }

    /// Appends a tuple; panics if its arity differs from the column count.
    /// (A table without columns stays without rows.)
    pub fn push_row(&mut self, row: &[NodeId]) {
        assert_eq!(row.len(), self.width(), "row arity must match column count");
        self.cells.extend_from_slice(row);
    }

    /// Appends whole rows laid out one after the other; panics unless
    /// `cells` holds a whole number of rows of the column count (and, for a
    /// table without columns, none).
    pub fn extend_rows(&mut self, cells: &[NodeId]) {
        self.assert_whole_rows(cells);
        self.cells.extend_from_slice(cells);
    }

    fn assert_whole_rows(&self, cells: &[NodeId]) {
        // `n.is_multiple_of(0)` holds for `n == 0` only.
        let width = self.width();
        let whole = cells.len().is_multiple_of(width);
        assert!(whole, "row arity must match column count ({} cells, width {width})", cells.len());
    }

    /// Keeps the first `rows` rows.
    pub fn truncate(&mut self, rows: usize) {
        self.cells.truncate(rows.saturating_mul(self.width()));
    }

    /// Sorts the rows (lexicographically by their cells) and removes
    /// duplicates: one sort of row indices, one rebuild of the buffer.
    pub fn sort_dedup(&mut self) {
        let width = self.width();
        let row = |r: usize| &self.cells[r * width..][..width];
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_unstable_by(|&a, &b| row(a).cmp(row(b)));
        order.dedup_by(|a, b| row(*a) == row(*b));
        self.cells = order.iter().flat_map(|&r| row(r)).copied().collect();
    }

    /// The set of distinct context paths appearing in column `i` — the
    /// π_cpi(R) the matching step compares against fact/dimension context
    /// lists — derived from the column's nodes.
    pub fn column_paths(&self, collection: &Collection, column: usize) -> BTreeSet<PathId> {
        self.rows().filter_map(|row| collection.context(row[column]).ok()).collect()
    }

    /// The nodes of column `i`.
    pub fn column_nodes(&self, column: usize) -> Vec<NodeId> {
        self.rows().map(|row| row[column]).collect()
    }
}

/// A dimension table of the derived star schema: the dimension name and its
/// distinct member values — the dictionary of the fact-table column it
/// describes (the union of them, when several fact tables share it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DimensionTable {
    /// Dimension name (e.g. `country`, `year`, `import-country`).
    pub name: String,
    /// Distinct member values, sorted.
    pub values: Vec<String>,
}

impl DimensionTable {
    /// Number of distinct members.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when the dimension has no members.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

/// A fact table of the derived star schema, dictionary-encoded.
///
/// Every column — the dimension columns first, then the measure columns — has
/// one dictionary: its distinct values, sorted.  A cell holds its value's
/// code, the value's position in the column's dictionary, so comparing two
/// codes of a column compares their strings.  The rows live in one flat
/// buffer of codes, row *i* being `codes[i·w..(i+1)·w]` for `w` =
/// [`FactTable::width`] columns, and are read through [`FactRow`] views.  A
/// dictionary holds exactly the values its column's rows use, so two tables
/// with the same rows in the same order are equal.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FactTable {
    /// Name of the fact (or of the merged facts) this table holds.
    pub name: String,
    dimension_columns: Vec<String>,
    measure_columns: Vec<String>,
    /// One sorted, distinct dictionary per column.
    dictionaries: Vec<Vec<String>>,
    /// The rows, one after the other: cell `c` of a row is a code of
    /// `dictionaries[c]`.
    codes: Vec<u32>,
}

/// One row of a [`FactTable`], borrowed from it: each cell resolves to its
/// string through the column's dictionary.
#[derive(Clone, Copy)]
pub struct FactRow<'a> {
    table: &'a FactTable,
    codes: &'a [u32],
}

impl<'a> FactRow<'a> {
    /// Value of dimension column `i`; panics past the last dimension column.
    pub fn dimension(&self, i: usize) -> &'a str {
        let dimensions = self.table.dimension_columns.len();
        assert!(i < dimensions, "dimension column {i} of a table with {dimensions}");
        self.cell(i)
    }

    /// Value of measure column `i`; panics past the last measure column.
    pub fn measure(&self, i: usize) -> &'a str {
        self.cell(self.table.dimension_columns.len() + i)
    }

    /// Measure `i` parsed as [`parse_numeric`] does; `None` past the last
    /// measure column too.
    pub fn numeric_measure(&self, i: usize) -> Option<f64> {
        (i < self.table.measure_columns.len()).then(|| parse_numeric(self.measure(i))).flatten()
    }

    /// The dimension values, aligned with [`FactTable::dimension_columns`].
    pub fn dimensions(self) -> impl Iterator<Item = &'a str> {
        (0..self.table.dimension_columns.len()).map(move |i| self.cell(i))
    }

    /// The measure values, aligned with [`FactTable::measure_columns`].
    pub fn measures(self) -> impl Iterator<Item = &'a str> {
        (self.table.dimension_columns.len()..self.codes.len()).map(move |i| self.cell(i))
    }

    fn cell(&self, column: usize) -> &'a str {
        &self.table.dictionaries[column][self.codes[column] as usize]
    }
}

impl std::fmt::Debug for FactRow<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FactRow")
            .field("dimensions", &self.dimensions().collect::<Vec<_>>())
            .field("measures", &self.measures().collect::<Vec<_>>())
            .finish()
    }
}

/// Parses a Factbook-style numeric string, tolerating `%`, `,` and unit
/// suffixes such as `12.31T` / `924.4B` / `63.1M` (scaled to their numeric
/// value).  Anything that is not a finite number — `NaN`, `inf`, an overflow
/// such as `1e999` — is `None`, like any other non-numeric text, so it cannot
/// poison an aggregate.
pub fn parse_numeric(raw: &str) -> Option<f64> {
    let cleaned: String = raw.trim().trim_end_matches('%').replace(',', "").trim().to_string();
    if cleaned.is_empty() {
        return None;
    }
    let (number_part, multiplier) = match cleaned.chars().last() {
        Some('T') | Some('t') => (&cleaned[..cleaned.len() - 1], 1e12),
        Some('B') | Some('b') => (&cleaned[..cleaned.len() - 1], 1e9),
        Some('M') | Some('m') => (&cleaned[..cleaned.len() - 1], 1e6),
        Some('K') | Some('k') => (&cleaned[..cleaned.len() - 1], 1e3),
        _ => (cleaned.as_str(), 1.0),
    };
    let value = number_part.trim().parse::<f64>().ok()? * multiplier;
    value.is_finite().then_some(value)
}

impl FactTable {
    /// A table over rows of strings — each row its dimension values followed
    /// by its measure values — kept in the order given; panics on a row whose
    /// arity differs from the column count.
    pub fn from_rows<R>(
        name: impl Into<String>,
        dimension_columns: &[&str],
        measure_columns: &[&str],
        rows: R,
    ) -> Self
    where
        R: IntoIterator,
        R::Item: IntoIterator,
        <R::Item as IntoIterator>::Item: AsRef<str>,
    {
        let width = dimension_columns.len() + measure_columns.len();
        // One dictionary entry a cell; `from_codes` sorts and merges them.
        let mut dictionaries: Vec<Vec<String>> = vec![Vec::new(); width];
        let mut codes = Vec::new();
        for row in rows {
            let start = codes.len();
            for (column, value) in row.into_iter().enumerate() {
                assert!(column < width, "row arity must match column count");
                codes.push(dictionaries[column].len() as u32);
                dictionaries[column].push(value.as_ref().to_string());
            }
            assert_eq!(codes.len() - start, width, "row arity must match column count");
        }
        let names = |columns: &[&str]| columns.iter().map(|c| c.to_string()).collect();
        FactTable::from_codes(
            name.into(),
            names(dimension_columns),
            names(measure_columns),
            dictionaries,
            codes,
        )
    }

    /// The table over `codes`, laid out row after row, whose column `c` holds
    /// codes of `dictionaries[c]` — values in any order, perhaps repeated or
    /// unused.  Keeps the rows in their order, drops the unused values and
    /// renumbers the rest in value order, equal values to one code.
    pub(crate) fn from_codes<S: AsRef<str> + Into<String>>(
        name: String,
        dimension_columns: Vec<String>,
        measure_columns: Vec<String>,
        dictionaries: Vec<Vec<S>>,
        mut codes: Vec<u32>,
    ) -> Self {
        let width = dictionaries.len();
        debug_assert_eq!(width, dimension_columns.len() + measure_columns.len());
        let dictionaries = dictionaries
            .into_iter()
            .enumerate()
            .map(|(column, values)| {
                let mut used = vec![false; values.len()];
                codes.iter().skip(column).step_by(width).for_each(|&c| used[c as usize] = true);
                let mut entries: Vec<(S, u32)> =
                    values.into_iter().zip(0..).filter(|&(_, c)| used[c as usize]).collect();
                entries.sort_unstable_by(|a, b| a.0.as_ref().cmp(b.0.as_ref()));
                let mut rank = vec![0; used.len()];
                let mut dictionary: Vec<String> = Vec::with_capacity(entries.len());
                for (value, old) in entries {
                    if dictionary.last().map(String::as_str) != Some(value.as_ref()) {
                        dictionary.push(value.into());
                    }
                    rank[old as usize] = dictionary.len() as u32 - 1;
                }
                codes.iter_mut().skip(column).step_by(width).for_each(|c| *c = rank[*c as usize]);
                dictionary
            })
            .collect();
        FactTable { name, dimension_columns, measure_columns, dictionaries, codes }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len() / self.width().max(1)
    }

    /// True when the fact table has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Number of columns, dimensions and measures.
    pub fn width(&self) -> usize {
        self.dictionaries.len()
    }

    /// Names of the dimension (key) columns.
    pub fn dimension_columns(&self) -> &[String] {
        &self.dimension_columns
    }

    /// Names of the measure columns.
    pub fn measure_columns(&self) -> &[String] {
        &self.measure_columns
    }

    /// The rows, in order, each a view borrowed from the table.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = FactRow<'_>> {
        self.code_rows().map(|codes| FactRow { table: self, codes })
    }

    /// Row `i`; `None` past the last row.
    pub fn row(&self, i: usize) -> Option<FactRow<'_>> {
        self.rows().nth(i)
    }

    /// The distinct values of column `column` (dimensions first, then
    /// measures), sorted: the column's dictionary.  Panics past the last
    /// column.
    pub fn column_values(&self, column: usize) -> &[String] {
        &self.dictionaries[column]
    }

    /// The rows as their codes.
    pub(crate) fn code_rows(&self) -> std::slice::ChunksExact<'_, u32> {
        // Without columns there are no codes, so any chunk size is empty.
        self.codes.chunks_exact(self.width().max(1))
    }

    /// Sorts the rows — by their codes, which is by their strings — and
    /// removes duplicates: one stable counting sort of the row order per
    /// column, the last column first, then one rebuild of the buffer.
    pub(crate) fn sort_dedup(&mut self) {
        let width = self.width().max(1);
        let rows = self.len();
        let mut order: Vec<u32> = (0..rows as u32).collect();
        let mut sorted = vec![0; rows];
        for (column, dictionary) in self.dictionaries.iter().enumerate().rev() {
            let code = |row: u32| self.codes[row as usize * width + column] as usize;
            let mut starts = vec![0; dictionary.len() + 1];
            order.iter().for_each(|&row| starts[code(row) + 1] += 1);
            (1..starts.len()).for_each(|i| starts[i] += starts[i - 1]);
            for &row in &order {
                sorted[starts[code(row)]] = row;
                starts[code(row)] += 1;
            }
            std::mem::swap(&mut order, &mut sorted);
        }
        let row = |r: u32| &self.codes[r as usize * width..][..width];
        order.dedup_by(|a, b| row(*a) == row(*b));
        self.codes = order.iter().flat_map(|&r| row(r)).copied().collect();
    }

    /// Index of a dimension column by name.
    pub fn dimension_index(&self, name: &str) -> Option<usize> {
        self.dimension_columns.iter().position(|c| c == name)
    }

    /// Index of a measure column by name.
    pub fn measure_index(&self, name: &str) -> Option<usize> {
        self.measure_columns.iter().position(|c| c == name)
    }

    /// True when the dimension columns form a primary key (no two rows share
    /// all dimension values) — the property the paper's year-augmentation
    /// restores for the Query 1 fact table.
    pub fn dimensions_form_key(&self) -> bool {
        let dimensions = self.dimension_columns.len();
        let mut seen = HashSet::new();
        self.code_rows().all(|row| seen.insert(&row[..dimensions]))
    }

    /// The dimension tables of this fact table, one per dimension column:
    /// the column's dictionary.
    pub fn dimension_tables(&self) -> Vec<DimensionTable> {
        let columns = self.dimension_columns.iter().zip(&self.dictionaries);
        columns
            .map(|(name, values)| DimensionTable { name: name.clone(), values: values.clone() })
            .collect()
    }
}

/// The distinct values of one column in first-seen order, each with its id —
/// the codes of a column before [`FactTable::from_codes`] renumbers them in
/// value order.  A value borrowed from the collection is interned without a
/// copy.
#[derive(Debug, Default)]
pub(crate) struct Dictionary<'a> {
    ids: HashMap<Cow<'a, str>, u32>,
    values: Vec<Cow<'a, str>>,
}

impl<'a> Dictionary<'a> {
    /// The id of `value`, interning it when it is new.
    pub(crate) fn intern(&mut self, value: Cow<'a, str>) -> u32 {
        if let Some(&id) = self.ids.get(value.as_ref()) {
            return id;
        }
        let id = self.values.len() as u32;
        self.values.push(value.clone());
        self.ids.insert(value, id);
        id
    }

    /// The value of `id`.
    pub(crate) fn value(&self, id: u32) -> &str {
        &self.values[id as usize]
    }

    /// The values, indexed by id.
    pub(crate) fn into_values(self) -> Vec<Cow<'a, str>> {
        self.values
    }
}

/// A derived star schema: fact tables plus their dimension tables, ready to be
/// handed to an OLAP engine.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StarSchema {
    /// Fact tables (one per fact, after merging facts with identical keys).
    pub fact_tables: Vec<FactTable>,
    /// Dimension tables referenced by the fact tables.
    pub dimension_tables: Vec<DimensionTable>,
}

impl StarSchema {
    /// Finds a fact table by name.
    pub fn fact(&self, name: &str) -> Option<&FactTable> {
        self.fact_tables.iter().find(|f| f.name == name)
    }

    /// Finds a dimension table by name.
    pub fn dimension(&self, name: &str) -> Option<&DimensionTable> {
        self.dimension_tables.iter().find(|d| d.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_xmlstore::{parse_collection, DocId};

    fn node(n: u32) -> NodeId {
        NodeId::new(DocId(0), n)
    }

    #[test]
    fn query_result_table_tracks_columns_and_paths() {
        let c =
            parse_collection(vec![("d.xml", "<r><a>x</a><b>y</b><a>z</a><c>w</c></r>")]).unwrap();
        let mut t = QueryResultTable::new(vec!["a".into(), "b or c".into()]);
        t.push_row(&[node(1), node(2)]);
        t.push_row(&[node(3), node(4)]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.width(), 2);
        assert_eq!(t.row(1), Some(&[node(3), node(4)][..]));
        assert_eq!(t.row(2), None);
        // Both `a` cells share one path; `b` and `c` are two.
        assert_eq!(t.column_paths(&c, 0).len(), 1);
        assert_eq!(t.column_paths(&c, 1).len(), 2);
        assert_eq!(t.column_nodes(1), vec![node(2), node(4)]);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn mismatched_row_arity_panics() {
        let mut t = QueryResultTable::new(vec!["a".into(), "b".into()]);
        t.push_row(&[node(1), node(2), node(3)]);
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn a_table_without_columns_takes_no_cells() {
        QueryResultTable::new(Vec::new()).extend_rows(&[node(1)]);
    }

    #[test]
    fn columns_are_sorted_dictionaries_of_the_values_their_rows_use() {
        let rows = [["China", "15"], ["Canada", "16.9"], ["China", "12.5"]];
        let table = FactTable::from_rows("pct", &["country"], &["pct"], rows);
        assert_eq!(table.column_values(0), ["Canada", "China"]);
        assert_eq!(table.column_values(1), ["12.5", "15", "16.9"]);
        // The rows keep their order and read back as strings.
        let read: Vec<(&str, &str)> =
            table.rows().map(|r| (r.dimension(0), r.measure(0))).collect();
        assert_eq!(read, [("China", "15"), ("Canada", "16.9"), ("China", "12.5")]);
        let dimensions = table.dimension_tables();
        assert_eq!(dimensions.len(), 1);
        assert_eq!((dimensions[0].name.as_str(), dimensions[0].len()), ("country", 2));
        assert_eq!(dimensions[0].values, table.column_values(0));
    }

    #[test]
    fn equal_rows_make_equal_tables_whatever_the_dictionaries_held() {
        let rows = [["b", "1"], ["a", "2"], ["b", "1"]];
        let built = FactTable::from_rows("f", &["d"], &["m"], rows);
        // Unused, repeated and out-of-order dictionary entries are dropped,
        // merged and renumbered.
        let dictionaries = vec![vec!["z", "b", "a", "b"], vec!["2", "9", "1"]];
        let (dimensions, measures) = (vec!["d".to_string()], vec!["m".to_string()]);
        let codes = vec![1, 2, 2, 0, 3, 2];
        let coded = FactTable::from_codes("f".into(), dimensions, measures, dictionaries, codes);
        assert_eq!(coded, built);
        assert_eq!(coded.column_values(0), ["a", "b"]);
        let mut sorted = coded.clone();
        sorted.sort_dedup();
        assert_eq!(sorted, FactTable::from_rows("f", &["d"], &["m"], [["a", "2"], ["b", "1"]]));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn a_fact_row_of_the_wrong_arity_panics() {
        FactTable::from_rows("f", &["d"], &["m"], [vec!["a"]]);
    }

    #[test]
    fn numeric_parsing_handles_factbook_notation() {
        assert_eq!(parse_numeric("15"), Some(15.0));
        assert_eq!(parse_numeric("16.9%"), Some(16.9));
        assert_eq!(parse_numeric("12.31T"), Some(12.31e12));
        assert_eq!(parse_numeric("924.4B"), Some(924.4e9));
        assert_eq!(parse_numeric("1,234"), Some(1234.0));
        assert_eq!(parse_numeric("63.1M"), Some(63.1e6));
        assert_eq!(parse_numeric("not a number"), None);
        assert_eq!(parse_numeric(""), None);
        // What `f64`'s parser takes but is no number to aggregate.
        for raw in ["NaN", "nan", "inf", "-inf", "Infinity", "1e999", "-1e999", "1e300T"] {
            assert_eq!(parse_numeric(raw), None, "{raw}");
        }
    }

    #[test]
    fn fact_table_key_detection() {
        let rows = [["United States", "China", "12.5"], ["United States", "China", "13.8"]];
        let table = FactTable::from_rows(
            "percentage",
            &["country", "import-country"],
            &["percentage"],
            rows,
        );
        // Without the year dimension the rows collide — the paper's example of
        // "China 12.5%" vs "China 13.8%".
        assert!(!table.dimensions_form_key());
        let rows = [
            ["United States", "China", "2004", "12.5"],
            ["United States", "China", "2005", "13.8"],
        ];
        let columns = ["country", "import-country", "year"];
        let with_year = FactTable::from_rows("percentage", &columns, &["percentage"], rows);
        assert!(with_year.dimensions_form_key());
        assert_eq!(with_year.dimension_tables().len(), 3);
        let first = with_year.row(0).unwrap();
        assert_eq!(first.numeric_measure(0), Some(12.5));
        assert_eq!(first.numeric_measure(1), None, "past the last measure column");
        assert_eq!(first.dimensions().collect::<Vec<_>>(), ["United States", "China", "2004"]);
        assert!(with_year.row(2).is_none());
    }

    #[test]
    fn star_schema_lookup() {
        let schema = StarSchema {
            fact_tables: vec![FactTable { name: "f".into(), ..FactTable::default() }],
            dimension_tables: vec![DimensionTable { name: "d".into(), values: vec![] }],
        };
        assert!(schema.fact("f").is_some());
        assert!(schema.fact("g").is_none());
        assert!(schema.dimension("d").is_some());
    }
}
