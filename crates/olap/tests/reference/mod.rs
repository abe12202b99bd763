//! The star-schema derivation and the cube as they shipped before fact tables
//! were dictionary-encoded, kept as the differential reference: fact rows as
//! `Vec<String>` dimensions and measures, sorted and deduplicated as string
//! vectors, dimension tables re-sorted from cloned values, same-key facts
//! merged through a `BTreeMap<Vec<String>, …>`, the cube grouped in a
//! `BTreeMap<Vec<String>, …>` and every row's measure parsed on its own.  Each
//! key part is evaluated from its text per node, an absolute part by a scan of
//! the node's document.  It shares no code with the coded path: only the
//! registry's definitions, the result table and the store are read through
//! the public API.
//!
//! Two fixes that shipped with the encoding are applied here too, so the
//! reference states what is right rather than what was: every fact instance
//! is keyed by its own context's key (an instance whose key names other
//! columns is left out with a warning), and a measure that parses to no
//! finite number is skipped like any non-numeric one.
//!
//! Included by path from `crates/olap/tests/` and from the root suite
//! (`#[path]`).

#![allow(dead_code)]

use std::collections::{BTreeMap, BTreeSet};

use seda_olap::{AggFn, BuildOptions, CubeQuery, KeyPart, QueryResultTable, Registry, SchemaRole};
use seda_xmlstore::{Collection, NodeId, PathId};

/// One fact row: dimension values, then measure values.
pub type Row = (Vec<String>, Vec<String>);

/// A fact table as the reference holds it.
#[derive(Debug, Clone, PartialEq)]
pub struct FactTable {
    /// Fact (or merged facts) name.
    pub name: String,
    /// Dimension column names.
    pub dimension_columns: Vec<String>,
    /// Measure column names.
    pub measure_columns: Vec<String>,
    /// The rows.
    pub rows: Vec<Row>,
}

/// A derived star schema as the reference builds it.
#[derive(Debug, Clone, PartialEq)]
pub struct Build {
    /// Matched facts, before augmentation.
    pub facts: Vec<String>,
    /// Matched dimensions, before augmentation.
    pub dimensions: Vec<String>,
    /// Final facts.
    pub final_facts: Vec<String>,
    /// Final dimensions.
    pub final_dimensions: Vec<String>,
    /// Fact tables, after merging.
    pub fact_tables: Vec<FactTable>,
    /// Dimension tables: name and sorted distinct members.
    pub dimension_tables: Vec<(String, Vec<String>)>,
    /// Warnings.
    pub warnings: Vec<String>,
}

/// One cube cell: coordinates, value, contributing rows.
pub type Cell = (Vec<String>, f64, usize);

/// The names of the definitions a result column matches, and of those it
/// matches partially.
type ColumnMatch = (Vec<String>, Vec<String>);

/// Per result column its matches, then the matched facts and dimensions.
fn match_columns(
    collection: &Collection,
    result: &QueryResultTable,
    registry: &Registry,
) -> (Vec<ColumnMatch>, Vec<String>, Vec<String>) {
    let (mut columns, mut facts, mut dimensions) = (Vec::new(), Vec::new(), Vec::new());
    for column in 0..result.width() {
        let paths: BTreeSet<PathId> =
            result.rows().filter_map(|row| collection.context(row[column]).ok()).collect();
        let (mut matched, mut partial) = (Vec::new(), Vec::new());
        if !paths.is_empty() {
            for def in registry.defs() {
                let def_paths: BTreeSet<PathId> = def
                    .contexts
                    .iter()
                    .filter_map(|c| collection.paths().get_str(collection.symbols(), &c.context))
                    .collect();
                if def_paths.is_empty() {
                    continue;
                }
                let common = paths.intersection(&def_paths).count();
                if common == paths.len() {
                    matched.push(def.name.clone());
                    let set = match def.role {
                        SchemaRole::Fact => &mut facts,
                        SchemaRole::Dimension => &mut dimensions,
                    };
                    if !set.contains(&def.name) {
                        set.push(def.name.clone());
                    }
                } else if common > 0 {
                    partial.push(def.name.clone());
                }
            }
        }
        columns.push((matched, partial));
    }
    (columns, facts, dimensions)
}

/// Evaluates one key part for `node`: the nodes it reaches.
fn evaluate_part(collection: &Collection, part: &KeyPart, node: NodeId) -> Vec<u32> {
    let Ok(document) = collection.document(node.doc) else { return Vec::new() };
    match part {
        KeyPart::Absolute(expr) => collection
            .paths()
            .get_str(collection.symbols(), expr)
            .map(|path| document.nodes_with_path(path))
            .unwrap_or_default(),
        KeyPart::Relative(expr) => {
            // `..` moves to the parent, `.` stays, a label moves to the
            // children named so; labels are compared as strings.
            let mut frontier = vec![node.node];
            for step in expr.split('/').filter(|step| !step.is_empty()) {
                let mut next = Vec::new();
                for &current in &frontier {
                    match step {
                        "." => next.push(current),
                        ".." => next.extend(document.parent(current)),
                        label => next.extend(document.children(current).iter().copied().filter(
                            |&child| {
                                collection.node_name(NodeId::new(node.doc, child)).ok()
                                    == Some(label)
                            },
                        )),
                    }
                }
                next.sort_unstable();
                next.dedup();
                frontier = next;
            }
            frontier
        }
    }
}

/// The key values of `node`, or the violation as the builder words it.
fn evaluate_key(
    collection: &Collection,
    parts: &[KeyPart],
    node: NodeId,
) -> Result<Vec<String>, String> {
    let Ok(document) = collection.document(node.doc) else {
        return Err(format!("MissingComponent {{ expression: \"<document>\", node: {node:?} }}"));
    };
    let mut values = Vec::new();
    for part in parts {
        let reached = evaluate_part(collection, part, node);
        let expression = part.expression();
        match reached.len() {
            0 => {
                return Err(format!(
                    "MissingComponent {{ expression: {expression:?}, node: {node:?} }}"
                ))
            }
            1 => values.push(document.content(reached[0])),
            matches => {
                return Err(format!(
                    "AmbiguousComponent {{ expression: {expression:?}, node: {node:?}, \
                     matches: {matches} }}"
                ))
            }
        }
    }
    Ok(values)
}

/// The column name of a key part, as the builder derives it.
fn dimension_name(
    collection: &Collection,
    registry: &Registry,
    part: &KeyPart,
    sample: NodeId,
) -> String {
    let context = match part {
        KeyPart::Absolute(expr) => Some(expr.clone()),
        KeyPart::Relative(_) => evaluate_part(collection, part, sample).first().map(|&t| {
            let document = collection.document(sample.doc).expect("a reached node's document");
            collection.path_string(document.node_unchecked(t).path)
        }),
    };
    let Some(context) = context else { return part.expression().to_string() };
    registry
        .dimensions()
        .find(|def| def.contexts.iter().any(|c| c.context == context))
        .map_or(context, |def| def.name.clone())
}

/// Derives the star schema of `result` as the string-based builder did.
pub fn build(
    collection: &Collection,
    registry: &Registry,
    result: &QueryResultTable,
    options: &BuildOptions,
) -> Build {
    let (columns, facts, dimensions) = match_columns(collection, result, registry);
    let mut warnings = Vec::new();
    for (column, (_, partial)) in columns.iter().enumerate() {
        for name in partial {
            warnings.push(format!(
                "column {column} only partially matches the context list of {name:?}; \
                 check the chosen contexts"
            ));
        }
    }
    let (mut final_facts, mut final_dimensions) = (facts.clone(), dimensions.clone());
    for name in &options.add {
        match registry.get(name) {
            Some(def) => {
                let set = match def.role {
                    SchemaRole::Fact => &mut final_facts,
                    SchemaRole::Dimension => &mut final_dimensions,
                };
                if !set.contains(name) {
                    set.push(name.clone());
                }
            }
            None => warnings.push(format!("unknown fact/dimension {name:?} requested")),
        }
    }
    final_facts.retain(|f| !options.remove.contains(f));
    final_dimensions.retain(|d| !options.remove.contains(d));

    let mut fact_tables = Vec::new();
    let mut dimension_values: Vec<(String, Vec<String>)> = Vec::new();
    for fact_name in &final_facts {
        let Some(table) = extract(collection, registry, result, &columns, fact_name, &mut warnings)
        else {
            if registry.get(fact_name).is_some() {
                warnings.push(format!("no instances found for fact {fact_name:?}"));
            }
            continue;
        };
        for (i, dim) in table.dimension_columns.iter().enumerate() {
            dimension_values
                .push((dim.clone(), table.rows.iter().map(|r| r.0[i].clone()).collect()));
        }
        fact_tables.push(table);
    }
    for dim_name in &final_dimensions {
        if dimension_values.iter().any(|(n, _)| n == dim_name) {
            continue;
        }
        let matched: Vec<usize> =
            (0..columns.len()).filter(|&c| columns[c].0.contains(dim_name)).collect();
        if matched.is_empty() {
            continue;
        }
        let values = matched
            .iter()
            .flat_map(|&c| result.rows().map(move |row| row[c]))
            .map(|node| collection.content(node).unwrap_or_default())
            .collect();
        dimension_values.push((dim_name.clone(), values));
    }
    let mut dimension_tables: Vec<(String, Vec<String>)> = Vec::new();
    for (name, values) in dimension_values {
        let sorted = |mut values: Vec<String>| {
            values.sort();
            values.dedup();
            values
        };
        match dimension_tables.iter_mut().find(|(n, _)| *n == name) {
            Some(existing) => {
                let mut merged = existing.1.clone();
                merged.extend(values);
                existing.1 = sorted(merged);
            }
            None => dimension_tables.push((name, sorted(values))),
        }
    }
    Build {
        facts,
        dimensions,
        final_facts,
        final_dimensions,
        fact_tables: merge(fact_tables),
        dimension_tables,
        warnings,
    }
}

/// The fact table of `fact_name`, each instance keyed by its own context.
fn extract(
    collection: &Collection,
    registry: &Registry,
    result: &QueryResultTable,
    columns: &[ColumnMatch],
    fact_name: &str,
    warnings: &mut Vec<String>,
) -> Option<FactTable> {
    let def = registry.get(fact_name)?;
    let matched: Vec<usize> =
        (0..columns.len()).filter(|&c| columns[c].0.iter().any(|n| n == fact_name)).collect();
    let mut instances: Vec<NodeId> = if matched.is_empty() {
        let docs: BTreeSet<_> = result.rows().flatten().map(|n| n.doc).collect();
        def.contexts
            .iter()
            .filter_map(|c| collection.paths().get_str(collection.symbols(), &c.context))
            .flat_map(|path| collection.nodes_with_path(path))
            .filter(|node| docs.contains(&node.doc))
            .collect()
    } else {
        matched.iter().flat_map(|&c| result.rows().map(move |row| row[c])).collect()
    };
    instances.sort();
    instances.dedup();
    let first_context = collection.context(*instances.first()?).ok()?;

    let mut dimension_columns: Option<Vec<String>> = None;
    // Per context: whether its key names the table's columns, decided at its
    // first instance.
    let mut joins: BTreeMap<PathId, bool> = BTreeMap::new();
    let mut rows: Vec<Row> = Vec::new();
    for &node in &instances {
        let Ok(context) = collection.context(node) else {
            warnings.push(format!(
                "key violation while extracting fact {fact_name:?}: \
                 MissingComponent {{ expression: \"<document>\", node: {node:?} }}"
            ));
            continue;
        };
        let rendered = collection.path_string(context);
        let key = def
            .contexts
            .iter()
            .find(|c| c.context == rendered)
            .or_else(|| def.contexts.first())
            .map(|c| &c.key)?;
        let joined = *joins.entry(context).or_insert_with(|| {
            let names: Vec<String> =
                key.parts().iter().map(|p| dimension_name(collection, registry, p, node)).collect();
            let columns = dimension_columns.get_or_insert_with(|| names.clone());
            if *columns != names {
                warnings.push(format!(
                    "fact {fact_name:?}: the key of context {rendered:?} names the columns \
                     {names:?}, not the {columns:?} of context {:?}; its instances are left out",
                    collection.path_string(first_context)
                ));
            }
            *columns == names
        });
        if !joined {
            continue;
        }
        match evaluate_key(collection, key.parts(), node) {
            Ok(values) => rows.push((values, vec![collection.content(node).unwrap_or_default()])),
            Err(violation) => warnings
                .push(format!("key violation while extracting fact {fact_name:?}: {violation}")),
        }
    }
    if rows.is_empty() {
        return None;
    }
    rows.sort();
    rows.dedup();
    Some(FactTable {
        name: fact_name.to_string(),
        dimension_columns: dimension_columns?,
        measure_columns: vec![fact_name.to_string()],
        rows,
    })
}

/// Merges the tables that share dimension columns, later rows winning and
/// missing measures empty.
pub fn merge(tables: Vec<FactTable>) -> Vec<FactTable> {
    let mut by_key: BTreeMap<Vec<String>, Vec<FactTable>> = BTreeMap::new();
    for t in tables {
        by_key.entry(t.dimension_columns.clone()).or_default().push(t);
    }
    let mut out = Vec::new();
    for (dims, group) in by_key {
        if group.len() == 1 {
            out.extend(group);
            continue;
        }
        let measure_columns: Vec<String> =
            group.iter().flat_map(|t| t.measure_columns.clone()).collect();
        let name = group.iter().map(|t| t.name.clone()).collect::<Vec<_>>().join("+");
        let mut rows_by_dims: BTreeMap<Vec<String>, Vec<String>> = BTreeMap::new();
        let mut offset = 0usize;
        for table in &group {
            for (dimensions, measures) in &table.rows {
                let entry = rows_by_dims
                    .entry(dimensions.clone())
                    .or_insert_with(|| vec![String::new(); measure_columns.len()]);
                for (i, m) in measures.iter().enumerate() {
                    entry[offset + i] = m.clone();
                }
            }
            offset += table.measure_columns.len();
        }
        let rows = rows_by_dims.into_iter().collect();
        out.push(FactTable { name, dimension_columns: dims, measure_columns, rows });
    }
    out
}

/// A Factbook-style number, `None` for anything not finite.
pub fn parse_numeric(raw: &str) -> Option<f64> {
    let cleaned: String = raw.trim().trim_end_matches('%').replace(',', "").trim().to_string();
    let (number, multiplier) = match cleaned.chars().last()? {
        'T' | 't' => (&cleaned[..cleaned.len() - 1], 1e12),
        'B' | 'b' => (&cleaned[..cleaned.len() - 1], 1e9),
        'M' | 'm' => (&cleaned[..cleaned.len() - 1], 1e6),
        'K' | 'k' => (&cleaned[..cleaned.len() - 1], 1e3),
        _ => (cleaned.as_str(), 1.0),
    };
    let value = number.trim().parse::<f64>().ok()? * multiplier;
    value.is_finite().then_some(value)
}

/// The cube of `query` over `table`, and the rows it scanned; `None` for an
/// unknown column.
pub fn aggregate(table: &FactTable, query: &CubeQuery) -> Option<(Vec<Cell>, usize)> {
    let index = |columns: &[String], name: &str| columns.iter().position(|c| c == name);
    let group: Vec<usize> =
        query.group_by.iter().map(|d| index(&table.dimension_columns, d)).collect::<Option<_>>()?;
    let filters: Vec<(usize, &str)> = query
        .filters
        .iter()
        .map(|(d, v)| index(&table.dimension_columns, d).map(|i| (i, v.as_str())))
        .collect::<Option<_>>()?;
    let measure = index(&table.measure_columns, &query.measure)?;
    // (sum, count, min, max) per group.
    let mut groups: BTreeMap<Vec<String>, (f64, usize, f64, f64)> = BTreeMap::new();
    for (dimensions, measures) in &table.rows {
        if !filters.iter().all(|&(i, v)| dimensions[i] == v) {
            continue;
        }
        let Some(value) = parse_numeric(&measures[measure]) else { continue };
        let key = group.iter().map(|&i| dimensions[i].clone()).collect();
        let acc = groups.entry(key).or_insert((0.0, 0, f64::INFINITY, f64::NEG_INFINITY));
        acc.0 += value;
        acc.1 += 1;
        acc.2 = acc.2.min(value);
        acc.3 = acc.3.max(value);
    }
    let cells = groups
        .into_iter()
        .map(|(coordinates, (sum, count, min, max))| {
            let value = match query.agg {
                AggFn::Sum => sum,
                AggFn::Count => count as f64,
                AggFn::Avg => sum / count as f64,
                AggFn::Min => min,
                AggFn::Max => max,
            };
            (coordinates, value, count)
        })
        .collect();
    Some((cells, table.rows.len()))
}

/// `table` as the reference holds one, its rows read back as strings.
pub fn as_reference(table: &seda_olap::FactTable) -> FactTable {
    let strings = |values: &mut dyn Iterator<Item = &str>| values.map(String::from).collect();
    FactTable {
        name: table.name.clone(),
        dimension_columns: table.dimension_columns().to_vec(),
        measure_columns: table.measure_columns().to_vec(),
        rows: table
            .rows()
            .map(|row| (strings(&mut row.dimensions()), strings(&mut row.measures())))
            .collect(),
    }
}

/// Asserts that the shipping builder derives from `result` what the reference
/// does — matching, final sets, warnings, every fact table's columns and
/// rows in order, the dimension tables — and that every cube of
/// [`cube_queries`] over every fact table agrees, values to the bit.
pub fn assert_matches(
    collection: &Collection,
    registry: &Registry,
    result: &QueryResultTable,
    options: &BuildOptions,
) -> seda_olap::StarSchemaBuild {
    let built = seda_olap::StarSchemaBuilder::new(collection, registry).build(result, options);
    let expected = build(collection, registry, result, options);
    assert_eq!(built.matching.facts, expected.facts);
    assert_eq!(built.matching.dimensions, expected.dimensions);
    assert_eq!(built.final_facts, expected.final_facts);
    assert_eq!(built.final_dimensions, expected.final_dimensions);
    assert_eq!(built.warnings, expected.warnings);
    let tables: Vec<FactTable> = built.schema.fact_tables.iter().map(as_reference).collect();
    assert_eq!(tables, expected.fact_tables);
    let dimensions: Vec<(String, Vec<String>)> =
        built.schema.dimension_tables.iter().map(|d| (d.name.clone(), d.values.clone())).collect();
    assert_eq!(dimensions, expected.dimension_tables);
    for (table, expected) in built.schema.fact_tables.iter().zip(&expected.fact_tables) {
        for query in cube_queries(expected) {
            assert_cube_matches(table, expected, &query);
        }
    }
    built
}

/// Cubes over `table`: every aggregation function, grouped by nothing, by
/// each dimension and by all of them, unfiltered and filtered on a member of
/// the first dimension and on a value no row has.
pub fn cube_queries(table: &FactTable) -> Vec<CubeQuery> {
    let dimensions: Vec<&str> = table.dimension_columns.iter().map(String::as_str).collect();
    let mut groupings: Vec<Vec<&str>> = vec![Vec::new(), dimensions.clone()];
    groupings.extend(dimensions.iter().map(|&d| vec![d]));
    let member =
        table.rows.first().and_then(|(values, _)| Some((dimensions.first()?, values.first()?)));
    let mut queries = Vec::new();
    for measure in &table.measure_columns {
        for group_by in &groupings {
            for agg in [AggFn::Sum, AggFn::Count, AggFn::Avg, AggFn::Min, AggFn::Max] {
                let query = CubeQuery::sum(group_by, measure).with_agg(agg);
                if let Some((dimension, value)) = member {
                    queries.push(query.clone().filter(dimension, value));
                    queries.push(query.clone().filter(dimension, "no such member"));
                }
                queries.push(query);
            }
        }
    }
    queries
}

/// Asserts that `aggregate` over `table` answers `query` as the reference
/// does over `expected`: the same cells in the same order, each value to the
/// bit, and the same rows scanned — or both refuse the query.
pub fn assert_cube_matches(table: &seda_olap::FactTable, expected: &FactTable, query: &CubeQuery) {
    let cube = seda_olap::aggregate(table, query).ok();
    let cube = cube.map(|cube| {
        let cells = cube.cells.into_iter().map(|c| (c.coordinates, c.value.to_bits(), c.count));
        (cells.collect::<Vec<_>>(), cube.rows_scanned)
    });
    let want = aggregate(expected, query).map(|(cells, scanned)| {
        let cells = cells
            .into_iter()
            .map(|(coordinates, value, count)| (coordinates, value.to_bits(), count));
        (cells.collect::<Vec<_>>(), scanned)
    });
    assert_eq!(cube, want, "{query:?} over {}", table.name);
}
