//! Deriving a star schema from a query result (Sec. 7, steps 1–3).
//!
//! * **Step 1 — Matching**: each `(node, path)` column of the full result
//!   R(q) is matched against the registry: a column matches a fact/dimension
//!   when the set of paths in the column (its nodes' contexts) is a subset of
//!   the definition's context list.  Partial intersections produce warnings.
//! * **Step 2 — Augmentation**: the user may add or remove facts/dimensions;
//!   the result is then extended with any missing key columns (the paper's
//!   example: the `/country/year` column is added so the percentage fact table
//!   has a primary key).
//! * **Step 3 — Extraction**: fact and dimension tables are materialised by
//!   evaluating the relative key of every fact instance — the key of the
//!   instance's own context — straight into dictionary codes: an absolute
//!   key part is resolved and interned once per document, by descending from
//!   the root along its labels; a relative part and the measure are interned
//!   per instance, their content borrowed from the store.  The rows are then
//!   sorted and deduplicated on their codes, each dimension table is its
//!   column's dictionary, and fact tables with identical dimension columns
//!   are merged on codes in united dictionaries.

use std::collections::{BTreeMap, BTreeSet};

use seda_xmlstore::{Collection, NodeId, PathId};

use crate::key::{CompiledKey, KeyPart, KeyViolation, RelativeKey};
use crate::schema::{Registry, SchemaDef, SchemaRole};
use crate::table::{Dictionary, DimensionTable, FactTable, QueryResultTable, StarSchema};

/// How a result column relates to the registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnMatch {
    /// Column index in R(q).
    pub column: usize,
    /// Definitions (by name) whose context list covers every path of the
    /// column — complete matches.
    pub matched: Vec<String>,
    /// Definitions that cover some but not all paths of the column; SEDA
    /// "issues a warning message to the user" for these.
    pub partial: Vec<String>,
}

/// Outcome of the matching step.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MatchingOutcome {
    /// Per-column matches.
    pub columns: Vec<ColumnMatch>,
    /// Names of matched facts (`F_q`).
    pub facts: Vec<String>,
    /// Names of matched dimensions (`D_q`).
    pub dimensions: Vec<String>,
}

/// Matches every column of the result against the registry.
pub fn match_result(
    collection: &Collection,
    result: &QueryResultTable,
    registry: &Registry,
) -> MatchingOutcome {
    let mut outcome = MatchingOutcome::default();
    for column in 0..result.width() {
        let paths = result.column_paths(collection, column);
        let mut cm = ColumnMatch { column, ..ColumnMatch::default() };
        if paths.is_empty() {
            outcome.columns.push(cm);
            continue;
        }
        for def in registry.defs() {
            let def_paths: BTreeSet<_> = def.context_paths(collection).into_iter().collect();
            if def_paths.is_empty() {
                continue;
            }
            let common = paths.intersection(&def_paths).count();
            if common == paths.len() {
                cm.matched.push(def.name.clone());
                match def.role {
                    SchemaRole::Fact => {
                        if !outcome.facts.contains(&def.name) {
                            outcome.facts.push(def.name.clone());
                        }
                    }
                    SchemaRole::Dimension => {
                        if !outcome.dimensions.contains(&def.name) {
                            outcome.dimensions.push(def.name.clone());
                        }
                    }
                }
            } else if common > 0 {
                cm.partial.push(def.name.clone());
            }
        }
        outcome.columns.push(cm);
    }
    outcome
}

/// Options of the augmentation step: the user may add facts/dimensions the
/// matching step did not find and remove ones it did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BuildOptions {
    /// Names of registry definitions to add to the final sets.
    pub add: Vec<String>,
    /// Names to remove from the final sets.
    pub remove: Vec<String>,
}

/// Result of building a star schema.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StarSchemaBuild {
    /// The matching-step outcome (before augmentation).
    pub matching: MatchingOutcome,
    /// Final fact names used for extraction.
    pub final_facts: Vec<String>,
    /// Final dimension names used for extraction.
    pub final_dimensions: Vec<String>,
    /// The derived star schema.
    pub schema: StarSchema,
    /// Human-readable warnings (partial matches, key violations, …).
    pub warnings: Vec<String>,
}

/// Derives the star schema for a query result.
pub struct StarSchemaBuilder<'a> {
    collection: &'a Collection,
    registry: &'a Registry,
}

impl<'a> StarSchemaBuilder<'a> {
    /// Creates a builder over a collection and a fact/dimension registry.
    pub fn new(collection: &'a Collection, registry: &'a Registry) -> Self {
        StarSchemaBuilder { collection, registry }
    }

    /// Runs matching, augmentation and extraction for the given result.
    pub fn build(&self, result: &QueryResultTable, options: &BuildOptions) -> StarSchemaBuild {
        let matching = match_result(self.collection, result, self.registry);
        let mut warnings = Vec::new();
        for cm in &matching.columns {
            for name in &cm.partial {
                warnings.push(format!(
                    "column {} only partially matches the context list of {:?}; \
                     check the chosen contexts",
                    cm.column, name
                ));
            }
        }

        // Augmentation of the fact/dimension sets.
        let mut final_facts = matching.facts.clone();
        let mut final_dimensions = matching.dimensions.clone();
        for name in &options.add {
            match self.registry.get(name) {
                Some(def) => match def.role {
                    SchemaRole::Fact => {
                        if !final_facts.contains(name) {
                            final_facts.push(name.clone());
                        }
                    }
                    SchemaRole::Dimension => {
                        if !final_dimensions.contains(name) {
                            final_dimensions.push(name.clone());
                        }
                    }
                },
                None => warnings.push(format!("unknown fact/dimension {name:?} requested")),
            }
        }
        final_facts.retain(|f| !options.remove.contains(f));
        final_dimensions.retain(|d| !options.remove.contains(d));

        // Extraction.
        let mut fact_tables = Vec::new();
        for fact_name in &final_facts {
            let Some(def) = self.registry.get(fact_name) else { continue };
            match self.extract_fact_table(result, &matching, def, &mut warnings) {
                Some(table) => fact_tables.push(table),
                None => warnings.push(format!("no instances found for fact {fact_name:?}")),
            }
        }

        // Dimension tables: each dimension column of a fact table is one —
        // the column's dictionary, or the union of the dictionaries of the
        // tables sharing it — and each final dimension no fact table has as
        // a column comes from the result columns matched to it.
        let mut dimension_tables: Vec<DimensionTable> = Vec::new();
        for table in &fact_tables {
            for (column, name) in table.dimension_columns().iter().enumerate() {
                let values = table.column_values(column);
                match dimension_tables.iter_mut().find(|d| d.name == *name) {
                    Some(existing) => existing.values = union(&[&existing.values, values]),
                    None => dimension_tables
                        .push(DimensionTable { name: name.clone(), values: values.to_vec() }),
                }
            }
        }
        for dim_name in &final_dimensions {
            if dimension_tables.iter().any(|d| d.name == *dim_name) {
                continue;
            }
            if let Some(values) = self.dimension_values_from_result(result, &matching, dim_name) {
                dimension_tables.push(DimensionTable { name: dim_name.clone(), values });
            }
        }

        let fact_tables = merge_fact_tables(fact_tables);

        StarSchemaBuild {
            matching,
            final_facts,
            final_dimensions,
            schema: StarSchema { fact_tables, dimension_tables },
            warnings,
        }
    }

    /// Fact instances for a fact definition: nodes of the result column
    /// matched to the fact, or — for user-added facts with no matching
    /// column — every instance of the fact's contexts in the documents that
    /// appear in the result.
    fn fact_instances(
        &self,
        result: &QueryResultTable,
        matching: &MatchingOutcome,
        def: &SchemaDef,
    ) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = Vec::new();
        let matched_columns: Vec<usize> = matching
            .columns
            .iter()
            .filter(|cm| cm.matched.contains(&def.name))
            .map(|cm| cm.column)
            .collect();
        if !matched_columns.is_empty() {
            for column in matched_columns {
                nodes.extend(result.column_nodes(column));
            }
        } else {
            let docs: BTreeSet<_> = result.rows().flatten().map(|n| n.doc).collect();
            for path in def.context_paths(self.collection) {
                for node in self.collection.nodes_with_path(path) {
                    if docs.contains(&node.doc) {
                        nodes.push(node);
                    }
                }
            }
        }
        nodes.sort();
        nodes.dedup();
        nodes
    }

    /// Column name for a key part: the name of the dimension whose context
    /// covers the context this part resolves to — an absolute part's path, a
    /// relative part's first node reached (`reached`) — falling back to that
    /// context, or to the expression when a relative part reaches nothing.
    fn dimension_name_for_key_part(&self, part: &KeyPart, reached: Option<NodeId>) -> String {
        let context = match part {
            KeyPart::Absolute(expr) => Some(expr.clone()),
            KeyPart::Relative(_) => {
                reached.and_then(|node| self.collection.context_string(node).ok())
            }
        };
        if let Some(context) = context {
            for def in self.registry.dimensions() {
                if def.contexts.iter().any(|c| c.context == context) {
                    return def.name.clone();
                }
            }
            return context;
        }
        part.expression().to_string()
    }

    /// The fact table of `def` over its instances, each keyed by the key of
    /// its own context.  The table's dimension columns are those the first
    /// instance's key names; an instance whose key names other columns is
    /// left out, with a warning naming both contexts.
    fn extract_fact_table(
        &self,
        result: &QueryResultTable,
        matching: &MatchingOutcome,
        def: &'a SchemaDef,
        warnings: &mut Vec<String>,
    ) -> Option<FactTable> {
        let instances = self.fact_instances(result, matching, def);
        let first_context = self.collection.context(*instances.first()?).ok()?;
        let collection = self.collection;
        // Per context met so far: its compiled key, or `None` when the key
        // names other dimension columns than the first context's.
        let mut keys: Vec<(PathId, Option<CompiledKey<'a>>)> = Vec::new();
        let mut dimension_columns: Vec<String> = Vec::new();
        // One dictionary per dimension column, then the measure's.
        let mut columns: Vec<Dictionary<'a>> = Vec::new();
        let mut codes = Vec::new();
        // The instances are sorted by node id, so they arrive document by
        // document — what the compiled keys' per-document memory wants.
        for &node in &instances {
            let Ok(context) = collection.context(node) else {
                let violation =
                    KeyViolation::MissingComponent { expression: "<document>".into(), node };
                warnings.push(format!(
                    "key violation while extracting fact {:?}: {violation:?}",
                    def.name
                ));
                continue;
            };
            let slot = match keys.iter().position(|(seen, _)| *seen == context) {
                Some(slot) => slot,
                None => {
                    let key: &RelativeKey = def
                        .key_for_context(collection, context)
                        .or_else(|| def.contexts.first().map(|c| &c.key))?;
                    let mut compiled = key.compile(collection);
                    let names: Vec<String> = key
                        .parts()
                        .iter()
                        .enumerate()
                        .map(|(i, part)| {
                            self.dimension_name_for_key_part(part, compiled.first_reached(i, node))
                        })
                        .collect();
                    let joins = keys.is_empty() || names == dimension_columns;
                    if keys.is_empty() {
                        dimension_columns = names;
                        columns = key.dictionaries();
                        columns.push(Dictionary::default());
                    } else if !joins {
                        warnings.push(format!(
                            "fact {:?}: the key of context {:?} names the columns {names:?}, \
                             not the {dimension_columns:?} of context {:?}; its instances \
                             are left out",
                            def.name,
                            collection.path_string(context),
                            collection.path_string(first_context),
                        ));
                    }
                    keys.push((context, joins.then_some(compiled)));
                    keys.len() - 1
                }
            };
            let Some(compiled) = &mut keys[slot].1 else { continue };
            let (dimensions, measure) = columns.split_at_mut(dimension_columns.len());
            match compiled.encode(node, dimensions, &mut codes) {
                Ok(()) => {
                    let content = collection.document(node.doc).map(|d| d.content_cow(node.node));
                    codes.push(measure[0].intern(content.unwrap_or_default()));
                }
                Err(violation) => warnings.push(format!(
                    "key violation while extracting fact {:?}: {violation:?}",
                    def.name
                )),
            }
        }
        if codes.is_empty() {
            return None;
        }
        let dictionaries = columns.into_iter().map(Dictionary::into_values).collect();
        let measure_columns = vec![def.name.clone()];
        let mut table = FactTable::from_codes(
            def.name.clone(),
            dimension_columns,
            measure_columns,
            dictionaries,
            codes,
        );
        table.sort_dedup();
        Some(table)
    }

    fn dimension_values_from_result(
        &self,
        result: &QueryResultTable,
        matching: &MatchingOutcome,
        dim_name: &str,
    ) -> Option<Vec<String>> {
        let columns: Vec<usize> = matching
            .columns
            .iter()
            .filter(|cm| cm.matched.contains(&dim_name.to_string()))
            .map(|cm| cm.column)
            .collect();
        if columns.is_empty() {
            return None;
        }
        let mut values = Vec::new();
        for column in columns {
            for node in result.column_nodes(column) {
                values.push(self.collection.content(node).unwrap_or_default());
            }
        }
        values.sort();
        values.dedup();
        Some(values)
    }
}

/// Merges fact tables that share the same dimension columns ("as an
/// optimization, we merge fact tables if they have the same keys"): rows with
/// identical dimension values are combined, measures become additional
/// columns; missing measures are left empty, and of two rows of one table
/// with the same dimension values the later one wins.  The dimension
/// dictionaries are united and the rows merged on their codes.
pub fn merge_fact_tables(tables: Vec<FactTable>) -> Vec<FactTable> {
    let mut by_key: BTreeMap<Vec<String>, Vec<FactTable>> = BTreeMap::new();
    for t in tables {
        by_key.entry(t.dimension_columns().to_vec()).or_default().push(t);
    }
    let mut out = Vec::new();
    for (dimension_columns, group) in by_key {
        if group.len() == 1 {
            out.extend(group);
            continue;
        }
        let dimensions = dimension_columns.len();
        let name = group.iter().map(|t| t.name.as_str()).collect::<Vec<_>>().join("+");
        let measure_columns: Vec<String> =
            group.iter().flat_map(|t| t.measure_columns().iter().cloned()).collect();
        let mut dictionaries: Vec<Vec<String>> = (0..dimensions)
            .map(|c| union(&group.iter().map(|t| t.column_values(c)).collect::<Vec<_>>()))
            .collect();

        // Every row of every table by its dimension codes in the united
        // dictionaries, each table's codes translated once per dictionary
        // entry.
        let mut keys: Vec<u32> = Vec::new();
        // Each row, with the merged column of its table's first measure.
        let mut sources: Vec<(usize, &[u32])> = Vec::new();
        let mut first_measure = 0;
        for table in &group {
            let translated: Vec<Vec<u32>> = (0..dimensions)
                .map(|c| {
                    let united = &dictionaries[c];
                    let position = |v: &String| united.binary_search(v).map_or(0, |i| i as u32);
                    table.column_values(c).iter().map(position).collect()
                })
                .collect();
            for row in table.code_rows() {
                keys.extend(translated.iter().zip(row).map(|(to, &code)| to[code as usize]));
                sources.push((first_measure, row));
            }
            first_measure += table.measure_columns().len();
        }
        let key = |entry: usize| &keys[entry * dimensions..][..dimensions];
        // A stable sort: within a run of equal keys, tables and rows keep
        // their order, so the later row wins.
        let mut order: Vec<usize> = (0..sources.len()).collect();
        order.sort_by(|&a, &b| key(a).cmp(key(b)));

        // Each measure column keeps its table's dictionary, led by `""` (code
        // 0) for the rows the table has no value for.
        for table in &group {
            for c in dimensions..table.width() {
                let values = table.column_values(c).iter().cloned();
                dictionaries.push(std::iter::once(String::new()).chain(values).collect());
            }
        }
        let mut codes = Vec::with_capacity(order.len() * (dimensions + measure_columns.len()));
        for run in order.chunk_by(|&a, &b| key(a) == key(b)) {
            codes.extend_from_slice(key(run[0]));
            let start = codes.len();
            codes.resize(start + measure_columns.len(), 0);
            for &entry in run {
                let (first, row) = sources[entry];
                for (m, &code) in row[dimensions..].iter().enumerate() {
                    codes[start + first + m] = code + 1;
                }
            }
        }
        out.push(FactTable::from_codes(
            name,
            dimension_columns,
            measure_columns,
            dictionaries,
            codes,
        ));
    }
    out
}

/// The sorted union of sorted lists of distinct values.
fn union(lists: &[&[String]]) -> Vec<String> {
    let united: BTreeSet<&String> = lists.iter().flat_map(|list| list.iter()).collect();
    united.into_iter().cloned().collect()
}

/// Defines a new fact or dimension from a result column, verifying the key
/// ("the system automatically verifies the keys … and checking their
/// uniqueness").  On success the definition can be added to the registry.
pub fn define_from_column(
    collection: &Collection,
    result: &QueryResultTable,
    column: usize,
    name: &str,
    role: SchemaRole,
    key: RelativeKey,
) -> Result<SchemaDef, Vec<KeyViolation>> {
    let nodes = result.column_nodes(column);
    let violations = key.verify(collection, &nodes);
    if !violations.is_empty() {
        return Err(violations);
    }
    let contexts = result
        .column_paths(collection, column)
        .into_iter()
        .map(|p| crate::schema::ContextEntry::new(collection.path_string(p), key.clone()))
        .collect();
    Ok(match role {
        SchemaRole::Fact => SchemaDef::fact(name, contexts),
        SchemaRole::Dimension => SchemaDef::dimension(name, contexts),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ContextEntry;
    use seda_xmlstore::parse_collection;

    /// Two US documents (2004, 2005) with the Figure 3(c) import partners.
    fn us_collection() -> Collection {
        parse_collection(vec![
            (
                "us2004.xml",
                r#"<country><name>United States</name><year>2004</year>
                     <economy><GDP>11.6T</GDP><import_partners>
                       <item><trade_country>China</trade_country><percentage>12.5</percentage></item>
                       <item><trade_country>Mexico</trade_country><percentage>10.7</percentage></item>
                     </import_partners></economy></country>"#,
            ),
            (
                "us2005.xml",
                r#"<country><name>United States</name><year>2005</year>
                     <economy><GDP_ppp>12.0T</GDP_ppp><import_partners>
                       <item><trade_country>China</trade_country><percentage>13.8</percentage></item>
                       <item><trade_country>Mexico</trade_country><percentage>10.3</percentage></item>
                     </import_partners></economy></country>"#,
            ),
        ])
        .unwrap()
    }

    /// Builds the R(q) of Query 1 over the two US documents: one row per
    /// (name, trade_country, percentage) triple within the same item.
    fn query1_result(c: &Collection) -> QueryResultTable {
        let name_path = c.paths().get_str(c.symbols(), "/country/name").unwrap();
        let tc_path = c
            .paths()
            .get_str(c.symbols(), "/country/economy/import_partners/item/trade_country")
            .unwrap();
        let pct_path = c
            .paths()
            .get_str(c.symbols(), "/country/economy/import_partners/item/percentage")
            .unwrap();
        let mut table = QueryResultTable::new(vec![
            "united states".into(),
            "trade_country".into(),
            "percentage".into(),
        ]);
        for doc in c.documents() {
            let name = doc.nodes_with_path(name_path)[0];
            for tc in doc.nodes_with_path(tc_path) {
                let item = doc.parent(tc).unwrap();
                let pct = *doc
                    .children(item)
                    .iter()
                    .find(|&&ch| doc.node_unchecked(ch).path == pct_path)
                    .unwrap();
                table.push_row(&[
                    NodeId::new(doc.id, name),
                    NodeId::new(doc.id, tc),
                    NodeId::new(doc.id, pct),
                ]);
            }
        }
        table
    }

    #[test]
    fn matching_identifies_figure_3_facts_and_dimensions() {
        let c = us_collection();
        let registry = Registry::factbook_defaults();
        let result = query1_result(&c);
        let matching = match_result(&c, &result, &registry);
        assert!(matching.dimensions.contains(&"country".to_string()));
        assert!(matching.dimensions.contains(&"import-country".to_string()));
        assert!(matching.facts.contains(&"import-trade-percentage".to_string()));
        assert_eq!(matching.columns.len(), 3);
        assert!(matching.columns[0].matched.contains(&"country".to_string()));
    }

    #[test]
    fn extraction_reproduces_the_figure_3_fact_table() {
        let c = us_collection();
        let registry = Registry::factbook_defaults();
        let result = query1_result(&c);
        let build = StarSchemaBuilder::new(&c, &registry).build(&result, &BuildOptions::default());
        let fact = build.schema.fact("import-trade-percentage").expect("fact table exists");
        // Columns: country, year, import-country — year added automatically
        // because it is part of the fact's key even though it was not queried.
        assert_eq!(fact.dimension_columns(), ["country", "year", "import-country"]);
        assert_eq!(fact.len(), 4);
        assert!(fact.dimensions_form_key(), "year augmentation restores the primary key");
        let rendered: Vec<[&str; 4]> = fact
            .rows()
            .map(|r| [r.dimension(0), r.dimension(1), r.dimension(2), r.measure(0)])
            .collect();
        assert!(rendered.contains(&["United States", "2004", "China", "12.5"]));
        assert!(rendered.contains(&["United States", "2005", "Mexico", "10.3"]));
        // Dimension tables exist for every fact-table dimension column.
        for dim in fact.dimension_columns() {
            assert!(build.schema.dimension(dim).is_some(), "missing dimension table {dim}");
        }
        assert_eq!(
            build.schema.dimension("import-country").unwrap().values,
            vec!["China", "Mexico"]
        );
    }

    #[test]
    fn augmentation_adds_and_removes_definitions() {
        let c = us_collection();
        let registry = Registry::factbook_defaults();
        let result = query1_result(&c);
        let builder = StarSchemaBuilder::new(&c, &registry);
        // Add the GDP fact even though no column matched it; remove the
        // percentage fact.
        let build = builder.build(
            &result,
            &BuildOptions {
                add: vec!["GDP".into()],
                remove: vec!["import-trade-percentage".into()],
            },
        );
        assert!(build.final_facts.contains(&"GDP".to_string()));
        assert!(!build.final_facts.contains(&"import-trade-percentage".to_string()));
        let gdp = build.schema.fact("GDP").expect("GDP fact table");
        assert_eq!(gdp.len(), 2, "one GDP value per US document, across both spellings");
        assert!(build.schema.fact("import-trade-percentage").is_none());
    }

    #[test]
    fn unknown_additions_produce_warnings() {
        let c = us_collection();
        let registry = Registry::factbook_defaults();
        let result = query1_result(&c);
        let build = StarSchemaBuilder::new(&c, &registry)
            .build(&result, &BuildOptions { add: vec!["no-such-def".into()], remove: vec![] });
        assert!(build.warnings.iter().any(|w| w.contains("no-such-def")));
    }

    #[test]
    fn merge_fact_tables_combines_same_key_tables() {
        let key = ["country", "year"];
        let a = FactTable::from_rows("gdp", &key, &["gdp"], [["US", "2004", "11.6"]]);
        let b = FactTable::from_rows("population", &key, &["population"], [["US", "2004", "293M"]]);
        let merged = merge_fact_tables(vec![a, b]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].name, "gdp+population");
        assert_eq!(merged[0].measure_columns(), ["gdp", "population"]);
        assert_eq!(merged[0].row(0).unwrap().measures().collect::<Vec<_>>(), ["11.6", "293M"]);
        // Tables with different keys stay separate.
        let no_rows: [[&str; 2]; 0] = [];
        let c = FactTable::from_rows("pct", &["country"], &["pct"], no_rows);
        let d = FactTable::from_rows("gdp", &key, &["gdp"], [["US", "2004", "11.6"]]);
        assert_eq!(merge_fact_tables(vec![c, d]).len(), 2);
    }

    #[test]
    fn merging_unites_dictionaries_and_leaves_missing_measures_empty() {
        let a = FactTable::from_rows(
            "gdp",
            &["country"],
            &["gdp"],
            [["US", "11.6"], ["Mexico", "1.0"], ["Mexico", "1.1"]],
        );
        let b =
            FactTable::from_rows("pop", &["country"], &["pop"], [["China", ""], ["US", "293M"]]);
        let merged = merge_fact_tables(vec![a, b]);
        let rows: Vec<Vec<&str>> =
            merged[0].rows().map(|r| r.dimensions().chain(r.measures()).collect()).collect();
        // Rows in dimension order; Mexico's later row wins; a table without a
        // row for a key leaves its measure empty, as does an empty value.
        assert_eq!(
            rows,
            [vec!["China", "", ""], vec!["Mexico", "1.1", ""], vec!["US", "11.6", "293M"]]
        );
        assert_eq!(merged[0].column_values(0), ["China", "Mexico", "US"]);
        // The overwritten "1.0" is gone from the dictionary.
        assert_eq!(merged[0].column_values(1), ["", "1.1", "11.6"]);
        assert_eq!(merged[0].column_values(2), ["", "293M"]);
    }

    /// Two contexts of one fact, each with its own key naming the same
    /// dimension columns: `../k` from `/r/a/v` and `../j` from `/r/b/w` both
    /// reach the `kj` dimension.
    #[test]
    fn every_instance_is_keyed_by_its_own_contexts_key() {
        let c = parse_collection(vec![(
            "r.xml",
            "<r><name>R</name><a><k>K1</k><v>1</v></a><b><j>J2</j><w>2</w></b></r>",
        )])
        .unwrap();
        let mut registry = Registry::new();
        registry.add(SchemaDef::dimension(
            "kj",
            vec![
                ContextEntry::new("/r/a/k", RelativeKey::parse(&["/r/name", "."])),
                ContextEntry::new("/r/b/j", RelativeKey::parse(&["/r/name", "."])),
            ],
        ));
        registry.add(SchemaDef::fact(
            "m",
            vec![
                ContextEntry::new("/r/a/v", RelativeKey::parse(&["/r/name", "../k"])),
                ContextEntry::new("/r/b/w", RelativeKey::parse(&["/r/name", "../j"])),
            ],
        ));
        let mut result = QueryResultTable::new(vec!["m".into()]);
        for path in ["/r/a/v", "/r/b/w"] {
            let path = c.paths().get_str(c.symbols(), path).unwrap();
            result.push_row(&[c.nodes_with_path(path)[0]]);
        }
        let build = StarSchemaBuilder::new(&c, &registry).build(&result, &BuildOptions::default());
        assert!(build.warnings.is_empty(), "{:?}", build.warnings);
        let fact = build.schema.fact("m").unwrap();
        assert_eq!(fact.dimension_columns(), ["/r/name", "kj"]);
        let rows: Vec<Vec<&str>> =
            fact.rows().map(|r| r.dimensions().chain(r.measures()).collect()).collect();
        assert_eq!(rows, [vec!["R", "J2", "2"], vec!["R", "K1", "1"]]);

        // A context whose key names other columns is left out, named.
        registry.add(SchemaDef::fact(
            "m",
            vec![
                ContextEntry::new("/r/a/v", RelativeKey::parse(&["/r/name", "../k"])),
                ContextEntry::new("/r/b/w", RelativeKey::parse(&["/r/name"])),
            ],
        ));
        let build = StarSchemaBuilder::new(&c, &registry).build(&result, &BuildOptions::default());
        assert_eq!(build.schema.fact("m").unwrap().len(), 1);
        assert_eq!(build.warnings.len(), 1, "{:?}", build.warnings);
        assert!(
            build.warnings[0].contains("\"/r/b/w\"") && build.warnings[0].contains("\"/r/a/v\"")
        );
    }

    #[test]
    fn define_from_column_verifies_keys() {
        let c = us_collection();
        let result = query1_result(&c);
        // A good key for the percentage column.
        let good = RelativeKey::parse(&["/country/name", "/country/year", "../trade_country"]);
        let def = define_from_column(&c, &result, 2, "pct", SchemaRole::Fact, good).unwrap();
        assert_eq!(def.role, SchemaRole::Fact);
        assert_eq!(def.contexts.len(), 1);
        // A key that is not unique is rejected.
        let bad = RelativeKey::parse(&["/country/name"]);
        assert!(define_from_column(&c, &result, 2, "pct", SchemaRole::Fact, bad).is_err());
    }

    #[test]
    fn empty_result_produces_empty_schema() {
        let c = us_collection();
        let registry = Registry::factbook_defaults();
        let empty = QueryResultTable::new(vec!["a".into()]);
        let build = StarSchemaBuilder::new(&c, &registry).build(&empty, &BuildOptions::default());
        assert!(build.schema.fact_tables.is_empty());
        assert!(build.matching.facts.is_empty());
    }
}
