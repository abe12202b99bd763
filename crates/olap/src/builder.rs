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
//!   evaluating the relative keys of every fact instance; fact tables with
//!   identical dimension columns are merged.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use seda_xmlstore::{Collection, NodeId};

use crate::key::{KeyPart, KeyViolation, RelativeKey};
use crate::schema::{Registry, SchemaDef, SchemaRole};
use crate::table::{DimensionTable, FactRow, FactTable, QueryResultTable, StarSchema};

/// How a result column relates to the registry.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BuildOptions {
    /// Names of registry definitions to add to the final sets.
    pub add: Vec<String>,
    /// Names to remove from the final sets.
    pub remove: Vec<String>,
}

/// Result of building a star schema.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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
        let mut dimension_values: Vec<(String, Vec<String>)> = Vec::new();
        for fact_name in &final_facts {
            let Some(def) = self.registry.get(fact_name) else { continue };
            match self.extract_fact_table(result, &matching, def, &mut warnings) {
                Some(table) => {
                    // Record dimension member values.
                    for (i, dim) in table.dimension_columns.iter().enumerate() {
                        dimension_values.push((
                            dim.clone(),
                            table.rows.iter().map(|r| r.dimensions[i].clone()).collect(),
                        ));
                    }
                    fact_tables.push(table);
                }
                None => warnings.push(format!("no instances found for fact {fact_name:?}")),
            }
        }

        // Dimension tables: those referenced by fact tables plus any matched
        // dimension columns of the result itself.
        for dim_name in &final_dimensions {
            if dimension_values.iter().any(|(n, _)| n == dim_name) {
                continue;
            }
            if let Some(values) = self.dimension_values_from_result(result, &matching, dim_name) {
                dimension_values.push((dim_name.clone(), values));
            }
        }
        // Ensure every dimension column of every fact table has a dimension
        // table, and add explicitly requested dimensions.
        let mut dimension_tables: Vec<DimensionTable> = Vec::new();
        for (name, values) in dimension_values {
            match dimension_tables.iter_mut().find(|d| d.name == name) {
                Some(existing) => {
                    let mut merged = existing.values.clone();
                    merged.extend(values);
                    *existing = DimensionTable::from_values(name, merged);
                }
                None => dimension_tables.push(DimensionTable::from_values(name, values)),
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
    /// covers the contexts this part resolves to, falling back to the
    /// expression itself.
    fn dimension_name_for_key_part(&self, part: &KeyPart, sample: Option<NodeId>) -> String {
        let context = match part {
            KeyPart::Absolute(expr) => Some(expr.clone()),
            KeyPart::Relative(expr) => sample.and_then(|node| {
                let document = self.collection.document(node.doc).ok()?;
                let steps = seda_xmlstore::RelativeStep::parse_expr(expr);
                let targets =
                    document.eval_relative_steps(node.node, &steps, self.collection.symbols());
                targets
                    .first()
                    .map(|&t| self.collection.path_string(document.node_unchecked(t).path))
            }),
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

    fn extract_fact_table(
        &self,
        result: &QueryResultTable,
        matching: &MatchingOutcome,
        def: &SchemaDef,
        warnings: &mut Vec<String>,
    ) -> Option<FactTable> {
        let instances = self.fact_instances(result, matching, def);
        if instances.is_empty() {
            return None;
        }
        // Determine the key to use from the first instance's context.
        let first_context = self.collection.context(instances[0]).ok()?;
        let key: &RelativeKey = def
            .key_for_context(self.collection, first_context)
            .or_else(|| def.contexts.first().map(|c| &c.key))?;

        let dimension_columns: Vec<String> = key
            .parts()
            .iter()
            .map(|p| self.dimension_name_for_key_part(p, instances.first().copied()))
            .collect();

        // The instances are sorted by node id, so they arrive document by
        // document — what the compiled key's per-document memory wants.
        let mut compiled = key.compile(self.collection);
        let mut rows = Vec::new();
        for &node in &instances {
            match compiled.evaluate(node) {
                Ok(values) => rows.push(FactRow {
                    dimensions: values,
                    measures: vec![self.collection.content(node).unwrap_or_default()],
                }),
                Err(violation) => warnings.push(format!(
                    "key violation while extracting fact {:?}: {violation:?}",
                    def.name
                )),
            }
        }
        if rows.is_empty() {
            return None;
        }
        rows.sort_by(|a, b| a.dimensions.cmp(&b.dimensions).then(a.measures.cmp(&b.measures)));
        rows.dedup();
        Some(FactTable {
            name: def.name.clone(),
            dimension_columns,
            measure_columns: vec![def.name.clone()],
            rows,
        })
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
        Some(values)
    }
}

/// Merges fact tables that share the same dimension columns ("as an
/// optimization, we merge fact tables if they have the same keys"): rows with
/// identical dimension values are combined, measures become additional
/// columns; missing measures are left empty.
pub fn merge_fact_tables(tables: Vec<FactTable>) -> Vec<FactTable> {
    use std::collections::BTreeMap;
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
            for row in &table.rows {
                let entry = rows_by_dims
                    .entry(row.dimensions.clone())
                    .or_insert_with(|| vec![String::new(); measure_columns.len()]);
                for (i, m) in row.measures.iter().enumerate() {
                    entry[offset + i] = m.clone();
                }
            }
            offset += table.measure_columns.len();
        }
        let rows = rows_by_dims
            .into_iter()
            .map(|(dimensions, measures)| FactRow { dimensions, measures })
            .collect();
        out.push(FactTable { name, dimension_columns: dims, measure_columns, rows });
    }
    out
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
        assert_eq!(fact.dimension_columns, vec!["country", "year", "import-country"]);
        assert_eq!(fact.len(), 4);
        assert!(fact.dimensions_form_key(), "year augmentation restores the primary key");
        let rendered: Vec<(String, String, String, String)> = fact
            .rows
            .iter()
            .map(|r| {
                (
                    r.dimensions[0].clone(),
                    r.dimensions[1].clone(),
                    r.dimensions[2].clone(),
                    r.measures[0].clone(),
                )
            })
            .collect();
        assert!(rendered.contains(&(
            "United States".into(),
            "2004".into(),
            "China".into(),
            "12.5".into()
        )));
        assert!(rendered.contains(&(
            "United States".into(),
            "2005".into(),
            "Mexico".into(),
            "10.3".into()
        )));
        // Dimension tables exist for every fact-table dimension column.
        for dim in &fact.dimension_columns {
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
        let a = FactTable {
            name: "gdp".into(),
            dimension_columns: vec!["country".into(), "year".into()],
            measure_columns: vec!["gdp".into()],
            rows: vec![FactRow {
                dimensions: vec!["US".into(), "2004".into()],
                measures: vec!["11.6".into()],
            }],
        };
        let b = FactTable {
            name: "population".into(),
            dimension_columns: vec!["country".into(), "year".into()],
            measure_columns: vec!["population".into()],
            rows: vec![FactRow {
                dimensions: vec!["US".into(), "2004".into()],
                measures: vec!["293M".into()],
            }],
        };
        let merged = merge_fact_tables(vec![a, b]);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].measure_columns, vec!["gdp", "population"]);
        assert_eq!(merged[0].rows[0].measures, vec!["11.6", "293M"]);
        // Tables with different keys stay separate.
        let c = FactTable {
            name: "pct".into(),
            dimension_columns: vec!["country".into()],
            measure_columns: vec!["pct".into()],
            rows: vec![],
        };
        let d = FactTable {
            name: "gdp".into(),
            dimension_columns: vec!["country".into(), "year".into()],
            measure_columns: vec!["gdp".into()],
            rows: vec![],
        };
        assert_eq!(merge_fact_tables(vec![c, d]).len(), 2);
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
