//! Facts, dimensions and the registry SEDA maintains (Sec. 7).
//!
//! "SEDA maintains a set of facts F and a set of dimensions D known to the
//! system. … The set of facts F is defined as a nested relation with schema
//! `<name, ContextList>` where ContextList has schema `<context, key>`."  The
//! context list may contain several paths because heterogeneous corpora spell
//! the same concept differently (the paper's example: `GDP` before 2005,
//! `GDP_ppp` afterwards).

use seda_xmlstore::{Collection, PathId};

use crate::key::RelativeKey;

/// One `(context, key)` entry of a fact's or dimension's context list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContextEntry {
    /// Root-to-leaf path (in `/a/b/c` notation) where instances of this fact
    /// or dimension are found.
    pub context: String,
    /// Relative key associated with that context.
    pub key: RelativeKey,
}

impl ContextEntry {
    /// Convenience constructor.
    pub fn new(context: impl Into<String>, key: RelativeKey) -> Self {
        ContextEntry { context: context.into(), key }
    }
}

/// Whether a definition denotes a fact (measure) or a dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchemaRole {
    /// A measure to aggregate (e.g. the import trade percentage).
    Fact,
    /// A dimension to group by (e.g. country, year, import country).
    Dimension,
}

/// Definition of one fact or dimension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaDef {
    /// Unique name (e.g. `Import-trade-percentage`, `country`, `year`).
    pub name: String,
    /// Fact vs dimension.
    pub role: SchemaRole,
    /// Context list: every path where instances are found, with its key.
    pub contexts: Vec<ContextEntry>,
}

impl SchemaDef {
    /// Creates a fact definition.
    pub fn fact(name: impl Into<String>, contexts: Vec<ContextEntry>) -> Self {
        SchemaDef { name: name.into(), role: SchemaRole::Fact, contexts }
    }

    /// Creates a dimension definition.
    pub fn dimension(name: impl Into<String>, contexts: Vec<ContextEntry>) -> Self {
        SchemaDef { name: name.into(), role: SchemaRole::Dimension, contexts }
    }

    /// The context paths of this definition resolved against a collection
    /// (unknown paths — contexts that do not occur in the data — are skipped).
    pub(crate) fn context_paths(&self, collection: &Collection) -> Vec<PathId> {
        self.contexts
            .iter()
            .filter_map(|c| collection.paths().get_str(collection.symbols(), &c.context))
            .collect()
    }

    /// The key associated with a specific context path, if any.
    pub(crate) fn key_for_context(
        &self,
        collection: &Collection,
        path: PathId,
    ) -> Option<&RelativeKey> {
        let rendered = collection.path_string(path);
        self.contexts.iter().find(|c| c.context == rendered).map(|c| &c.key)
    }
}

/// The registry of facts and dimensions known to the system.  "These sets are
/// initially provided by a system administrator and are expanded by users
/// during query processing."
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    defs: Vec<SchemaDef>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds a definition; replaces any existing definition with the same name.
    pub fn add(&mut self, def: SchemaDef) {
        self.defs.retain(|d| d.name != def.name);
        self.defs.push(def);
    }

    /// All definitions.
    pub fn defs(&self) -> &[SchemaDef] {
        &self.defs
    }

    /// All dimension definitions.
    pub fn dimensions(&self) -> impl Iterator<Item = &SchemaDef> {
        self.defs.iter().filter(|d| d.role == SchemaRole::Dimension)
    }

    /// Finds a definition by name.
    pub fn get(&self, name: &str) -> Option<&SchemaDef> {
        self.defs.iter().find(|d| d.name == name)
    }

    /// Number of definitions.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// True when the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// The registry of Figure 3(b): the `country`, `year` and
    /// `Import-country` dimensions and the `GDP` and
    /// `Import-trade-percentage` facts over the World-Factbook-style schema.
    /// Used by examples, tests and the Query 1 reproduction.
    pub fn factbook_defaults() -> Self {
        let country_key = RelativeKey::parse(&["/country/name", "/country/year"]);
        let mut registry = Registry::new();
        registry.add(SchemaDef::dimension(
            "country",
            vec![ContextEntry::new("/country/name", country_key.clone())],
        ));
        registry.add(SchemaDef::dimension(
            "year",
            vec![ContextEntry::new("/country/year", country_key.clone())],
        ));
        registry.add(SchemaDef::dimension(
            "import-country",
            vec![ContextEntry::new(
                "/country/economy/import_partners/item/trade_country",
                RelativeKey::parse(&["/country/name", "/country/year", "."]),
            )],
        ));
        registry.add(SchemaDef::dimension(
            "export-country",
            vec![ContextEntry::new(
                "/country/economy/export_partners/item/trade_country",
                RelativeKey::parse(&["/country/name", "/country/year", "."]),
            )],
        ));
        registry.add(SchemaDef::fact(
            "GDP",
            vec![
                ContextEntry::new("/country/economy/GDP", country_key.clone()),
                ContextEntry::new("/country/economy/GDP_ppp", country_key),
            ],
        ));
        registry.add(SchemaDef::fact(
            "import-trade-percentage",
            vec![ContextEntry::new(
                "/country/economy/import_partners/item/percentage",
                RelativeKey::parse(&["/country/name", "/country/year", "../trade_country"]),
            )],
        ));
        registry.add(SchemaDef::fact(
            "export-trade-percentage",
            vec![ContextEntry::new(
                "/country/economy/export_partners/item/percentage",
                RelativeKey::parse(&["/country/name", "/country/year", "../trade_country"]),
            )],
        ));
        registry
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_xmlstore::parse_collection;

    #[test]
    fn factbook_defaults_cover_figure_3() {
        let r = Registry::factbook_defaults();
        assert!(r.get("country").is_some());
        assert!(r.get("year").is_some());
        assert!(r.get("import-country").is_some());
        assert!(r.get("import-trade-percentage").is_some());
        let gdp = r.get("GDP").unwrap();
        assert_eq!(gdp.role, SchemaRole::Fact);
        assert_eq!(gdp.contexts.len(), 2, "GDP spans both schema-evolution spellings");
        assert_eq!(r.defs().iter().filter(|d| d.role == SchemaRole::Fact).count(), 3);
        assert_eq!(r.dimensions().count(), 4);
    }

    #[test]
    fn add_replaces_same_name() {
        let mut r = Registry::new();
        r.add(SchemaDef::fact("m", vec![]));
        r.add(SchemaDef::dimension("m", vec![]));
        assert_eq!(r.len(), 1);
        assert_eq!(r.get("m").unwrap().role, SchemaRole::Dimension);
    }

    #[test]
    fn context_paths_skip_unknown_paths() {
        let c = parse_collection(vec![(
            "us.xml",
            "<country><name>US</name><economy><GDP>1</GDP></economy></country>",
        )])
        .unwrap();
        let gdp = Registry::factbook_defaults().get("GDP").cloned().unwrap();
        // Only the GDP spelling occurs in this collection, not GDP_ppp.
        assert_eq!(gdp.context_paths(&c).len(), 1);
    }

    #[test]
    fn key_for_context_finds_the_right_entry() {
        let c = parse_collection(vec![(
            "us.xml",
            r#"<country><name>US</name><year>2006</year>
                 <economy><import_partners><item>
                   <trade_country>China</trade_country><percentage>15</percentage>
                 </item></import_partners></economy></country>"#,
        )])
        .unwrap();
        let reg = Registry::factbook_defaults();
        let fact = reg.get("import-trade-percentage").unwrap();
        let path = c
            .paths()
            .get_str(c.symbols(), "/country/economy/import_partners/item/percentage")
            .unwrap();
        let key = fact.key_for_context(&c, path).unwrap();
        assert_eq!(key.len(), 3);
        assert!(fact.key_for_context(&c, seda_xmlstore::PathId(0)).is_none());
    }
}
