//! Configuration of data-graph construction.
//!
//! Definition 2 of the paper lists four relationships between data nodes:
//! parent/child, IDREF, XLink/XPointer, and value-based (primary-key /
//! foreign-key) relationships.  Parent/child edges come from the documents
//! themselves; the other three need to be *discovered*.  Which attributes
//! carry IDs and which carry references is fixed by naming convention (the
//! lists below); which path pairs are related by value is the one setting
//! ("we assume that instances of the last type of relationship are provided
//! as input into the system").

/// A value-based relationship specification: nodes whose context is
/// `foreign_path` are linked to nodes whose context is `primary_path` when
/// their contents are equal (primary-key / foreign-key semantics).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValueKeySpec {
    /// Context (root-to-leaf path, `/a/b/c` notation) of the primary-key side.
    pub primary_path: String,
    /// Context of the foreign-key side.
    pub foreign_path: String,
}

impl ValueKeySpec {
    /// Convenience constructor.
    pub fn new(primary_path: impl Into<String>, foreign_path: impl Into<String>) -> Self {
        ValueKeySpec { primary_path: primary_path.into(), foreign_path: foreign_path.into() }
    }
}

/// Attribute names treated as element identifiers (ID attributes).
const ID_ATTRIBUTES: &[&str] = &["id", "ID"];

/// Attribute names treated as IDREF references, besides every name ending in
/// `_idref` (the convention of the Mondial-like generator).
const IDREF_ATTRIBUTES: &[&str] = &["idref", "IDREF", "ref"];

/// Attribute names treated as XLink/XPointer references.  Their values are
/// resolved against ID values, like IDREFs (a `#fragment` names the ID), but
/// the resulting edges are tagged [`crate::EdgeKind::XLink`].
const XLINK_ATTRIBUTES: &[&str] = &["xlink:href", "href"];

/// Configuration for [`crate::DataGraph::build`]: the value-based
/// relationships to materialise.  The attribute conventions are fixed: `id`
/// and `ID` define IDs; `idref`, `IDREF`, `ref` and every name ending in
/// `_idref` are IDREFs; `xlink:href` and `href` are XLinks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GraphConfig {
    /// Value-based relationships to materialise.
    pub value_keys: Vec<ValueKeySpec>,
}

impl GraphConfig {
    /// Default configuration plus the given value-based key specs.
    pub fn with_value_keys(value_keys: Vec<ValueKeySpec>) -> Self {
        GraphConfig { value_keys }
    }
}

/// True when the attribute name denotes an ID attribute.
pub(crate) fn is_id_attribute(name: &str) -> bool {
    ID_ATTRIBUTES.contains(&name)
}

/// True when the attribute name denotes an IDREF attribute.
pub(crate) fn is_idref_attribute(name: &str) -> bool {
    name.ends_with("_idref") || IDREF_ATTRIBUTES.contains(&name)
}

/// True when the attribute name denotes an XLink/XPointer reference.
pub(crate) fn is_xlink_attribute(name: &str) -> bool {
    XLINK_ATTRIBUTES.contains(&name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_attribute_names_are_recognised() {
        assert!(is_id_attribute("id"));
        assert!(!is_id_attribute("name"));
        assert!(is_idref_attribute("idref"));
        assert!(is_idref_attribute("country_idref"), "suffix convention");
        assert!(!is_idref_attribute("country"));
        assert!(is_xlink_attribute("href"));
    }

    #[test]
    fn value_key_specs_are_plain_data() {
        let spec = ValueKeySpec::new("/country/name", "/sea/bordering_country");
        assert_eq!(spec.primary_path, "/country/name");
        let config = GraphConfig::with_value_keys(vec![spec.clone()]);
        assert_eq!(config.value_keys, vec![spec]);
    }
}
