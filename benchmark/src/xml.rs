//! Serialises a generated [`Collection`] to XML text, so that set-up measures
//! real XML ingest and the program only ever sees generated text.

use seda_xmlstore::{Collection, Document, NodeKind};

/// One XML document as text: `(uri, xml)`.
pub type XmlSource = (String, String);

/// Serialises every document of `collection`, in document order.
pub fn serialize(collection: &Collection) -> Vec<XmlSource> {
    collection
        .documents()
        .map(|doc| {
            let mut xml = String::with_capacity(doc.len() * 32);
            write_element(collection, doc, doc.root(), &mut xml);
            (doc.uri.clone(), xml)
        })
        .collect()
}

/// Total size of the XML text in bytes.
pub fn total_bytes(sources: &[XmlSource]) -> usize {
    sources.iter().map(|(_, xml)| xml.len()).sum()
}

/// The sources as the `(&str, &str)` pairs the program's ingest entry points
/// take.
pub fn as_pairs(sources: &[XmlSource]) -> impl Iterator<Item = (&str, &str)> + '_ {
    sources.iter().map(|(uri, xml)| (uri.as_str(), xml.as_str()))
}

fn write_element(collection: &Collection, doc: &Document, ordinal: u32, out: &mut String) {
    let node = doc.node_unchecked(ordinal);
    let name = collection.symbols().resolve(node.name);
    out.push('<');
    out.push_str(name);
    // Attributes are stored as child nodes; a generator may add one after a
    // sub-element, so collect them from the whole child list.
    for &child in &node.children {
        let attr = doc.node_unchecked(child);
        if attr.kind == NodeKind::Attribute {
            out.push(' ');
            out.push_str(collection.symbols().resolve(attr.name));
            out.push_str("=\"");
            escape_into(attr.text.as_deref().unwrap_or(""), true, out);
            out.push('"');
        }
    }
    let text = node.text.as_deref().unwrap_or("");
    let has_elements =
        node.children.iter().any(|&c| doc.node_unchecked(c).kind == NodeKind::Element);
    if text.is_empty() && !has_elements {
        out.push_str("/>");
        return;
    }
    out.push('>');
    escape_into(text, false, out);
    for &child in &node.children {
        if doc.node_unchecked(child).kind == NodeKind::Element {
            write_element(collection, doc, child, out);
        }
    }
    out.push_str("</");
    out.push_str(name);
    out.push('>');
}

/// Appends `text` with the XML special characters replaced by entities.
pub fn escape_into(text: &str, attribute: bool, out: &mut String) {
    for c in text.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' if attribute => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
}

/// Checks that `parsed` (the program's parse of the serialised text) has the
/// shape of `generated`: document count, per-document node count and
/// distinct-path count.
pub fn check_round_trip(generated: &Collection, parsed: &Collection) -> Result<(), String> {
    if generated.len() != parsed.len() {
        return Err(format!(
            "round trip: {} documents generated, {} parsed",
            generated.len(),
            parsed.len()
        ));
    }
    for (a, b) in generated.documents().zip(parsed.documents()) {
        if a.len() != b.len() {
            return Err(format!(
                "round trip: document {} has {} nodes generated, {} parsed",
                a.uri,
                a.len(),
                b.len()
            ));
        }
    }
    if generated.distinct_path_count() != parsed.distinct_path_count() {
        return Err(format!(
            "round trip: {} distinct paths generated, {} parsed",
            generated.distinct_path_count(),
            parsed.distinct_path_count()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use seda_xmlstore::parse_collection;

    fn sample() -> Collection {
        let mut c = Collection::new();
        c.add_document("a.xml", |b| {
            b.start_element("country")?;
            b.attribute("id", "cty-\"1\" & <co>")?;
            b.leaf("name", "Trinidad & Tobago <TT>")?;
            b.start_element("empty")?;
            b.end_element()?;
            b.start_element("economy")?;
            b.text("mixed")?;
            b.leaf("gdp", "1.5")?;
            b.end_element()?;
            // An attribute added after sub-elements still belongs in the tag.
            b.attribute("capital_idref", "city-1")?;
            b.end_element()?;
            Ok(())
        })
        .unwrap();
        c.add_document("b.xml", |b| {
            b.start_element("sea")?;
            b.leaf("name", "Baltic")?;
            b.end_element()?;
            Ok(())
        })
        .unwrap();
        c
    }

    #[test]
    fn serialises_attributes_text_and_escapes() {
        let sources = serialize(&sample());
        assert_eq!(sources[0].0, "a.xml");
        assert_eq!(
            sources[0].1,
            "<country id=\"cty-&quot;1&quot; &amp; &lt;co&gt;\" capital_idref=\"city-1\">\
             <name>Trinidad &amp; Tobago &lt;TT&gt;</name><empty/>\
             <economy>mixed<gdp>1.5</gdp></economy></country>"
        );
        assert_eq!(total_bytes(&sources), sources[0].1.len() + sources[1].1.len());
    }

    #[test]
    fn round_trip_through_the_programs_parser_preserves_shape_and_content() {
        let generated = sample();
        let sources = serialize(&generated);
        let parsed = parse_collection(as_pairs(&sources)).unwrap();
        check_round_trip(&generated, &parsed).unwrap();
        let doc = parsed.documents().next().unwrap();
        let texts: Vec<String> = doc.iter().filter_map(|(_, n)| n.text.clone()).collect();
        assert!(texts.contains(&"cty-\"1\" & <co>".to_string()));
        assert!(texts.contains(&"Trinidad & Tobago <TT>".to_string()));
    }

    #[test]
    fn round_trip_check_reports_each_kind_of_mismatch() {
        let generated = sample();
        let one = parse_collection(vec![("a.xml", "<country/>")]).unwrap();
        assert!(check_round_trip(&generated, &one).unwrap_err().contains("documents"));
        let fewer_nodes =
            parse_collection(vec![("a.xml", "<country/>"), ("b.xml", "<sea/>")]).unwrap();
        assert!(check_round_trip(&generated, &fewer_nodes).unwrap_err().contains("nodes"));
        // Same node counts (7 and 2), other labels.
        let other_paths = parse_collection(vec![
            ("a.xml", "<r><a/><a/><a/><a/><a/><a/></r>"),
            ("b.xml", "<sea><name>x</name></sea>"),
        ])
        .unwrap();
        assert!(check_round_trip(&generated, &other_paths).unwrap_err().contains("paths"));
    }
}
