//! Parsing XML text into the store.
//!
//! The parser is a small hand-rolled scanner (the build environment has no
//! crates.io access, so `quick-xml` is not available): it handles elements,
//! attributes, self-closing tags, character data, CDATA sections, comments,
//! processing instructions, DOCTYPE declarations and the five predefined
//! entities plus numeric character references.  End tags are checked against
//! the open-element stack, so unbalanced documents are rejected.

use crate::collection::Collection;
use crate::error::{Result, XmlStoreError};
use crate::node::DocId;

/// Parses a single XML document from text and inserts it into the collection.
///
/// Namespaces are not expanded: SEDA's contexts and query terms operate on the
/// literal tag names that appear in the data, so prefixed names are kept
/// verbatim.  Comments, processing instructions and the XML declaration are
/// skipped; CDATA is treated as text.
pub fn parse_into(collection: &mut Collection, uri: &str, xml: &str) -> Result<DocId> {
    collection.add_document(uri, |builder| {
        let mut scanner = Scanner::new(xml);
        let mut open_tags: Vec<String> = Vec::new();
        let mut saw_root = false;

        while let Some(event) = scanner.next_event()? {
            match event {
                Event::Start { name, attributes, self_closing } => {
                    if saw_root && open_tags.is_empty() {
                        return Err(XmlStoreError::Parse(format!(
                            "second root element {name:?} in document {uri}"
                        )));
                    }
                    builder.start_element(&name)?;
                    saw_root = true;
                    for (key, value) in attributes {
                        builder.attribute(&key, &value)?;
                    }
                    if self_closing {
                        builder.end_element()?;
                    } else {
                        open_tags.push(name);
                    }
                }
                Event::End { name } => {
                    let Some(open) = open_tags.pop() else {
                        return Err(XmlStoreError::Parse(format!(
                            "closing tag </{name}> without matching opening tag"
                        )));
                    };
                    if open != name {
                        return Err(XmlStoreError::Parse(format!(
                            "closing tag </{name}> does not match open element <{open}>"
                        )));
                    }
                    builder.end_element()?;
                }
                Event::Text(value) => {
                    let trimmed = value.trim();
                    if !trimmed.is_empty() {
                        if open_tags.is_empty() {
                            return Err(XmlStoreError::Parse(format!(
                                "text content {trimmed:?} outside the root element"
                            )));
                        }
                        builder.text(trimmed)?;
                    }
                }
            }
        }

        if !saw_root {
            return Err(XmlStoreError::EmptyDocument);
        }
        if let Some(open) = open_tags.last() {
            return Err(XmlStoreError::Parse(format!(
                "unbalanced element tags: <{open}> never closed"
            )));
        }
        Ok(())
    })
}

/// Parses many XML documents (uri, text) into a fresh collection.
pub fn parse_collection<'a, I>(documents: I) -> Result<Collection>
where
    I: IntoIterator<Item = (&'a str, &'a str)>,
{
    let mut collection = Collection::new();
    for (uri, xml) in documents {
        parse_into(&mut collection, uri, xml)?;
    }
    Ok(collection)
}

/// One markup event produced by the scanner.
enum Event {
    Start { name: String, attributes: Vec<(String, String)>, self_closing: bool },
    End { name: String },
    Text(String),
}

/// Byte-level XML scanner over the input text.
struct Scanner<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(text: &'a str) -> Self {
        Scanner { bytes: text.as_bytes(), pos: 0 }
    }

    fn next_event(&mut self) -> Result<Option<Event>> {
        loop {
            if self.pos >= self.bytes.len() {
                return Ok(None);
            }
            if self.bytes[self.pos] != b'<' {
                return self.scan_text().map(Some);
            }
            // Markup: dispatch on what follows '<'.
            match self.bytes.get(self.pos + 1) {
                Some(b'!') if self.starts_with("<!--") => self.skip_until("-->")?,
                Some(b'!') if self.starts_with("<![CDATA[") => {
                    return self.scan_cdata().map(Some);
                }
                Some(b'!') => self.skip_declaration()?,
                Some(b'?') => self.skip_until("?>")?,
                Some(b'/') => return self.scan_end_tag().map(Some),
                Some(_) => return self.scan_start_tag().map(Some),
                None => return Err(XmlStoreError::Parse("dangling '<' at end of input".into())),
            }
        }
    }

    fn starts_with(&self, prefix: &str) -> bool {
        self.bytes[self.pos..].starts_with(prefix.as_bytes())
    }

    fn skip_until(&mut self, terminator: &str) -> Result<()> {
        let t = terminator.as_bytes();
        let mut i = self.pos;
        while i + t.len() <= self.bytes.len() {
            if &self.bytes[i..i + t.len()] == t {
                self.pos = i + t.len();
                return Ok(());
            }
            i += 1;
        }
        Err(XmlStoreError::Parse(format!("unterminated markup, expected {terminator:?}")))
    }

    /// Skips `<!DOCTYPE ...>` (tracking nested `[` internal subsets).
    fn skip_declaration(&mut self) -> Result<()> {
        let mut depth = 0usize;
        let mut i = self.pos;
        while i < self.bytes.len() {
            match self.bytes[i] {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => {
                    self.pos = i + 1;
                    return Ok(());
                }
                _ => {}
            }
            i += 1;
        }
        Err(XmlStoreError::Parse("unterminated <! declaration".into()))
    }

    fn scan_text(&mut self) -> Result<Event> {
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos] != b'<' {
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| XmlStoreError::Parse(e.to_string()))?;
        Ok(Event::Text(unescape(raw)?))
    }

    fn scan_cdata(&mut self) -> Result<Event> {
        let start = self.pos + "<![CDATA[".len();
        self.pos = start;
        self.skip_until("]]>")?;
        let raw = std::str::from_utf8(&self.bytes[start..self.pos - "]]>".len()])
            .map_err(|e| XmlStoreError::Parse(e.to_string()))?;
        Ok(Event::Text(raw.to_string()))
    }

    fn scan_end_tag(&mut self) -> Result<Event> {
        self.pos += 2; // consume "</"
        let name = self.scan_name()?;
        self.skip_whitespace();
        if self.bytes.get(self.pos) != Some(&b'>') {
            return Err(XmlStoreError::Parse(format!("malformed closing tag </{name}")));
        }
        self.pos += 1;
        Ok(Event::End { name })
    }

    fn scan_start_tag(&mut self) -> Result<Event> {
        self.pos += 1; // consume '<'
        let name = self.scan_name()?;
        let mut attributes = Vec::new();
        loop {
            self.skip_whitespace();
            match self.bytes.get(self.pos) {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(Event::Start { name, attributes, self_closing: false });
                }
                Some(b'/') if self.bytes.get(self.pos + 1) == Some(&b'>') => {
                    self.pos += 2;
                    return Ok(Event::Start { name, attributes, self_closing: true });
                }
                Some(_) => attributes.push(self.scan_attribute(&name)?),
                None => {
                    return Err(XmlStoreError::Parse(format!("unterminated opening tag <{name}")));
                }
            }
        }
    }

    fn scan_attribute(&mut self, element: &str) -> Result<(String, String)> {
        let key = self.scan_name()?;
        self.skip_whitespace();
        if self.bytes.get(self.pos) != Some(&b'=') {
            return Err(XmlStoreError::Parse(format!(
                "attribute {key:?} of <{element}> has no value"
            )));
        }
        self.pos += 1;
        self.skip_whitespace();
        let quote = match self.bytes.get(self.pos) {
            Some(&q @ (b'"' | b'\'')) => q,
            _ => {
                return Err(XmlStoreError::Parse(format!(
                    "attribute {key:?} of <{element}> has an unquoted value"
                )));
            }
        };
        self.pos += 1;
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos] != quote {
            self.pos += 1;
        }
        if self.pos >= self.bytes.len() {
            return Err(XmlStoreError::Parse(format!(
                "unterminated value of attribute {key:?} on <{element}>"
            )));
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| XmlStoreError::Parse(e.to_string()))?;
        self.pos += 1; // closing quote
        Ok((key, unescape(raw)?))
    }

    fn scan_name(&mut self) -> Result<String> {
        let start = self.pos;
        while self.pos < self.bytes.len() {
            match self.bytes[self.pos] {
                b' ' | b'\t' | b'\r' | b'\n' | b'>' | b'/' | b'=' => break,
                b'<' => {
                    return Err(XmlStoreError::Parse("unexpected '<' inside a tag".into()));
                }
                _ => self.pos += 1,
            }
        }
        if self.pos == start {
            return Err(XmlStoreError::Parse("empty tag or attribute name".into()));
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map(str::to_string)
            .map_err(|e| XmlStoreError::Parse(e.to_string()))
    }

    fn skip_whitespace(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }
}

/// Resolves the predefined entities and numeric character references.
fn unescape(raw: &str) -> Result<String> {
    if !raw.contains('&') {
        return Ok(raw.to_string());
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let Some(semi) = rest.find(';') else {
            return Err(XmlStoreError::Parse(format!("unterminated entity in {raw:?}")));
        };
        let entity = &rest[1..semi];
        match entity {
            "amp" => out.push('&'),
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if entity.starts_with('#') => {
                let code = if let Some(hex) =
                    entity.strip_prefix("#x").or(entity.strip_prefix("#X"))
                {
                    u32::from_str_radix(hex, 16)
                } else {
                    entity[1..].parse::<u32>()
                }
                .map_err(|_| XmlStoreError::Parse(format!("bad character reference &{entity};")))?;
                out.push(char::from_u32(code).ok_or_else(|| {
                    XmlStoreError::Parse(format!("invalid character reference &{entity};"))
                })?);
            }
            _ => {
                return Err(XmlStoreError::Parse(format!("unknown entity &{entity};")));
            }
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const FACTBOOK_FRAGMENT: &str = r#"
        <country id="us2006">
          <name>United States</name>
          <year>2006</year>
          <economy>
            <GDP_ppp>12.31T</GDP_ppp>
            <import_partners>
              <item><trade_country>China</trade_country><percentage>15</percentage></item>
              <item><trade_country>Canada</trade_country><percentage>16.9</percentage></item>
            </import_partners>
          </economy>
        </country>"#;

    #[test]
    fn parses_factbook_fragment() {
        let mut c = Collection::new();
        let doc_id = parse_into(&mut c, "us2006.xml", FACTBOOK_FRAGMENT).unwrap();
        let doc = c.document(doc_id).unwrap();
        assert!(doc.len() > 10);
        let percentage =
            c.paths().get_str(c.symbols(), "/country/economy/import_partners/item/percentage");
        assert!(percentage.is_some());
        assert_eq!(c.nodes_with_path(percentage.unwrap()).len(), 2);
    }

    #[test]
    fn attributes_become_child_nodes() {
        let mut c = Collection::new();
        parse_into(&mut c, "a.xml", FACTBOOK_FRAGMENT).unwrap();
        let id_path = c.paths().get_str(c.symbols(), "/country/id").unwrap();
        let nodes = c.nodes_with_path(id_path);
        assert_eq!(nodes.len(), 1);
        assert_eq!(c.content(nodes[0]).unwrap(), "us2006");
    }

    #[test]
    fn self_closing_elements_are_supported() {
        let mut c = Collection::new();
        parse_into(&mut c, "s.xml", r#"<root><empty flag="yes"/><full>text</full></root>"#)
            .unwrap();
        let flag = c.paths().get_str(c.symbols(), "/root/empty/flag").unwrap();
        assert_eq!(c.nodes_with_path(flag).len(), 1);
    }

    #[test]
    fn entities_are_unescaped() {
        let mut c = Collection::new();
        parse_into(&mut c, "e.xml", r#"<root><t>a &amp; b &lt; c</t></root>"#).unwrap();
        let t = c.paths().get_str(c.symbols(), "/root/t").unwrap();
        assert_eq!(c.content(c.nodes_with_path(t)[0]).unwrap(), "a & b < c");
    }

    #[test]
    fn numeric_character_references_are_resolved() {
        let mut c = Collection::new();
        parse_into(&mut c, "n.xml", r#"<root><t>&#65;&#x42;</t></root>"#).unwrap();
        let t = c.paths().get_str(c.symbols(), "/root/t").unwrap();
        assert_eq!(c.content(c.nodes_with_path(t)[0]).unwrap(), "AB");
    }

    #[test]
    fn cdata_is_text() {
        let mut c = Collection::new();
        parse_into(&mut c, "cd.xml", r#"<root><t><![CDATA[raw <text>]]></t></root>"#).unwrap();
        let t = c.paths().get_str(c.symbols(), "/root/t").unwrap();
        assert_eq!(c.content(c.nodes_with_path(t)[0]).unwrap(), "raw <text>");
    }

    #[test]
    fn mixed_content_is_concatenated() {
        let mut c = Collection::new();
        parse_into(&mut c, "m.xml", r#"<p>import partners of <b>United States</b> in 2006</p>"#)
            .unwrap();
        let p = c.paths().get_str(c.symbols(), "/p").unwrap();
        let content = c.content(c.nodes_with_path(p)[0]).unwrap();
        assert!(content.contains("import partners of"));
        assert!(content.contains("United States"));
        assert!(content.contains("2006"));
    }

    #[test]
    fn declarations_and_instructions_are_skipped() {
        let mut c = Collection::new();
        parse_into(
            &mut c,
            "d.xml",
            "<?xml version=\"1.0\"?><!DOCTYPE root [<!ELEMENT root ANY>]><root><t>x</t></root>",
        )
        .unwrap();
        let t = c.paths().get_str(c.symbols(), "/root/t").unwrap();
        assert_eq!(c.content(c.nodes_with_path(t)[0]).unwrap(), "x");
    }

    #[test]
    fn empty_input_is_rejected() {
        let mut c = Collection::new();
        assert!(parse_into(&mut c, "empty.xml", "   ").is_err());
        assert!(parse_into(&mut c, "comment.xml", "<!-- nothing here -->").is_err());
    }

    #[test]
    fn malformed_xml_is_rejected() {
        let mut c = Collection::new();
        assert!(parse_into(&mut c, "bad.xml", "<a><b></a></b>").is_err());
        assert!(parse_into(&mut c, "open.xml", "<a><b>text</b>").is_err());
        assert!(parse_into(&mut c, "tworoots.xml", "<a/><b/>").is_err());
        assert!(parse_into(&mut c, "stray.xml", "<a></a></b>").is_err());
    }

    #[test]
    fn parse_collection_builds_shared_tables() {
        let docs = vec![
            ("a.xml", "<country><name>France</name></country>"),
            ("b.xml", "<country><name>Spain</name></country>"),
        ];
        let c = parse_collection(docs).unwrap();
        assert_eq!(c.len(), 2);
        assert_eq!(c.distinct_path_count(), 2);
    }
}
