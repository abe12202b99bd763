//! Parsing XML text into the store.
//!
//! The parser is a small hand-rolled scanner (the build environment has no
//! crates.io access, so `quick-xml` is not available): it handles elements,
//! attributes, self-closing tags, character data, CDATA sections, comments,
//! processing instructions, DOCTYPE declarations and the five predefined
//! entities plus numeric character references.  End tags are checked against
//! the open-element stack, so unbalanced documents are rejected.
//!
//! Scanner events borrow from the input: names and attribute keys are
//! slices of it, and text and attribute values are [`Cow`]s that own a copy
//! only when an entity had to be resolved (CDATA is text that is never
//! unescaped).  The parse therefore allocates for what the store keeps —
//! node text, attribute values, names and paths seen for the first time —
//! and not for each tag, attribute or run of whitespace it reads.

use std::borrow::Cow;

use crate::collection::Collection;
use crate::error::{Result, XmlStoreError};
use crate::node::DocId;

/// Parses a single XML document from text and inserts it into the collection.
///
/// Namespaces are not expanded: SEDA's contexts and query terms operate on the
/// literal tag names that appear in the data, so prefixed names are kept
/// verbatim.  Comments, processing instructions and the XML declaration are
/// skipped; CDATA is treated as text.
pub(crate) fn parse_into(collection: &mut Collection, uri: &str, xml: &str) -> Result<DocId> {
    collection.add_document(uri, |builder| {
        let mut scanner = Scanner::new(xml);
        let mut attributes = Vec::new();
        let mut open_tags: Vec<&str> = Vec::new();
        let mut saw_root = false;

        while let Some(event) = scanner.next_event(&mut attributes)? {
            match event {
                Event::Start { name, self_closing } => {
                    if saw_root && open_tags.is_empty() {
                        return Err(XmlStoreError::Parse(format!(
                            "second root element {name:?} in document {uri}"
                        )));
                    }
                    builder.start_element(name)?;
                    saw_root = true;
                    for (key, value) in attributes.drain(..) {
                        builder.attribute(key, &value)?;
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

/// An attribute of a start tag: its key and its unescaped value.
type Attribute<'a> = (&'a str, Cow<'a, str>);

/// One markup event produced by the scanner, borrowing from the input.
enum Event<'a> {
    /// A start tag; its attributes are in the buffer `next_event` filled.
    Start {
        name: &'a str,
        self_closing: bool,
    },
    End {
        name: &'a str,
    },
    Text(Cow<'a, str>),
}

/// Byte-level XML scanner over the input text.
///
/// Every position the scanner stops at is next to an ASCII byte (`<`, `>`,
/// a quote, whitespace, `/` or `=`), which is never inside a multi-byte
/// character, so each slice it hands out is a `str` slice of the input.
struct Scanner<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(text: &'a str) -> Self {
        Scanner { text, bytes: text.as_bytes(), pos: 0 }
    }

    /// The next event; a start tag's attributes replace the contents of
    /// `attributes`.
    fn next_event(&mut self, attributes: &mut Vec<Attribute<'a>>) -> Result<Option<Event<'a>>> {
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
                    let start = self.pos + "<![CDATA[".len();
                    self.pos = start;
                    self.skip_until("]]>")?;
                    let raw = &self.text[start..self.pos - "]]>".len()];
                    return Ok(Some(Event::Text(Cow::Borrowed(raw))));
                }
                Some(b'!') => self.skip_declaration()?,
                Some(b'?') => self.skip_until("?>")?,
                Some(b'/') => return self.scan_end_tag().map(Some),
                Some(_) => return self.scan_start_tag(attributes).map(Some),
                None => return Err(XmlStoreError::Parse("dangling '<' at end of input".into())),
            }
        }
    }

    fn starts_with(&self, prefix: &str) -> bool {
        self.bytes[self.pos..].starts_with(prefix.as_bytes())
    }

    fn skip_until(&mut self, terminator: &str) -> Result<()> {
        let t = terminator.as_bytes();
        match self.bytes[self.pos..].windows(t.len()).position(|window| window == t) {
            Some(at) => {
                self.pos += at + t.len();
                Ok(())
            }
            None => {
                Err(XmlStoreError::Parse(format!("unterminated markup, expected {terminator:?}")))
            }
        }
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

    /// Advances to the next `byte` (or the end) and returns what it passed.
    fn take_until(&mut self, byte: u8) -> &'a str {
        let start = self.pos;
        self.pos = self.bytes[start..]
            .iter()
            .position(|&b| b == byte)
            .map_or(self.bytes.len(), |n| start + n);
        &self.text[start..self.pos]
    }

    fn scan_text(&mut self) -> Result<Event<'a>> {
        let raw = self.take_until(b'<');
        Ok(Event::Text(unescape(raw)?))
    }

    fn scan_end_tag(&mut self) -> Result<Event<'a>> {
        self.pos += 2; // consume "</"
        let name = self.scan_name()?;
        self.skip_whitespace();
        if self.bytes.get(self.pos) != Some(&b'>') {
            return Err(XmlStoreError::Parse(format!("malformed closing tag </{name}")));
        }
        self.pos += 1;
        Ok(Event::End { name })
    }

    fn scan_start_tag(&mut self, attributes: &mut Vec<Attribute<'a>>) -> Result<Event<'a>> {
        self.pos += 1; // consume '<'
        let name = self.scan_name()?;
        attributes.clear();
        loop {
            self.skip_whitespace();
            match self.bytes.get(self.pos) {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok(Event::Start { name, self_closing: false });
                }
                Some(b'/') if self.bytes.get(self.pos + 1) == Some(&b'>') => {
                    self.pos += 2;
                    return Ok(Event::Start { name, self_closing: true });
                }
                Some(_) => attributes.push(self.scan_attribute(name)?),
                None => {
                    return Err(XmlStoreError::Parse(format!("unterminated opening tag <{name}")));
                }
            }
        }
    }

    fn scan_attribute(&mut self, element: &str) -> Result<Attribute<'a>> {
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
        let raw = self.take_until(quote);
        if self.pos >= self.bytes.len() {
            return Err(XmlStoreError::Parse(format!(
                "unterminated value of attribute {key:?} on <{element}>"
            )));
        }
        self.pos += 1; // closing quote
        Ok((key, unescape(raw)?))
    }

    fn scan_name(&mut self) -> Result<&'a str> {
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
        Ok(&self.text[start..self.pos])
    }

    fn skip_whitespace(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }
}

/// Resolves the predefined entities and numeric character references,
/// borrowing `raw` when it holds none.
fn unescape(raw: &str) -> Result<Cow<'_, str>> {
    let Some(first) = raw.find('&') else {
        return Ok(Cow::Borrowed(raw));
    };
    let mut out = String::with_capacity(raw.len());
    out.push_str(&raw[..first]);
    let mut rest = &raw[first..];
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
    Ok(Cow::Owned(out))
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

    /// The text of the one node on `path`, or `None` when it has none.
    fn text_at(c: &Collection, path: &str) -> Option<String> {
        let path = c.paths().get_str(c.symbols(), path).unwrap();
        let nodes = c.nodes_with_path(path);
        assert_eq!(nodes.len(), 1, "one node on the path");
        c.node(nodes[0]).unwrap().text.clone()
    }

    #[test]
    fn whitespace_written_as_an_entity_outside_the_root_is_whitespace() {
        let mut c = Collection::new();
        assert!(parse_into(&mut c, "ws.xml", "<a/>&#32;").is_ok());
        assert!(parse_into(&mut c, "ws2.xml", "&#x20;&#9;<a/>\n&#10;").is_ok());
        let err = parse_into(&mut c, "x.xml", "<a/>&#65;").unwrap_err();
        assert_eq!(err, XmlStoreError::Parse("text content \"A\" outside the root element".into()));
    }

    #[test]
    fn entities_in_attribute_values_are_unescaped() {
        let mut c = Collection::new();
        parse_into(&mut c, "a.xml", r#"<a k="x &amp; y" q='&lt;&quot;&#x41;&apos;'/>"#).unwrap();
        assert_eq!(text_at(&c, "/a/k").as_deref(), Some("x & y"));
        assert_eq!(text_at(&c, "/a/q").as_deref(), Some("<\"A'"));
    }

    #[test]
    fn whitespace_only_cdata_adds_no_text() {
        let mut c = Collection::new();
        parse_into(&mut c, "c.xml", "<a><b><![CDATA[  \n ]]></b><![CDATA[ ]]></a><![CDATA[ ]]>")
            .unwrap();
        assert_eq!(text_at(&c, "/a"), None);
        assert_eq!(text_at(&c, "/a/b"), None);
        // CDATA is never unescaped, and joins the element's other text.
        parse_into(&mut c, "d.xml", "<d>x <![CDATA[&amp;]]> y</d>").unwrap();
        assert_eq!(text_at(&c, "/d").as_deref(), Some("x &amp; y"));
    }

    #[test]
    fn mixed_content_keeps_each_run_on_its_own_element() {
        let mut c = Collection::new();
        parse_into(&mut c, "m.xml", "<p>\n one <b> two </b>\tthree &amp; <i/> four\n</p>").unwrap();
        assert_eq!(text_at(&c, "/p").as_deref(), Some("one three & four"));
        assert_eq!(text_at(&c, "/p/b").as_deref(), Some("two"));
        assert_eq!(text_at(&c, "/p/i"), None);
    }

    #[test]
    fn entity_errors_name_the_entity() {
        let mut c = Collection::new();
        let err = |xml: &str| parse_into(&mut Collection::new(), "e.xml", xml).unwrap_err();
        assert_eq!(err("<a>&foo;</a>"), XmlStoreError::Parse("unknown entity &foo;".into()));
        assert_eq!(err(r#"<a k="&nbsp;"/>"#), XmlStoreError::Parse("unknown entity &nbsp;".into()));
        assert_eq!(
            err("<a>x &amp y</a>"),
            XmlStoreError::Parse("unterminated entity in \"x &amp y\"".into())
        );
        assert_eq!(
            err("<a>&#xZZ;</a>"),
            XmlStoreError::Parse("bad character reference &#xZZ;".into())
        );
        assert_eq!(
            err("<a>&#xD800;</a>"),
            XmlStoreError::Parse("invalid character reference &#xD800;".into())
        );
        // A refused document leaves the collection as it was.
        assert!(parse_into(&mut c, "bad.xml", "<a>&foo;</a>").is_err());
        assert!(c.is_empty());
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
