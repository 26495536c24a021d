//! A minimal XML reader/writer, sufficient for DASH MPD documents.
//!
//! Supports: the XML declaration, nested elements, attributes with single-
//! or double-quoted values, self-closing tags, comments, and the five
//! predefined entities. Does **not** support: CDATA, processing
//! instructions other than the declaration, DOCTYPE, or namespaces beyond
//! passing `xmlns` through as an ordinary attribute — none of which appear
//! in the MPD subset this workspace emits.
//!
//! The reader is borrowed: [`parse`] returns a [`Document`] whose element
//! names and attribute keys are slices of the input text, and whose values
//! are decoded into a new string only when they contain `&`. The elements
//! sit in one vector in document order (each records where its subtree
//! ends), so walking children allocates nothing. Nesting deeper than
//! [`MAX_DEPTH`] is an error rather than a stack overflow.
//!
//! The writer ([`Writer`]) streams a document into one `String`: no
//! element tree, no per-line temporaries, and a value is escaped only
//! when it holds one of `&<>"`.

use core::fmt::{self, Write as _};
use std::borrow::Cow;
use std::ops::Range;

/// Deepest element nesting [`parse`] accepts (the root is depth 1). The
/// MPD subset needs 5 levels; the cap bounds the reader's recursion, so
/// hostile nesting is an error instead of a stack overflow.
pub const MAX_DEPTH: usize = 32;

/// A parsed document: every element in document order, borrowing from
/// the text it was parsed from.
#[derive(Debug)]
pub struct Document<'a> {
    nodes: Vec<Node<'a>>,
    attrs: Vec<(&'a str, Cow<'a, str>)>,
}

#[derive(Debug)]
struct Node<'a> {
    name: &'a str,
    /// This element's attributes, as a range of `Document::attrs`.
    attrs: Range<usize>,
    /// One past the index of this element's last descendant.
    end: usize,
}

impl<'a> Document<'a> {
    /// The root element.
    pub fn root(&self) -> Element<'_> {
        Element {
            doc: self,
            index: 0,
        }
    }
}

/// An element of a [`Document`]: a cheap copyable handle.
#[derive(Debug, Clone, Copy)]
pub struct Element<'a> {
    doc: &'a Document<'a>,
    index: usize,
}

impl<'a> Element<'a> {
    fn node(self) -> &'a Node<'a> {
        &self.doc.nodes[self.index]
    }

    /// Tag name.
    pub fn name(self) -> &'a str {
        self.node().name
    }

    /// First attribute value by key.
    pub fn get_attr(self, key: &str) -> Option<&'a str> {
        self.doc.attrs[self.node().attrs.clone()]
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.as_ref())
    }

    /// Child elements in document order (text content is ignored — MPDs
    /// in this workspace carry data only in attributes).
    pub fn children(self) -> impl Iterator<Item = Element<'a>> {
        let (doc, end) = (self.doc, self.node().end);
        let mut next = self.index + 1;
        core::iter::from_fn(move || {
            (next < end).then(|| {
                let child = Element { doc, index: next };
                next = doc.nodes[next].end;
                child
            })
        })
    }

    /// All children with a given tag name.
    pub fn children_named<'n>(self, name: &'n str) -> impl Iterator<Item = Element<'a>> + 'n
    where
        'a: 'n,
    {
        self.children().filter(move |c| c.name() == name)
    }

    /// First child with a given tag name.
    pub fn first_child(self, name: &str) -> Option<Element<'a>> {
        self.children_named(name).next()
    }
}

/// Streams a document with 2-space indentation and an XML declaration
/// into one `String`. Elements open with [`Writer::start`], take
/// attributes with [`Writer::attr`] until their first child starts, and
/// close with [`Writer::end`]; a childless element is self-closed.
#[derive(Debug)]
pub struct Writer {
    out: String,
    depth: usize,
    /// Whether the innermost element's start tag still awaits `>`.
    open: bool,
}

impl Writer {
    /// A writer whose buffer starts with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> Writer {
        let mut out = String::with_capacity(capacity);
        out.push_str("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
        Writer {
            out,
            depth: 0,
            open: false,
        }
    }

    fn indent(&mut self) {
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }

    /// Opens an element.
    pub fn start(&mut self, name: &str) -> &mut Writer {
        if self.open {
            self.out.push_str(">\n");
        }
        self.indent();
        self.out.push('<');
        self.out.push_str(name);
        self.depth += 1;
        self.open = true;
        self
    }

    /// Adds an attribute to the element just opened; the value is
    /// escaped as it is written.
    pub fn attr(&mut self, key: &str, value: impl fmt::Display) -> &mut Writer {
        debug_assert!(self.open, "attribute `{key}` after a child");
        self.out.push(' ');
        self.out.push_str(key);
        self.out.push_str("=\"");
        let _ = write!(Escaped(&mut self.out), "{value}");
        self.out.push('"');
        self
    }

    /// Closes the innermost open element, which must be `name`.
    pub fn end(&mut self, name: &str) -> &mut Writer {
        self.depth -= 1;
        if self.open {
            self.out.push_str("/>\n");
            self.open = false;
        } else {
            self.indent();
            self.out.push_str("</");
            self.out.push_str(name);
            self.out.push_str(">\n");
        }
        self
    }

    /// The document text.
    pub fn finish(self) -> String {
        debug_assert_eq!(self.depth, 0, "unclosed elements");
        self.out
    }
}

/// Escapes `&<>"` in everything written through it; text without them
/// is copied as is.
struct Escaped<'a>(&'a mut String);

impl fmt::Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        if s.contains(['&', '<', '>', '"']) {
            let escaped = s
                .replace('&', "&amp;")
                .replace('<', "&lt;")
                .replace('>', "&gt;")
                .replace('"', "&quot;");
            self.0.push_str(&escaped);
        } else {
            self.0.push_str(s);
        }
        Ok(())
    }
}

/// Decodes the five predefined entities; a value without `&` is borrowed.
fn unescape(raw: &str) -> Cow<'_, str> {
    if !raw.contains('&') {
        return Cow::Borrowed(raw);
    }
    let decoded = raw
        .replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&apos;", "'")
        .replace("&amp;", "&");
    Cow::Owned(decoded)
}

/// Parses a document; its root is [`Document::root`].
pub fn parse(text: &str) -> Result<Document<'_>, String> {
    // This workspace's MPDs spend about 100 bytes of text per element and
    // 28 per attribute, so these capacities hold them without regrowing.
    let mut p = Parser {
        text,
        pos: 0,
        doc: Document {
            nodes: Vec::with_capacity(text.len() / 64 + 1),
            attrs: Vec::with_capacity(text.len() / 16 + 1),
        },
    };
    p.skip_misc()?;
    p.parse_element(1)?;
    p.skip_misc()?;
    if p.pos != text.len() {
        return Err(format!("trailing content at byte {}", p.pos));
    }
    Ok(p.doc)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
    doc: Document<'a>,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.text.as_bytes()[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skips whitespace, the XML declaration, and comments.
    fn skip_misc(&mut self) -> Result<(), String> {
        loop {
            self.skip_ws();
            if self.starts_with("<?") {
                self.consume_until("?>")?;
            } else if self.starts_with("<!--") {
                self.consume_until("-->")?;
            } else {
                return Ok(());
            }
        }
    }

    fn consume_until(&mut self, end: &str) -> Result<(), String> {
        match self.text[self.pos..].find(end) {
            Some(i) => {
                self.pos += i + end.len();
                Ok(())
            }
            None => Err(format!("unterminated construct expecting `{end}`")),
        }
    }

    fn parse_name(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        let rest = &self.text.as_bytes()[start..];
        self.pos += rest
            .iter()
            .position(|&c| !(c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b':' | b'.')))
            .unwrap_or(rest.len());
        if self.pos == start {
            return Err(format!("expected a name at byte {start}"));
        }
        Ok(&self.text[start..self.pos])
    }

    /// Parses the element at `pos`, nested `depth` levels deep, and its
    /// subtree into `doc`.
    fn parse_element(&mut self, depth: usize) -> Result<(), String> {
        if self.peek() != Some(b'<') {
            return Err(format!("expected `<` at byte {}", self.pos));
        }
        self.pos += 1;
        let name = self.parse_name()?;
        let index = self.doc.nodes.len();
        let first_attr = self.doc.attrs.len();
        self.doc.nodes.push(Node {
            name,
            attrs: first_attr..first_attr,
            end: index + 1,
        });
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    if self.peek() != Some(b'>') {
                        return Err(format!("expected `>` after `/` at byte {}", self.pos));
                    }
                    self.pos += 1;
                    self.doc.nodes[index].attrs.end = self.doc.attrs.len();
                    return Ok(()); // self-closing
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let key = self.parse_name()?;
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(format!("expected `=` after attribute `{key}`"));
                    }
                    self.pos += 1;
                    self.skip_ws();
                    let q = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return Err(format!("expected quoted value for `{key}`")),
                    };
                    self.pos += 1;
                    let start = self.pos;
                    let Some(len) = self.text.as_bytes()[start..].iter().position(|&c| c == q)
                    else {
                        return Err(format!("unterminated value for `{key}`"));
                    };
                    self.pos += len + 1;
                    let raw = &self.text[start..start + len];
                    self.doc.attrs.push((key, unescape(raw)));
                }
                None => return Err("unexpected end inside tag".to_string()),
            }
        }
        self.doc.nodes[index].attrs.end = self.doc.attrs.len();
        // Children until the close tag; text content is skipped.
        loop {
            // Skip text and comments.
            self.pos += self.text[self.pos..]
                .find('<')
                .unwrap_or(self.text.len() - self.pos);
            if self.starts_with("<!--") {
                self.consume_until("-->")?;
                continue;
            }
            if self.starts_with("</") {
                self.pos += 2;
                let close = self.parse_name()?;
                if close != name {
                    return Err(format!("mismatched close tag: `{close}` vs `{name}`"));
                }
                self.skip_ws();
                if self.peek() != Some(b'>') {
                    return Err("expected `>` in close tag".to_string());
                }
                self.pos += 1;
                self.doc.nodes[index].end = self.doc.nodes.len();
                return Ok(());
            }
            if self.peek().is_none() {
                return Err(format!("unclosed element `{name}`"));
            }
            if depth == MAX_DEPTH {
                return Err(format!(
                    "element nested deeper than {MAX_DEPTH} levels at byte {}",
                    self.pos
                ));
            }
            self.parse_element(depth + 1)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `<MPD type="static"><Period><AdaptationSet contentType="video"/>`
    /// `</Period></MPD>`, written through a [`Writer`].
    fn small_document() -> String {
        let mut w = Writer::with_capacity(0);
        w.start("MPD")
            .attr("type", "static")
            .start("Period")
            .start("AdaptationSet")
            .attr("contentType", "video")
            .end("AdaptationSet")
            .end("Period")
            .end("MPD");
        w.finish()
    }

    #[test]
    fn build_and_serialize() {
        assert_eq!(
            small_document(),
            "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<MPD type=\"static\">\n  \
             <Period>\n    <AdaptationSet contentType=\"video\"/>\n  </Period>\n</MPD>\n"
        );
    }

    #[test]
    fn parse_roundtrip() {
        let text = small_document();
        let doc = parse(&text).unwrap();
        let root = doc.root();
        assert_eq!(root.name(), "MPD");
        assert_eq!(root.get_attr("type"), Some("static"));
        let period = root.first_child("Period").unwrap();
        let sets: Vec<_> = period.children().collect();
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].name(), "AdaptationSet");
        assert_eq!(sets[0].get_attr("contentType"), Some("video"));
        assert_eq!(sets[0].children().count(), 0);
    }

    #[test]
    fn attribute_escaping_roundtrip() {
        let mut w = Writer::with_capacity(0);
        w.start("E").attr("v", "a<b & \"c\">").end("E");
        let text = w.finish();
        assert!(text.contains("v=\"a&lt;b &amp; &quot;c&quot;&gt;\""));
        let doc = parse(&text).unwrap();
        assert_eq!(doc.root().get_attr("v"), Some("a<b & \"c\">"));
    }

    #[test]
    fn single_quoted_attributes() {
        let doc = parse("<A x='1' y=\"2\"/>").unwrap();
        assert_eq!(doc.root().get_attr("x"), Some("1"));
        assert_eq!(doc.root().get_attr("y"), Some("2"));
    }

    #[test]
    fn comments_and_text_ignored() {
        let doc = parse("<A><!-- note --><B/>text<B/></A>").unwrap();
        assert_eq!(doc.root().children().count(), 2);
        assert_eq!(doc.root().children_named("B").count(), 2);
    }

    #[test]
    fn accessors() {
        let doc = parse("<A><B id=\"1\"><D/></B><C/><B id=\"2\"/></A>").unwrap();
        let el = doc.root();
        assert_eq!(el.first_child("B").unwrap().get_attr("id"), Some("1"));
        assert!(
            el.first_child("D").is_none(),
            "grandchildren are not children"
        );
        let ids: Vec<_> = el
            .children_named("B")
            .map(|b| b.get_attr("id").unwrap())
            .collect();
        assert_eq!(ids, vec!["1", "2"]);
    }

    #[test]
    fn literal_angle_bracket_in_quoted_attribute() {
        // A raw `>` inside a quoted value must not terminate the tag.
        let doc = parse("<A x=\"a>b\"><B/></A>").unwrap();
        assert_eq!(doc.root().get_attr("x"), Some("a>b"));
        assert_eq!(doc.root().children().count(), 1);
    }

    #[test]
    fn error_cases() {
        assert!(parse("<A>").is_err(), "unclosed");
        assert!(parse("<A></B>").is_err(), "mismatched");
        assert!(parse("<A x=1/>").is_err(), "unquoted attr");
        assert!(parse("<A/><B/>").is_err(), "trailing content");
        assert!(parse("<A x=\"1/>").is_err(), "unterminated value");
    }

    #[test]
    fn declaration_skipped() {
        let doc = parse("<?xml version=\"1.0\"?>\n<Root/>").unwrap();
        assert_eq!(doc.root().name(), "Root");
    }

    /// `depth` nested `<A>` elements, closed.
    fn nested(depth: usize) -> String {
        format!("{}{}", "<A>".repeat(depth), "</A>".repeat(depth))
    }

    #[test]
    fn nesting_up_to_the_cap_parses() {
        let text = nested(MAX_DEPTH);
        let doc = parse(&text).unwrap();
        let mut el = doc.root();
        for _ in 1..MAX_DEPTH {
            el = el.first_child("A").unwrap();
        }
        assert_eq!(el.children().count(), 0);
    }

    /// 100,000 levels once overflowed the reader's stack and aborted the
    /// process.
    #[test]
    fn hostile_nesting_is_an_error() {
        for depth in [MAX_DEPTH + 1, 1_000, 100_000] {
            assert_eq!(
                parse(&nested(depth)).unwrap_err(),
                format!(
                    "element nested deeper than {MAX_DEPTH} levels at byte {}",
                    3 * MAX_DEPTH
                )
            );
        }
    }
}
