//! Recursive-descent XML parser.
//!
//! Hand-written over a byte cursor; tracks line/column for error messages.
//! Parses the subset documented in the crate root.

use crate::error::{XmlError, XmlErrorKind, XmlResult};
use crate::escape::unescape;
use crate::node::{Document, Element, Node};

/// Parses a complete XML document and returns it with declaration metadata.
pub fn parse(input: &str) -> XmlResult<Document> {
    let mut p = Parser::new(input);
    p.skip_bom();
    let (version, encoding) = p.parse_prolog()?;
    p.skip_misc()?;
    let root = p.parse_element()?;
    p.skip_misc()?;
    if !p.at_end() {
        return Err(p.err(XmlErrorKind::Syntax, "content after document element"));
    }
    let mut doc = Document::new(root);
    doc.version = version;
    doc.encoding = encoding;
    Ok(doc)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    col: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Self {
            bytes: input.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err(&self, kind: XmlErrorKind, msg: impl Into<String>) -> XmlError {
        XmlError::new(kind, msg, self.line, self.col)
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn skip_bom(&mut self) {
        if self.bytes[self.pos..].starts_with(&[0xEF, 0xBB, 0xBF]) {
            self.pos += 3;
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    /// Parses an optional `<?xml ...?>` declaration.
    fn parse_prolog(&mut self) -> XmlResult<(Option<String>, Option<String>)> {
        self.skip_ws();
        if !self.starts_with("<?xml") {
            return Ok((None, None));
        }
        self.bump_n(5);
        let mut version = None;
        let mut encoding = None;
        loop {
            self.skip_ws();
            if self.starts_with("?>") {
                self.bump_n(2);
                break;
            }
            if self.at_end() {
                return Err(self.err(XmlErrorKind::UnexpectedEof, "unterminated XML declaration"));
            }
            let name = self.parse_name()?;
            self.skip_ws();
            self.expect(b'=')?;
            self.skip_ws();
            let value = self.parse_quoted()?;
            match name.as_str() {
                "version" => version = Some(value),
                "encoding" => encoding = Some(value),
                _ => {} // standalone etc. are accepted and ignored
            }
        }
        Ok((version, encoding))
    }

    /// Skips whitespace, comments, PIs and DOCTYPE between top-level items.
    fn skip_misc(&mut self) -> XmlResult<()> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.parse_comment()?;
            } else if self.starts_with("<?") {
                self.skip_pi()?;
            } else if self.starts_with("<!DOCTYPE") {
                self.skip_doctype()?;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_pi(&mut self) -> XmlResult<()> {
        self.bump_n(2);
        loop {
            if self.starts_with("?>") {
                self.bump_n(2);
                return Ok(());
            }
            if self.bump().is_none() {
                return Err(self.err(
                    XmlErrorKind::UnexpectedEof,
                    "unterminated processing instruction",
                ));
            }
        }
    }

    fn skip_doctype(&mut self) -> XmlResult<()> {
        // Internal subsets with nested brackets are tolerated with a depth counter.
        let mut depth = 0usize;
        loop {
            match self.bump() {
                Some(b'[') => depth += 1,
                Some(b']') => depth = depth.saturating_sub(1),
                Some(b'>') if depth == 0 => return Ok(()),
                Some(_) => {}
                None => return Err(self.err(XmlErrorKind::UnexpectedEof, "unterminated DOCTYPE")),
            }
        }
    }

    fn parse_comment(&mut self) -> XmlResult<Node> {
        debug_assert!(self.starts_with("<!--"));
        self.bump_n(4);
        let start = self.pos;
        loop {
            if self.starts_with("-->") {
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err(XmlErrorKind::Syntax, "comment is not valid UTF-8"))?
                    .to_string();
                self.bump_n(3);
                return Ok(Node::Comment(text));
            }
            if self.bump().is_none() {
                return Err(self.err(XmlErrorKind::UnexpectedEof, "unterminated comment"));
            }
        }
    }

    fn expect(&mut self, b: u8) -> XmlResult<()> {
        if self.peek() == Some(b) {
            self.bump();
            Ok(())
        } else {
            Err(self.err(
                XmlErrorKind::Syntax,
                format!(
                    "expected '{}', found {:?}",
                    b as char,
                    self.peek().map(|c| c as char)
                ),
            ))
        }
    }

    fn is_name_start(b: u8) -> bool {
        b.is_ascii_alphabetic() || b == b'_' || b == b':' || b >= 0x80
    }

    fn is_name_char(b: u8) -> bool {
        Self::is_name_start(b) || b.is_ascii_digit() || b == b'-' || b == b'.'
    }

    fn parse_name(&mut self) -> XmlResult<String> {
        let start = self.pos;
        match self.peek() {
            Some(b) if Self::is_name_start(b) => {
                self.bump();
            }
            _ => return Err(self.err(XmlErrorKind::Syntax, "expected a name")),
        }
        while matches!(self.peek(), Some(b) if Self::is_name_char(b)) {
            self.bump();
        }
        Ok(std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err(XmlErrorKind::Syntax, "name is not valid UTF-8"))?
            .to_string())
    }

    fn parse_quoted(&mut self) -> XmlResult<String> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err(XmlErrorKind::Syntax, "expected quoted value")),
        };
        self.bump();
        let start = self.pos;
        let (line, col) = (self.line, self.col);
        loop {
            match self.peek() {
                Some(b) if b == quote => {
                    let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err(XmlErrorKind::Syntax, "value is not valid UTF-8"))?;
                    self.bump();
                    return unescape(raw, line, col);
                }
                Some(b'<') => {
                    return Err(self.err(XmlErrorKind::Syntax, "'<' not allowed in attribute value"))
                }
                Some(_) => {
                    self.bump();
                }
                None => {
                    return Err(
                        self.err(XmlErrorKind::UnexpectedEof, "unterminated attribute value")
                    )
                }
            }
        }
    }

    fn parse_element(&mut self) -> XmlResult<Element> {
        self.expect(b'<')?;
        let name = self.parse_name()?;
        let mut element = Element::new(name);
        // Attributes
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.bump();
                    break;
                }
                Some(b'/') => {
                    self.bump();
                    self.expect(b'>')?;
                    return Ok(element); // self-closing
                }
                Some(b) if Self::is_name_start(b) => {
                    let attr_name = self.parse_name()?;
                    if element.attr(&attr_name).is_some() {
                        return Err(self.err(
                            XmlErrorKind::Syntax,
                            format!("duplicate attribute '{attr_name}'"),
                        ));
                    }
                    self.skip_ws();
                    self.expect(b'=')?;
                    self.skip_ws();
                    let value = self.parse_quoted()?;
                    element.attributes.push((attr_name, value));
                }
                Some(c) => {
                    return Err(self.err(
                        XmlErrorKind::Syntax,
                        format!("unexpected character '{}' in tag", c as char),
                    ))
                }
                None => return Err(self.err(XmlErrorKind::UnexpectedEof, "unterminated start tag")),
            }
        }
        // Content
        self.parse_content(&mut element)?;
        Ok(element)
    }

    fn parse_content(&mut self, element: &mut Element) -> XmlResult<()> {
        loop {
            if self.starts_with("</") {
                self.bump_n(2);
                let name = self.parse_name()?;
                if name != element.name {
                    return Err(self.err(
                        XmlErrorKind::TagMismatch,
                        format!("expected </{}>, found </{}>", element.name, name),
                    ));
                }
                self.skip_ws();
                self.expect(b'>')?;
                // Whitespace-only text between child elements is layout,
                // not data; but if the element holds *only* whitespace
                // text, that text is its (significant) content.
                let has_elements = element
                    .children
                    .iter()
                    .any(|c| matches!(c, Node::Element(_)));
                if has_elements {
                    element
                        .children
                        .retain(|c| !matches!(c, Node::Text(t) if t.trim().is_empty()));
                }
                return Ok(());
            } else if self.starts_with("<!--") {
                let c = self.parse_comment()?;
                element.children.push(c);
            } else if self.starts_with("<![CDATA[") {
                let text = self.parse_cdata()?;
                element.children.push(Node::Text(text));
            } else if self.starts_with("<?") {
                self.skip_pi()?;
            } else if self.peek() == Some(b'<') {
                let child = self.parse_element()?;
                element.children.push(Node::Element(child));
            } else if self.at_end() {
                return Err(self.err(
                    XmlErrorKind::UnexpectedEof,
                    format!("unexpected end of input inside <{}>", element.name),
                ));
            } else {
                // Keep all text for now; whitespace-only layout runs are
                // pruned when the element closes (see above), so elements
                // whose entire content is whitespace preserve it.
                let text = self.parse_text()?;
                if !text.is_empty() {
                    element.children.push(Node::Text(text));
                }
            }
        }
    }

    fn parse_cdata(&mut self) -> XmlResult<String> {
        self.bump_n(9); // <![CDATA[
        let start = self.pos;
        loop {
            if self.starts_with("]]>") {
                let text = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err(XmlErrorKind::Syntax, "CDATA is not valid UTF-8"))?
                    .to_string();
                self.bump_n(3);
                return Ok(text);
            }
            if self.bump().is_none() {
                return Err(self.err(XmlErrorKind::UnexpectedEof, "unterminated CDATA section"));
            }
        }
    }

    fn parse_text(&mut self) -> XmlResult<String> {
        let start = self.pos;
        let (line, col) = (self.line, self.col);
        while let Some(b) = self.peek() {
            if b == b'<' {
                break;
            }
            self.bump();
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err(XmlErrorKind::Syntax, "text is not valid UTF-8"))?;
        unescape(raw, line, col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_document() {
        let doc = parse("<a><b x=\"1\"/><c>text</c></a>").unwrap();
        let root = doc.root();
        assert_eq!(root.name, "a");
        assert_eq!(root.child("b").unwrap().attr("x"), Some("1"));
        assert_eq!(root.child("c").unwrap().text(), "text");
    }

    #[test]
    fn parses_declaration() {
        let doc = parse("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n<r/>").unwrap();
        assert_eq!(doc.version.as_deref(), Some("1.0"));
        assert_eq!(doc.encoding.as_deref(), Some("UTF-8"));
    }

    #[test]
    fn preserves_comments_in_tree() {
        let doc = parse("<a><!-- note --><b/></a>").unwrap();
        assert!(matches!(doc.root().children[0], Node::Comment(ref c) if c.contains("note")));
    }

    #[test]
    fn cdata_is_literal() {
        let doc = parse("<a><![CDATA[1 < 2 && 3 > 2]]></a>").unwrap();
        assert_eq!(doc.root().text(), "1 < 2 && 3 > 2");
    }

    #[test]
    fn entities_in_text_and_attrs() {
        let doc = parse("<a k=\"&lt;v&gt;\">&amp;&#65;</a>").unwrap();
        assert_eq!(doc.root().attr("k"), Some("<v>"));
        assert_eq!(doc.root().text(), "&A");
    }

    #[test]
    fn mismatched_tags_error() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::TagMismatch);
    }

    #[test]
    fn duplicate_attribute_error() {
        assert!(parse("<a x=\"1\" x=\"2\"/>").is_err());
    }

    #[test]
    fn truncated_document_error() {
        let err = parse("<a><b>").unwrap_err();
        assert_eq!(err.kind, XmlErrorKind::UnexpectedEof);
    }

    #[test]
    fn content_after_root_error() {
        assert!(parse("<a/><b/>").is_err());
    }

    #[test]
    fn whitespace_between_elements_is_dropped() {
        let doc = parse("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(doc.root().children.len(), 2);
    }

    #[test]
    fn doctype_and_pi_skipped() {
        let doc = parse("<?xml version=\"1.0\"?><!DOCTYPE exp [<!ENTITY x \"y\">]><?pi data?><r/>")
            .unwrap();
        assert_eq!(doc.root().name, "r");
    }

    #[test]
    fn error_position_reported() {
        let err = parse("<a>\n<b x=>").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn names_allow_colon_dash_dot() {
        let doc = parse("<ns:el-em.x a-b=\"1\"/>").unwrap();
        assert_eq!(doc.root().name, "ns:el-em.x");
    }

    #[test]
    fn single_quoted_attributes() {
        let doc = parse("<a k='va\"lue'/>").unwrap();
        assert_eq!(doc.root().attr("k"), Some("va\"lue"));
    }

    #[test]
    fn bom_is_skipped() {
        let input = "\u{FEFF}<a/>".to_string();
        assert!(parse(&input).is_ok());
    }

    #[test]
    fn deeply_nested_ok() {
        let mut s = String::new();
        for _ in 0..200 {
            s.push_str("<d>");
        }
        s.push('x');
        for _ in 0..200 {
            s.push_str("</d>");
        }
        let doc = parse(&s).unwrap();
        let mut depth = 1;
        let mut e = doc.root();
        while let Some(child) = e.elements().next() {
            e = child;
            depth += 1;
        }
        assert_eq!(depth, 200);
    }
}
