//! XML tree representation: [`Document`], [`Element`] and [`Node`].

/// A parsed XML document: optional declaration plus a single root element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// Value of the `version` pseudo-attribute of the XML declaration.
    pub version: Option<String>,
    /// Value of the `encoding` pseudo-attribute of the XML declaration.
    pub encoding: Option<String>,
    root: Element,
}

impl Document {
    /// Wraps `root` into a document without a declaration.
    pub fn new(root: Element) -> Self {
        Self {
            version: None,
            encoding: None,
            root,
        }
    }

    /// Wraps `root` into a document with a standard `1.0`/`UTF-8` declaration.
    pub fn with_declaration(root: Element) -> Self {
        Self {
            version: Some("1.0".into()),
            encoding: Some("UTF-8".into()),
            root,
        }
    }

    /// The root element.
    pub fn root(&self) -> &Element {
        &self.root
    }
}

/// A child node of an element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// A nested element.
    Element(Element),
    /// Character data (entities already resolved).
    Text(String),
    /// A comment (`<!-- ... -->`), preserved for round-tripping.
    Comment(String),
}

impl Node {
    /// Returns the contained element, if this node is one.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(e) => Some(e),
            _ => None,
        }
    }

    /// Returns the contained text, if this node is character data.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Node::Text(t) => Some(t),
            _ => None,
        }
    }
}

/// An XML element: name, attributes (in document order) and child nodes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Element {
    /// Tag name.
    pub name: String,
    /// Attributes in document order. Names are unique.
    pub attributes: Vec<(String, String)>,
    /// Child nodes in document order.
    pub children: Vec<Node>,
}

impl Element {
    /// Creates an element with the given tag name and no content.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            attributes: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Creates an element containing a single text node.
    pub fn with_text(name: impl Into<String>, text: impl Into<String>) -> Self {
        let mut e = Self::new(name);
        e.children.push(Node::Text(text.into()));
        e
    }

    /// Looks up an attribute value by name.
    pub fn attr(&self, name: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Sets an attribute, replacing any existing value of the same name.
    pub fn set_attr(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        let value = value.into();
        if let Some(slot) = self.attributes.iter_mut().find(|(n, _)| *n == name) {
            slot.1 = value;
        } else {
            self.attributes.push((name, value));
        }
    }

    /// Appends a child element.
    pub fn push(&mut self, child: Element) {
        self.children.push(Node::Element(child));
    }

    /// Appends a text node.
    pub fn push_text(&mut self, text: impl Into<String>) {
        self.children.push(Node::Text(text.into()));
    }

    /// Iterates over the direct child elements.
    pub fn elements(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(Node::as_element)
    }

    /// Iterates over direct child elements with the given tag name.
    pub fn elements_named<'s, 'n>(
        &'s self,
        name: &'n str,
    ) -> impl Iterator<Item = &'s Element> + use<'s, 'n> {
        self.elements().filter(move |e| e.name == name)
    }

    /// Returns the first direct child element with the given name.
    pub fn child<'s>(&'s self, name: &str) -> Option<&'s Element> {
        self.elements_named(name).next()
    }

    /// Concatenated text content of this element's *direct* text children,
    /// trimmed of surrounding whitespace.
    pub fn text(&self) -> String {
        self.text_raw().trim().to_string()
    }

    /// Concatenated text content of direct text children, *untrimmed* —
    /// for formats where surrounding whitespace is significant (XML-RPC
    /// `<string>` values).
    pub fn text_raw(&self) -> String {
        let mut out = String::new();
        for c in &self.children {
            if let Node::Text(t) = c {
                out.push_str(t);
            }
        }
        out
    }

    /// Recursively concatenated text of this element and all descendants.
    pub fn deep_text(&self) -> String {
        fn walk(e: &Element, out: &mut String) {
            for c in &e.children {
                match c {
                    Node::Text(t) => out.push_str(t),
                    Node::Element(el) => walk(el, out),
                    Node::Comment(_) => {}
                }
            }
        }
        let mut out = String::new();
        walk(self, &mut out);
        out.trim().to_string()
    }

    /// True if the element has no attributes and no non-comment children.
    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty() && self.children.iter().all(|c| matches!(c, Node::Comment(_)))
    }

    /// Counts all descendant elements, including `self`.
    pub fn count_elements(&self) -> usize {
        1 + self.elements().map(Element::count_elements).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        let mut root = Element::new("factor");
        root.set_attr("id", "fact_bw");
        root.set_attr("usage", "constant");
        let mut levels = Element::new("levels");
        levels.push(Element::with_text("level", "10"));
        levels.push(Element::with_text("level", "50"));
        root.push(levels);
        root
    }

    #[test]
    fn attr_lookup_and_overwrite() {
        let mut e = sample();
        assert_eq!(e.attr("id"), Some("fact_bw"));
        assert_eq!(e.attr("missing"), None);
        e.set_attr("id", "other");
        assert_eq!(e.attr("id"), Some("other"));
        assert_eq!(e.attributes.len(), 2, "overwrite must not duplicate");
    }

    #[test]
    fn child_navigation() {
        let e = sample();
        let levels = e.child("levels").unwrap();
        let texts: Vec<String> = levels.elements_named("level").map(|l| l.text()).collect();
        assert_eq!(texts, vec!["10", "50"]);
    }

    #[test]
    fn text_trims_and_concatenates() {
        let mut e = Element::new("x");
        e.push_text("  a");
        e.push(Element::new("skip"));
        e.push_text("b  ");
        assert_eq!(e.text(), "a\u{0}b".replace('\u{0}', ""));
    }

    #[test]
    fn deep_text_descends() {
        let e = sample();
        assert_eq!(e.deep_text(), "1050");
    }

    #[test]
    fn count_elements_counts_self_and_descendants() {
        assert_eq!(sample().count_elements(), 4);
    }

    #[test]
    fn empty_ignores_comments() {
        let mut e = Element::new("x");
        e.children.push(Node::Comment("note".into()));
        assert!(e.is_empty());
        e.push_text("t");
        assert!(!e.is_empty());
    }
}
