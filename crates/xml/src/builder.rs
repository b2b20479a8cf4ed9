//! Fluent construction of XML trees.
//!
//! ```
//! use excovery_xml::{Element, ElementBuilder};
//! let e = ElementBuilder::new("factor")
//!     .attr("id", "fact_pairs")
//!     .attr("usage", "random")
//!     .child(ElementBuilder::new("levels")
//!         .child_element(Element::with_text("level", "5"))
//!         .child_element(Element::with_text("level", "20")))
//!     .build();
//! assert_eq!(e.find_all("levels/level").len(), 2);
//! ```

use crate::node::Element;

/// Builder for [`Element`] trees.
#[derive(Debug, Clone)]
pub struct ElementBuilder {
    element: Element,
}

impl ElementBuilder {
    /// Starts a builder for an element with the given tag name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            element: Element::new(name),
        }
    }

    /// Adds an attribute.
    pub fn attr(mut self, name: impl Into<String>, value: impl ToString) -> Self {
        self.element.set_attr(name, value.to_string());
        self
    }

    /// Appends a child built by another builder.
    pub fn child(mut self, child: ElementBuilder) -> Self {
        self.element.push(child.build());
        self
    }

    /// Appends an already-built child element.
    pub fn child_element(mut self, child: Element) -> Self {
        self.element.push(child);
        self
    }

    /// Appends a text node.
    pub fn text(mut self, text: impl ToString) -> Self {
        self.element.push_text(text.to_string());
        self
    }

    /// Appends children from an iterator of builders.
    pub fn children(mut self, iter: impl IntoIterator<Item = ElementBuilder>) -> Self {
        for c in iter {
            self.element.push(c.build());
        }
        self
    }

    /// Finishes and returns the element.
    pub fn build(self) -> Element {
        self.element
    }
}

impl From<ElementBuilder> for Element {
    fn from(b: ElementBuilder) -> Self {
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_nested_structure() {
        let e = ElementBuilder::new("actor")
            .attr("id", "actor0")
            .attr("name", "SM")
            .child(
                ElementBuilder::new("sd_actions")
                    .child(ElementBuilder::new("sd_init"))
                    .child(ElementBuilder::new("sd_start_publish")),
            )
            .build();
        assert_eq!(e.attr("name"), Some("SM"));
        assert_eq!(e.find_all("sd_actions/*".trim_end_matches("/*")).len(), 1);
        assert!(e.find("sd_actions/sd_init").is_some());
    }

    #[test]
    fn children_from_iterator() {
        let e = ElementBuilder::new("levels")
            .children((0..3).map(|i| ElementBuilder::new("level").text(i)))
            .build();
        let texts: Vec<String> = e.elements_named("level").map(|l| l.text()).collect();
        assert_eq!(texts, vec!["0", "1", "2"]);
    }
}
