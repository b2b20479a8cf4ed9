//! Path-style queries over element trees.
//!
//! A query path is a `/`-separated list of element names, optionally with a
//! positional index (`factor[2]`) or an attribute predicate
//! (`factor[@id=fact_bw]`). Paths are relative to the element they are called
//! on and never include that element itself.

use crate::node::Element;

/// One parsed step of a query path.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Step<'a> {
    /// All children of the given name.
    Named(&'a str),
    /// The n-th (0-based) child of the given name.
    Indexed(&'a str, usize),
    /// Children of the given name with attribute `key` equal to `value`.
    AttrEq {
        name: &'a str,
        key: &'a str,
        value: &'a str,
    },
}

fn parse_step(raw: &str) -> Step<'_> {
    if let Some(open) = raw.find('[') {
        let name = &raw[..open];
        let body = raw[open + 1..].trim_end_matches(']');
        if let Some(rest) = body.strip_prefix('@') {
            if let Some((key, value)) = rest.split_once('=') {
                return Step::AttrEq {
                    name,
                    key,
                    value: value.trim_matches(&['"', '\''][..]),
                };
            }
        }
        if let Ok(idx) = body.parse::<usize>() {
            return Step::Indexed(name, idx);
        }
    }
    Step::Named(raw)
}

impl Element {
    /// Returns the first element matching `path`, or `None`.
    ///
    /// ```
    /// # use excovery_xml::parse;
    /// let doc = parse(r#"<fl><factor id="a"/><factor id="b"/></fl>"#).unwrap();
    /// assert_eq!(doc.root().find("factor[@id=b]").unwrap().attr("id"), Some("b"));
    /// assert_eq!(doc.root().find("factor[1]").unwrap().attr("id"), Some("b"));
    /// ```
    pub fn find<'s>(&'s self, path: &str) -> Option<&'s Element> {
        self.find_all(path).into_iter().next()
    }

    /// Returns all elements matching `path`, in document order.
    pub fn find_all<'s>(&'s self, path: &str) -> Vec<&'s Element> {
        let mut current: Vec<&'s Element> = vec![self];
        for raw in path.split('/').filter(|s| !s.is_empty()) {
            let step = parse_step(raw);
            let mut next = Vec::new();
            for el in current {
                match &step {
                    Step::Named(name) => next.extend(el.elements_named(name)),
                    Step::Indexed(name, idx) => {
                        if let Some(hit) = el.elements_named(name).nth(*idx) {
                            next.push(hit);
                        }
                    }
                    Step::AttrEq { name, key, value } => next.extend(
                        el.elements_named(name)
                            .filter(|e| e.attr(key) == Some(*value)),
                    ),
                }
            }
            current = next;
            if current.is_empty() {
                break;
            }
        }
        current
    }

    /// Returns the trimmed text content of the first element matching `path`.
    pub fn find_text(&self, path: &str) -> Option<String> {
        self.find(path).map(|e| e.text())
    }
}

#[cfg(test)]
mod tests {
    use crate::parser::parse;

    const SRC: &str = r#"
        <factorlist>
          <factor id="fact_nodes" usage="blocking"><levels><level>A</level></levels></factor>
          <factor id="fact_pairs" usage="random">
            <levels><level>5</level><level>20</level></levels>
          </factor>
          <factor id="fact_bw" usage="constant">
            <levels><level>10</level><level>50</level><level>100</level></levels>
          </factor>
        </factorlist>"#;

    #[test]
    fn find_first_and_all() {
        let doc = parse(SRC).unwrap();
        let root = doc.root();
        assert_eq!(root.find("factor").unwrap().attr("id"), Some("fact_nodes"));
        assert_eq!(root.find_all("factor").len(), 3);
        assert_eq!(root.find_all("factor/levels/level").len(), 6);
    }

    #[test]
    fn attribute_predicate() {
        let doc = parse(SRC).unwrap();
        let bw = doc.root().find("factor[@id=fact_bw]").unwrap();
        assert_eq!(bw.attr("usage"), Some("constant"));
    }

    #[test]
    fn positional_index() {
        let doc = parse(SRC).unwrap();
        let levels = doc.root().find("factor[@id=fact_bw]/levels").unwrap();
        assert_eq!(levels.find("level[2]").unwrap().text(), "100");
        assert!(levels.find("level[3]").is_none());
    }

    #[test]
    fn find_text_takes_the_first_match() {
        let doc = parse(SRC).unwrap();
        let root = doc.root();
        assert_eq!(
            root.find_text("factor[@id=fact_pairs]/levels/level"),
            Some("5".into())
        );
        assert_eq!(
            root.find_text("factor[@id=fact_pairs]/levels/level[1]"),
            Some("20".into())
        );
    }

    #[test]
    fn missing_path_is_none() {
        let doc = parse(SRC).unwrap();
        assert!(doc.root().find("nope/deeper").is_none());
        assert!(doc.root().find_all("factor/nope").is_empty());
    }
}
