//! # excovery-xml
//!
//! A small, dependency-free XML implementation covering the subset of XML
//! needed by ExCovery: experiment descriptions (paper §IV) and XML-RPC
//! messages (paper §VI-A).
//!
//! The crate provides:
//!
//! * a tokenizing parser ([`parse`]) producing a [`Document`] tree of [`Element`]s,
//! * a [`writer`] that serializes trees back to text (pretty or compact),
//! * an ergonomic builder API ([`ElementBuilder`]) for constructing documents in code,
//! * simple path-style [`query`] helpers (`root.find("factorlist/factor")`),
//! * entity escaping/unescaping in [`escape`].
//!
//! Supported syntax: elements, attributes, text, CDATA sections, comments,
//! processing instructions (skipped), XML declarations, the five predefined
//! entities and numeric character references. Namespaces are passed through
//! as plain prefixed names (the paper's descriptions do not use them).
//!
//! ```
//! use excovery_xml::parse;
//! let doc = parse("<exp><param key=\"sd_protocol\">zeroconf</param></exp>").unwrap();
//! let param = doc.root().find("param").unwrap();
//! assert_eq!(param.attr("key"), Some("sd_protocol"));
//! assert_eq!(param.text(), "zeroconf");
//! ```

mod builder;
pub mod error;
pub mod escape;
mod node;
mod parser;
pub mod query;
pub mod writer;

pub use builder::ElementBuilder;
pub use error::XmlError;
pub use node::{Document, Element, Node};
pub use parser::parse;
pub use writer::{to_string, to_string_pretty, WriteOptions};
