//! Error type for XML parsing and validation.

use std::fmt;

/// Result alias used throughout the crate.
pub(crate) type XmlResult<T> = Result<T, XmlError>;

/// An error raised while parsing or validating XML.
///
/// Every parse error carries the 1-based line and column where the problem
/// was detected so experiment-description mistakes can be reported precisely.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Classification of the failure.
    pub(crate) kind: XmlErrorKind,
    /// Human-readable explanation.
    pub message: String,
    /// 1-based line of the error, 0 if not applicable.
    pub line: usize,
    /// 1-based column of the error, 0 if not applicable.
    pub column: usize,
}

/// Classification of an [`XmlError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum XmlErrorKind {
    /// The byte stream was not well-formed XML.
    Syntax,
    /// An end tag did not match the open element.
    TagMismatch,
    /// The document ended inside an open construct.
    UnexpectedEof,
    /// An entity or character reference could not be resolved.
    BadReference,
    /// A structural expectation failed (e.g. missing required child).
    Validation,
}

impl XmlError {
    /// Creates a new error at the given position.
    pub(crate) fn new(
        kind: XmlErrorKind,
        message: impl Into<String>,
        line: usize,
        column: usize,
    ) -> Self {
        Self {
            kind,
            message: message.into(),
            line,
            column,
        }
    }

    /// Creates a validation error without position information.
    pub fn validation(message: impl Into<String>) -> Self {
        Self::new(XmlErrorKind::Validation, message, 0, 0)
    }
}

impl fmt::Display for XmlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line > 0 {
            write!(
                f,
                "{:?} at {}:{}: {}",
                self.kind, self.line, self.column, self.message
            )
        } else {
            write!(f, "{:?}: {}", self.kind, self.message)
        }
    }
}

impl std::error::Error for XmlError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_position() {
        let e = XmlError::new(XmlErrorKind::Syntax, "unexpected '<'", 3, 14);
        let s = e.to_string();
        assert!(s.contains("3:14"), "{s}");
        assert!(s.contains("unexpected '<'"), "{s}");
    }

    #[test]
    fn validation_has_no_position() {
        let e = XmlError::validation("missing child");
        assert_eq!(e.line, 0);
        assert!(!e.to_string().contains("0:0"));
    }
}
