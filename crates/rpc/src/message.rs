//! XML-RPC method calls, responses and faults.

use crate::value::Value;
use excovery_xml::{parse, Document, Element, XmlError};

/// A remote procedure call: `<methodCall>`.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodCall {
    /// Method name, e.g. `node.run_init`.
    pub method: String,
    /// Positional parameters.
    pub params: Vec<Value>,
}

/// An XML-RPC fault (`<fault>`), the protocol-level error report.
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    /// Numeric fault code.
    pub code: i32,
    /// Explanation.
    pub message: String,
}

impl Fault {
    /// Creates a fault.
    pub fn new(code: i32, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for Fault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fault {}: {}", self.code, self.message)
    }
}

impl std::error::Error for Fault {}

/// A response: either a single return value or a fault.
#[derive(Debug, Clone, PartialEq)]
pub enum MethodResponse {
    /// Successful return.
    Success(Value),
    /// Fault raised by the server.
    Fault(Fault),
}

impl MethodCall {
    /// Creates a call.
    pub fn new(method: impl Into<String>, params: Vec<Value>) -> Self {
        Self {
            method: method.into(),
            params,
        }
    }

    /// Serializes to the XML wire form.
    pub fn to_xml(&self) -> String {
        call_xml(&self.method, &self.params)
    }

    /// Parses from the XML wire form.
    pub fn from_xml(text: &str) -> Result<Self, XmlError> {
        let doc = parse(text)?;
        let root = doc.root();
        if root.name != "methodCall" {
            return Err(XmlError::validation(format!(
                "expected <methodCall>, found <{}>",
                root.name
            )));
        }
        let method = root
            .child("methodName")
            .map(|m| m.text())
            .ok_or_else(|| XmlError::validation("missing <methodName>"))?;
        let mut params = Vec::new();
        if let Some(ps) = root.child("params") {
            for p in ps.elements_named("param") {
                let v = p
                    .child("value")
                    .ok_or_else(|| XmlError::validation("<param> without <value>"))?;
                params.push(Value::from_element(v)?);
            }
        }
        Ok(Self { method, params })
    }
}

/// The XML wire form of a call of `method` with `params`, the bytes
/// [`MethodCall::to_xml`] writes, for a caller that holds the parts.
pub(crate) fn call_xml<'a>(method: &str, params: impl IntoIterator<Item = &'a Value>) -> String {
    let mut root = Element::new("methodCall");
    root.push(Element::with_text("methodName", method));
    let mut list = Element::new("params");
    for p in params {
        let mut param = Element::new("param");
        param.push(p.to_element());
        list.push(param);
    }
    root.push(list);
    excovery_xml::to_string(&Document::with_declaration(root))
}

impl MethodResponse {
    /// Serializes to the XML wire form.
    pub fn to_xml(&self) -> String {
        let mut root = Element::new("methodResponse");
        match self {
            MethodResponse::Success(v) => {
                let mut params = Element::new("params");
                let mut param = Element::new("param");
                param.push(v.to_element());
                params.push(param);
                root.push(params);
            }
            MethodResponse::Fault(f) => {
                let mut fault = Element::new("fault");
                fault.push(
                    Value::Struct(vec![
                        ("faultCode".into(), Value::Int(f.code)),
                        ("faultString".into(), Value::str(f.message.clone())),
                    ])
                    .to_element(),
                );
                root.push(fault);
            }
        }
        excovery_xml::to_string(&Document::with_declaration(root))
    }

    /// Parses from the XML wire form.
    pub fn from_xml(text: &str) -> Result<Self, XmlError> {
        let doc = parse(text)?;
        let root = doc.root();
        if root.name != "methodResponse" {
            return Err(XmlError::validation(format!(
                "expected <methodResponse>, found <{}>",
                root.name
            )));
        }
        if let Some(fault) = root.child("fault") {
            let v = fault
                .child("value")
                .ok_or_else(|| XmlError::validation("<fault> without <value>"))?;
            let v = Value::from_element(v)?;
            let code = v
                .member("faultCode")
                .and_then(Value::as_int)
                .ok_or_else(|| XmlError::validation("fault without faultCode"))?;
            let message = v
                .member("faultString")
                .and_then(Value::as_str)
                .unwrap_or("")
                .to_string();
            return Ok(MethodResponse::Fault(Fault { code, message }));
        }
        let value = root
            .find("params/param/value")
            .ok_or_else(|| XmlError::validation("response without value or fault"))?;
        Ok(MethodResponse::Success(Value::from_element(value)?))
    }

    /// Converts into a `Result`.
    pub(crate) fn into_result(self) -> Result<Value, Fault> {
        match self {
            MethodResponse::Success(v) => Ok(v),
            MethodResponse::Fault(f) => Err(f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_roundtrip() {
        let call = MethodCall::new(
            "node.sd_init",
            vec![
                Value::str("SU"),
                Value::Struct(vec![("timeout".into(), Value::Int(30))]),
            ],
        );
        let xml = call.to_xml();
        assert!(xml.contains("<methodCall>"));
        assert_eq!(MethodCall::from_xml(&xml).unwrap(), call);
    }

    #[test]
    fn call_without_params_roundtrip() {
        let call = MethodCall::new("experiment_init", vec![]);
        assert_eq!(MethodCall::from_xml(&call.to_xml()).unwrap(), call);
    }

    #[test]
    fn success_response_roundtrip() {
        let r = MethodResponse::Success(Value::Array(vec![Value::Int(1), Value::str("ok")]));
        assert_eq!(MethodResponse::from_xml(&r.to_xml()).unwrap(), r);
    }

    #[test]
    fn fault_response_roundtrip() {
        let r = MethodResponse::Fault(Fault::new(42, "node busy"));
        let xml = r.to_xml();
        assert!(xml.contains("faultCode"));
        assert_eq!(MethodResponse::from_xml(&xml).unwrap(), r);
    }

    #[test]
    fn into_result() {
        assert_eq!(
            MethodResponse::Success(Value::Int(1))
                .into_result()
                .unwrap(),
            Value::Int(1)
        );
        let f = MethodResponse::Fault(Fault::new(1, "x"))
            .into_result()
            .unwrap_err();
        assert_eq!(f.code, 1);
        assert!(f.to_string().contains("fault 1"));
    }

    #[test]
    fn rejects_malformed() {
        assert!(
            MethodCall::from_xml("<methodCall/>").is_err(),
            "no methodName"
        );
        assert!(MethodCall::from_xml("<other/>").is_err());
        assert!(
            MethodResponse::from_xml("<methodResponse/>").is_err(),
            "empty response"
        );
    }

    #[test]
    fn spec_example_parses() {
        // The canonical example from the XML-RPC spec.
        let xml = r#"<?xml version="1.0"?>
            <methodCall>
              <methodName>examples.getStateName</methodName>
              <params><param><value><i4>41</i4></value></param></params>
            </methodCall>"#;
        let call = MethodCall::from_xml(xml).unwrap();
        assert_eq!(call.method, "examples.getStateName");
        assert_eq!(call.params, vec![Value::Int(41)]);
    }
}
