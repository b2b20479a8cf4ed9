//! The experiment-description schema document.
//!
//! "An XML schema description is provided with the framework code"
//! (paper §IV-C). This module ships that schema as a W3C XML Schema (XSD)
//! document describing the description dialect of Figs. 4–10, generated
//! from one source of truth so it cannot drift from the parser. Semantic
//! checks beyond grammar live in [`crate::validate`].

use excovery_xml::{Element, ElementBuilder};

const XS: &str = "xs";

fn element(name: &str, type_ref: &str, min: u32, max: Option<u32>) -> ElementBuilder {
    let b = ElementBuilder::new(format!("{XS}:element"))
        .attr("name", name)
        .attr("type", type_ref)
        .attr("minOccurs", min);
    match max {
        Some(m) => b.attr("maxOccurs", m),
        None => b.attr("maxOccurs", "unbounded"),
    }
}

fn attribute(name: &str, type_ref: &str, required: bool) -> ElementBuilder {
    ElementBuilder::new(format!("{XS}:attribute"))
        .attr("name", name)
        .attr("type", type_ref)
        .attr("use", if required { "required" } else { "optional" })
}

fn complex_type(name: &str, children: Vec<ElementBuilder>, attrs: Vec<ElementBuilder>) -> Element {
    let mut t = ElementBuilder::new(format!("{XS}:complexType")).attr("name", name);
    if !children.is_empty() {
        t = t.child(ElementBuilder::new(format!("{XS}:sequence")).children(children));
    }
    t = t.children(attrs);
    t.build()
}

/// Builds the XSD document for the experiment-description dialect.
pub(crate) fn schema_document() -> Element {
    let mut root = ElementBuilder::new(format!("{XS}:schema"))
        .attr("xmlns:xs", "http://www.w3.org/2001/XMLSchema")
        .attr("elementFormDefault", "qualified");

    // Root element.
    root = root.child(
        ElementBuilder::new(format!("{XS}:element"))
            .attr("name", "experiment")
            .attr("type", "ExperimentType"),
    );

    // experiment
    root = root.child_element(complex_type(
        "ExperimentType",
        vec![
            element("comment", "xs:string", 0, Some(1)),
            element("nodes", "NodesType", 0, Some(1)),
            element("params", "ParamsType", 0, Some(1)),
            element("factorlist", "FactorListType", 0, Some(1)),
            element("node_processes", "NodeProcessesType", 0, Some(1)),
            element("env_process", "EnvProcessType", 0, None),
            element("platform", "PlatformType", 0, Some(1)),
        ],
        vec![
            attribute("name", "xs:string", true),
            attribute("seed", "xs:unsignedLong", false),
            attribute("design", "DesignType", false),
        ],
    ));

    // design enumeration
    root = root.child(
        ElementBuilder::new(format!("{XS}:simpleType"))
            .attr("name", "DesignType")
            .child(
                ElementBuilder::new(format!("{XS}:restriction"))
                    .attr("base", "xs:string")
                    .children(["ofat", "crd", "rcbd"].iter().map(|v| {
                        ElementBuilder::new(format!("{XS}:enumeration")).attr("value", *v)
                    })),
            ),
    );

    // usage enumeration (Fig. 5)
    root = root.child(
        ElementBuilder::new(format!("{XS}:simpleType"))
            .attr("name", "UsageType")
            .child(
                ElementBuilder::new(format!("{XS}:restriction"))
                    .attr("base", "xs:string")
                    .children(
                        ["blocking", "random", "constant", "replication"]
                            .iter()
                            .map(|v| {
                                ElementBuilder::new(format!("{XS}:enumeration")).attr("value", *v)
                            }),
                    ),
            ),
    );

    // nodes / params (Fig. 4)
    root = root.child_element(complex_type(
        "NodesType",
        vec![element("node", "AbstractNodeType", 0, None)],
        vec![],
    ));
    root = root.child_element(complex_type(
        "AbstractNodeType",
        vec![],
        vec![attribute("id", "xs:string", true)],
    ));
    root = root.child_element(complex_type(
        "ParamsType",
        vec![element("param", "ParamType", 0, None)],
        vec![],
    ));
    root = root.child_element(complex_type(
        "ParamType",
        vec![],
        vec![
            attribute("key", "xs:string", true),
            attribute("value", "xs:string", true),
        ],
    ));

    // factor list (Fig. 5)
    root = root.child_element(complex_type(
        "FactorListType",
        vec![
            element("factor", "FactorType", 0, None),
            element("replicationfactor", "ReplicationType", 0, Some(1)),
        ],
        vec![],
    ));
    root = root.child_element(complex_type(
        "FactorType",
        vec![
            element("description", "xs:string", 0, Some(1)),
            element("levels", "LevelsType", 1, Some(1)),
        ],
        vec![
            attribute("id", "xs:string", true),
            attribute("type", "xs:string", true),
            attribute("usage", "UsageType", true),
        ],
    ));
    root = root.child_element(complex_type(
        "LevelsType",
        vec![element("level", "LevelType", 1, None)],
        vec![],
    ));
    // A level is mixed content: scalar text or nested actor assignments.
    root = root.child(
        ElementBuilder::new(format!("{XS}:complexType"))
            .attr("name", "LevelType")
            .attr("mixed", "true")
            .child(ElementBuilder::new(format!("{XS}:sequence")).child(element(
                "actor",
                "ActorAssignmentType",
                0,
                None,
            ))),
    );
    root = root.child_element(complex_type(
        "ActorAssignmentType",
        vec![element("instance", "InstanceType", 1, None)],
        vec![attribute("id", "xs:string", true)],
    ));
    root = root.child(
        ElementBuilder::new(format!("{XS}:complexType"))
            .attr("name", "InstanceType")
            .attr("mixed", "true")
            .child(attribute("id", "xs:unsignedInt", false)),
    );
    root = root.child_element(complex_type(
        "ReplicationType",
        vec![],
        vec![
            attribute("id", "xs:string", true),
            attribute("type", "xs:string", false),
            attribute("usage", "UsageType", false),
        ],
    ));

    // processes (Figs. 6/9/10): the action vocabulary is open (plugins!),
    // so actions validate as xs:any with the flow-control elements named.
    root = root.child_element(complex_type(
        "NodeProcessesType",
        vec![element("actor", "ActorProcessType", 0, None)],
        vec![],
    ));
    root = root.child_element(complex_type(
        "ActorProcessType",
        vec![
            element("nodes", "NodesRefType", 0, Some(1)),
            element("sd_actions", "ActionsType", 0, Some(1)),
        ],
        vec![
            attribute("id", "xs:string", true),
            attribute("name", "xs:string", false),
            attribute("kind", "xs:string", false),
        ],
    ));
    root = root.child_element(complex_type(
        "NodesRefType",
        vec![element("factorref", "FactorRefType", 1, Some(1))],
        vec![],
    ));
    root = root.child_element(complex_type(
        "FactorRefType",
        vec![],
        vec![attribute("id", "xs:string", true)],
    ));
    root = root.child(
        ElementBuilder::new(format!("{XS}:complexType"))
            .attr("name", "ActionsType")
            .child(
                ElementBuilder::new(format!("{XS}:sequence")).child(
                    ElementBuilder::new(format!("{XS}:any"))
                        .attr("minOccurs", 0)
                        .attr("maxOccurs", "unbounded")
                        .attr("processContents", "lax"),
                ),
            ),
    );
    root = root.child_element(complex_type(
        "EnvProcessType",
        vec![element("env_actions", "ActionsType", 0, Some(1))],
        vec![],
    ));

    // platform (Fig. 8)
    root = root.child_element(complex_type(
        "PlatformType",
        vec![
            element("actor_nodes", "PlatformNodesType", 0, Some(1)),
            element("env_nodes", "PlatformNodesType", 0, Some(1)),
            element("special_params", "ParamsType", 0, Some(1)),
        ],
        vec![],
    ));
    root = root.child_element(complex_type(
        "PlatformNodesType",
        vec![element("node", "PlatformNodeType", 0, None)],
        vec![],
    ));
    root = root.child_element(complex_type(
        "PlatformNodeType",
        vec![],
        vec![
            attribute("id", "xs:string", true),
            attribute("address", "xs:string", true),
            attribute("abstract", "xs:string", false),
        ],
    ));

    root.build()
}

/// The schema as a pretty-printed XML document.
pub fn schema_text() -> String {
    excovery_xml::to_string_pretty(&excovery_xml::Document::with_declaration(schema_document()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use excovery_xml::parse;

    #[test]
    fn schema_is_wellformed_xml() {
        let text = schema_text();
        let doc = parse(&text).expect("schema parses");
        assert_eq!(doc.root().name, "xs:schema");
    }

    #[test]
    fn schema_declares_all_description_types() {
        let schema = schema_document();
        let names: Vec<&str> = schema
            .find_all("xs:complexType")
            .iter()
            .filter_map(|t| t.attr("name"))
            .collect();
        for expected in [
            "ExperimentType",
            "FactorListType",
            "FactorType",
            "LevelsType",
            "LevelType",
            "ActorAssignmentType",
            "ReplicationType",
            "NodeProcessesType",
            "ActorProcessType",
            "ActionsType",
            "EnvProcessType",
            "PlatformType",
            "PlatformNodeType",
        ] {
            assert!(
                names.contains(&expected),
                "schema lacks {expected}: {names:?}"
            );
        }
    }

    #[test]
    fn usage_enumeration_matches_factor_usage() {
        let schema = schema_document();
        let usage = schema
            .find_all("xs:simpleType")
            .into_iter()
            .find(|t| t.attr("name") == Some("UsageType"))
            .expect("UsageType present");
        let values: Vec<&str> = usage
            .find_all("xs:restriction/xs:enumeration")
            .iter()
            .filter_map(|e| e.attr("value"))
            .collect();
        use crate::factors::FactorUsage;
        for u in [
            FactorUsage::Blocking,
            FactorUsage::Random,
            FactorUsage::Constant,
            FactorUsage::Replication,
        ] {
            assert!(values.contains(&u.as_str()), "{values:?}");
        }
    }

    #[test]
    fn design_enumeration_matches_designs() {
        let text = schema_text();
        for d in ["ofat", "crd", "rcbd"] {
            assert!(text.contains(&format!("value=\"{d}\"")), "{d}");
        }
    }

    #[test]
    fn paper_description_elements_are_declared() {
        // Every element the paper's listings use appears in the schema.
        let text = schema_text();
        for name in [
            "factorlist",
            "replicationfactor",
            "env_process",
            "node_processes",
            "actor_nodes",
            "env_nodes",
            "sd_actions",
            "env_actions",
        ] {
            assert!(text.contains(&format!("name=\"{name}\"")), "{name}");
        }
    }
}
