//! XML binding for experiment descriptions.
//!
//! Emits and parses the dialect of the paper's listings (Figs. 4–10):
//! `<experiment>` with `<nodes>`, `<params>`, `<factorlist>`,
//! `<node_processes>`/`<env_process>` and `<platform>`. Round-tripping is
//! lossless for every construct the model represents; the schema-style
//! structural checks live in [`crate::validate`].

use crate::factors::{ActorAssignment, Factor, FactorList, FactorUsage, LevelValue, Replication};
use crate::model::{DescError, ExperimentDescription};
use crate::plan::Design;
use crate::platform::{NodeSpec, PlatformSpec};
use crate::process::{
    ActorProcess, EnvProcess, EventSelector, InstanceSelector, NodeSelector, ProcessAction,
    ValueRef,
};
use excovery_xml::{parse, Document, Element, ElementBuilder};

// ---------------------------------------------------------------- emitting

/// Serializes a description to pretty-printed XML.
pub fn to_xml(desc: &ExperimentDescription) -> String {
    excovery_xml::to_string_pretty(&Document::with_declaration(experiment_element(desc)))
}

/// Builds the `<experiment>` root element.
pub fn experiment_element(desc: &ExperimentDescription) -> Element {
    let mut root = ElementBuilder::new("experiment")
        .attr("name", &desc.name)
        .attr("seed", desc.seed)
        .attr(
            "design",
            match desc.design {
                Design::Ofat => "ofat",
                Design::CompletelyRandomized => "crd",
                Design::RandomizedWithinBlocks => "rcbd",
            },
        );
    if let Some(c) = &desc.comment {
        root = root.child(ElementBuilder::new("comment").text(c));
    }
    // Fig. 4: abstract nodes and informative parameters.
    root = root.child(
        ElementBuilder::new("nodes").children(
            desc.abstract_nodes
                .iter()
                .map(|n| ElementBuilder::new("node").attr("id", n)),
        ),
    );
    root = root.child(
        ElementBuilder::new("params").children(
            desc.params
                .iter()
                .map(|(k, v)| ElementBuilder::new("param").attr("key", k).attr("value", v)),
        ),
    );
    root = root.child_element(factorlist_element(&desc.factors));
    root = root.child(
        ElementBuilder::new("node_processes")
            .children(desc.node_processes.iter().map(actor_process_builder)),
    );
    for env in &desc.env_processes {
        root = root.child_element(env_process_element(env));
    }
    root = root.child_element(platform_element(&desc.platform));
    root.build()
}

/// Builds the `<factorlist>` element (Fig. 5).
pub fn factorlist_element(fl: &FactorList) -> Element {
    let mut b = ElementBuilder::new("factorlist");
    for f in &fl.factors {
        let mut fb = ElementBuilder::new("factor")
            .attr("id", &f.id)
            .attr("type", &f.level_type)
            .attr("usage", f.usage.as_str());
        if let Some(d) = &f.description {
            fb = fb.child(ElementBuilder::new("description").text(d));
        }
        let mut levels = ElementBuilder::new("levels");
        for level in &f.levels {
            levels = levels.child_element(level_element(level));
        }
        fb = fb.child(levels);
        b = b.child(fb);
    }
    b = b.child(
        ElementBuilder::new("replicationfactor")
            .attr("usage", "replication")
            .attr("type", "int")
            .attr("id", &fl.replication.id)
            .text(fl.replication.count),
    );
    b.build()
}

fn level_element(level: &LevelValue) -> Element {
    match level {
        LevelValue::ActorMap(assignments) => {
            let mut b = ElementBuilder::new("level");
            for a in assignments {
                let mut ab = ElementBuilder::new("actor").attr("id", &a.actor_id);
                for (i, inst) in a.instances.iter().enumerate() {
                    ab = ab.child(ElementBuilder::new("instance").attr("id", i).text(inst));
                }
                b = b.child(ab);
            }
            b.build()
        }
        other => Element::with_text("level", other.to_string()),
    }
}

fn actor_process_builder(p: &ActorProcess) -> ElementBuilder {
    let mut b = ElementBuilder::new("actor").attr("id", &p.actor_id);
    if let Some(n) = &p.name {
        b = b.attr("name", n);
    }
    if p.is_manipulation {
        b = b.attr("kind", "manipulation");
    }
    if let Some(f) = &p.nodes_factor {
        b = b.child(
            ElementBuilder::new("nodes").child(ElementBuilder::new("factorref").attr("id", f)),
        );
    }
    let mut actions = ElementBuilder::new("sd_actions");
    for a in &p.actions {
        actions = actions.child_element(action_element(a));
    }
    b.child(actions)
}

fn env_process_element(p: &EnvProcess) -> Element {
    let mut actions = ElementBuilder::new("env_actions");
    for a in &p.actions {
        actions = actions.child_element(action_element(a));
    }
    ElementBuilder::new("env_process").child(actions).build()
}

fn value_ref_child(name: &str, v: &ValueRef) -> Element {
    let mut e = Element::new(name);
    match v {
        ValueRef::Lit(l) => e.push_text(l.to_string()),
        ValueRef::FactorRef(id) => {
            let mut fr = Element::new("factorref");
            fr.set_attr("id", id);
            e.push(fr);
        }
    }
    e
}

/// Builds the XML element of one process action.
pub fn action_element(a: &ProcessAction) -> Element {
    match a {
        ProcessAction::WaitForTime { seconds } => value_ref_child("wait_for_time", seconds),
        ProcessAction::WaitMarker => Element::new("wait_marker"),
        ProcessAction::EventFlag { value } => {
            let mut e = Element::new("event_flag");
            e.push(Element::with_text("value", format!("\"{value}\"")));
            e
        }
        ProcessAction::WaitForEvent(sel) => {
            let mut e = Element::new("wait_for_event");
            if let Some(from) = &sel.from {
                let mut f = Element::new("from_dependency");
                f.push(node_selector_element(from));
                e.push(f);
            }
            e.push(Element::with_text(
                "event_dependency",
                format!("\"{}\"", sel.event),
            ));
            if let Some(param) = &sel.param {
                let mut pe = Element::new("param_dependency");
                pe.push(node_selector_element(param));
                e.push(pe);
            }
            if let Some(t) = &sel.timeout_s {
                match t {
                    ValueRef::Lit(l) => e.push(Element::with_text("timeout", format!("\"{l}\""))),
                    ValueRef::FactorRef(_) => e.push(value_ref_child("timeout", t)),
                }
            }
            e
        }
        ProcessAction::Invoke { name, params } => {
            let mut e = Element::new(name.clone());
            for (k, v) in params {
                e.push(value_ref_child(k, v));
            }
            e
        }
    }
}

fn node_selector_element(sel: &NodeSelector) -> Element {
    let mut e = Element::new("node");
    e.set_attr("actor", &sel.actor);
    match &sel.instance {
        InstanceSelector::All => e.set_attr("instance", "all"),
        InstanceSelector::Index(i) => e.set_attr("instance", i.to_string()),
    }
    e
}

/// Builds the `<platform>` element (Fig. 8).
pub fn platform_element(p: &PlatformSpec) -> Element {
    let mut b = ElementBuilder::new("platform");
    let mut actors = ElementBuilder::new("actor_nodes");
    for n in &p.actor_nodes {
        let mut nb = ElementBuilder::new("node")
            .attr("id", &n.id)
            .attr("address", &n.address);
        if let Some(a) = &n.abstract_id {
            nb = nb.attr("abstract", a);
        }
        actors = actors.child(nb);
    }
    b = b.child(actors);
    let mut envs = ElementBuilder::new("env_nodes");
    for n in &p.env_nodes {
        envs = envs.child(
            ElementBuilder::new("node")
                .attr("id", &n.id)
                .attr("address", &n.address),
        );
    }
    b = b.child(envs);
    if !p.special_params.is_empty() {
        b = b.child(
            ElementBuilder::new("special_params").children(
                p.special_params
                    .iter()
                    .map(|(k, v)| ElementBuilder::new("param").attr("key", k).attr("value", v)),
            ),
        );
    }
    b.build()
}

// ---------------------------------------------------------------- parsing

/// Parses a description from XML text.
pub fn from_xml(text: &str) -> Result<ExperimentDescription, DescError> {
    let doc = parse(text).map_err(|e| DescError(format!("XML: {e}")))?;
    from_element(doc.root())
}

/// Parses a description from a parsed `<experiment>` element.
pub(crate) fn from_element(root: &Element) -> Result<ExperimentDescription, DescError> {
    if root.name != "experiment" {
        return Err(DescError(format!(
            "expected <experiment>, found <{}>",
            root.name
        )));
    }
    let mut desc = ExperimentDescription::new(root.attr("name").unwrap_or("unnamed").to_string());
    desc.seed = root
        .attr("seed")
        .map(|s| s.parse().map_err(|_| DescError(format!("bad seed '{s}'"))))
        .transpose()?
        .unwrap_or(0);
    desc.design = match root.attr("design") {
        Some("crd") => Design::CompletelyRandomized,
        Some("rcbd") => Design::RandomizedWithinBlocks,
        _ => Design::Ofat,
    };
    desc.comment = root.child("comment").map(|c| c.text());
    if let Some(nodes) = root.child("nodes") {
        desc.abstract_nodes = nodes
            .elements_named("node")
            .filter_map(|n| n.attr("id").map(str::to_string))
            .collect();
    }
    if let Some(params) = root.child("params") {
        desc.params = params
            .elements_named("param")
            .filter_map(|p| Some((p.attr("key")?.to_string(), p.attr("value")?.to_string())))
            .collect();
    }
    if let Some(fl) = root.child("factorlist") {
        desc.factors = parse_factorlist(fl)?;
    }
    if let Some(nps) = root.child("node_processes") {
        for actor in nps.elements_named("actor") {
            desc.node_processes.push(parse_actor_process(actor)?);
        }
    }
    for env in root.elements_named("env_process") {
        desc.env_processes.push(parse_env_process(env)?);
    }
    if let Some(platform) = root.child("platform") {
        desc.platform = parse_platform(platform)?;
    }
    Ok(desc)
}

/// Parses a `<factorlist>` element (Fig. 5).
pub(crate) fn parse_factorlist(e: &Element) -> Result<FactorList, DescError> {
    let mut fl = FactorList::new();
    for f in e.elements_named("factor") {
        let id = f
            .attr("id")
            .ok_or_else(|| DescError("factor without id".into()))?;
        let usage_raw = f.attr("usage").unwrap_or("constant");
        let usage = FactorUsage::parse(usage_raw)
            .ok_or_else(|| DescError(format!("factor '{id}': unknown usage '{usage_raw}'")))?;
        let level_type = f.attr("type").unwrap_or("str").to_string();
        let mut levels = Vec::new();
        if let Some(ls) = f.child("levels") {
            for l in ls.elements_named("level") {
                levels.push(parse_level(l, &level_type, id)?);
            }
        }
        fl.factors.push(Factor {
            id: id.to_string(),
            usage,
            level_type,
            levels,
            description: f.child("description").map(|d| d.text()),
        });
    }
    if let Some(rf) = e.child("replicationfactor") {
        let id = rf.attr("id").unwrap_or("fact_replication_id").to_string();
        let count: u64 = rf
            .text()
            .parse()
            .map_err(|_| DescError(format!("bad replication count '{}'", rf.text())))?;
        fl.replication = Replication { id, count };
    }
    Ok(fl)
}

fn parse_level(l: &Element, level_type: &str, factor_id: &str) -> Result<LevelValue, DescError> {
    match level_type {
        "actor_node_map" => {
            let mut assignments = Vec::new();
            for a in l.elements_named("actor") {
                let actor_id = a
                    .attr("id")
                    .ok_or_else(|| DescError(format!("factor '{factor_id}': actor without id")))?;
                // Instances sorted by their id attribute (document order of
                // equal ids preserved).
                let mut instances: Vec<(u32, String)> = a
                    .elements_named("instance")
                    .map(|i| {
                        let idx = i.attr("id").and_then(|s| s.parse().ok()).unwrap_or(0);
                        (idx, i.text())
                    })
                    .collect();
                instances.sort_by_key(|(i, _)| *i);
                assignments.push(ActorAssignment {
                    actor_id: actor_id.to_string(),
                    instances: instances.into_iter().map(|(_, n)| n).collect(),
                });
            }
            Ok(LevelValue::ActorMap(assignments))
        }
        "int" => l
            .text()
            .parse()
            .map(LevelValue::Int)
            .map_err(|_| DescError(format!("factor '{factor_id}': bad int '{}'", l.text()))),
        "float" => l
            .text()
            .parse()
            .map(LevelValue::Float)
            .map_err(|_| DescError(format!("factor '{factor_id}': bad float '{}'", l.text()))),
        _ => Ok(LevelValue::Text(l.text())),
    }
}

fn parse_actor_process(e: &Element) -> Result<ActorProcess, DescError> {
    let mut p = ActorProcess::new(
        e.attr("id")
            .ok_or_else(|| DescError("actor process without id".into()))?,
    );
    p.name = e.attr("name").map(str::to_string);
    p.is_manipulation = e.attr("kind") == Some("manipulation");
    p.nodes_factor = e
        .find("nodes/factorref")
        .and_then(|fr| fr.attr("id"))
        .map(str::to_string);
    if let Some(actions) = e.child("sd_actions").or_else(|| e.child("actions")) {
        p.actions = parse_actions(actions)?;
    }
    Ok(p)
}

fn parse_env_process(e: &Element) -> Result<EnvProcess, DescError> {
    let mut p = EnvProcess::default();
    if let Some(actions) = e.child("env_actions").or_else(|| e.child("actions")) {
        p.actions = parse_actions(actions)?;
    }
    Ok(p)
}

/// Parses a sequence of actions from an actions container element.
pub(crate) fn parse_actions(container: &Element) -> Result<Vec<ProcessAction>, DescError> {
    container.elements().map(parse_action).collect()
}

fn unquote(s: &str) -> String {
    s.trim().trim_matches('"').to_string()
}

fn parse_value_ref(e: &Element) -> ValueRef {
    if let Some(fr) = e.child("factorref") {
        return ValueRef::FactorRef(fr.attr("id").unwrap_or_default().to_string());
    }
    let text = unquote(&e.text());
    if let Ok(i) = text.parse::<i64>() {
        ValueRef::Lit(LevelValue::Int(i))
    } else if let Ok(f) = text.parse::<f64>() {
        ValueRef::Lit(LevelValue::Float(f))
    } else {
        ValueRef::Lit(LevelValue::Text(text))
    }
}

fn parse_node_selector(e: &Element) -> Result<NodeSelector, DescError> {
    let node = e
        .child("node")
        .ok_or_else(|| DescError(format!("<{}> without <node>", e.name)))?;
    let actor = node
        .attr("actor")
        .ok_or_else(|| DescError("node selector without actor".into()))?
        .to_string();
    let instance = match node.attr("instance") {
        None | Some("all") => InstanceSelector::All,
        Some(s) => InstanceSelector::Index(
            s.parse()
                .map_err(|_| DescError(format!("bad instance '{s}'")))?,
        ),
    };
    Ok(NodeSelector { actor, instance })
}

fn parse_action(e: &Element) -> Result<ProcessAction, DescError> {
    match e.name.as_str() {
        "wait_for_time" => Ok(ProcessAction::WaitForTime {
            seconds: parse_value_ref(e),
        }),
        "wait_marker" => Ok(ProcessAction::WaitMarker),
        "event_flag" => {
            let value = e
                .child("value")
                .map(|v| unquote(&v.text()))
                .unwrap_or_else(|| unquote(&e.text()));
            Ok(ProcessAction::EventFlag { value })
        }
        "wait_for_event" => {
            let event = e
                .child("event_dependency")
                .map(|d| unquote(&d.text()))
                .ok_or_else(|| DescError("wait_for_event without event_dependency".into()))?;
            let mut sel = EventSelector::named(event);
            if let Some(from) = e.child("from_dependency") {
                sel = sel.from_nodes(parse_node_selector(from)?);
            }
            if let Some(param) = e.child("param_dependency") {
                sel = sel.with_param(parse_node_selector(param)?);
            }
            if let Some(t) = e.child("timeout") {
                sel = sel.with_timeout(parse_value_ref(t));
            }
            Ok(ProcessAction::WaitForEvent(sel))
        }
        _ => {
            let params = e
                .elements()
                .map(|child| (child.name.clone(), parse_value_ref(child)))
                .collect();
            Ok(ProcessAction::Invoke {
                name: e.name.clone(),
                params,
            })
        }
    }
}

fn parse_platform(e: &Element) -> Result<PlatformSpec, DescError> {
    let mut p = PlatformSpec::new();
    if let Some(actors) = e.child("actor_nodes") {
        for n in actors.elements_named("node") {
            p.actor_nodes.push(NodeSpec {
                id: n.attr("id").unwrap_or_default().to_string(),
                address: n.attr("address").unwrap_or_default().to_string(),
                abstract_id: n.attr("abstract").map(str::to_string),
            });
        }
    }
    if let Some(envs) = e.child("env_nodes") {
        for n in envs.elements_named("node") {
            p.env_nodes.push(NodeSpec {
                id: n.attr("id").unwrap_or_default().to_string(),
                address: n.attr("address").unwrap_or_default().to_string(),
                abstract_id: None,
            });
        }
    }
    if let Some(sp) = e.child("special_params") {
        p.special_params = sp
            .elements_named("param")
            .filter_map(|el| Some((el.attr("key")?.to_string(), el.attr("value")?.to_string())))
            .collect();
    }
    Ok(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_paper_description_roundtrips() {
        let d = ExperimentDescription::paper_two_party_sd(1000);
        let xml = to_xml(&d);
        let back = from_xml(&xml).expect("parse back");
        assert_eq!(back, d);
    }

    #[test]
    fn emitted_xml_contains_paper_constructs() {
        let d = ExperimentDescription::paper_two_party_sd(1000);
        let xml = to_xml(&d);
        for needle in [
            "<factorlist>",
            "fact_pairs",
            "fact_bw",
            "<replicationfactor",
            "1000",
            "sd_start_publish",
            "sd_service_add",
            "env_traffic_start",
            "random_switch_seed",
            "wait_marker",
            "event_flag",
            "\"done\"",
            "actor_nodes",
        ] {
            assert!(xml.contains(needle), "missing {needle} in\n{xml}");
        }
    }

    #[test]
    fn parses_paper_fig5_listing_shape() {
        // A close transcription of the paper's Fig. 5 listing.
        let xml = r#"
        <experiment name="fig5">
         <factorlist>
          <factor id="fact_nodes" type="actor_node_map" usage="blocking">
            <levels><level>
            <actor id="actor0"><instance id="0">A</instance></actor>
            <actor id="actor1"><instance id="0">B</instance></actor>
            </level></levels>
          </factor>
          <factor usage="random" type="int" id="fact_pairs">
            <levels><level>5</level><level>20</level></levels>
          </factor>
          <factor usage="constant" id="fact_bw" type="int">
            <!-- datarate generated load -->
            <levels><level>10</level><level>50</level><level>100</level></levels>
          </factor>
          <replicationfactor usage="replication" type="int"
             id="fact_replication_id">1000</replicationfactor>
         </factorlist>
        </experiment>"#;
        let d = from_xml(xml).unwrap();
        assert_eq!(d.factors.factors.len(), 3);
        assert_eq!(d.factors.replication.count, 1000);
        assert_eq!(d.factors.treatment_count(), 6);
        let map = d.factors.factor("fact_nodes").unwrap();
        let lv = map.levels[0].as_actor_map().unwrap();
        assert_eq!(lv[0].actor_id, "actor0");
        assert_eq!(lv[0].instances, vec!["A"]);
        assert_eq!(lv[1].instances, vec!["B"]);
    }

    #[test]
    fn parses_paper_fig10_su_process() {
        let xml = r#"
        <experiment name="fig10">
          <node_processes>
            <actor id="actor1" name="SU">
              <sd_actions>
                <wait_for_event>
                  <from_dependency><node actor="actor0" instance="all"/></from_dependency>
                  <event_dependency>"sd_start_publish"</event_dependency>
                </wait_for_event>
                <wait_for_event>
                  <event_dependency>"ready_to_init"</event_dependency>
                </wait_for_event>
                <sd_init />
                <wait_marker />
                <sd_start_search />
                <wait_for_event>
                  <from_dependency><node actor="actor1" instance="all"/></from_dependency>
                  <event_dependency>"sd_service_add"</event_dependency>
                  <param_dependency><node actor="actor0" instance="all"/></param_dependency>
                  <timeout>"30"</timeout>
                </wait_for_event>
                <event_flag><value>"done"</value></event_flag>
                <sd_stop_search />
                <sd_exit />
              </sd_actions>
            </actor>
          </node_processes>
        </experiment>"#;
        let d = from_xml(xml).unwrap();
        let su = d.node_process("actor1").unwrap();
        assert_eq!(su.actions.len(), 9);
        match &su.actions[5] {
            ProcessAction::WaitForEvent(sel) => {
                assert_eq!(sel.event, "sd_service_add");
                assert_eq!(sel.timeout_s, Some(ValueRef::int(30)));
                assert!(sel.param.is_some());
                assert!(sel.require_all);
            }
            other => panic!("unexpected action {other:?}"),
        }
        assert_eq!(
            su.actions[6],
            ProcessAction::EventFlag {
                value: "done".into()
            }
        );
    }

    #[test]
    fn parses_paper_fig7_env_process() {
        let xml = r#"
        <experiment name="fig7">
          <env_process>
            <env_actions>
              <event_flag><value>"ready_to_init"</value></event_flag>
              <env_traffic_start>
                <bw><factorref id="fact_bw" /></bw>
                <choice>0</choice>
                <random_switch_amount>"1"</random_switch_amount>
                <random_switch_seed><factorref id="fact_replication_id" /></random_switch_seed>
                <random_pairs><factorref id="fact_pairs" /></random_pairs>
                <random_seed><factorref id="fact_pairs"/></random_seed>
              </env_traffic_start>
              <wait_for_event>
                <event_dependency>"done"</event_dependency>
              </wait_for_event>
              <env_traffic_stop />
            </env_actions>
          </env_process>
        </experiment>"#;
        let d = from_xml(xml).unwrap();
        assert_eq!(d.env_processes.len(), 1);
        let env = &d.env_processes[0];
        assert_eq!(env.actions.len(), 4);
        match &env.actions[1] {
            ProcessAction::Invoke { name, params } => {
                assert_eq!(name, "env_traffic_start");
                assert_eq!(params.len(), 6);
                assert_eq!(params[0], ("bw".to_string(), ValueRef::factor("fact_bw")));
                assert_eq!(
                    params[2],
                    ("random_switch_amount".to_string(), ValueRef::int(1))
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_fig4_informative_params() {
        let xml = r#"
        <experiment name="fig4">
          <nodes><node id="A"/><node id="B"/></nodes>
          <params>
            <param key="sd_architecture" value="two-party"/>
            <param key="sd_protocol" value="zeroconf"/>
            <param key="sd_scheme" value="active"/>
          </params>
        </experiment>"#;
        let d = from_xml(xml).unwrap();
        assert_eq!(d.abstract_nodes, vec!["A", "B"]);
        assert_eq!(d.param("sd_scheme"), Some("active"));
    }

    #[test]
    fn parses_fig8_platform() {
        let d = ExperimentDescription::paper_two_party_sd(1);
        let xml = to_xml(&d);
        let back = from_xml(&xml).unwrap();
        assert_eq!(back.platform.actor_nodes.len(), 2);
        assert_eq!(back.platform.env_nodes.len(), 4);
        assert_eq!(back.platform.node_for_abstract("A").unwrap().id, "t9-157");
    }

    #[test]
    fn rejects_non_experiment_root() {
        assert!(from_xml("<potato/>").is_err());
    }

    #[test]
    fn rejects_bad_factor_values() {
        let xml = r#"<experiment name="x"><factorlist>
            <factor id="f" type="int" usage="constant">
              <levels><level>notanint</level></levels>
            </factor></factorlist></experiment>"#;
        assert!(from_xml(xml).is_err());
    }

    #[test]
    fn rejects_unknown_usage() {
        let xml = r#"<experiment name="x"><factorlist>
            <factor id="f" type="int" usage="sometimes">
              <levels><level>1</level></levels>
            </factor></factorlist></experiment>"#;
        let err = from_xml(xml).unwrap_err();
        assert!(err.0.contains("usage"), "{err}");
    }

    #[test]
    fn wait_for_event_requires_event_dependency() {
        let xml = r#"<experiment name="x"><env_process><env_actions>
            <wait_for_event><timeout>"5"</timeout></wait_for_event>
        </env_actions></env_process></experiment>"#;
        assert!(from_xml(xml).is_err());
    }

    #[test]
    fn manipulation_kind_roundtrips() {
        let mut d = ExperimentDescription::new("m");
        let mut p = ActorProcess::new("fault0");
        p.is_manipulation = true;
        p.actions = vec![
            ProcessAction::invoke_with(
                "fault_message_loss_start",
                [(
                    "probability".to_string(),
                    ValueRef::Lit(LevelValue::Float(0.25)),
                )],
            ),
            ProcessAction::WaitForTime {
                seconds: ValueRef::int(5),
            },
            ProcessAction::invoke("fault_message_loss_stop"),
        ];
        d.node_processes.push(p);
        let back = from_xml(&to_xml(&d)).unwrap();
        assert!(back.node_processes[0].is_manipulation);
        assert_eq!(back.node_processes[0].actions.len(), 3);
        match &back.node_processes[0].actions[0] {
            ProcessAction::Invoke { params, .. } => {
                assert_eq!(params[0].1, ValueRef::Lit(LevelValue::Float(0.25)));
            }
            _ => panic!(),
        }
    }
}
