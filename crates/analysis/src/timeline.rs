//! Fig. 11 — visualization of a one-shot discovery process.
//!
//! "It shows a single active SD in a two-party architecture with a timeline
//! for each actor SU and SM. Actions are shown as white circles, events as
//! black circles." This module renders the stored event list of a run as
//! such a per-actor timeline, in ASCII (for the terminal harness) and SVG.

use excovery_store::records::EventRow;
use std::collections::BTreeMap;

/// A classified marker on a lane.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Marker {
    /// Common time, ns.
    pub t_ns: i64,
    /// Event name.
    pub name: String,
    /// True for actions (white circles), false for events (black).
    pub is_action: bool,
}

/// A per-node timeline extracted from a run.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// Node label → markers in time order.
    pub(crate) lanes: BTreeMap<String, Vec<Marker>>,
}

/// Names rendered as *actions* (white circles in Fig. 11): the SD actions
/// of §V and the flow-control flags; everything else is an event.
fn is_action(name: &str) -> bool {
    matches!(
        name,
        "sd_init_done"
            | "sd_exit_done"
            | "sd_start_search"
            | "sd_stop_search"
            | "sd_start_publish"
            | "sd_stop_publish"
    )
}

impl Timeline {
    /// Builds a timeline from a run's events, keeping only nodes in
    /// `actors` (label mapping: platform id → display label). Master-side
    /// lifecycle events are dropped.
    pub fn from_events(events: &[EventRow], actors: &BTreeMap<String, String>) -> Self {
        let mut lanes: BTreeMap<String, Vec<Marker>> = BTreeMap::new();
        for (pid, label) in actors {
            lanes.insert(label.clone(), Vec::new());
            for e in events.iter().filter(|e| &e.node_id == pid) {
                lanes.get_mut(label).unwrap().push(Marker {
                    t_ns: e.common_time_ns,
                    name: e.event_type.clone(),
                    is_action: is_action(&e.event_type),
                });
            }
        }
        for markers in lanes.values_mut() {
            markers.sort_by_key(|m| m.t_ns);
        }
        Self { lanes }
    }

    fn time_range(&self) -> Option<(i64, i64)> {
        let times: Vec<i64> = self.lanes.values().flatten().map(|m| m.t_ns).collect();
        let lo = *times.iter().min()?;
        let hi = *times.iter().max()?;
        Some((lo, hi.max(lo + 1)))
    }

    /// The response time t_R: span from the first `sd_start_search` to the
    /// first subsequent `sd_service_add`, if both occur.
    pub fn t_r_ns(&self) -> Option<i64> {
        let all: Vec<&Marker> = {
            let mut v: Vec<&Marker> = self.lanes.values().flatten().collect();
            v.sort_by_key(|m| m.t_ns);
            v
        };
        let start = all.iter().find(|m| m.name == "sd_start_search")?.t_ns;
        let add = all
            .iter()
            .find(|m| m.name == "sd_service_add" && m.t_ns >= start)?
            .t_ns;
        Some(add - start)
    }

    /// Renders the timeline as ASCII art (fixed width `cols`).
    pub fn render_ascii(&self, cols: usize) -> String {
        let Some((lo, hi)) = self.time_range() else {
            return String::from("(empty timeline)\n");
        };
        let cols = cols.max(20);
        let span = (hi - lo) as f64;
        let mut out = String::new();
        out.push_str(&format!(
            "one-shot discovery timeline  [{:.3}s .. {:.3}s]\n",
            lo as f64 / 1e9,
            hi as f64 / 1e9
        ));
        if let Some(t_r) = self.t_r_ns() {
            out.push_str(&format!("t_R = {:.3} ms\n", t_r as f64 / 1e6));
        }
        let label_w = self.lanes.keys().map(String::len).max().unwrap_or(3).max(3);
        let mut legend: Vec<String> = Vec::new();
        let mut idx = 0usize;
        for (label, markers) in &self.lanes {
            let mut lane: Vec<char> = vec!['-'; cols];
            for m in markers {
                let pos = (((m.t_ns - lo) as f64 / span) * (cols - 1) as f64).round() as usize;
                let symbol = char::from_digit(((idx % 35) + 1) as u32, 36).unwrap();
                // Collisions shift right to stay visible.
                let mut p = pos.min(cols - 1);
                while lane[p] != '-' && p + 1 < cols {
                    p += 1;
                }
                lane[p] = symbol;
                let circle = if m.is_action { "○" } else { "●" };
                legend.push(format!(
                    "  {symbol} {circle} {label}: {} @ {:.4}s",
                    m.name,
                    m.t_ns as f64 / 1e9
                ));
                idx += 1;
            }
            out.push_str(&format!(
                "{label:>label_w$} |{}|\n",
                lane.iter().collect::<String>()
            ));
        }
        out.push_str("legend (○ action, ● event):\n");
        for l in legend {
            out.push_str(&l);
            out.push('\n');
        }
        out
    }

    /// Renders the timeline as a standalone SVG document.
    pub fn render_svg(&self, width: u32) -> String {
        let Some((lo, hi)) = self.time_range() else {
            return String::from("<svg xmlns=\"http://www.w3.org/2000/svg\"/>");
        };
        let width = width.max(200);
        let lane_h = 48;
        let margin = 90.0;
        let usable = width as f64 - margin - 20.0;
        let span = (hi - lo) as f64;
        let height = self.lanes.len() as u32 * lane_h + 60;
        let mut s = format!(
            "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{width}\" height=\"{height}\" \
             font-family=\"sans-serif\" font-size=\"11\">\n"
        );
        if let Some(t_r) = self.t_r_ns() {
            s.push_str(&format!(
                "  <text x=\"{margin}\" y=\"16\">t_R = {:.3} ms</text>\n",
                t_r as f64 / 1e6
            ));
        }
        for (i, (label, markers)) in self.lanes.iter().enumerate() {
            let y = 40.0 + i as f64 * lane_h as f64;
            s.push_str(&format!(
                "  <text x=\"8\" y=\"{:.1}\">{label}</text>\n",
                y + 4.0
            ));
            s.push_str(&format!(
                "  <line x1=\"{margin}\" y1=\"{y}\" x2=\"{:.1}\" y2=\"{y}\" stroke=\"#444\"/>\n",
                margin + usable
            ));
            for m in markers {
                let x = margin + ((m.t_ns - lo) as f64 / span) * usable;
                let fill = if m.is_action { "white" } else { "black" };
                s.push_str(&format!(
                    "  <circle cx=\"{x:.1}\" cy=\"{y}\" r=\"5\" fill=\"{fill}\" stroke=\"black\"/>\n"
                ));
                s.push_str(&format!(
                    "  <text x=\"{x:.1}\" y=\"{:.1}\" transform=\"rotate(40 {x:.1} {:.1})\">{}</text>\n",
                    y + 18.0,
                    y + 18.0,
                    m.name
                ));
            }
        }
        s.push_str("</svg>\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(node: &str, t: i64, name: &str) -> EventRow {
        EventRow {
            run_id: 0,
            node_id: node.into(),
            common_time_ns: t,
            event_type: name.into(),
            parameter: String::new(),
        }
    }

    fn fig11_events() -> Vec<EventRow> {
        vec![
            ev("t9-157", 0, "sd_init_done"),
            ev("t9-157", 50_000_000, "sd_start_publish"),
            ev("t9-105", 80_000_000, "sd_init_done"),
            ev("t9-105", 100_000_000, "sd_start_search"),
            ev("t9-105", 340_000_000, "sd_service_add"),
            ev("t9-105", 350_000_000, "done"),
            ev("t9-157", 400_000_000, "sd_stop_publish"),
            ev("master", 500_000_000, "run_exit"),
        ]
    }

    fn actors() -> BTreeMap<String, String> {
        BTreeMap::from([
            ("t9-157".to_string(), "SM1".to_string()),
            ("t9-105".to_string(), "SU1".to_string()),
        ])
    }

    #[test]
    fn lanes_are_per_actor_and_sorted() {
        let tl = Timeline::from_events(&fig11_events(), &actors());
        assert_eq!(tl.lanes.len(), 2);
        assert_eq!(tl.lanes["SM1"].len(), 3);
        assert_eq!(tl.lanes["SU1"].len(), 4);
        for markers in tl.lanes.values() {
            for w in markers.windows(2) {
                assert!(w[0].t_ns <= w[1].t_ns);
            }
        }
        // Master events excluded.
        assert!(tl.lanes.values().flatten().all(|m| m.name != "run_exit"));
    }

    #[test]
    fn t_r_matches_fig11_definition() {
        let tl = Timeline::from_events(&fig11_events(), &actors());
        assert_eq!(tl.t_r_ns(), Some(240_000_000));
    }

    #[test]
    fn action_vs_event_classification() {
        let tl = Timeline::from_events(&fig11_events(), &actors());
        let add = tl.lanes["SU1"]
            .iter()
            .find(|m| m.name == "sd_service_add")
            .unwrap();
        assert!(!add.is_action, "sd_service_add is an event (black)");
        let start = tl.lanes["SU1"]
            .iter()
            .find(|m| m.name == "sd_start_search")
            .unwrap();
        assert!(start.is_action, "sd_start_search is an action (white)");
    }

    #[test]
    fn ascii_render_contains_lanes_and_legend() {
        let tl = Timeline::from_events(&fig11_events(), &actors());
        let text = tl.render_ascii(72);
        assert!(text.contains("SM1 |"));
        assert!(text.contains("SU1 |"));
        assert!(text.contains("t_R = 240.000 ms"));
        assert!(text.contains("● SU1: sd_service_add"));
        assert!(text.contains("○ SU1: sd_start_search"));
    }

    #[test]
    fn svg_render_is_wellformed_xml() {
        let tl = Timeline::from_events(&fig11_events(), &actors());
        let svg = tl.render_svg(800);
        let doc = excovery_xml::parse(&svg).expect("SVG parses as XML");
        assert_eq!(doc.root().name, "svg");
        let circles = doc.root().find_all("circle");
        assert_eq!(circles.len(), 7);
        assert!(circles.iter().any(|c| c.attr("fill") == Some("white")));
        assert!(circles.iter().any(|c| c.attr("fill") == Some("black")));
    }

    #[test]
    fn empty_timeline_renders_placeholder() {
        let tl = Timeline::from_events(&[], &BTreeMap::new());
        assert!(tl.render_ascii(80).contains("empty"));
        assert!(tl.render_svg(800).starts_with("<svg"));
        assert_eq!(tl.t_r_ns(), None);
    }
}
