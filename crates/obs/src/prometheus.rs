//! Prometheus text-format exporter (exposition format 0.0.4).
//!
//! [`render`] turns a [`Snapshot`] into the plain-text format every
//! Prometheus-compatible scraper understands.

use crate::metrics::{bucket_upper_bound, Snapshot};
use std::fmt::Write as _;

/// Escapes a label value per the exposition format: backslash, double
/// quote and newline.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{}\"", escape_label(v)));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Renders a snapshot in the Prometheus text format. Series order is
/// the snapshot's (deterministic) order; histograms expand into
/// cumulative `_bucket` series plus `_sum` and `_count`.
pub fn render(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    let mut last_type: Option<(String, &str)> = None;
    let mut type_line = |out: &mut String, name: &str, kind: &'static str| {
        if last_type.as_ref().map(|(n, k)| (n.as_str(), *k)) != Some((name, kind)) {
            let _ = writeln!(out, "# TYPE {name} {kind}");
            last_type = Some((name.to_string(), kind));
        }
    };
    for c in &snapshot.counters {
        type_line(&mut out, &c.name, "counter");
        let _ = writeln!(
            out,
            "{}{} {}",
            c.name,
            label_block(&c.labels, None),
            c.value
        );
    }
    for g in &snapshot.gauges {
        type_line(&mut out, &g.name, "gauge");
        let _ = writeln!(
            out,
            "{}{} {}",
            g.name,
            label_block(&g.labels, None),
            g.value
        );
    }
    for h in &snapshot.histograms {
        type_line(&mut out, &h.name, "histogram");
        let mut cumulative = 0u64;
        for &(i, n) in &h.value.buckets {
            cumulative += n;
            let le = match bucket_upper_bound(i) {
                Some(b) => b.to_string(),
                None => "+Inf".to_string(),
            };
            let _ = writeln!(
                out,
                "{}_bucket{} {}",
                h.name,
                label_block(&h.labels, Some(("le", &le))),
                cumulative
            );
        }
        let _ = writeln!(
            out,
            "{}_bucket{} {}",
            h.name,
            label_block(&h.labels, Some(("le", "+Inf"))),
            h.value.count
        );
        let _ = writeln!(
            out,
            "{}_sum{} {}",
            h.name,
            label_block(&h.labels, None),
            h.value.sum
        );
        let _ = writeln!(
            out,
            "{}_count{} {}",
            h.name,
            label_block(&h.labels, None),
            h.value.count
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn renders_every_series_kind() {
        crate::set_enabled(true);
        let reg = Registry::new();
        reg.counter("rpc_calls_total", &[("transport", "tcp")])
            .add(7);
        reg.gauge("queue_depth", &[]).set(-2);
        let h = reg.histogram("latency_ns", &[("phase", "run_init")]);
        h.observe(3);
        h.observe(3);
        h.observe(1000);
        let text = render(&reg.snapshot());
        assert!(text.contains("# TYPE rpc_calls_total counter"));
        assert!(text.contains("rpc_calls_total{transport=\"tcp\"} 7\n"));
        assert!(text.contains("queue_depth -2\n"));
        assert!(text.contains("latency_ns_count{phase=\"run_init\"} 3\n"));
        assert!(text.contains("latency_ns_sum{phase=\"run_init\"} 1006\n"));
        // Buckets are cumulative and end at +Inf == count.
        assert!(text.contains("latency_ns_bucket{phase=\"run_init\",le=\"+Inf\"} 3\n"));
    }

    #[test]
    fn label_values_are_escaped() {
        crate::set_enabled(true);
        let reg = Registry::new();
        reg.counter("weird_total", &[("v", "a\"b\\c\nd")]).inc();
        let text = render(&reg.snapshot());
        assert!(text.contains(r#"weird_total{v="a\"b\\c\nd"} 1"#), "{text}");
    }
}
