//! The names this benchmark reports: workloads, end-to-end metrics with
//! their regression bounds, per-layer metrics. `BENCHMARK.json` at the
//! repository root is `manifest_json()` of these tables, byte for byte
//! (a test holds it there).

/// The five workloads and the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "cs1_long",
        "CS-1 loss sweep on the 3x3 default grid: many short runs, so core's run loop and store level-2 writes do the work and netsim/sd almost none",
    ),
    (
        "mesh100_wide",
        "99 service managers and one user on a 10x10 grid: few wide runs, so rpc fan-out, netsim, sd and store save/load carry the weight that idles in cs1_long",
    ),
    (
        "netsim_mesh",
        "simulator alone (flood on 100x100, lossy unicasts on 64x64): where a netsim change shows, and the control that must not move for core/store/query changes",
    ),
    (
        "warehouse",
        "query layer alone: slab ingest, then one query mix resident and again spilled under a small budget, so writes, cache hits and cache thrash sit side by side",
    ),
    (
        "server_tenants",
        "submit -> drain -> query.run over TCP for three unequal tenants: the campaign path plus rpc codecs, journalled L4 repo, fair-share scheduler and live frames",
    ),
];

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

/// What a user of the system waits for or pays, with the share of the
/// parent's median by which each may worsen before a change is rejected.
///
/// Every workload reports every one of them:
/// * `setup_s` — untimed preparation of one repetition (input generation,
///   `Simulator::new`, package generation, server start), median;
/// * `pipeline_s` — one repetition of the workload's whole timed pipeline,
///   median: XML text in → responsiveness `Frame` out on the campaigns,
///   flood + unicast phases, ingest + both query passes, t0 → last
///   job's `query.run` frame;
/// * `work_per_s` — the workload's unit of work per second of the stage
///   that produces it, median: planned runs ÷ (`ExperiMaster::new` +
///   `execute`), flood events ÷ flood time, queries ÷ time of both query
///   passes, runs ÷ (t0 → last job `Completed`);
/// * `peak_rss_mb` — `VmHWM` of the workload's process at exit.
pub const END_TO_END: [(Metric, f64); 4] = [
    (m("setup_s", "s", "lower"), 0.25),
    (m("pipeline_s", "s", "lower"), 0.25),
    (m("work_per_s", "1/s", "higher"), 0.25),
    (m("peak_rss_mb", "MB", "lower"), 0.25),
];

/// One number per layer crossed, taken in the traced pass. A layer a
/// workload does not cross reports 0 there. See the README for how each
/// is taken (span, obs series or probe) and which end-to-end metric it
/// should move.
pub const PER_LAYER: [Metric; 90] = [
    m("xml.parse_us", "us", "lower"),
    m("xml.bytes", "B", "lower"),
    m("desc.from_xml_us", "us", "lower"),
    m("desc.validate_us", "us", "lower"),
    m("desc.plan_ms", "ms", "lower"),
    m("desc.plan_runs", "count", "higher"),
    m("core.new_ms", "ms", "lower"),
    m("core.execute_s", "s", "lower"),
    m("core.phase_sum_ms", "ms", "lower"),
    m("core.node_calls", "count", "lower"),
    m("core.run_ms_at_100", "ms", "lower"),
    m("core.run_ms_at_full", "ms", "lower"),
    m("core.scaling_ratio", "ratio", "lower"),
    m("core.unattributed_share", "ratio", "lower"),
    m("rpc.calls", "count", "lower"),
    m("rpc.bytes_sent", "B", "lower"),
    m("rpc.bytes_received", "B", "lower"),
    m("rpc.call_latency_sum_ms", "ms", "lower"),
    m("rpc.retries", "count", "lower"),
    m("rpc.roundtrip_us", "us", "lower"),
    m("rpc.tcp_roundtrip_us", "us", "lower"),
    m("netsim.new_ms", "ms", "lower"),
    m("netsim.flood_run_ms", "ms", "lower"),
    m("netsim.unicast_run_ms", "ms", "lower"),
    m("netsim.flood_ns_per_event", "ns", "lower"),
    m("netsim.unicast_ns_per_event", "ns", "lower"),
    m("netsim.flood_events_per_s", "1/s", "higher"),
    m("netsim.unicast_events_per_s", "1/s", "higher"),
    m("netsim.events", "count", "lower"),
    m("netsim.packets_sent", "count", "lower"),
    m("netsim.packets_delivered", "count", "higher"),
    m("netsim.packets_dropped", "count", "lower"),
    m("netsim.flood_duplicates", "count", "lower"),
    m("netsim.barrier_wait_ms", "ms", "lower"),
    m("netsim.mailbox_crossings", "count", "lower"),
    m("sd.discovery_us", "us", "lower"),
    m("sd.service_adds", "count", "higher"),
    m("store.l2_writes", "count", "lower"),
    m("store.l2_bytes", "B", "lower"),
    m("store.journal_commits", "count", "lower"),
    m("store.l2_commit_us_at_0", "us", "lower"),
    m("store.l2_commit_us_at_150", "us", "lower"),
    m("store.save_ms", "ms", "lower"),
    m("store.load_ms", "ms", "lower"),
    m("store.package_bytes", "B", "lower"),
    m("store.bytes_per_run", "B", "lower"),
    m("store.insert_rows_per_s", "1/s", "higher"),
    m("query.build_ms", "ms", "lower"),
    m("query.frame_ms", "ms", "lower"),
    m("analysis.treatments_ms", "ms", "lower"),
    m("analysis.responsiveness_ms", "ms", "lower"),
    m("analysis.episodes", "count", "higher"),
    m("query.ingest_ms", "ms", "lower"),
    m("query.ingest_rows_per_s", "1/s", "higher"),
    m("query.reopen_ms", "ms", "lower"),
    m("query.slab_bytes", "B", "lower"),
    m("query.slab_bytes_per_row", "B", "lower"),
    m("query.standing_ingest_ms", "ms", "lower"),
    m("query.standing_frame_ms", "ms", "lower"),
    m("query.hot_p50_ms", "ms", "lower"),
    m("query.hot_p95_ms", "ms", "lower"),
    m("query.spill_p50_ms", "ms", "lower"),
    m("query.spill_p95_ms", "ms", "lower"),
    m("query.group_mean_hot_ms", "ms", "lower"),
    m("query.group_mean_spill_ms", "ms", "lower"),
    m("query.pruned_count_hot_ms", "ms", "lower"),
    m("query.pruned_count_spill_ms", "ms", "lower"),
    m("query.filter_group_hot_ms", "ms", "lower"),
    m("query.filter_group_spill_ms", "ms", "lower"),
    m("query.projection_hot_ms", "ms", "lower"),
    m("query.projection_spill_ms", "ms", "lower"),
    m("query.partitions_scanned", "count", "lower"),
    m("query.partitions_pruned", "count", "higher"),
    m("query.rows_scanned", "count", "lower"),
    m("query.slab_bytes_read", "B", "lower"),
    m("query.projected_loads", "count", "higher"),
    m("query.resident_bytes", "B", "lower"),
    m("server.submit_ms", "ms", "lower"),
    m("server.status_ms", "ms", "lower"),
    m("server.results_ms", "ms", "lower"),
    m("server.query_run_p50_ms", "ms", "lower"),
    m("server.query_live_p50_ms", "ms", "lower"),
    m("server.query_live_late_ms", "ms", "lower"),
    m("server.job_turnaround_p50_s", "s", "lower"),
    m("server.makespan_s", "s", "lower"),
    m("server.schedule_latency_ms", "ms", "lower"),
    m("server.queue_journal_bytes", "B", "lower"),
    m("obs.overhead_share", "ratio", "lower"),
    m("obs.series", "count", "lower"),
    m("obs.spans_dropped", "count", "lower"),
];

/// How long one run measures, in seconds (`run_seconds` of the manifest).
pub const RUN_SECONDS: u64 = 15;

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

/// `BENCHMARK.json`, exactly.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n"
        ));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (metric, bound)) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {bound}}}{comma}\n",
            metric.name, metric.unit, metric.better
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, metric) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            metric.name, metric.unit, metric.better
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_the_manifest_of_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest_json(),
            "regenerate with `cargo run --release --offline --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json`"
        );
    }

    #[test]
    fn names_fit_the_contract_and_are_used_once() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        names.extend(END_TO_END.iter().map(|e| e.0.name));
        names.extend(PER_LAYER.iter().map(|p| p.name));
        for name in &names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        for (_, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|(m, _)| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    }
}
