//! Experiment reports.
//!
//! Generates a self-contained Markdown report from a stored level-3
//! package: experiment metadata, per-run overview, responsiveness curve,
//! response-time statistics and packet-level delivery ratios — the
//! "extraction and analysis of event and packet based metrics" the
//! prototype ships as a set of functions (§VI-A), bundled into one
//! shareable document. All aggregate inputs come from one columnar
//! [`ExperimentDataset`] snapshot.

use crate::dataset::ExperimentDataset;
use crate::error::AnalysisError;
use crate::packetstats::path_stats;
use crate::responsiveness::responsiveness_curve;
use crate::stats::Summary;
use excovery_store::records::ExperimentInfo;
use excovery_store::Database;

/// Options for report generation. Construct via [`ReportOptions::builder`].
#[derive(Debug, Clone)]
pub struct ReportOptions {
    /// Number of SMs that must be discovered (the `k` of responsiveness).
    k: usize,
    /// Deadlines (seconds) of the responsiveness table.
    deadlines_s: Vec<f64>,
    /// Include per-run detail rows (off for experiments with many runs).
    per_run_detail: bool,
}

impl ReportOptions {
    /// Starts a builder with the default options (`k = 1`, the standard
    /// deadline grid, per-run detail on).
    pub fn builder() -> ReportOptionsBuilder {
        ReportOptionsBuilder {
            k: 1,
            deadlines_s: vec![0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0],
            per_run_detail: true,
        }
    }
}

impl Default for ReportOptions {
    fn default() -> Self {
        Self::builder().build()
    }
}

/// Builder for [`ReportOptions`], matching the `EngineConfig::builder()`
/// idiom.
#[derive(Debug, Clone)]
pub struct ReportOptionsBuilder {
    k: usize,
    deadlines_s: Vec<f64>,
    per_run_detail: bool,
}

impl ReportOptionsBuilder {
    /// Sets the number of SMs that must be discovered.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets the deadline grid (seconds) of the responsiveness table.
    pub fn deadlines_s(mut self, deadlines: impl IntoIterator<Item = f64>) -> Self {
        self.deadlines_s = deadlines.into_iter().collect();
        self
    }

    /// Toggles per-run detail rows.
    pub fn per_run_detail(mut self, on: bool) -> Self {
        self.per_run_detail = on;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> ReportOptions {
        ReportOptions {
            k: self.k,
            deadlines_s: self.deadlines_s,
            per_run_detail: self.per_run_detail,
        }
    }
}

/// Renders the full Markdown report.
pub fn render(db: &Database, opts: &ReportOptions) -> Result<String, AnalysisError> {
    let (k, deadlines_s, per_run_detail) = (opts.k, &opts.deadlines_s, opts.per_run_detail);
    let info = ExperimentInfo::read(db)?;
    let ds = ExperimentDataset::new(db)?;
    let run_ids = ds.run_ids()?;
    let by_run = ds.episodes_by_run()?;
    let episodes: Vec<_> = by_run.values().flatten().cloned().collect();
    let mut out = String::new();

    out.push_str(&format!("# Experiment report: {}\n\n", info.name));
    if !info.comment.is_empty() {
        out.push_str(&format!("> {}\n\n", info.comment));
    }
    out.push_str(&format!("* executed by: `{}`\n", info.ee_version));
    out.push_str(&format!("* runs: {}\n", run_ids.len()));
    out.push_str(&format!("* discovery episodes: {}\n", episodes.len()));
    let offsets: Vec<f64> = ds
        .clock_offsets_ns()?
        .iter()
        .map(|d| d.abs() as f64)
        .collect();
    if !offsets.is_empty() {
        if let Some(s) = Summary::compute(&offsets) {
            out.push_str(&format!(
                "* measured |clock offset|: mean {:.3} ms, max {:.3} ms\n",
                s.mean / 1e6,
                s.max / 1e6
            ));
        }
    }
    out.push('\n');

    // Responsiveness table.
    out.push_str(&format!("## Responsiveness (k = {k})\n\n"));
    out.push_str("| deadline (s) | R | 95% CI |\n|---|---|---|\n");
    for p in responsiveness_curve(&episodes, k, deadlines_s) {
        out.push_str(&format!(
            "| {} | {:.4} | [{:.4}, {:.4}] |\n",
            p.deadline_s, p.probability, p.ci_low, p.ci_high
        ));
    }
    out.push('\n');

    // Response-time statistics.
    let t_rs: Vec<f64> = episodes
        .iter()
        .filter_map(|e| e.first_t_r_ns())
        .map(|t| t as f64 / 1e9)
        .collect();
    out.push_str("## Response time t_R (first discovery)\n\n");
    match Summary::compute(&t_rs) {
        Some(s) => out.push_str(&format!(
            "| n | mean | median | p95 | min | max |\n|---|---|---|---|---|---|\n\
             | {} | {:.4} s | {:.4} s | {:.4} s | {:.4} s | {:.4} s |\n\n",
            s.n, s.mean, s.median, s.p95, s.min, s.max
        )),
        None => out.push_str("no successful discoveries.\n\n"),
    }

    // Packet volume + per-path delivery of the first run.
    out.push_str("## Packet captures\n\n");
    let volumes = ds.packets_per_run()?;
    let total: usize = volumes.values().sum();
    out.push_str(&format!(
        "{total} captures across {} runs.\n\n",
        volumes.len()
    ));
    if let Some(&first) = run_ids.first() {
        let paths = path_stats(db, first)?;
        if !paths.is_empty() {
            out.push_str(&format!("Per-path delivery in run {first}:\n\n"));
            out.push_str("| src | observer | sent | observed | delivery | mean delay |\n");
            out.push_str("|---|---|---|---|---|---|\n");
            for p in paths {
                out.push_str(&format!(
                    "| {} | {} | {} | {} | {:.3} | {:.2} ms |\n",
                    p.src,
                    p.observer,
                    p.sent,
                    p.observed,
                    p.delivery_ratio(),
                    p.mean_delay_s * 1e3
                ));
            }
            out.push('\n');
        }
    }

    // Consistency of the two independent recordings (§IV-B2).
    out.push_str("## Event/packet consistency\n\n");
    let findings = crate::verify::verify_all(db)?;
    if findings.is_empty() {
        out.push_str("event list and packet captures are mutually consistent.\n\n");
    } else {
        for f in findings.iter().take(20) {
            out.push_str(&format!("* run {}: {}\n", f.run_id, f.message));
        }
        if findings.len() > 20 {
            out.push_str(&format!("* … {} more findings\n", findings.len() - 20));
        }
        out.push('\n');
    }

    // Optional per-run detail.
    if per_run_detail {
        out.push_str("## Runs\n\n| run | episodes | first t_R |\n|---|---|---|\n");
        for run_id in &run_ids {
            let eps = by_run.get(run_id).map(Vec::as_slice).unwrap_or(&[]);
            let t_r = eps
                .first()
                .and_then(|e| e.first_t_r_ns())
                .map(|t| format!("{:.4} s", t as f64 / 1e9))
                .unwrap_or_else(|| "—".into());
            out.push_str(&format!("| {run_id} | {} | {t_r} |\n", eps.len()));
        }
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use excovery_store::records::{EventRow, PacketRow, RunInfoRow};
    use excovery_store::schema::{create_level3_database, EE_VERSION};

    fn sample_db() -> Database {
        let mut db = create_level3_database();
        ExperimentInfo {
            exp_xml: "<experiment name=\"r\"/>".into(),
            ee_version: EE_VERSION.into(),
            name: "report-demo".into(),
            comment: "demo".into(),
        }
        .insert(&mut db)
        .unwrap();
        for run in 0..2u64 {
            RunInfoRow {
                run_id: run,
                node_id: "n1".into(),
                start_time_ns: 0,
                time_diff_ns: 2_000_000,
            }
            .insert(&mut db)
            .unwrap();
            EventRow {
                run_id: run,
                node_id: "n1".into(),
                common_time_ns: 1_000,
                event_type: "sd_start_search".into(),
                parameter: String::new(),
            }
            .insert(&mut db)
            .unwrap();
            EventRow {
                run_id: run,
                node_id: "n1".into(),
                common_time_ns: 40_001_000,
                event_type: "sd_service_add".into(),
                parameter: "service=n0".into(),
            }
            .insert(&mut db)
            .unwrap();
            PacketRow {
                run_id: run,
                node_id: "n0".into(),
                common_time_ns: 500,
                src_node_id: "n0".into(),
                data: vec![1],
            }
            .insert(&mut db)
            .unwrap();
            PacketRow {
                run_id: run,
                node_id: "n1".into(),
                common_time_ns: 1_500,
                src_node_id: "n0".into(),
                data: vec![1],
            }
            .insert(&mut db)
            .unwrap();
        }
        db
    }

    #[test]
    fn report_contains_all_sections() {
        let db = sample_db();
        let report = render(&db, &ReportOptions::default()).unwrap();
        for needle in [
            "# Experiment report: report-demo",
            "## Responsiveness (k = 1)",
            "| 0.1 | 1.0000",
            "## Response time t_R",
            "0.0400 s",
            "## Packet captures",
            "4 captures across 2 runs",
            "Per-path delivery in run 0",
            "## Runs",
            "clock offset",
        ] {
            assert!(report.contains(needle), "missing: {needle}\n{report}");
        }
    }

    #[test]
    fn per_run_detail_is_optional() {
        let db = sample_db();
        let opts = ReportOptions::builder().per_run_detail(false).build();
        let report = render(&db, &opts).unwrap();
        assert!(!report.contains("## Runs"));
    }

    #[test]
    fn builder_matches_field_literal_defaults() {
        let built = ReportOptions::builder().k(2).build();
        assert_eq!(built.k, 2);
        assert_eq!(ReportOptions::default().k, 1);
        assert_eq!(ReportOptions::default().deadlines_s.len(), 8);
        assert!(ReportOptions::default().per_run_detail);
    }

    #[test]
    fn empty_database_reports_gracefully() {
        let mut db = create_level3_database();
        ExperimentInfo {
            exp_xml: String::new(),
            ee_version: EE_VERSION.into(),
            name: "empty".into(),
            comment: String::new(),
        }
        .insert(&mut db)
        .unwrap();
        let report = render(&db, &ReportOptions::default()).unwrap();
        assert!(report.contains("no successful discoveries"));
        assert!(report.contains("runs: 0"));
    }
}
