//! Parity suite for the columnar query layer.
//!
//! Every analysis/warehouse aggregate answered by `excovery_query` scans
//! must stay **bit-identical** to the answers of the row-scan
//! implementations it replaced — on real engine-produced packages from
//! the golden-outcome platform presets at seed 7, not just synthetic
//! tables. Those answers are pinned below as FNV-1a digests, computed
//! from the row-scan implementations before they were deleted and
//! checked equal to the columnar answers then.
//!
//! The pinned answers come from scans at the default worker count; every
//! scan shape `ExperimentDataset` and the warehouse slice issue is also
//! run at `.workers(1)` and `.workers(4)` and must give the same frame
//! digest, a serial-vs-parallel equivalence check on real packages.

use excovery::analysis::responsiveness::ResponsivenessPoint;
use excovery::desc::process::{EventSelector, ProcessAction};
use excovery::prelude::*;
use excovery::query::warehouse::build_warehouse;
use excovery::query::Scan;
use std::collections::BTreeMap;

/// The golden-outcome experiment: the paper's two-party SD description
/// trimmed to a single factor (same trim as the engine's golden digest
/// suite), 2 replications per treatment.
fn desc(seed: u64) -> ExperimentDescription {
    let mut d = ExperimentDescription::paper_two_party_sd(2);
    d.factors
        .factors
        .retain(|f| f.id != "fact_bw" && f.id != "fact_pairs");
    d.env_processes[0].actions = vec![
        ProcessAction::EventFlag {
            value: "ready_to_init".into(),
        },
        ProcessAction::WaitForEvent(EventSelector::named("done")),
    ];
    d.seed = seed;
    d
}

/// A platform preset and the digests of its answers at seed 7, computed
/// from the row-scan implementations: `run_ids`, `run_ids_with_info`,
/// `episodes`, episodes by run, `packets_per_run` and the responsiveness
/// curves.
type Preset = (&'static str, fn() -> EngineConfig, [u64; 6]);

fn presets() -> Vec<Preset> {
    vec![
        (
            "grid_default",
            EngineConfig::grid_default,
            [
                0xb026cb457020ada6,
                0xb026cb457020ada6,
                0xb99261144ba6f8d5,
                0x9bc22d1c5b50e136,
                0xa61dddefeb41f646,
                0x51de9e02cab53b99,
            ],
        ),
        (
            "wired_lan",
            EngineConfig::wired_lan,
            [
                0xb026cb457020ada6,
                0xb026cb457020ada6,
                0xaf141a270514b38a,
                0xb3e517a707578f91,
                0xa61dddefeb41f646,
                0x51de9e02cab53b99,
            ],
        ),
        (
            "lossy_mesh",
            EngineConfig::lossy_mesh,
            [
                0xb026cb457020ada6,
                0xb026cb457020ada6,
                0xcd9ed1ddc597f3bb,
                0xc109ee1d96f9a454,
                0xfb96f81f0e9b7a00,
                0x51de9e02cab53b99,
            ],
        ),
    ]
}

/// Digest of the per-experiment mean response times of one warehouse
/// over the three presets: `{0: 0.05098537, 1: 0.05005178, 2: 0.057009652}`.
const WAREHOUSE_MEANS: u64 = 0xea8a858876bdf68d;

/// Digests of what the typed readers feed at seed 7, per preset: the
/// `report::render` text (its per-path delivery table pairs packets in
/// time order) and the `verify_all` findings (run id and message of
/// each, in order). Pinned from the row readers before they moved onto
/// `ExperimentDataset`. All three packages are consistent, so the
/// findings digest is that of no findings.
const READER_PINS: [(&str, u64, u64); 3] = [
    ("grid_default", 0x281c1128c3ee77f1, NO_FINDINGS),
    ("wired_lan", 0x85c9acd1eb8b5e54, NO_FINDINGS),
    ("lossy_mesh", 0x3f8212f993b58c51, NO_FINDINGS),
];

/// The FNV-1a offset basis: the digest of an empty findings list.
const NO_FINDINGS: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of the bytes `Database::save` writes for the warehouse built
/// over the three presets at seed 7.
const WAREHOUSE_BYTES: u64 = 0x824b13347e23f652;

fn outcome_of(preset: fn() -> EngineConfig, seed: u64) -> ExperimentOutcome {
    let mut master = ExperiMaster::new(desc(seed), preset()).unwrap();
    master.execute().unwrap()
}

// ---- digests of the answers -----------------------------------------------

/// FNV-1a over a stream of integers and length-prefixed strings.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn episodes(&mut self, eps: &[DiscoveryEpisode]) {
        self.u64(eps.len() as u64);
        for ep in eps {
            self.u64(ep.run_id);
            self.str(&ep.su_node);
            self.u64(ep.search_start_ns as u64);
            self.u64(ep.discoveries.len() as u64);
            for d in &ep.discoveries {
                self.str(&d.service);
                self.u64(d.at_ns as u64);
                self.u64(d.t_r_ns as u64);
            }
        }
    }
}

fn ids_digest(ids: &[u64]) -> u64 {
    let mut h = Fnv::new();
    h.u64(ids.len() as u64);
    ids.iter().for_each(|&id| h.u64(id));
    h.0
}

fn episodes_digest(eps: &[DiscoveryEpisode]) -> u64 {
    let mut h = Fnv::new();
    h.episodes(eps);
    h.0
}

/// Each run with events and its episodes (none when the run has no
/// episode event).
fn by_run_digest(ds: &ExperimentDataset) -> u64 {
    let by_run = ds.episodes_by_run().unwrap();
    let mut h = Fnv::new();
    for run in ds.run_ids().unwrap() {
        h.u64(run);
        h.episodes(by_run.get(&run).map_or(&[][..], Vec::as_slice));
    }
    h.0
}

fn counts_digest(counts: &BTreeMap<u64, usize>) -> u64 {
    let mut h = Fnv::new();
    h.u64(counts.len() as u64);
    for (&run, &n) in counts {
        h.u64(run);
        h.u64(n as u64);
    }
    h.0
}

/// Curves compared by `f64::to_bits`.
fn curves_digest(curves: &BTreeMap<String, Vec<ResponsivenessPoint>>) -> u64 {
    let mut h = Fnv::new();
    h.u64(curves.len() as u64);
    for (key, curve) in curves {
        h.str(key);
        h.u64(curve.len() as u64);
        for p in curve {
            for x in [p.deadline_s, p.probability, p.ci_low, p.ci_high] {
                h.u64(x.to_bits());
            }
            h.u64(p.episodes);
        }
    }
    h.0
}

fn means_digest(means: &BTreeMap<i64, f64>) -> u64 {
    let mut h = Fnv::new();
    h.u64(means.len() as u64);
    for (&key, mean) in means {
        h.u64(key as u64);
        h.u64(mean.to_bits());
    }
    h.0
}

// ---- parity assertions over the golden presets -----------------------------

#[test]
fn run_inventories_and_episodes_match_pre_redesign() {
    for (name, preset, pins) in presets() {
        let db = outcome_of(preset, 7).database;
        let ds = ExperimentDataset::new(&db).unwrap();
        let [ids, info, episodes, by_run, _, _] = pins;
        assert_eq!(ids_digest(&ds.run_ids().unwrap()), ids, "{name}");
        assert_eq!(ids_digest(&ds.run_ids_with_info().unwrap()), info, "{name}");
        // Episodes: derived t_R values are exact i64 arithmetic.
        assert_eq!(episodes_digest(&ds.episodes().unwrap()), episodes, "{name}");
        assert_eq!(by_run_digest(&ds), by_run, "{name}");
    }
}

#[test]
fn packet_volumes_match_pre_redesign() {
    for (name, preset, pins) in presets() {
        let db = outcome_of(preset, 7).database;
        let counts = ExperimentDataset::new(&db)
            .unwrap()
            .packets_per_run()
            .unwrap();
        assert_eq!(counts_digest(&counts), pins[4], "{name}");
    }
}

#[test]
fn responsiveness_by_treatment_matches_pre_redesign() {
    let deadlines = [0.1, 0.25, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0];
    for (name, preset, pins) in presets() {
        let outcome = outcome_of(preset, 7);
        let by_run: BTreeMap<u64, String> = outcome
            .runs
            .iter()
            .map(|r| (r.run_id, r.treatment_key.clone()))
            .collect();
        let treatment = |run: u64| by_run.get(&run).cloned().unwrap_or_default();
        let curves = excovery::analysis::responsiveness::responsiveness_by_treatment(
            &outcome.database,
            &treatment,
            1,
            &deadlines,
        )
        .unwrap();
        assert_eq!(curves_digest(&curves), pins[5], "{name}");
    }
}

#[test]
fn warehouse_mean_matches_pre_redesign_across_presets() {
    // One warehouse spanning all three presets — a ≥3-experiment scan.
    let outcomes: Vec<(&str, Database)> = presets()
        .into_iter()
        .map(|(name, preset, _)| (name, outcome_of(preset, 7).database))
        .collect();
    let packages: Vec<(&str, &Database)> = outcomes.iter().map(|(n, db)| (*n, db)).collect();
    let wh = build_warehouse(&packages).unwrap();
    let means = excovery::query::warehouse::mean_response_time_by_experiment(&wh).unwrap();
    assert_eq!(means_digest(&means), WAREHOUSE_MEANS, "{means:?}");
}

/// The scans behind the pinned answers, as `ExperimentDataset` issues
/// them: distinct run ids of `Events` and `RunInfos`, the ordered episode
/// events, packets per run, clock offsets.
fn dataset_scans(ds: &Dataset) -> Vec<Scan<'_>> {
    let episode_events = ["sd_start_search", "sd_service_add", "sd_stop_search"];
    let interesting = col("EventType")
        .eq(lit(episode_events[0]))
        .or(col("EventType").eq(lit(episode_events[1])))
        .or(col("EventType").eq(lit(episode_events[2])));
    vec![
        ds.scan("Events").group_by(["RunID"]),
        ds.scan("RunInfos").group_by(["RunID"]),
        ds.scan("Events")
            .filter(interesting)
            .select(["RunID", "NodeID", "CommonTime", "EventType", "Parameter"])
            .sort_by("CommonTime"),
        ds.scan("Packets").group_by(["RunID"]).agg([Agg::count()]),
        ds.scan("RunInfos").select(["TimeDiff"]),
    ]
}

/// Frame digests of `scans` at `workers` threads (`0`, the default, =
/// available parallelism).
fn digests(scans: &[Scan<'_>], workers: usize) -> Vec<u64> {
    scans
        .iter()
        .map(|scan| scan.clone().workers(workers).collect().unwrap().digest())
        .collect()
}

fn assert_worker_count_invariant(what: &str, scans: &[Scan<'_>]) {
    let default = digests(scans, 0);
    for workers in [1, 4] {
        assert_eq!(
            digests(scans, workers),
            default,
            "{what}: workers {workers}"
        );
    }
}

#[test]
fn scans_are_bit_identical_at_1_and_4_workers() {
    let outcomes: Vec<(&str, Database)> = presets()
        .into_iter()
        .map(|(name, preset, _)| (name, outcome_of(preset, 7).database))
        .collect();
    for (name, db) in &outcomes {
        let ds = ExperimentDataset::new(db).unwrap();
        assert_worker_count_invariant(name, &dataset_scans(ds.query()));
    }
    // The slice `mean_response_time_by_experiment` takes of the warehouse.
    let packages: Vec<(&str, &Database)> = outcomes.iter().map(|(n, db)| (*n, db)).collect();
    let wh = build_warehouse(&packages).unwrap();
    let wh = Dataset::builder()
        .partition_by("RunKey")
        .add_package("warehouse", &wh)
        .unwrap()
        .build();
    let mean = wh
        .scan("FactDiscovery")
        .group_by(["ExpKey"])
        .agg([Agg::mean("ResponseTimeNs").named("mean_ns")]);
    assert_worker_count_invariant("warehouse", &[mean]);
}

#[test]
fn report_and_findings_match_the_row_readers() {
    let got: Vec<(&str, u64, u64)> = presets()
        .into_iter()
        .map(|(name, preset, _)| {
            let db = outcome_of(preset, 7).database;
            let text = excovery::analysis::report::render(&db, 1).unwrap();
            let mut report = Fnv::new();
            report.str(&text);
            let mut findings = Fnv::new();
            let ds = ExperimentDataset::new(&db).unwrap();
            for finding in excovery::analysis::verify::verify_all(&ds).unwrap() {
                findings.u64(finding.run_id);
                findings.str(&finding.message);
            }
            (name, report.0, findings.0)
        })
        .collect();
    assert_eq!(got, READER_PINS);
}

#[test]
fn warehouse_bytes_match_the_row_readers() {
    let outcomes: Vec<(&str, Database)> = presets()
        .into_iter()
        .map(|(name, preset, _)| (name, outcome_of(preset, 7).database))
        .collect();
    let packages: Vec<(&str, &Database)> = outcomes.iter().map(|(n, db)| (*n, db)).collect();
    let path = std::env::temp_dir().join(format!(
        "excovery-parity-warehouse-{}.expdb",
        std::process::id()
    ));
    build_warehouse(&packages).unwrap().save(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    let mut h = Fnv::new();
    h.bytes(&bytes);
    assert_eq!(h.0, WAREHOUSE_BYTES);
}

#[test]
fn report_render_is_deterministic_and_complete() {
    let db = outcome_of(EngineConfig::grid_default, 7).database;
    let a = excovery::analysis::report::render(&db, 1).unwrap();
    let b = excovery::analysis::report::render(&db, 1).unwrap();
    assert_eq!(a, b, "render must be a pure function of the package");
    for needle in [
        "# Experiment report:",
        "## Responsiveness (k = 1)",
        "## Response time t_R",
        "## Packet captures",
        "## Event/packet consistency",
        "## Runs",
    ] {
        assert!(a.contains(needle), "missing {needle}");
    }
}
