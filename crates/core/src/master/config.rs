//! The platform an experiment runs on: [`EngineConfig`], its builder and
//! presets, and the control-channel [`TransportKind`].

use excovery_netsim::link::LinkModel;
use excovery_netsim::sim::SimulatorConfig;
use excovery_netsim::topology::Topology;
use excovery_netsim::SimDuration;
use excovery_rpc::{ChaosOptions, RetryPolicy, TcpOptions};
use excovery_sd::SdConfig;
use std::path::PathBuf;

/// Control-channel backend the master uses to reach its NodeManagers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub enum TransportKind {
    /// In-process dispatch against each NodeManager's registry: the
    /// dedicated channel without a wire encoding.
    #[default]
    Memory,
    /// Length-prefixed XML-RPC frames over loopback TCP sockets — the
    /// real-socket path a distributed deployment would use.
    Tcp,
}

impl TransportKind {
    /// Parses a CLI-style name (`memory` or `tcp`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "memory" => Some(TransportKind::Memory),
            "tcp" => Some(TransportKind::Tcp),
            _ => None,
        }
    }
}

impl std::fmt::Display for TransportKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportKind::Memory => write!(f, "memory"),
            TransportKind::Tcp => write!(f, "tcp"),
        }
    }
}

/// Engine configuration: the platform the description is instantiated on.
///
/// Construct via [`EngineConfig::builder`] (or start from a preset and
/// adjust fields directly — they stay public):
///
/// ```
/// use excovery_core::{EngineConfig, TransportKind};
/// use excovery_netsim::topology::Topology;
///
/// let cfg = EngineConfig::builder()
///     .topology(Topology::chain(4))
///     .transport(TransportKind::Tcp)
///     .max_runs(2)
///     .build();
/// assert_eq!(cfg.topology.len(), 4);
/// ```
pub struct EngineConfig {
    /// Mesh topology of the simulated testbed.
    pub topology: Topology,
    /// Simulator parameters; the seed is derived from the description seed.
    pub sim: SimulatorConfig,
    /// SD protocol configuration; `None` derives the architecture from the
    /// description's `sd_architecture` parameter.
    pub sd_config: Option<SdConfig>,
    /// Hard per-run wall limit in simulated time.
    pub run_timeout: SimDuration,
    /// Level-2 storage root; `None` uses a unique temp directory.
    pub l2_root: Option<PathBuf>,
    /// Keep the level-2 hierarchy after packaging (default: remove).
    pub keep_l2: bool,
    /// Resume an aborted experiment at the first run its level-2 journal does
    /// not confirm.
    pub resume: bool,
    /// Execute at most `n` runs, counted from the first run this
    /// execution executes: run 0, or on `resume` the first run the
    /// journal does not confirm. Runs restored from the journal do not
    /// count. (The server's slices compute `n` as if it counted from run
    /// 0; ROADMAP item 4.)
    pub max_runs: Option<u64>,
    /// Control-channel backend between master and NodeManagers.
    pub transport: TransportKind,
    /// Socket options for the TCP backend (ignored by the memory channel).
    pub tcp: TcpOptions,
    /// Bounded retry with backoff for every control-channel call, lifecycle
    /// fan-out and in-run call alike.
    pub retry: RetryPolicy,
    /// Seeded fault schedule injected into every node's control channel;
    /// `None` runs fault-free. Each node derives its own schedule seed
    /// from this seed and its platform id.
    pub chaos: Option<ChaosOptions>,
    /// Master incarnation number, part of every idempotency key. A
    /// resuming master must use a fresh epoch so its keys can never
    /// collide with replies recorded for its predecessor.
    pub epoch: u64,
}

/// Builder for [`EngineConfig`]. Starts from the grid default; the other
/// presets ([`EngineConfig::wired_lan`], [`EngineConfig::lossy_mesh`])
/// are values to adjust field by field.
pub struct EngineConfigBuilder {
    cfg: EngineConfig,
}

impl EngineConfigBuilder {
    /// Sets the testbed topology.
    pub fn topology(mut self, t: Topology) -> Self {
        self.cfg.topology = t;
        self
    }

    /// Sets the level-2 storage root.
    pub fn l2_root(mut self, root: impl Into<PathBuf>) -> Self {
        self.cfg.l2_root = Some(root.into());
        self
    }

    /// Caps execution at `n` runs (see [`EngineConfig::max_runs`]).
    pub fn max_runs(mut self, n: u64) -> Self {
        self.cfg.max_runs = Some(n);
        self
    }

    /// Selects the control-channel backend.
    pub fn transport(mut self, t: TransportKind) -> Self {
        self.cfg.transport = t;
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> EngineConfig {
        self.cfg
    }
}

impl EngineConfig {
    /// Starts a builder from the grid default.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            cfg: Self::grid_default(),
        }
    }

    /// A sensible default platform: a 3×3 grid mesh with the wireless
    /// link model and loosely synchronized clocks.
    pub fn grid_default() -> Self {
        Self {
            topology: Topology::grid(3, 3),
            sim: SimulatorConfig::default(),
            sd_config: None,
            run_timeout: SimDuration::from_secs(120),
            l2_root: None,
            keep_l2: false,
            resume: false,
            max_runs: None,
            transport: TransportKind::default(),
            tcp: TcpOptions::default(),
            retry: RetryPolicy::default(),
            chaos: None,
            epoch: 0,
        }
    }

    /// A wired-LAN platform preset: near-lossless links, microsecond
    /// delays, high capacity, NTP-grade clocks. Running the *same*
    /// description on multiple platform presets is the diversity the paper
    /// recommends for external validity (§II-C1).
    pub fn wired_lan() -> Self {
        let mut cfg = Self::grid_default();
        cfg.sim.link_model = LinkModel {
            base_loss: 0.0001,
            load_loss_factor: 0.5,
            base_delay: SimDuration::from_micros(50),
            jitter_frac: 0.05,
            capacity_kbps: 1_000_000.0,
            max_utilization: 0.95,
        };
        cfg.sim.max_clock_offset_ns = 500_000; // ±0.5 ms
        cfg.sim.max_drift_ppm = 5.0;
        cfg.sim.max_sync_error_ns = 10_000;
        cfg
    }

    /// A degraded wireless mesh preset: high base loss and delay, the
    /// regime of the weakest DES-testbed links.
    pub fn lossy_mesh() -> Self {
        let mut cfg = Self::grid_default();
        cfg.sim.link_model = LinkModel {
            base_loss: 0.15,
            load_loss_factor: 3.0,
            base_delay: SimDuration::from_millis(3),
            jitter_frac: 0.5,
            capacity_kbps: 2_000.0,
            max_utilization: 0.95,
        };
        cfg
    }
}
