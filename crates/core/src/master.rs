//! The ExperiMaster — the controlling entity of an experiment (paper §IV,
//! §VI-A).
//!
//! "The experiment is executed by the experiment master, a program that
//! executes experiment runs as specified in the description. Each run is a
//! sequence of actions performed on the participating nodes [...]. The
//! master and all nodes monitor and record dedicated parameters during each
//! run [...]. After experiment execution, the collected data are collected
//! and conditioned so that a common time base [...] is established.
//! Finally, data are stored into a single results database."
//!
//! Lifecycle: `experiment_init` → (`run_init` → preparation / execution /
//! clean-up → `run_exit`)* → `experiment_exit`, with crash recovery by
//! resuming at the first run the level-2 journal does not confirm.

use crate::binding::{PlatformBinding, ResolvedActors};
use crate::error::EngineError;
use crate::event_log::{EventLog, RecordedEvent};
use crate::faults::ParsedFault;
use crate::interp::{self, ExecCtx, ProcState, ProcessInstance};
use crate::l2codec::{self, read_json};
use crate::nodemanager::{NodeManager, SharedSim};
use excovery_desc::factors::LevelValue;
use excovery_desc::plan::{RunSpec, Treatment};
use excovery_desc::process::{EventSelector, ValueRef};
use excovery_desc::validate::validate_strict;
use excovery_desc::ExperimentDescription;
use excovery_netsim::rng::derive_seed;
use excovery_netsim::sim::SimulatorConfig;
use excovery_netsim::topology::Topology;
use excovery_netsim::traffic::{PairChoice, TrafficGenerator, TrafficSpec};
use excovery_netsim::{NodeId, SimDuration, SimTime, Simulator};
use excovery_obs::sync::Mutex;
use excovery_rpc::{
    ChaosOptions, NodeCall, Reactor, ReactorEndpoint, RetryPolicy, RpcError, ServerRegistry,
    TcpOptions, TcpRpcServer, Value,
};
use excovery_sd::{Architecture, SdConfig};
use excovery_store::level2::Level2Store;
use excovery_store::records::{EventRow, ExperimentInfo, PacketRow, RunInfoRow};
use excovery_store::schema::{create_level3_database, EE_VERSION};
use excovery_store::{CellRef, Database, JsonValue, SqlValue};
use std::borrow::Cow;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Context handed to plugins: platform access plus the custom-measurement
/// channel (paper §IV-B: "ExCovery has a plugin concept to extend these
/// data with custom measurements on demand"; "Plugins have a separate
/// storage location", §IV-B5). Recorded measurements end up in the
/// `ExtraRunMeasurements` table of the level-3 package.
pub struct PluginCtx<'a> {
    /// The simulated platform.
    pub sim: &'a mut Simulator,
    /// Current run id.
    pub run_id: u64,
    measurements: &'a mut Vec<(String, String, Vec<u8>)>,
}

impl PluginCtx<'_> {
    /// Records a named custom measurement for the current run, attributed
    /// to `node_id` (a platform id, or a plugin-specific label).
    pub fn record_measurement(
        &mut self,
        node_id: impl Into<String>,
        name: impl Into<String>,
        content: impl Into<Vec<u8>>,
    ) {
        self.measurements
            .push((node_id.into(), name.into(), content.into()));
    }
}

/// A plugin: a custom environment action.
pub type PluginFn =
    Box<dyn FnMut(&HashMap<String, LevelValue>, &mut PluginCtx) -> Result<(), String> + Send>;

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
/// use excovery_core::master::{EngineConfig, TransportKind};
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
    /// Master reaction quantum while waiting on events.
    pub quantum: SimDuration,
    /// Level-2 storage root; `None` uses a unique temp directory.
    pub l2_root: Option<PathBuf>,
    /// Keep the level-2 hierarchy after packaging (default: remove).
    pub keep_l2: bool,
    /// Resume an aborted experiment at the first run its level-2 journal does
    /// not confirm.
    pub resume: bool,
    /// Execute only the first `n` runs of the plan (tests, examples).
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

/// Builder for [`EngineConfig`]. Starts from the grid default; the
/// platform presets ([`wired_lan`](Self::wired_lan),
/// [`lossy_mesh`](Self::lossy_mesh)) can be applied at any point and
/// individual knobs adjusted after.
pub struct EngineConfigBuilder {
    cfg: EngineConfig,
}

impl EngineConfigBuilder {
    /// Applies the 3×3 wireless grid platform preset (the default starting
    /// point). Only the simulator parameters change; everything else set
    /// on the builder is preserved.
    pub fn grid_default(mut self) -> Self {
        self.cfg.sim = EngineConfig::grid_default().sim;
        self
    }

    /// Applies the wired-LAN platform preset (see
    /// [`EngineConfig::wired_lan`]).
    pub fn wired_lan(mut self) -> Self {
        self.cfg.sim = EngineConfig::wired_lan().sim;
        self
    }

    /// Applies the degraded wireless-mesh preset (see
    /// [`EngineConfig::lossy_mesh`]).
    pub fn lossy_mesh(mut self) -> Self {
        self.cfg.sim = EngineConfig::lossy_mesh().sim;
        self
    }

    /// Sets the testbed topology.
    pub fn topology(mut self, t: Topology) -> Self {
        self.cfg.topology = t;
        self
    }

    /// Sets the simulator parameters.
    pub fn sim(mut self, sim: SimulatorConfig) -> Self {
        self.cfg.sim = sim;
        self
    }

    /// Sets an explicit SD protocol configuration.
    pub fn sd_config(mut self, sd: SdConfig) -> Self {
        self.cfg.sd_config = Some(sd);
        self
    }

    /// Sets the hard per-run limit in simulated time.
    pub fn run_timeout(mut self, t: SimDuration) -> Self {
        self.cfg.run_timeout = t;
        self
    }

    /// Sets the master reaction quantum.
    pub fn quantum(mut self, q: SimDuration) -> Self {
        self.cfg.quantum = q;
        self
    }

    /// Sets the level-2 storage root.
    pub fn l2_root(mut self, root: impl Into<PathBuf>) -> Self {
        self.cfg.l2_root = Some(root.into());
        self
    }

    /// Keeps the level-2 hierarchy after packaging.
    pub fn keep_l2(mut self, keep: bool) -> Self {
        self.cfg.keep_l2 = keep;
        self
    }

    /// Resumes an aborted experiment from its level-2 journal.
    pub fn resume(mut self, resume: bool) -> Self {
        self.cfg.resume = resume;
        self
    }

    /// Caps execution at the first `n` runs of the plan.
    pub fn max_runs(mut self, n: u64) -> Self {
        self.cfg.max_runs = Some(n);
        self
    }

    /// Selects the control-channel backend.
    pub fn transport(mut self, t: TransportKind) -> Self {
        self.cfg.transport = t;
        self
    }

    /// Sets the socket options of the TCP backend.
    pub fn tcp(mut self, opts: TcpOptions) -> Self {
        self.cfg.tcp = opts;
        self
    }

    /// Sets the control-channel retry policy.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.cfg.retry = policy;
        self
    }

    /// Injects a seeded fault schedule into every control channel.
    pub fn chaos(mut self, opts: ChaosOptions) -> Self {
        self.cfg.chaos = Some(opts);
        self
    }

    /// Sets the master incarnation number for idempotency keys.
    pub fn epoch(mut self, epoch: u64) -> Self {
        self.cfg.epoch = epoch;
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
            quantum: SimDuration::from_millis(20),
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
        use excovery_netsim::link::LinkModel;
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
        use excovery_netsim::link::LinkModel;
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

/// Result of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Run id from the plan.
    pub run_id: u64,
    /// Replicate index within the treatment.
    pub replicate: u64,
    /// Treatment key (`factor=level|...`).
    pub treatment_key: String,
    /// True if every process completed; false on failure or timeout.
    pub completed: bool,
    /// Failure messages of processes that did not complete.
    pub failures: Vec<String>,
    /// Events recorded in this run.
    pub events: usize,
    /// Packet captures recorded in this run.
    pub packets: usize,
    /// Simulated duration of the run.
    pub duration: SimDuration,
}

/// Result of a whole experiment.
pub struct ExperimentOutcome {
    /// The level-3 database (Table I schema) with all conditioned data.
    pub database: Database,
    /// Per-run outcomes in execution order. On a resumed execution this
    /// includes the outcomes of runs completed by earlier incarnations,
    /// restored from the level-2 journal — so the vector (and hence
    /// [`Self::digest`]) is identical to an uninterrupted execution.
    pub runs: Vec<RunOutcome>,
    /// How many leading entries of [`Self::runs`] were restored from the
    /// journal rather than executed by this incarnation. Provenance
    /// metadata like [`Self::control_retries`]: excluded from
    /// [`Self::digest`].
    pub restored_runs: u64,
    /// Level-2 root used (removed unless `keep_l2`).
    pub l2_root: PathBuf,
    /// Control-channel retries the master performed. Chaos leaves its
    /// trace here — and **only** here: the experiment data must not
    /// depend on it (see [`Self::digest`]).
    pub control_retries: u64,
}

impl ExperimentOutcome {
    /// Order-sensitive digest of everything the experiment *recorded*: all
    /// level-3 tables (events, packets, run infos, logs, measurements, the
    /// description) plus the per-run outcome summary.
    ///
    /// Two executions with equal digests produced byte-identical
    /// measurement data in identical order. The chaos-equivalence contract
    /// is exactly this: for every eventually-clearing fault schedule, the
    /// digest equals the fault-free execution's. Control-plane noise
    /// ([`Self::control_retries`], the level-2 root) is deliberately
    /// excluded.
    pub fn digest(&self) -> u64 {
        // FNV-1a, 64-bit: stable across platforms, no dependencies.
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                hash ^= u64::from(*b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for name in self.database.table_names() {
            eat(b"table:");
            eat(name.as_bytes());
            let table = self.database.table(name).expect("listed table exists");
            for row in table.rows() {
                for c in 0..table.columns().len() {
                    match row.get(c) {
                        CellRef::Null => eat(b"\x00"),
                        CellRef::Int(i) => {
                            eat(b"\x01");
                            eat(&i.to_le_bytes());
                        }
                        CellRef::Real(f) => {
                            eat(b"\x02");
                            eat(&f.to_bits().to_le_bytes());
                        }
                        CellRef::Text(s) => {
                            eat(b"\x03");
                            eat(&(s.len() as u64).to_le_bytes());
                            eat(s.as_bytes());
                        }
                        CellRef::Blob(b) => {
                            eat(b"\x04");
                            eat(&(b.len() as u64).to_le_bytes());
                            eat(b);
                        }
                    }
                }
                eat(b"\x1e");
            }
        }
        for run in &self.runs {
            eat(b"run:");
            eat(&run.run_id.to_le_bytes());
            eat(&run.replicate.to_le_bytes());
            eat(run.treatment_key.as_bytes());
            eat(&[u8::from(run.completed)]);
            for failure in &run.failures {
                eat(failure.as_bytes());
            }
            eat(&(run.events as u64).to_le_bytes());
            eat(&(run.packets as u64).to_le_bytes());
            eat(&run.duration.as_nanos().to_le_bytes());
        }
        hash
    }
}

struct FaultWindow {
    platform_id: String,
    spec: Value,
    start: SimTime,
    stop: SimTime,
    handle: Option<i32>,
}

/// The controlling entity executing experiments.
///
/// ```
/// use excovery_core::{EngineConfig, ExperiMaster};
/// use excovery_desc::ExperimentDescription;
///
/// let desc = ExperimentDescription::paper_two_party_sd(1);
/// let mut cfg = EngineConfig::grid_default();
/// cfg.max_runs = Some(1);
/// let mut master = ExperiMaster::new(desc, cfg)?;
/// let outcome = master.execute()?;
/// assert!(outcome.runs[0].completed);
/// assert!(!outcome.database.table("Events").unwrap().is_empty());
/// # Ok::<(), excovery_core::EngineError>(())
/// ```
pub struct ExperiMaster {
    desc: ExperimentDescription,
    cfg: EngineConfig,
    sim: SharedSim,
    binding: Arc<PlatformBinding>,
    /// Running TCP servers when `cfg.transport` is [`TransportKind::Tcp`]
    /// (one per node; dropping them stops the accept loops).
    tcp_servers: HashMap<String, TcpRpcServer>,
    /// Bound address of each node's TCP server (for reviving a halted one
    /// on the same port).
    tcp_addrs: HashMap<String, std::net::SocketAddr>,
    /// The registry behind each TCP server, shared so a halted node can be
    /// revived with its state (including the idempotency cache) intact.
    tcp_registries: HashMap<String, Arc<Mutex<ServerRegistry>>>,
    /// The one dispatcher every master→NodeManager call rides (behind a
    /// lock only because [`Self::fan_out`] takes `&self`; dispatches never
    /// overlap).
    reactor: Mutex<Reactor>,
    /// Idempotency-key sequence; each logical call draws one number.
    call_seq: AtomicU64,
    /// Control-channel retries performed (reported in the outcome).
    control_retries: AtomicU64,
    /// Wall clock anchoring the master's observability spans (phases and
    /// runs share one time base within an execution).
    obs_clock: excovery_obs::span::WallClock,
    log: EventLog,
    plugins: HashMap<String, PluginFn>,
    // per-run state
    run_id: u64,
    replicate: u64,
    treatment: Treatment,
    actors: ResolvedActors,
    traffic: Option<TrafficGenerator>,
    cbr_flows: Vec<(NodeId, u16)>,
    fault_windows: Vec<FaultWindow>,
    run_measurements: Vec<(String, String, Vec<u8>)>,
}

impl ExperiMaster {
    /// Builds a master for a validated description on the given platform.
    pub fn new(desc: ExperimentDescription, cfg: EngineConfig) -> Result<Self, EngineError> {
        validate_strict(&desc).map_err(|e| EngineError::Config(e.to_string()))?;
        let binding = Arc::new(
            PlatformBinding::new(&desc.platform, cfg.topology.len())
                .map_err(EngineError::Config)?,
        );
        let mut sim_cfg = cfg.sim.clone();
        sim_cfg.seed = derive_seed(desc.seed, "platform");
        let sim: SharedSim = Arc::new(Mutex::new(Simulator::new(cfg.topology.clone(), sim_cfg)));
        let sd_cfg = cfg.sd_config.clone().unwrap_or_else(|| {
            match desc.param("sd_architecture").and_then(Architecture::parse) {
                Some(Architecture::ThreeParty) => SdConfig::three_party(),
                Some(Architecture::Hybrid) => SdConfig::hybrid(),
                _ => SdConfig::two_party(),
            }
        });
        let mut tcp_servers = HashMap::new();
        let mut tcp_addrs = HashMap::new();
        let mut tcp_registries = HashMap::new();
        // Each node's control channel draws its own fault schedule, seeded
        // from the campaign chaos seed and the platform id — replaying the
        // campaign seed replays every node's schedule.
        let node_chaos = |pid: &str| {
            cfg.chaos.as_ref().map(|opts| ChaosOptions {
                seed: derive_seed(opts.seed, pid),
                ..opts.clone()
            })
        };
        let mut reactor = Reactor::new();
        for node in binding.managed_sim_nodes() {
            let pid = binding.platform_id(node).unwrap().to_string();
            let registry = Arc::new(Mutex::new(NodeManager::registry(
                node,
                &pid,
                Arc::clone(&sim),
                Arc::clone(&binding),
                sd_cfg.clone(),
            )));
            let endpoint = match cfg.transport {
                TransportKind::Memory => ReactorEndpoint::Memory(registry),
                TransportKind::Tcp => {
                    // Each NodeManager gets its own loopback server on an
                    // ephemeral port; the reactor connects to it lazily.
                    let bound = TcpRpcServer::bind("127.0.0.1:0", Arc::clone(&registry));
                    let server = bound.map_err(|e| EngineError::Transport {
                        node: pid.clone(),
                        detail: format!("bind: {e}"),
                    })?;
                    let addr = server.local_addr();
                    tcp_addrs.insert(pid.clone(), addr);
                    tcp_servers.insert(pid.clone(), server);
                    tcp_registries.insert(pid.clone(), registry);
                    ReactorEndpoint::Tcp {
                        addr,
                        opts: cfg.tcp.clone(),
                    }
                }
            };
            let chaos = node_chaos(&pid);
            reactor.add_node(pid, endpoint, chaos);
        }
        Ok(Self {
            desc,
            cfg,
            sim,
            binding,
            tcp_servers,
            tcp_addrs,
            tcp_registries,
            reactor: Mutex::new(reactor),
            call_seq: AtomicU64::new(0),
            control_retries: AtomicU64::new(0),
            obs_clock: excovery_obs::span::WallClock::new(),
            log: EventLog::new(),
            plugins: HashMap::new(),
            run_id: 0,
            replicate: 0,
            treatment: Treatment::from_assignments(std::iter::empty()),
            actors: ResolvedActors::default(),
            traffic: None,
            cbr_flows: Vec::new(),
            fault_windows: Vec::new(),
            run_measurements: Vec::new(),
        })
    }

    /// Registers a plugin callable as an environment action.
    pub fn register_plugin(&mut self, name: impl Into<String>, f: PluginFn) {
        self.plugins.insert(name.into(), f);
    }

    /// The simulated platform (for inspection in tests and benches).
    pub fn simulator(&self) -> SharedSim {
        Arc::clone(&self.sim)
    }

    /// Control-channel endpoint of every managed node (platform id →
    /// endpoint description, e.g. `memory` or `tcp://127.0.0.1:41234`).
    pub fn endpoints(&self) -> Vec<(String, String)> {
        self.node_ids()
            .into_iter()
            .map(|pid| {
                let endpoint = match self.tcp_addrs.get(&pid) {
                    Some(addr) => format!("tcp://{addr}"),
                    None => "memory".to_string(),
                };
                (pid, endpoint)
            })
            .collect()
    }

    /// One logical in-run call to one node: a reactor dispatch of one,
    /// under the same chaos schedule and retry policy as a fan-out.
    ///
    /// The key (`run:epoch:seq`) is drawn once and reused across every
    /// retry of this call, so a retry of a call that already executed
    /// (its response was lost) replays the recorded response instead of
    /// executing twice. Only errors [`RpcError::is_retryable`] classifies
    /// as transient are retried; a node rejecting the call (fault, codec)
    /// fails immediately.
    fn retry_call(&self, pid: &str, method: &str, params: Vec<Value>) -> Result<Value, RpcError> {
        let call = NodeCall {
            node_id: pid.to_string(),
            method: method.to_string(),
            params,
            idem_key: Some(self.next_idem_key()),
        };
        let mut outcomes = self.reactor.lock().dispatch(vec![call], &self.cfg.retry);
        let outcome = outcomes.pop().expect("one outcome per call");
        self.control_retries
            .fetch_add(outcome.retries, Ordering::Relaxed);
        outcome.result
    }

    /// Draws the idempotency key (`run:epoch:seq`) of the next logical call.
    fn next_idem_key(&self) -> String {
        format!(
            "{}:{}:{}",
            self.run_id,
            self.cfg.epoch,
            self.call_seq.fetch_add(1, Ordering::Relaxed)
        )
    }

    /// Dispatches one lifecycle procedure to every node in `nodes` and
    /// waits for all of them (the per-phase barrier). Every per-node call
    /// is idempotent (key `run:epoch:seq`, drawn in `nodes` order) and
    /// retried under the engine [`RetryPolicy`]; the whole fan-out runs on
    /// this thread in the [`Reactor`], every node's link multiplexed.
    ///
    /// Results come back in `nodes` order; so does error reporting — the
    /// first failing node in that deterministic order wins, regardless of
    /// which link finished first.
    fn fan_out(
        &self,
        nodes: &[String],
        method: &str,
        params: &[Value],
    ) -> Result<Vec<Value>, EngineError> {
        let phase_timer = self.phase_timer(format!("fan_out:{method}"));
        let calls: Vec<NodeCall> = nodes
            .iter()
            .map(|pid| NodeCall {
                node_id: pid.clone(),
                method: method.to_string(),
                params: params.to_vec(),
                idem_key: Some(self.next_idem_key()),
            })
            .collect();
        let outcomes = self.reactor.lock().dispatch(calls, &self.cfg.retry);
        for o in &outcomes {
            self.control_retries.fetch_add(o.retries, Ordering::Relaxed);
            if excovery_obs::enabled() {
                excovery_obs::global()
                    .histogram(
                        "master_node_call_duration_ns",
                        &[("node", o.node_id.as_str())],
                    )
                    .observe(o.duration_ns);
            }
        }
        self.finish_phase(phase_timer, method);
        nodes
            .iter()
            .zip(outcomes)
            .map(|(pid, o)| {
                o.result
                    .map_err(|e| match EngineError::from_rpc(pid.clone(), e) {
                        EngineError::Node { node, detail } => EngineError::Node {
                            node,
                            detail: format!("{method}: {detail}"),
                        },
                        EngineError::Transport { node, detail } => EngineError::Transport {
                            node,
                            detail: format!("{method}: {detail}"),
                        },
                        other => other,
                    })
            })
            .collect()
    }

    /// Starts timing one master phase when observability is on.
    fn phase_timer(
        &self,
        span: impl Into<Cow<'static, str>>,
    ) -> Option<excovery_obs::span::SpanTimer> {
        excovery_obs::enabled().then(|| excovery_obs::span::SpanTimer::start(&self.obs_clock, span))
    }

    /// Ends a [`Self::phase_timer`]: records its span and observes its
    /// duration in `master_phase_duration_ns{phase}`.
    fn finish_phase(&self, timer: Option<excovery_obs::span::SpanTimer>, phase: &str) {
        if let Some(timer) = timer {
            let dur = timer.finish(&self.obs_clock, excovery_obs::global_tracer());
            excovery_obs::global()
                .histogram("master_phase_duration_ns", &[("phase", phase)])
                .observe(dur);
        }
    }

    /// Test hook: platform ids of all connected NodeManagers, sorted.
    #[doc(hidden)]
    pub fn node_ids(&self) -> Vec<String> {
        self.reactor.lock().node_ids()
    }

    /// Test hook: shuts down a node's live TCP server, simulating a node
    /// crash mid-experiment. Returns false when the node has no running
    /// server (memory transport, or already halted).
    #[doc(hidden)]
    pub fn halt_node_server(&mut self, pid: &str) -> bool {
        match self.tcp_servers.remove(pid) {
            Some(server) => {
                server.shutdown();
                drop(server);
                true
            }
            None => false,
        }
    }

    /// Test hook: restarts a halted node's TCP server on its original
    /// port, with the registry (and idempotency cache) it had before the
    /// crash. The reactor's link reconnects on its next call.
    #[doc(hidden)]
    pub fn revive_node_server(&mut self, pid: &str) -> Result<(), EngineError> {
        let addr = *self
            .tcp_addrs
            .get(pid)
            .ok_or_else(|| EngineError::Config(format!("'{pid}' never had a TCP server")))?;
        let registry = Arc::clone(self.tcp_registries.get(pid).expect("registry kept"));
        // The OS may hold the port briefly after shutdown; rebinding the
        // same address is bounded-retried.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match TcpRpcServer::bind(addr, Arc::clone(&registry)) {
                Ok(server) => {
                    self.tcp_servers.insert(pid.to_string(), server);
                    return Ok(());
                }
                Err(_) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => {
                    return Err(EngineError::Transport {
                        node: pid.to_string(),
                        detail: format!("revive bind {addr}: {e}"),
                    })
                }
            }
        }
    }

    /// Executes the complete experiment and packages the results.
    pub fn execute(&mut self) -> Result<ExperimentOutcome, EngineError> {
        // The default level-2 root must be unique per execution: concurrent
        // experiments (parallel sweeps) would otherwise interleave their
        // intermediate files.
        static L2_COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let l2_root = self.cfg.l2_root.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!(
                "excovery-{}-{:x}-p{}-{}",
                self.desc.name,
                derive_seed(self.desc.seed, &self.desc.name),
                std::process::id(),
                L2_COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            ))
        });
        if !self.cfg.resume && l2_root.exists() {
            std::fs::remove_dir_all(&l2_root).map_err(|e| EngineError::Storage(e.to_string()))?;
        }
        let l2 = Level2Store::open(&l2_root).map_err(|e| EngineError::Storage(e.to_string()))?;
        let outcome = self.execute_in(&l2, l2_root);
        // A failed execution keeps an explicit root (it is what `resume`
        // continues from); a defaulted one has no name anyone could resume.
        if !self.cfg.keep_l2 && (outcome.is_ok() || self.cfg.l2_root.is_none()) {
            l2.destroy().ok();
        }
        outcome
    }

    fn execute_in(
        &mut self,
        l2: &Level2Store,
        l2_root: PathBuf,
    ) -> Result<ExperimentOutcome, EngineError> {
        // ---- experiment_init -------------------------------------------------
        let participants = self.binding.managed_sim_nodes();
        let topo_before = self.topology_measurement(&participants);
        l2.put_experiment("master", "topology_before.json", topo_before.as_bytes())
            .map_err(|e| EngineError::Storage(e.to_string()))?;

        let plan = self.desc.plan();
        let total = plan.runs.len() as u64;
        let first = if self.cfg.resume {
            l2.first_incomplete_run(total)
                .map_err(|e| EngineError::Storage(e.to_string()))?
        } else {
            0
        };
        let last = self
            .cfg
            .max_runs
            .map(|m| (first + m).min(total))
            .unwrap_or(total);

        // Restore the summaries of runs completed by earlier incarnations:
        // the outcome vector of a resumed campaign must equal the
        // uninterrupted one (the digest covers it).
        let mut outcomes = Vec::new();
        for run_id in 0..first {
            let record = l2
                .load_run(run_id)
                .map_err(|e| EngineError::Storage(e.to_string()))?;
            outcomes.push(read_json(
                &record,
                run_id,
                "_master",
                "outcome.json",
                l2codec::outcome_from_json,
            )?);
        }
        for run in &plan.runs[first as usize..last as usize] {
            let outcome = self.execute_run(run, l2)?;
            outcomes.push(outcome);
        }

        // ---- experiment_exit -------------------------------------------------
        let topo_after = self.topology_measurement(&participants);
        l2.put_experiment("master", "topology_after.json", topo_after.as_bytes())
            .map_err(|e| EngineError::Storage(e.to_string()))?;

        let packaging = self.phase_timer("package");
        let database = self.package(l2)?;
        self.finish_phase(packaging, "package");
        // Tear the node side down everywhere (concurrently, like the other
        // lifecycle phases).
        let managed: Vec<String> = self
            .binding
            .managed_platform_ids()
            .iter()
            .map(|s| s.to_string())
            .collect();
        self.fan_out(&managed, "experiment_exit", &[])?;
        // End-of-experiment observability snapshot, persisted alongside the
        // run journal. `package` reads experiment entries by exact name
        // (`master/topology_*.json`), so a `_obs` entry is digest-safe.
        if excovery_obs::enabled() {
            let spans = excovery_obs::global_tracer().drain();
            let snapshot = excovery_obs::jsonl::render(&excovery_obs::global().snapshot(), &spans);
            l2.put_experiment("_obs", "snapshot.jsonl", snapshot.as_bytes())
                .map_err(|e| EngineError::Storage(e.to_string()))?;
        }
        Ok(ExperimentOutcome {
            database,
            runs: outcomes,
            restored_runs: first,
            l2_root,
            control_retries: self.control_retries.load(Ordering::Relaxed),
        })
    }

    fn topology_measurement(&self, participants: &[NodeId]) -> String {
        let sim = self.sim.lock();
        let matrix = sim.topology().hop_matrix(participants);
        let named: Vec<JsonValue> = participants
            .iter()
            .zip(&matrix)
            .map(|(n, row)| {
                JsonValue::Array(vec![
                    JsonValue::str(self.binding.platform_id(*n).unwrap_or("?")),
                    JsonValue::Array(
                        row.iter()
                            .map(|h| match h {
                                Some(hops) => JsonValue::Int(*hops as i64),
                                None => JsonValue::Null,
                            })
                            .collect(),
                    ),
                ])
            })
            .collect();
        JsonValue::Array(named).to_string()
    }

    /// Instantiates the process set of one run.
    fn instantiate_processes(&self) -> Vec<ProcessInstance> {
        let mut procs = Vec::new();
        for p in &self.desc.node_processes {
            for (i, (_, platform, _)) in self.actors.instances(&p.actor_id).iter().enumerate() {
                procs.push(ProcessInstance::new(
                    format!("{}[{}]@{}", p.actor_id, i, platform),
                    Some(platform.clone()),
                    p.name.clone(),
                    p.actions.clone(),
                ));
            }
        }
        for (i, env) in self.desc.env_processes.iter().enumerate() {
            procs.push(ProcessInstance::new(
                format!("env#{i}"),
                None,
                None,
                env.actions.clone(),
            ));
        }
        procs
    }

    fn drain_events(&mut self) {
        let drained = self.sim.lock().drain_protocol_events();
        for e in drained {
            let pid = self
                .binding
                .platform_id(e.node)
                .map(str::to_string)
                .unwrap_or_else(|| e.node.to_string());
            self.log.record(
                self.run_id,
                pid,
                e.local_time,
                e.name,
                e.params.into_string_pairs(),
            );
        }
    }

    /// Applies fault-window boundaries up to the current instant.
    fn apply_fault_windows(&mut self) -> Result<(), EngineError> {
        let now = self.sim.lock().now();
        let mut windows = std::mem::take(&mut self.fault_windows);
        for w in &mut windows {
            if w.handle.is_none() && now >= w.start && now < w.stop {
                let v = self
                    .retry_call(&w.platform_id, "fault_start", vec![w.spec.clone()])
                    .map_err(|e| EngineError::from_rpc(w.platform_id.clone(), e))?;
                w.handle = v.as_int();
            }
        }
        let mut keep = Vec::new();
        for w in windows {
            if now >= w.stop {
                if let Some(h) = w.handle {
                    self.retry_call(&w.platform_id, "fault_stop", vec![Value::Int(h)])
                        .map_err(|e| EngineError::from_rpc(w.platform_id.clone(), e))?;
                }
                // Windows fully in the past are dropped.
            } else {
                keep.push(w);
            }
        }
        self.fault_windows = keep;
        Ok(())
    }

    fn next_fault_boundary(&self, now: SimTime) -> Option<SimTime> {
        self.fault_windows
            .iter()
            .flat_map(|w| [w.start, w.stop])
            .filter(|t| *t > now)
            .min()
    }

    fn execute_run(&mut self, run: &RunSpec, l2: &Level2Store) -> Result<RunOutcome, EngineError> {
        // ---- preparation (run_init) ------------------------------------------
        self.run_id = run.run_id;
        self.replicate = run.replicate;
        self.treatment = run.treatment.clone();
        self.actors = ResolvedActors::resolve(&self.desc, &run.treatment, &self.binding)
            .map_err(EngineError::Run)?;
        self.traffic = None;
        self.cbr_flows.clear();
        self.fault_windows.clear();
        self.run_measurements.clear();
        self.sim.lock().reset_for_run(run.run_id);
        // The log holds only this run: level 2 already has every earlier
        // run's events, and aligned sequence numbers keep a stale marker
        // from matching anything recorded now.
        self.log.clear();
        self.log.align_for_run(run.run_id);
        let run_start = self.sim.lock().now();

        // Each preparation procedure fans out to all nodes concurrently,
        // with a barrier between the phases: no node enters
        // `experiment_init` before every node finished `run_init`.
        let managed: Vec<String> = self
            .binding
            .managed_platform_ids()
            .iter()
            .map(|s| s.to_string())
            .collect();
        self.fan_out(&managed, "run_init", &[])?;
        self.fan_out(&managed, "experiment_init", &[])?;
        // Preliminary measurement: clock offset against the reference
        // (paper §IV-B3, stored as RunInfos.TimeDiff).
        let measured = self.fan_out(&managed, "measure_sync", &[])?;
        let mut sync_offsets: HashMap<String, i64> = HashMap::new();
        for (pid, m) in managed.iter().zip(measured) {
            let offset: i64 = m
                .member("offset_ns")
                .and_then(Value::as_str)
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| EngineError::Node {
                    node: pid.clone(),
                    detail: "measure_sync returned no offset".into(),
                })?;
            sync_offsets.insert(pid.clone(), offset);
        }
        let master_now = self.sim.lock().now();
        self.log.record(
            run.run_id,
            "master",
            master_now,
            "run_init",
            vec![("run".into(), run.run_id.to_string())],
        );

        // ---- execution ---------------------------------------------------------
        let mut procs = self.instantiate_processes();
        // Flow control must only consider events of *this* run: stamp every
        // process's initial marker at the current log position (run_init
        // resets the environment, §IV-C1).
        let run_marker = self.log.marker();
        for p in &mut procs {
            p.marker = run_marker;
        }
        let deadline = run_start + self.cfg.run_timeout;
        loop {
            // Step processes until quiescent.
            loop {
                let mut any = false;
                let mut taken = std::mem::take(&mut procs);
                for p in &mut taken {
                    let mut ctx = MasterCtx { master: self };
                    any |= interp::step(p, &mut ctx);
                }
                procs = taken;
                self.drain_events();
                if !any {
                    break;
                }
            }
            if procs.iter().all(ProcessInstance::finished) {
                break;
            }
            // Advance the platform.
            let now = self.sim.lock().now();
            if now >= deadline {
                for p in &mut procs {
                    if !p.finished() {
                        p.state = ProcState::Failed(format!("{}: run timeout", p.label));
                    }
                }
                break;
            }
            let mut next = now + self.cfg.quantum;
            for p in &procs {
                match &p.state {
                    ProcState::WaitingTime { until } if *until > now => next = next.min(*until),
                    ProcState::WaitingEvent {
                        deadline: Some(d), ..
                    } if *d > now => next = next.min(*d),
                    _ => {}
                }
            }
            if let Some(b) = self.next_fault_boundary(now) {
                next = next.min(b);
            }
            let next = next.min(deadline);
            self.sim.lock().run_until(next);
            self.apply_fault_windows()?;
            self.drain_events();
        }

        // ---- clean-up (run_exit) -----------------------------------------------
        if let Some(mut t) = self.traffic.take() {
            t.stop(&mut self.sim.lock());
        }
        let flows = std::mem::take(&mut self.cbr_flows);
        if !flows.is_empty() {
            excovery_netsim::cbr::remove_cbr_flows(&mut self.sim.lock(), &flows);
        }
        // Stop any still-active windowed faults.
        let leftover = std::mem::take(&mut self.fault_windows);
        for w in leftover {
            if let Some(h) = w.handle {
                self.retry_call(&w.platform_id, "fault_stop", vec![Value::Int(h)])
                    .map_err(|e| EngineError::from_rpc(w.platform_id.clone(), e))?;
            }
        }
        self.fan_out(&managed, "run_exit", &[])?;
        self.drain_events();
        let run_end = self.sim.lock().now();
        self.log.record(
            run.run_id,
            "master",
            run_end,
            "run_exit",
            vec![("run".into(), run.run_id.to_string())],
        );

        // ---- collection into level 2 ---------------------------------------------
        l2.put_run(
            run.run_id,
            "_master",
            "events.json",
            l2codec::events_to_json(self.log.events())
                .to_string()
                .as_bytes(),
        )
        .map_err(|e| EngineError::Storage(e.to_string()))?;
        l2.put_run(
            run.run_id,
            "_master",
            "sync.json",
            l2codec::sync_to_json(&sync_offsets).to_string().as_bytes(),
        )
        .map_err(|e| EngineError::Storage(e.to_string()))?;
        l2.put_run(
            run.run_id,
            "_master",
            "start.json",
            JsonValue::Int(run_start.as_nanos() as i64)
                .to_string()
                .as_bytes(),
        )
        .map_err(|e| EngineError::Storage(e.to_string()))?;
        // Plugin measurements get their separate storage location (§IV-B5).
        if !self.run_measurements.is_empty() {
            l2.put_run(
                run.run_id,
                "_plugins",
                "measurements.json",
                l2codec::measurements_to_json(&self.run_measurements)
                    .to_string()
                    .as_bytes(),
            )
            .map_err(|e| EngineError::Storage(e.to_string()))?;
        }

        let mut packets_total = 0;
        let staging = self.phase_timer("l2_captures");
        {
            let mut sim = self.sim.lock();
            let src_id = |node: NodeId| match self.binding.platform_id(node) {
                Some(pid) => Cow::Borrowed(pid),
                None => Cow::Owned(node.to_string()),
            };
            for pid in &managed {
                let node = self.binding.sim_node(pid).unwrap();
                let captures = sim.drain_captures(node);
                packets_total += captures.len();
                let entry = l2codec::encode_captures(&captures, src_id).map_err(|e| {
                    EngineError::Storage(format!(
                        "run {}: {pid}/{}: {e}",
                        run.run_id,
                        l2codec::CAPTURES
                    ))
                })?;
                l2.put_run(run.run_id, pid, l2codec::CAPTURES, &entry)
                    .map_err(|e| EngineError::Storage(e.to_string()))?;
            }
        }
        self.finish_phase(staging, "l2_captures");
        // Drain each node's action-log segment for this run into level 2
        // (a fan-out like the other lifecycle phases, so it rides the
        // reactor). Draining per run — rather than reading the
        // cumulative log at packaging time — makes the Logs table
        // crash-durable: a master killed after this run's completion
        // marker lands can be resumed by a fresh incarnation — with
        // fresh, empty NodeManagers — and the packaged Logs still cover
        // every run, byte-identically.
        let segments = self.fan_out(&managed, "collect_log", &[Value::Bool(true)])?;
        for (pid, segment) in managed.iter().zip(segments) {
            let segment = segment.as_str().map(str::to_string).unwrap_or_default();
            l2.put_run(run.run_id, pid, "node_log.txt", segment.as_bytes())
                .map_err(|e| EngineError::Storage(e.to_string()))?;
        }
        // Per-run observability summary: flush the data plane's batched
        // counters, then persist the registry snapshot plus the spans of
        // this run under the reserved `_obs` node. `package` reads run
        // entries by exact name, so these files can never reach the
        // level-3 database (the digest stays obs-independent).
        self.sim.lock().publish_obs();
        if excovery_obs::enabled() {
            let reg = excovery_obs::global();
            reg.counter("master_runs_executed_total", &[]).inc();
            reg.histogram("master_run_sim_duration_ns", &[])
                .observe(run_end.saturating_since(run_start).as_nanos());
            let spans = excovery_obs::global_tracer().drain();
            let summary = excovery_obs::jsonl::render(&reg.snapshot(), &spans);
            l2.put_run(run.run_id, "_obs", "summary.jsonl", summary.as_bytes())
                .map_err(|e| EngineError::Storage(e.to_string()))?;
        }
        let failures: Vec<String> = procs
            .iter()
            .filter_map(|p| match &p.state {
                ProcState::Failed(m) => Some(m.clone()),
                _ => None,
            })
            .collect();
        let outcome = RunOutcome {
            run_id: run.run_id,
            replicate: run.replicate,
            treatment_key: run.treatment.key(),
            completed: failures.is_empty(),
            failures,
            events: self.log.len(),
            packets: packets_total,
            duration: run_end.saturating_since(run_start),
        };
        // The summary is staged before the seal, so it is inside the
        // record the journal confirms: a run is only "complete" once a
        // resumed master can restore its outcome without re-executing it.
        l2.put_run(
            run.run_id,
            "_master",
            "outcome.json",
            l2codec::outcome_to_json(&outcome).to_string().as_bytes(),
        )
        .map_err(|e| EngineError::Storage(e.to_string()))?;
        l2.mark_run_complete(run.run_id)
            .map_err(|e| EngineError::Storage(e.to_string()))?;
        Ok(outcome)
    }

    /// Conditions level-2 data onto the common time base and packages the
    /// level-3 database (paper §IV-F).
    fn package(&self, l2: &Level2Store) -> Result<Database, EngineError> {
        let mut db = create_level3_database();
        let xml = excovery_desc::xmlio::to_xml(&self.desc);
        ExperimentInfo {
            exp_xml: xml.clone(),
            ee_version: EE_VERSION.into(),
            name: self.desc.name.clone(),
            comment: self.desc.comment.clone().unwrap_or_default(),
        }
        .insert(&mut db)
        .map_err(|e| EngineError::Storage(e.to_string()))?;
        db.insert(
            "EEFiles",
            vec!["description.xml".into(), xml.into_bytes().into()],
        )
        .map_err(|e| EngineError::Storage(e.to_string()))?;
        db.insert(
            "EEFiles",
            vec!["ee_version".into(), EE_VERSION.as_bytes().to_vec().into()],
        )
        .map_err(|e| EngineError::Storage(e.to_string()))?;
        for (i, name) in ["topology_before.json", "topology_after.json"]
            .iter()
            .enumerate()
        {
            if let Ok(data) = l2.get_experiment("master", name) {
                db.insert(
                    "ExperimentMeasurements",
                    vec![
                        (i as i64).into(),
                        "master".into(),
                        (*name).into(),
                        data.into(),
                    ],
                )
                .map_err(|e| EngineError::Storage(e.to_string()))?;
            }
        }

        // Logs: the raw per-node action log (one row per node, §IV-F),
        // reassembled from the per-run segments each run drained into
        // level 2. Reading level 2 instead of the NodeManagers' live
        // memory makes the table identical whether the campaign ran in
        // one master incarnation or was killed and resumed: the in-memory
        // log dies with a crashed master, the journalled segments do not.
        let managed = self.binding.managed_platform_ids();
        let mut logs: Vec<String> = managed
            .iter()
            .map(|pid| {
                format!(
                    "node {pid}: experiment '{}' executed by {EE_VERSION}\n",
                    self.desc.name
                )
            })
            .collect();

        for run_id in l2
            .run_ids()
            .map_err(|e| EngineError::Storage(e.to_string()))?
        {
            // One read per run: every table below borrows from this record.
            let record = l2
                .load_run(run_id)
                .map_err(|e| EngineError::Storage(e.to_string()))?;
            let sync: HashMap<String, i64> = read_json(
                &record,
                run_id,
                "_master",
                "sync.json",
                l2codec::sync_from_json,
            )?;
            let start_ns: u64 =
                read_json(&record, run_id, "_master", "start.json", JsonValue::as_u64)?;
            // Sorted node order: map iteration order must never leak into
            // the packaged database (digest stability).
            let mut sync_sorted: Vec<(&String, &i64)> = sync.iter().collect();
            sync_sorted.sort();
            for (pid, offset) in sync_sorted {
                RunInfoRow {
                    run_id,
                    node_id: pid.clone(),
                    start_time_ns: start_ns as i64,
                    time_diff_ns: *offset,
                }
                .insert(&mut db)
                .map_err(|e| EngineError::Storage(e.to_string()))?;
            }
            // Events: condition local node stamps to the common base.
            let events: Vec<RecordedEvent> = read_json(
                &record,
                run_id,
                "_master",
                "events.json",
                l2codec::events_from_json,
            )?;
            for e in events {
                let offset = sync.get(&e.node).copied().unwrap_or(0);
                EventRow {
                    run_id,
                    node_id: e.node,
                    common_time_ns: e.local_time_ns as i64 - offset,
                    event_type: e.name,
                    parameter: EventRow::encode_params(&e.params),
                }
                .insert(&mut db)
                .map_err(|er| EngineError::Storage(er.to_string()))?;
            }
            // Custom (plugin) measurements -> ExtraRunMeasurements; only
            // runs whose plugins recorded something have the entry.
            if record.get("_plugins", "measurements.json").is_some() {
                let ms = read_json(
                    &record,
                    run_id,
                    "_plugins",
                    "measurements.json",
                    l2codec::measurements_from_json,
                )?;
                for (node_id, name, content) in ms {
                    db.insert(
                        "ExtraRunMeasurements",
                        vec![
                            SqlValue::Int(run_id as i64),
                            node_id.into(),
                            name.into(),
                            content.into(),
                        ],
                    )
                    .map_err(|e| EngineError::Storage(e.to_string()))?;
                }
            }
            // Packets likewise. A capture's wire bytes are its `Data` cell
            // as they are: the 2-byte tagger id, then the payload (the
            // prototype writes the tag into an IP header option;
            // analysis::packetstats splits it back off).
            for (node, file, raw) in record.entries() {
                let bad = |what: String| {
                    EngineError::Storage(format!("run {run_id}: {node}/{file}: {what}"))
                };
                if file == l2codec::LEGACY_CAPTURES {
                    // Skipping it would package the run without its packets.
                    return Err(bad(format!(
                        "written by an older build; this build reads {}",
                        l2codec::CAPTURES
                    )));
                }
                if file != l2codec::CAPTURES {
                    continue;
                }
                let captures = l2codec::decode_captures(raw).map_err(|e| bad(e.to_string()))?;
                let offset = sync.get(node).copied().unwrap_or(0);
                for c in captures {
                    PacketRow {
                        run_id,
                        node_id: node.to_string(),
                        common_time_ns: c.local_time_ns as i64 - offset,
                        src_node_id: c.src.to_string(),
                        data: c.wire.to_vec(),
                    }
                    .insert(&mut db)
                    .map_err(|e| EngineError::Storage(e.to_string()))?;
                }
            }
            for (pid, content) in managed.iter().zip(&mut logs) {
                if let Some(segment) = record.get(pid, "node_log.txt") {
                    content.push_str(&String::from_utf8_lossy(segment));
                }
            }
        }

        for (pid, content) in managed.iter().zip(logs) {
            db.insert("Logs", vec![(*pid).into(), content.into_bytes().into()])
                .map_err(|e| EngineError::Storage(e.to_string()))?;
        }
        Ok(db)
    }
}

impl Drop for ExperiMaster {
    fn drop(&mut self) {
        for s in self.tcp_servers.values() {
            s.shutdown();
        }
    }
}

/// [`ExecCtx`] implementation delegating to the master.
struct MasterCtx<'a> {
    master: &'a mut ExperiMaster,
}

impl ExecCtx for MasterCtx<'_> {
    fn now(&self) -> SimTime {
        self.master.sim.lock().now()
    }

    fn marker(&self) -> u64 {
        self.master.log.marker()
    }

    fn resolve(&self, v: &ValueRef) -> Option<LevelValue> {
        v.resolve(
            &self.master.treatment,
            &self.master.desc.factors.replication.id,
            self.master.replicate,
        )
    }

    fn satisfied(&self, selector: &EventSelector, since: u64) -> bool {
        self.master
            .log
            .satisfied(selector, since, &self.master.actors)
    }

    fn call_node(
        &mut self,
        platform_id: &str,
        method: &str,
        params: Vec<Value>,
    ) -> Result<Value, String> {
        if self.master.binding.sim_node(platform_id).is_none() {
            return Err(format!("no NodeManager for '{platform_id}'"));
        }
        self.master
            .retry_call(platform_id, method, params)
            .map_err(|e| e.to_string())
    }

    fn env_invoke(
        &mut self,
        name: &str,
        params: &HashMap<String, LevelValue>,
    ) -> Result<(), String> {
        let get_i = |key: &str| params.get(key).and_then(LevelValue::as_int);
        match name {
            "env_traffic_start" => {
                let spec = TrafficSpec {
                    pairs: get_i("random_pairs").unwrap_or(1).max(0) as usize,
                    rate_kbps: params
                        .get("bw")
                        .and_then(LevelValue::as_float)
                        .unwrap_or(100.0),
                    choice: match get_i("choice").unwrap_or(0) {
                        1 => PairChoice::ActingNodes,
                        2 => PairChoice::NonActingNodes,
                        _ => PairChoice::AllNodes,
                    },
                    switch_amount: get_i("random_switch_amount").unwrap_or(1).max(0) as usize,
                    seed: get_i("random_seed").unwrap_or(0) as u64,
                    switch_seed: get_i("random_switch_seed").unwrap_or(0) as u64,
                };
                let switch_idx = get_i("random_switch_seed").unwrap_or(0) as u64;
                let inject_packets = get_i("inject").unwrap_or(0) != 0;
                let packet_size = get_i("packet_size").unwrap_or(500).clamp(8, 60_000) as usize;
                let rate = spec.rate_kbps;
                let mut sim = self.master.sim.lock();
                let acting = self.master.actors.acting_sim_nodes();
                let mut gen = TrafficGenerator::new(spec, &sim, acting);
                // Pairs vary from run to run as determined by the switch
                // amount (paper §IV-D2); the switch index is the resolved
                // switch seed (the replicate number in Fig. 7).
                gen.switch_pairs(&sim, switch_idx);
                gen.start(&mut sim);
                if inject_packets {
                    // Real CBR packets in addition to the offered-load
                    // model: their captures make tag-gap loss analysis
                    // possible (§VI-A).
                    self.master.cbr_flows = excovery_netsim::cbr::install_cbr_flows(
                        &mut sim,
                        gen.pairs(),
                        rate,
                        packet_size,
                    );
                }
                drop(sim);
                self.master.traffic = Some(gen);
                self.emit_master_event("env_traffic_started");
                Ok(())
            }
            "env_traffic_stop" => {
                if let Some(mut t) = self.master.traffic.take() {
                    t.stop(&mut self.master.sim.lock());
                }
                let flows = std::mem::take(&mut self.master.cbr_flows);
                if !flows.is_empty() {
                    excovery_netsim::cbr::remove_cbr_flows(&mut self.master.sim.lock(), &flows);
                }
                self.emit_master_event("env_traffic_stopped");
                Ok(())
            }
            "env_drop_all_start" => {
                self.master.sim.lock().set_drop_all_everywhere(true);
                self.emit_master_event("env_drop_all_started");
                Ok(())
            }
            "env_drop_all_stop" => {
                self.master.sim.lock().set_drop_all_everywhere(false);
                self.emit_master_event("env_drop_all_stopped");
                Ok(())
            }
            other => match self.master.plugins.get_mut(other) {
                Some(plugin) => {
                    let mut sim = self.master.sim.lock();
                    let mut ctx = PluginCtx {
                        sim: &mut sim,
                        run_id: self.master.run_id,
                        measurements: &mut self.master.run_measurements,
                    };
                    plugin(params, &mut ctx)
                }
                None => Err(format!("unknown environment action '{other}'")),
            },
        }
    }

    fn emit_master_event(&mut self, name: &str) {
        let now = self.master.sim.lock().now();
        self.master
            .log
            .record(self.master.run_id, "master", now, name, vec![]);
    }

    fn schedule_fault(
        &mut self,
        platform_id: &str,
        fault: &ParsedFault,
        window: (SimTime, SimTime),
    ) -> Result<(), String> {
        self.master.fault_windows.push(FaultWindow {
            platform_id: platform_id.to_string(),
            spec: fault.spec.clone(),
            start: window.0,
            stop: window.1,
            handle: None,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use excovery_desc::ExperimentDescription;
    use excovery_netsim::link::LinkModel;

    /// A path no other test of this process, and no other process, uses.
    fn unique_temp_dir(prefix: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "{prefix}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    fn small_config() -> EngineConfig {
        EngineConfig {
            topology: Topology::grid(3, 2),
            sim: SimulatorConfig {
                link_model: LinkModel {
                    base_loss: 0.0,
                    ..LinkModel::default()
                },
                ..SimulatorConfig::default()
            },
            run_timeout: SimDuration::from_secs(60),
            l2_root: Some(unique_temp_dir("excovery-master-test")),
            ..EngineConfig::grid_default()
        }
    }

    fn paper_desc(reps: u64) -> ExperimentDescription {
        use excovery_desc::process::{EventSelector, ProcessAction};
        let mut d = ExperimentDescription::paper_two_party_sd(reps);
        // Keep the load practical for unit tests: drop the traffic factors
        // and replace the traffic process with its synchronization skeleton.
        d.factors
            .factors
            .retain(|f| f.id != "fact_bw" && f.id != "fact_pairs");
        d.env_processes[0].actions = vec![
            ProcessAction::EventFlag {
                value: "ready_to_init".into(),
            },
            ProcessAction::WaitForEvent(EventSelector::named("done")),
        ];
        d
    }

    #[test]
    fn one_shot_discovery_experiment_completes() {
        let desc = paper_desc(2);
        let mut master = ExperiMaster::new(desc, small_config()).unwrap();
        let outcome = master.execute().unwrap();
        assert_eq!(outcome.runs.len(), 2);
        for run in &outcome.runs {
            assert!(run.completed, "failures: {:?}", run.failures);
            assert!(run.events > 0);
            assert!(run.packets > 0);
            // The discovery itself is fast; the run ends promptly after.
            assert!(
                run.duration < SimDuration::from_secs(40),
                "{:?}",
                run.duration
            );
        }
        // Events of the paper's Fig. 11 sequence are present per run.
        let events = EventRow::read_run(&outcome.database, 0).unwrap();
        let names: Vec<&str> = events.iter().map(|e| e.event_type.as_str()).collect();
        for expected in [
            "run_init",
            "sd_init_done",
            "sd_start_publish",
            "ready_to_init",
            "sd_start_search",
            "sd_service_add",
            "done",
            "sd_stop_publish",
            "sd_exit_done",
            "run_exit",
        ] {
            assert!(names.contains(&expected), "missing {expected} in {names:?}");
        }
    }

    #[test]
    fn discovery_event_identifies_the_sm_node() {
        let desc = paper_desc(1);
        let mut master = ExperiMaster::new(desc, small_config()).unwrap();
        let outcome = master.execute().unwrap();
        let events = EventRow::read_run(&outcome.database, 0).unwrap();
        let add = events
            .iter()
            .find(|e| e.event_type == "sd_service_add" && e.node_id == "t9-105")
            .expect("SU discovered the service");
        let params = EventRow::decode_params(&add.parameter);
        assert!(
            params.iter().any(|(k, v)| k == "service" && v == "t9-157"),
            "{params:?}"
        );
    }

    #[test]
    fn packets_table_is_populated_and_conditioned() {
        let desc = paper_desc(1);
        let mut master = ExperiMaster::new(desc, small_config()).unwrap();
        let outcome = master.execute().unwrap();
        let packets = PacketRow::read_run(&outcome.database, 0).unwrap();
        assert!(!packets.is_empty());
        // Common times must be ordered and roughly within the run span.
        let infos = RunInfoRow::read_all(&outcome.database).unwrap();
        assert!(!infos.is_empty());
        for w in packets.windows(2) {
            assert!(w[0].common_time_ns <= w[1].common_time_ns);
        }
    }

    #[test]
    fn logs_table_holds_real_action_logs() {
        let desc = paper_desc(1);
        let mut master = ExperiMaster::new(desc, small_config()).unwrap();
        let outcome = master.execute().unwrap();
        let logs = outcome.database.table("Logs").unwrap();
        assert_eq!(logs.len(), 6, "one log per managed node");
        let sm_log = logs
            .rows()
            .find(|r| r.get(0) == CellRef::Text("t9-157"))
            .map(|r| match r.get(1) {
                CellRef::Blob(b) => String::from_utf8_lossy(b).into_owned(),
                other => panic!("log is {other:?}"),
            })
            .expect("SM log present");
        for needle in ["run_init", "sd_init", "sd_start_publish", "run_exit"] {
            assert!(sm_log.contains(needle), "missing {needle} in\n{sm_log}");
        }
    }

    #[test]
    fn experiment_info_contains_description_xml() {
        let desc = paper_desc(1);
        let name = desc.name.clone();
        let mut master = ExperiMaster::new(desc, small_config()).unwrap();
        let outcome = master.execute().unwrap();
        let info = ExperimentInfo::read(&outcome.database).unwrap();
        assert_eq!(info.name, name);
        assert!(info.exp_xml.contains("<experiment"));
        assert!(info.ee_version.contains("excovery-rs"));
        // The stored XML parses back into the same description.
        let reparsed = excovery_desc::xmlio::from_xml(&info.exp_xml).unwrap();
        assert_eq!(reparsed.name, name);
    }

    #[test]
    fn max_runs_caps_execution() {
        let desc = paper_desc(10);
        let mut cfg = small_config();
        cfg.max_runs = Some(3);
        let mut master = ExperiMaster::new(desc, cfg).unwrap();
        let outcome = master.execute().unwrap();
        assert_eq!(outcome.runs.len(), 3);
    }

    #[test]
    fn event_log_holds_only_the_current_run() {
        let mut cfg = small_config();
        cfg.max_runs = Some(3);
        let mut master = ExperiMaster::new(paper_desc(3), cfg).unwrap();
        let outcome = master.execute().unwrap();
        assert_eq!(outcome.runs.len(), 3);
        let last = outcome.runs.last().unwrap();
        assert!(last.events > 0);
        assert_eq!(master.log.len(), last.events);
        assert!(master.log.events().iter().all(|e| e.run_id == last.run_id));
    }

    #[test]
    fn resume_skips_completed_runs() {
        let desc = paper_desc(4);
        let l2_root = unique_temp_dir("excovery-resume-test");
        // First pass: 2 of 4 runs, keeping level 2.
        let mut cfg = small_config();
        cfg.l2_root = Some(l2_root.clone());
        cfg.max_runs = Some(2);
        cfg.keep_l2 = true;
        let mut master = ExperiMaster::new(desc.clone(), cfg).unwrap();
        let first = master.execute().unwrap();
        assert_eq!(first.runs.len(), 2);
        // Second pass resumes at run 2.
        let mut cfg = small_config();
        cfg.l2_root = Some(l2_root.clone());
        cfg.resume = true;
        let mut master = ExperiMaster::new(desc, cfg).unwrap();
        let second = master.execute().unwrap();
        // The outcome vector covers all four runs — the first two restored
        // from the level-2 journal, the last two freshly executed.
        assert_eq!(second.runs.len(), 4);
        assert_eq!(second.restored_runs, 2);
        assert_eq!(&second.runs[..2], &first.runs[..]);
        assert_eq!(second.runs[2].run_id, 2);
        // The packaged database now holds all four runs (levels merged).
        assert_eq!(
            RunInfoRow::run_ids(&second.database).unwrap(),
            vec![0, 1, 2, 3]
        );
        std::fs::remove_dir_all(&l2_root).ok();
    }

    /// `(node, name, bytes)` of a sealed run's entries.
    type Entries = Vec<(String, String, Vec<u8>)>;

    /// Executes one run with level 2 kept; returns the description, the
    /// level-2 root, the sealed entries of run 0 and the outcome's digest.
    fn sealed_single_run() -> (ExperimentDescription, PathBuf, Entries, u64) {
        let desc = paper_desc(1);
        let mut cfg = small_config();
        cfg.keep_l2 = true;
        let l2_root = cfg.l2_root.clone().unwrap();
        let digest = ExperiMaster::new(desc.clone(), cfg)
            .unwrap()
            .execute()
            .unwrap()
            .digest();
        let entries = Level2Store::open(&l2_root)
            .unwrap()
            .load_run(0)
            .unwrap()
            .entries()
            .map(|(node, name, data)| (node.to_string(), name.to_string(), data.to_vec()))
            .collect();
        (desc, l2_root, entries, digest)
    }

    /// Re-seals run 0 with `entries` and packages the campaign again by
    /// resuming it (every run is sealed, so only packaging runs); returns
    /// the digest.
    fn repackage(
        desc: &ExperimentDescription,
        l2_root: &PathBuf,
        entries: &Entries,
    ) -> Result<u64, EngineError> {
        let l2 = Level2Store::open(l2_root).unwrap();
        for (node, name, data) in entries {
            l2.put_run(0, node, name, data).unwrap();
        }
        l2.mark_run_complete(0).unwrap();
        drop(l2);
        let mut cfg = small_config();
        cfg.l2_root = Some(l2_root.clone());
        cfg.keep_l2 = true;
        cfg.resume = true;
        ExperiMaster::new(desc.clone(), cfg)
            .unwrap()
            .execute()
            .map(|o| o.digest())
    }

    fn with_entry(
        entries: &Entries,
        change: impl Fn(&str, &str, &[u8]) -> Option<(String, String, Vec<u8>)>,
    ) -> Entries {
        entries
            .iter()
            .filter_map(|(node, name, data)| change(node, name, data))
            .collect()
    }

    fn keep(node: &str, name: &str, data: &[u8]) -> Option<(String, String, Vec<u8>)> {
        Some((node.to_string(), name.to_string(), data.to_vec()))
    }

    #[test]
    fn package_rejects_an_unreadable_clock_sync_instead_of_zeroing_it() {
        let (desc, l2_root, entries, digest) = sealed_single_run();
        assert_eq!(
            repackage(&desc, &l2_root, &entries).unwrap(),
            digest,
            "re-sealed as it was"
        );
        for (entry, damaged) in [
            ("sync.json", Some(&b"not json"[..])),
            ("start.json", None),
            ("sync.json", Some(&b"[1, 2]"[..])),
        ] {
            let e = repackage(
                &desc,
                &l2_root,
                &with_entry(&entries, |node, name, data| {
                    match (name == entry, damaged) {
                        (true, Some(bytes)) => keep(node, name, bytes),
                        (true, None) => None,
                        (false, _) => keep(node, name, data),
                    }
                }),
            )
            .expect_err("the run's time base is unknown");
            let msg = e.to_string();
            assert!(
                matches!(e, EngineError::Storage(_))
                    && msg.contains("run 0")
                    && msg.contains(entry),
                "{msg}"
            );
        }
        std::fs::remove_dir_all(&l2_root).ok();
    }

    #[test]
    fn package_names_the_run_and_node_of_damaged_captures() {
        let (desc, l2_root, entries, _) = sealed_single_run();
        let (node, _, _) = entries
            .iter()
            .find(|(_, name, data)| name == l2codec::CAPTURES && data.len() > 9)
            .expect("a node captured packets")
            .clone();
        let legacy = |n: &str, name: &str, data: &[u8]| {
            let name = if n == node && name == l2codec::CAPTURES {
                l2codec::LEGACY_CAPTURES
            } else {
                name
            };
            keep(n, name, data)
        };
        let truncated = |n: &str, name: &str, data: &[u8]| {
            let cut = n == node && name == l2codec::CAPTURES;
            keep(n, name, &data[..data.len() - usize::from(cut)])
        };
        for (damage, entry) in [
            (
                &truncated as &dyn Fn(&str, &str, &[u8]) -> _,
                l2codec::CAPTURES,
            ),
            (&legacy, l2codec::LEGACY_CAPTURES),
        ] {
            let msg = repackage(&desc, &l2_root, &with_entry(&entries, damage))
                .expect_err("a run without its packets is not packaged")
                .to_string();
            assert!(
                msg.contains("run 0") && msg.contains(&format!("{node}/{entry}")),
                "{msg}"
            );
        }
        std::fs::remove_dir_all(&l2_root).ok();
    }

    #[test]
    fn failed_execution_removes_its_defaulted_level2_root() {
        let mut desc = paper_desc(1);
        desc.name = "l2-leak-probe".into();
        let mut cfg = small_config();
        cfg.l2_root = None;
        cfg.retry = RetryPolicy::none();
        cfg.chaos = Some(ChaosOptions {
            crash_windows: vec![(0, u64::MAX)],
            ..ChaosOptions::quiet(11)
        });
        let mut master = ExperiMaster::new(desc, cfg).unwrap();
        assert!(master.execute().is_err());
        let ours = format!("-p{}-", std::process::id());
        let left: Vec<String> = std::fs::read_dir(std::env::temp_dir())
            .unwrap()
            .filter_map(|e| e.ok()?.file_name().into_string().ok())
            .filter(|n| n.starts_with("excovery-l2-leak-probe-") && n.contains(&ours))
            .collect();
        assert!(left.is_empty(), "left behind: {left:?}");
    }

    #[test]
    fn traffic_factors_drive_the_generator() {
        // Full paper description including load factors, one replicate.
        let desc = ExperimentDescription::paper_two_party_sd(1);
        let mut cfg = small_config();
        cfg.max_runs = Some(1);
        let mut master = ExperiMaster::new(desc, cfg).unwrap();
        let outcome = master.execute().unwrap();
        assert!(outcome.runs[0].completed, "{:?}", outcome.runs[0].failures);
        let events = EventRow::read_run(&outcome.database, 0).unwrap();
        let names: Vec<&str> = events.iter().map(|e| e.event_type.as_str()).collect();
        assert!(names.contains(&"env_traffic_started"), "{names:?}");
        assert!(names.contains(&"env_traffic_stopped"));
    }

    #[test]
    fn plugin_actions_are_invocable() {
        use excovery_desc::process::ProcessAction;
        let mut desc = paper_desc(1);
        desc.env_processes[0]
            .actions
            .insert(0, ProcessAction::invoke("my_custom_probe"));
        let mut master = ExperiMaster::new(desc, small_config()).unwrap();
        let hits = Arc::new(Mutex::new(0));
        let h2 = Arc::clone(&hits);
        master.register_plugin(
            "my_custom_probe",
            Box::new(move |_params, ctx| {
                *h2.lock() += 1;
                let pending = ctx.sim.pending_events() as u32;
                ctx.record_measurement(
                    "master",
                    "pending_events",
                    pending.to_string().into_bytes(),
                );
                Ok(())
            }),
        );
        let outcome = master.execute().unwrap();
        assert!(outcome.runs[0].completed);
        assert_eq!(*hits.lock(), 1);
        // The measurement landed in ExtraRunMeasurements.
        let table = outcome.database.table("ExtraRunMeasurements").unwrap();
        assert_eq!(table.len(), 1);
        let row = table.rows().next().unwrap();
        assert_eq!(row.get(2), CellRef::Text("pending_events"));
    }

    #[test]
    fn unknown_env_action_fails_the_run_not_the_experiment() {
        use excovery_desc::process::ProcessAction;
        let mut desc = paper_desc(1);
        desc.env_processes[0]
            .actions
            .insert(0, ProcessAction::invoke("no_such_plugin"));
        let mut master = ExperiMaster::new(desc, small_config()).unwrap();
        let outcome = master.execute().unwrap();
        assert!(!outcome.runs[0].completed);
        assert!(
            outcome.runs[0]
                .failures
                .iter()
                .any(|f| f.contains("no_such_plugin")),
            "{:?}",
            outcome.runs[0].failures
        );
    }

    #[test]
    fn determinism_same_seed_same_database() {
        fn run_once() -> Vec<(u64, String, i64)> {
            let desc = paper_desc(2);
            let mut master = ExperiMaster::new(desc, small_config()).unwrap();
            let outcome = master.execute().unwrap();
            EventRow::read_all(&outcome.database)
                .unwrap()
                .into_iter()
                .map(|e| (e.run_id, e.event_type, e.common_time_ns))
                .collect()
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    fn interface_fault_process_blocks_discovery() {
        use excovery_desc::process::{ActorProcess, ProcessAction};
        let mut desc = paper_desc(1);
        // A manipulation process on the SM: interface down for the whole
        // run (started, never stopped; run_exit cleans up).
        let mut fault = ActorProcess::new("fault_sm");
        fault.is_manipulation = true;
        fault.nodes_factor = Some("fact_nodes".into());
        fault.actions = vec![ProcessAction::invoke("fault_interface_start")];
        // Bind the fault process to actor0's node by adding it to the map.
        // Reuse actor0's assignment: give the fault process the same actor id.
        fault.actor_id = "actor0".into();
        // Rename to avoid duplicate actor ids (validation): append actions
        // to the SM process instead — simpler and equivalent.
        let sm = desc
            .node_processes
            .iter_mut()
            .find(|p| p.actor_id == "actor0")
            .unwrap();
        sm.actions
            .insert(0, ProcessAction::invoke("fault_interface_start"));
        let mut cfg = small_config();
        cfg.run_timeout = SimDuration::from_secs(45);
        let mut master = ExperiMaster::new(desc, cfg).unwrap();
        let outcome = master.execute().unwrap();
        let events = EventRow::read_run(&outcome.database, 0).unwrap();
        let names: Vec<&str> = events.iter().map(|e| e.event_type.as_str()).collect();
        assert!(names.contains(&"fault_interface_started"));
        assert!(
            !names.contains(&"sd_service_add"),
            "fault must prevent discovery: {names:?}"
        );
        // The SU's 30 s deadline fired and the run still completed.
        assert!(names.contains(&"done"));
        assert!(outcome.runs[0].completed, "{:?}", outcome.runs[0].failures);
    }

    #[test]
    fn windowed_fault_applies_and_clears() {
        use excovery_desc::process::ProcessAction;
        let mut desc = paper_desc(1);
        let sm = desc
            .node_processes
            .iter_mut()
            .find(|p| p.actor_id == "actor0")
            .unwrap();
        // Interface down for the first 3 seconds of the run only.
        sm.actions.insert(
            0,
            ProcessAction::invoke_with(
                "fault_interface_start",
                [
                    ("duration".to_string(), ValueRef::int(3)),
                    ("rate".to_string(), ValueRef::Lit(LevelValue::Float(1.0))),
                ],
            ),
        );
        let mut master = ExperiMaster::new(desc, small_config()).unwrap();
        let outcome = master.execute().unwrap();
        assert!(outcome.runs[0].completed, "{:?}", outcome.runs[0].failures);
        let events = EventRow::read_run(&outcome.database, 0).unwrap();
        let names: Vec<&str> = events.iter().map(|e| e.event_type.as_str()).collect();
        assert!(names.contains(&"fault_interface_started"), "{names:?}");
        assert!(names.contains(&"fault_stopped"));
        // Discovery succeeds after the window clears (SU retries queries).
        assert!(names.contains(&"sd_service_add"), "{names:?}");
    }
}
