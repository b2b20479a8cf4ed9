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
//!
//! Child modules: `config`, `session` (an execution's lifecycle), `run`,
//! `package`, `outcome` and `ctx`; this file holds construction, the
//! control channel, the phase timers and [`ExperiMaster::execute`].

pub(crate) mod config;
pub(crate) mod ctx;
pub(crate) mod outcome;
mod package;
mod run;
pub(crate) mod session;

use crate::binding::{PlatformBinding, ResolvedActors};
use crate::error::EngineError;
use crate::event_log::EventLog;
use crate::l2codec;
use crate::nodemanager::{NodeManager, SharedSim};
use config::{EngineConfig, TransportKind};
use ctx::PluginFn;
use excovery_desc::validate::validate_strict;
use excovery_desc::ExperimentDescription;
use excovery_netsim::rng::derive_seed;
use excovery_netsim::traffic::TrafficGenerator;
use excovery_netsim::{NodeId, SimTime, Simulator};
use excovery_obs::sync::Mutex;
use excovery_obs::Histogram;
use excovery_rpc::{
    ChaosOptions, IdemKey, NodeCall, Reactor, ReactorEndpoint, RpcError, ServerRegistry,
    TcpRpcServer, Value,
};
use excovery_sd::{Architecture, SdConfig};
use excovery_store::level2::Level2Store;
use excovery_store::JsonValue;
use outcome::ExperimentOutcome;
use std::borrow::Cow;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// A fault the interpreter scheduled for a window of the run; started and
/// stopped by the run loop at the window's boundaries.
struct FaultWindow {
    platform_id: String,
    /// The node's reactor link.
    link: usize,
    spec: Value,
    start: SimTime,
    stop: SimTime,
    handle: Option<i32>,
}

/// The controlling entity executing experiments: [`Self::execute`] runs
/// one whole, or [`Self::open`] steps through it.
///
/// ```
/// use excovery_core::{EngineConfig, ExperiMaster};
/// use excovery_desc::ExperimentDescription;
/// use excovery_store::level2::Level2Store;
///
/// let desc = ExperimentDescription::paper_two_party_sd(1);
/// let mut master = ExperiMaster::new(desc, EngineConfig::grid_default())?;
/// let root = std::env::temp_dir().join(format!("excovery-doc-{}", std::process::id()));
/// let l2 = Level2Store::open(root)?;
/// let mut session = master.open(&l2)?;
/// assert!(session.step(1)?[0].completed); // run 0, sealed in level 2
/// let outcome = session.finish()?; // packages the runs sealed so far
/// assert!(!outcome.database.table("Events").unwrap().is_empty());
/// l2.destroy()?;
/// # Ok::<(), excovery_core::EngineError>(())
/// ```
pub struct ExperiMaster {
    desc: ExperimentDescription,
    cfg: EngineConfig,
    sim: SharedSim,
    binding: Arc<PlatformBinding>,
    /// Each node's TCP server by platform id ([`TransportKind::Tcp`] only).
    tcp_nodes: HashMap<String, TcpNode>,
    /// The one dispatcher every master→NodeManager call rides (behind a
    /// lock only because [`Self::fan_out`] takes `&self`; dispatches never
    /// overlap).
    reactor: Mutex<Reactor>,
    /// Platform ids of the managed nodes, the target of every lifecycle
    /// fan-out; the node at index `i` is reactor link `i`.
    managed: Vec<String>,
    /// Idempotency-key sequence; each logical call draws one number.
    call_seq: AtomicU64,
    /// Control-channel retries performed (reported in the outcome).
    control_retries: AtomicU64,
    log: EventLog,
    plugins: HashMap<String, PluginFn>,
    /// The buffer the small per-run level-2 entries are rendered into.
    entry_buf: Vec<u8>,
    // per-run state
    run_id: u64,
    replicate: u64,
    actors: Arc<ResolvedActors>,
    traffic: Option<TrafficGenerator>,
    cbr_flows: Vec<(NodeId, u16)>,
    fault_windows: Vec<FaultWindow>,
    run_measurements: Vec<(String, String, Vec<u8>)>,
    /// The histograms the phase timers and fan-outs observe into, each
    /// resolved from the registry once per master on first use.
    obs_handles: Mutex<ObsHandles>,
}

/// A node's loopback TCP server: a halted one is revived on the same
/// address with the same registry (and so the same idempotency cache).
struct TcpNode {
    addr: std::net::SocketAddr,
    registry: Arc<Mutex<ServerRegistry>>,
    /// `None` while halted; dropping it stops the accept loop.
    server: Option<TcpRpcServer>,
}

/// `master_phase_duration_ns` by phase and `master_node_call_duration_ns`
/// by node, so a timer that ends neither builds a series key nor takes
/// the registry lock.
#[derive(Default)]
struct ObsHandles {
    phases: HashMap<String, Histogram>,
    node_calls: HashMap<String, Histogram>,
}

impl ObsHandles {
    fn phase(&mut self, phase: &str) -> &Histogram {
        resolve(&mut self.phases, "master_phase_duration_ns", "phase", phase)
    }

    fn node_call(&mut self, node: &str) -> &Histogram {
        resolve(
            &mut self.node_calls,
            "master_node_call_duration_ns",
            "node",
            node,
        )
    }
}

/// The histogram `name{label = value}` from `cache`, resolved from the
/// registry on first use.
fn resolve<'a>(
    cache: &'a mut HashMap<String, Histogram>,
    name: &str,
    label: &str,
    value: &str,
) -> &'a Histogram {
    if !cache.contains_key(value) {
        let resolved = excovery_obs::global().histogram(name, &[(label, value)]);
        cache.insert(value.to_string(), resolved);
    }
    &cache[value]
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
        let mut tcp_nodes = HashMap::new();
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
        let mut managed = Vec::new();
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
                    let node = TcpNode {
                        addr,
                        registry,
                        server: Some(server),
                    };
                    tcp_nodes.insert(pid.clone(), node);
                    ReactorEndpoint::Tcp {
                        addr,
                        opts: cfg.tcp.clone(),
                    }
                }
            };
            let link = reactor.add_node(endpoint, node_chaos(&pid));
            debug_assert_eq!(link, usize::from(node.0), "links follow the node order");
            managed.push(pid);
        }
        Ok(Self {
            desc,
            cfg,
            sim,
            binding,
            tcp_nodes,
            reactor: Mutex::new(reactor),
            managed,
            call_seq: AtomicU64::new(0),
            control_retries: AtomicU64::new(0),
            log: EventLog::new(),
            plugins: HashMap::new(),
            entry_buf: Vec::new(),
            run_id: 0,
            replicate: 0,
            actors: Arc::default(),
            traffic: None,
            cbr_flows: Vec::new(),
            fault_windows: Vec::new(),
            run_measurements: Vec::new(),
            obs_handles: Mutex::new(ObsHandles::default()),
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
                let tcp = self.tcp_nodes.get(&pid);
                let endpoint = tcp.map_or("memory".into(), |n| format!("tcp://{}", n.addr));
                (pid, endpoint)
            })
            .collect()
    }

    /// The reactor link of the NodeManager of `pid`, if it has one: the
    /// platform's nodes are bound to simulator nodes `0..n` and added to
    /// the reactor in that order.
    fn link(&self, pid: &str) -> Option<usize> {
        self.binding.sim_node(pid).map(|node| usize::from(node.0))
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
    fn retry_call(&self, link: usize, method: &str, params: &[Value]) -> Result<Value, RpcError> {
        let call = NodeCall {
            link,
            method,
            params,
            idem_key: Some(self.next_idem_key()),
        };
        let mut outcomes = self.reactor.lock().dispatch(&[call], &self.cfg.retry);
        let outcome = outcomes.pop().expect("one outcome per call");
        self.control_retries
            .fetch_add(outcome.retries, Ordering::Relaxed);
        outcome.result
    }

    /// Draws the idempotency key (`run:epoch:seq`) of the next logical call.
    fn next_idem_key(&self) -> IdemKey {
        IdemKey {
            run: self.run_id,
            epoch: self.cfg.epoch,
            seq: self.call_seq.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Dispatches one lifecycle procedure to every managed node and waits
    /// for all of them (the per-phase barrier). Every per-node call is
    /// idempotent (key `run:epoch:seq`, drawn in node order) and retried
    /// under the engine [`RetryPolicy`]; the whole fan-out runs on this
    /// thread in the [`Reactor`], every node's link multiplexed, and every
    /// call borrows the one `params`.
    ///
    /// Results come back in node order; so does error reporting — the
    /// first failing node in that deterministic order wins, regardless of
    /// which link finished first.
    fn fan_out(&self, method: &str, params: &[Value]) -> Result<Vec<Value>, EngineError> {
        let phase_timer = self.phase_timer(|| format!("fan_out:{method}"));
        let calls: Vec<NodeCall> = (0..self.managed.len())
            .map(|link| NodeCall {
                link,
                method,
                params,
                idem_key: Some(self.next_idem_key()),
            })
            .collect();
        let outcomes = self.reactor.lock().dispatch(&calls, &self.cfg.retry);
        for o in &outcomes {
            self.control_retries.fetch_add(o.retries, Ordering::Relaxed);
        }
        if excovery_obs::enabled() {
            let mut handles = self.obs_handles.lock();
            for (pid, o) in self.managed.iter().zip(&outcomes) {
                handles.node_call(pid).observe(o.duration_ns);
            }
        }
        self.finish_phase(phase_timer, method);
        self.managed
            .iter()
            .zip(outcomes)
            .map(|(pid, o)| {
                o.result.map_err(|e| {
                    let mut err = EngineError::from_rpc(pid.clone(), e);
                    if let EngineError::Node { detail, .. }
                    | EngineError::Transport { detail, .. } = &mut err
                    {
                        *detail = format!("{method}: {detail}");
                    }
                    err
                })
            })
            .collect()
    }

    /// Starts timing one master phase when observability is on; `span`
    /// names it, and is not called when obs is off.
    fn phase_timer<S: Into<Cow<'static, str>>>(
        &self,
        span: impl FnOnce() -> S,
    ) -> Option<excovery_obs::span::SpanTimer> {
        excovery_obs::enabled().then(|| excovery_obs::span::SpanTimer::start(obs_clock(), span()))
    }

    /// Ends a [`Self::phase_timer`]: records its span and observes its
    /// duration in `master_phase_duration_ns{phase}`.
    fn finish_phase(&self, timer: Option<excovery_obs::span::SpanTimer>, phase: &str) {
        if let Some(timer) = timer {
            let dur = timer.finish(obs_clock(), excovery_obs::global_tracer());
            self.obs_handles.lock().phase(phase).observe(dur);
        }
    }

    /// Test hook: platform ids of all connected NodeManagers, sorted.
    #[doc(hidden)]
    pub fn node_ids(&self) -> Vec<String> {
        let mut ids = self.managed.clone();
        ids.sort();
        ids
    }

    /// Test hook: shuts down a node's live TCP server, simulating a node
    /// crash mid-experiment. Returns false when the node has no running
    /// server (memory transport, or already halted).
    #[doc(hidden)]
    pub fn halt_node_server(&mut self, pid: &str) -> bool {
        let halted = self.tcp_nodes.get_mut(pid).and_then(|n| n.server.take());
        halted.inspect(TcpRpcServer::shutdown).is_some()
    }

    /// Test hook: restarts a halted node's TCP server on its original
    /// port, with the registry (and idempotency cache) it had before the
    /// crash. The reactor's link reconnects on its next call.
    #[doc(hidden)]
    pub fn revive_node_server(&mut self, pid: &str) -> Result<(), EngineError> {
        let node = self
            .tcp_nodes
            .get_mut(pid)
            .ok_or_else(|| EngineError::Config(format!("'{pid}' never had a TCP server")))?;
        // The OS may hold the port briefly after shutdown; rebinding the
        // same address is bounded-retried.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            match TcpRpcServer::bind(node.addr, Arc::clone(&node.registry)) {
                Ok(server) => {
                    node.server = Some(server);
                    return Ok(());
                }
                Err(_) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => {
                    return Err(EngineError::Transport {
                        node: pid.to_string(),
                        detail: format!("revive bind {}: {e}", node.addr),
                    })
                }
            }
        }
    }

    /// Executes the complete experiment and packages the results: a
    /// session over the level-2 root, stepped by [`EngineConfig::max_runs`].
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
        if let Some(root) = &self.cfg.l2_root {
            check_l2_root(root)?;
        }
        if !self.cfg.resume && l2_root.exists() {
            std::fs::remove_dir_all(&l2_root)
                .map_err(|e| EngineError::Storage(format!("clear level-2 root: {e}")))?;
        }
        let l2 = Level2Store::open(&l2_root)?;
        let runs = self.cfg.max_runs.unwrap_or(u64::MAX);
        let outcome = self.open(&l2).and_then(|mut session| {
            session.step(runs)?;
            session.finish()
        });
        // A failed execution keeps an explicit root (it is what `resume`
        // continues from); a defaulted one has no name anyone could resume.
        if !self.cfg.keep_l2 && (outcome.is_ok() || self.cfg.l2_root.is_none()) {
            let destroying = self.phase_timer(|| "l2_destroy");
            l2.destroy().ok();
            self.finish_phase(destroying, "l2_destroy");
        }
        outcome.map(|outcome| ExperimentOutcome { l2_root, ..outcome })
    }

    /// Measures the hop matrix of `participants` and stages it as the
    /// experiment entry `name` (phase `topology`).
    fn stage_topology(
        &self,
        l2: &Level2Store,
        participants: &[NodeId],
        name: &str,
    ) -> Result<(), EngineError> {
        let measuring = self.phase_timer(|| "topology");
        let matrix = self.sim.lock().topology().hop_matrix(participants);
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
        let matrix = JsonValue::Array(named).to_string();
        l2.put_experiment(l2codec::TOPOLOGY_NODE, name, matrix.as_bytes())?;
        self.finish_phase(measuring, "topology");
        Ok(())
    }
}

impl Drop for ExperiMaster {
    fn drop(&mut self) {
        for server in self.tcp_nodes.values().filter_map(|n| n.server.as_ref()) {
            server.shutdown();
        }
    }
}

/// The clock of every phase span. The span ring is one per process, and
/// spans that finish after an execution's last drain land in the next
/// execution's first run summary, so all masters share this time base.
fn obs_clock() -> &'static excovery_obs::span::WallClock {
    static CLOCK: OnceLock<excovery_obs::span::WallClock> = OnceLock::new();
    CLOCK.get_or_init(excovery_obs::span::WallClock::new)
}

/// Refuses an explicit level-2 root that holds anything but a level-2
/// hierarchy (`experiment/`, `runs/`): `execute` clears the root before a
/// fresh execution and removes it after a successful one, so any other
/// directory named there would be deleted with everything in it.
fn check_l2_root(root: &Path) -> Result<(), EngineError> {
    if !root.exists() {
        return Ok(());
    }
    let refuse = |why: String| {
        EngineError::Config(format!(
            "level-2 root {} {why}; name an empty or a level-2 directory",
            root.display()
        ))
    };
    let entries = std::fs::read_dir(root).map_err(|e| refuse(format!("is unreadable: {e}")))?;
    for entry in entries {
        let entry = entry.map_err(|e| refuse(format!("is unreadable: {e}")))?;
        let layout = entry.file_type().is_ok_and(|t| t.is_dir())
            && ["experiment", "runs"].contains(&entry.file_name().to_str().unwrap_or(""));
        if !layout {
            return Err(refuse(format!("holds {:?}", entry.file_name())));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use excovery_analysis::ExperimentDataset;
    use excovery_netsim::link::LinkModel;
    use excovery_netsim::sim::SimulatorConfig;
    use excovery_netsim::topology::Topology;
    use excovery_netsim::SimDuration;
    use excovery_rpc::RetryPolicy;
    use std::path::PathBuf;

    /// The outcome's package, read back through the one read path.
    pub(super) fn dataset(outcome: &ExperimentOutcome) -> ExperimentDataset {
        ExperimentDataset::new(&outcome.database).unwrap()
    }

    /// A path no other test of this process, and no other process, uses.
    pub(super) fn unique_temp_dir(prefix: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "{prefix}-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ))
    }

    pub(super) fn small_config() -> EngineConfig {
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

    pub(super) fn paper_desc(reps: u64) -> ExperimentDescription {
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
        let events = dataset(&outcome).events(Some(0)).unwrap();
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
    fn max_runs_caps_execution() {
        let desc = paper_desc(10);
        let mut cfg = small_config();
        cfg.max_runs = Some(3);
        let mut master = ExperiMaster::new(desc, cfg).unwrap();
        let outcome = master.execute().unwrap();
        assert_eq!(outcome.runs.len(), 3);
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
            dataset(&second).run_ids_with_info().unwrap(),
            vec![0, 1, 2, 3]
        );
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
    fn execute_refuses_a_level2_root_that_holds_other_files() {
        let root = unique_temp_dir("excovery-l2-guard");
        std::fs::create_dir_all(root.join("notes")).unwrap();
        std::fs::write(root.join("README"), b"keep me").unwrap();
        std::fs::write(root.join("notes/thesis.txt"), b"years of work").unwrap();
        for resume in [false, true] {
            let mut cfg = small_config();
            cfg.l2_root = Some(root.clone());
            cfg.max_runs = Some(1);
            cfg.resume = resume;
            let mut master = ExperiMaster::new(paper_desc(1), cfg).unwrap();
            let Err(e) = master.execute() else {
                panic!("executed into a directory that is not a level-2 root")
            };
            let msg = e.to_string();
            assert!(
                matches!(e, EngineError::Config(_)) && msg.contains(&root.display().to_string()),
                "{msg}"
            );
            assert_eq!(std::fs::read(root.join("README")).unwrap(), b"keep me");
            let thesis = std::fs::read(root.join("notes/thesis.txt")).unwrap();
            assert_eq!(thesis, b"years of work");
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn execute_reruns_into_an_empty_or_kept_level2_root() {
        let root = unique_temp_dir("excovery-l2-rerun");
        std::fs::create_dir_all(&root).unwrap();
        let execute = |keep_l2| {
            let mut cfg = small_config();
            cfg.l2_root = Some(root.clone());
            cfg.keep_l2 = keep_l2;
            let mut master = ExperiMaster::new(paper_desc(1), cfg).unwrap();
            master.execute().unwrap().digest()
        };
        let first = execute(true);
        assert!(root.join("runs").is_dir());
        assert_eq!(execute(true), first, "a fresh execution over a kept root");
        assert_eq!(execute(false), first);
        assert!(!root.exists(), "removed after a success without keep_l2");
    }

    #[test]
    fn determinism_same_seed_same_database() {
        fn run_once() -> Vec<(u64, String, i64)> {
            let desc = paper_desc(2);
            let mut master = ExperiMaster::new(desc, small_config()).unwrap();
            let outcome = master.execute().unwrap();
            dataset(&outcome)
                .events(None)
                .unwrap()
                .into_iter()
                .map(|e| (e.run_id, e.event_type, e.common_time_ns))
                .collect()
        }
        assert_eq!(run_once(), run_once());
    }
}
