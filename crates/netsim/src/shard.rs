//! Spatial sharding of the simulator: shard assignment and the
//! conservative parallel window driver.
//!
//! # Shard assignment
//!
//! Nodes are sorted by position `(x, y, id)` and cut into `S` near-equal
//! contiguous stripes — a pure function of `(topology, S)`, so the
//! assignment is identical on every machine and every run. On a grid the
//! stripes are vertical bands; on a chain they are contiguous segments; on
//! a random-geometric graph they approximate vertical slabs. Spatial
//! stripes keep most radio neighbours in the same shard, which minimizes
//! cross-shard traffic without any load measurement.
//!
//! # Conservative lookahead
//!
//! Every event that crosses a shard boundary is a packet transit, and a
//! transit scheduled at time `t` is due no earlier than `t + L`, where
//! `L = base_delay × (1 − jitter_frac)` is the smallest delay the link
//! model can produce (load, serialization and injected delays only add;
//! see [`crate::link::LinkModel::min_transit_delay`]). Therefore if all
//! pending events are at `≥ W`, any event processed in the window
//! `[W, W + L)` can only generate cross-shard arrivals at `≥ W + L` — past
//! the window end. Each shard may thus drain its own queue through the
//! window without observing the others, which is the classical conservative
//! (CMB-style) synchronization argument. Cross-shard events wait in
//! `mailbox::MailboxGrid` cells and are drained after the barrier
//! that ends the window, strictly before the next window's start is
//! chosen, so the "all pending events are at `≥ W`" precondition is
//! re-established every round.
//!
//! Bit-exactness with the serial path does *not* come from the windows —
//! it comes from the global event order key `(time, origin_node,
//! origin_seq)` and from per-node randomness streams: every state a
//! handler touches is owned by the node the event occurs at (or keyed by
//! it), and every node's events execute in global-key order no matter how
//! shard queues interleave, so each node observes exactly the serial
//! sequence of callbacks and RNG draws.

use crate::capture::CaptureBuffer;
use crate::event::EventQueue;
use crate::fasthash::{FastHashMap, FastHashSet};
use crate::filter::FilterSet;
use crate::packet::{PacketId, Port};
use crate::sim::{NodeId, ProtocolEvent, SimStats};
use crate::tagger::Tagger;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use excovery_rng::StdRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;

/// Number of log₂ buckets in the mailbox depth histogram.
pub(crate) const DEPTH_BUCKETS: usize = 16;

/// Deterministic node → shard assignment (spatial stripes).
#[derive(Debug, Clone)]
pub(crate) struct ShardMap {
    shards: usize,
    /// Global node id → owning shard.
    of: Vec<u16>,
    /// Global node id → index into the owning shard's node vector.
    local: Vec<u32>,
}

impl ShardMap {
    /// Builds the assignment for `shards` stripes over `topology`.
    /// `shards` is clamped to `[1, node_count]` (an empty topology gets one
    /// empty shard).
    pub(crate) fn new(topology: &Topology, shards: usize) -> Self {
        let n = topology.len();
        let shards = shards.clamp(1, n.max(1));
        let mut order: Vec<u16> = (0..n as u16).collect();
        order.sort_by(|&a, &b| {
            let (ax, ay) = topology.position(NodeId(a));
            let (bx, by) = topology.position(NodeId(b));
            ax.total_cmp(&bx).then(ay.total_cmp(&by)).then(a.cmp(&b))
        });
        let mut of = vec![0u16; n];
        let mut local = vec![0u32; n];
        let base = n / shards;
        let extra = n % shards;
        let mut cursor = 0usize;
        for s in 0..shards {
            let len = base + usize::from(s < extra);
            for (i, &node) in order[cursor..cursor + len].iter().enumerate() {
                of[node as usize] = s as u16;
                local[node as usize] = i as u32;
            }
            cursor += len;
        }
        Self { shards, of, local }
    }

    /// Number of shards.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards
    }

    /// Number of nodes in the mapped topology.
    pub(crate) fn node_count(&self) -> usize {
        self.of.len()
    }

    /// The shard owning `node`.
    #[inline]
    pub(crate) fn shard_of(&self, node: NodeId) -> usize {
        self.of[node.0 as usize] as usize
    }

    /// Index of `node` within its owning shard's node vector.
    #[inline]
    pub(crate) fn local_index(&self, node: NodeId) -> usize {
        self.local[node.0 as usize] as usize
    }

    /// Global node ids owned by `shard`, in local-index order.
    pub(crate) fn nodes_of(&self, shard: usize) -> Vec<NodeId> {
        let mut nodes: Vec<(u32, NodeId)> = (0..self.of.len())
            .filter(|&i| self.of[i] as usize == shard)
            .map(|i| (self.local[i], NodeId(i as u16)))
            .collect();
        nodes.sort();
        nodes.into_iter().map(|(_, n)| n).collect()
    }
}

/// Per-node simulator state. All state a packet/timer handler mutates is
/// either here or in shard-level maps keyed by this node — the ownership
/// discipline that makes sharded execution bit-exact.
pub(crate) struct SimNode {
    pub id: NodeId,
    pub clock: crate::clock::NodeClock,
    pub filters: FilterSet,
    pub captures: CaptureBuffer,
    pub tagger: Tagger,
    pub drop_all: bool,
    /// Agent/protocol jitter stream.
    pub rng: StdRng,
    /// Per-node sync-measurement error stream. Node-local (rather than a
    /// simulator-wide stream) so the master may fan `measure_sync` calls
    /// out to nodes in any order — or in parallel — without changing the
    /// drawn errors.
    pub sync_rng: StdRng,
    /// Channel stream for loss/jitter/filter draws made *by this node*
    /// (egress checks at the source, per-hop draws at the transmitting
    /// node, ingress checks at the receiver). Node-local so the draw
    /// sequence is a pure function of this node's event order, which is
    /// shard-count invariant.
    pub channel_rng: StdRng,
    /// Next scheduling/emission sequence number; combined with the node id
    /// into the global event order key `(id << 48) | seq`.
    pub next_seq: u64,
    /// Next packet sequence; packet ids are `(id << 32) | seq`, which stays
    /// below 2⁵³ (JSON-number safe) for any feasible run.
    pub next_packet_seq: u32,
    /// Next timer instance id (uniqueness scope: this node).
    pub next_tid: u64,
    pub agents: FastHashMap<Port, Box<dyn crate::sim::Agent>>,
}

impl SimNode {
    /// Allocates the next global ordering key for an event this node
    /// originates.
    #[inline]
    pub(crate) fn next_key(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        debug_assert!(seq < 1 << 48, "per-node event sequence overflow");
        ((self.id.0 as u64) << 48) | seq
    }
}

/// One spatial partition: its nodes, event queue and all formerly-global
/// mutable simulator state, decomposed so windows never race.
pub(crate) struct Shard {
    pub id: usize,
    /// Owned nodes in local-index order (see [`ShardMap::local_index`]).
    pub nodes: Vec<SimNode>,
    pub queue: EventQueue<crate::sim::Ev>,
    pub time: SimTime,
    pub stats: SimStats,
    pub events_executed: u64,
    /// Flood duplicate suppression: per flooded packet, one bit per owned
    /// node (indexed by [`ShardMap::local_index`]), set on its first
    /// arrival. Only ever touched by events at nodes this shard owns.
    /// Costs `nodes.len() / 64` words per packet that reaches the shard,
    /// which beats a `(packet, node)` hash set (~20 bytes per entry) unless
    /// the flood reaches fewer than ~1/160 of the shard's nodes.
    pub flood_seen: FastHashMap<PacketId, Box<[u64]>>,
    /// Live timer instances per `(node, port, token)`.
    pub active_timers: FastHashMap<(u16, Port, u64), FastHashSet<u64>>,
    /// Emitted protocol events with their `(reference time, global key)`;
    /// merged across shards in key order when drained.
    pub protocol_events: Vec<(SimTime, u64, ProtocolEvent)>,
    /// Events this shard pushed into cross-shard mailboxes.
    pub crossings_out: u64,
    /// Parallel windows this shard participated in.
    pub windows: u64,
    /// Wall-clock nanoseconds spent waiting at window barriers (only
    /// accumulated while observability is enabled; never read by the
    /// simulation itself).
    pub barrier_wait_ns: u64,
    /// log₂ histogram of mailbox depths observed at drain time.
    pub mailbox_depth_hist: [u64; DEPTH_BUCKETS],
    // Published-so-far baselines so `publish_obs` emits monotone deltas.
    pub obs_events_published: u64,
    pub obs_crossings_published: u64,
    pub obs_windows_published: u64,
    pub obs_barrier_ns_published: u64,
    pub obs_depth_published: [u64; DEPTH_BUCKETS],
}

impl Shard {
    pub(crate) fn new(id: usize) -> Self {
        Self {
            id,
            nodes: Vec::new(),
            // Steady state holds at most a few events per node in flight.
            queue: EventQueue::with_capacity(256),
            time: SimTime::ZERO,
            stats: SimStats::default(),
            events_executed: 0,
            flood_seen: FastHashMap::default(),
            active_timers: FastHashMap::default(),
            protocol_events: Vec::new(),
            crossings_out: 0,
            windows: 0,
            barrier_wait_ns: 0,
            mailbox_depth_hist: [0; DEPTH_BUCKETS],
            obs_events_published: 0,
            obs_crossings_published: 0,
            obs_windows_published: 0,
            obs_barrier_ns_published: 0,
            obs_depth_published: [0; DEPTH_BUCKETS],
        }
    }

    /// Records a mailbox drain depth into the log₂ histogram.
    #[inline]
    pub(crate) fn note_mailbox_depth(&mut self, depth: usize) {
        let bucket = (usize::BITS - depth.leading_zeros()) as usize;
        self.mailbox_depth_hist[bucket.min(DEPTH_BUCKETS - 1)] += 1;
    }
}

/// Shared control block of one parallel window run.
struct WindowCtrl {
    barrier: Barrier,
    /// Per-shard minimum pending event time (nanos; `u64::MAX` = idle).
    mins: Vec<AtomicU64>,
    /// Current window end in nanos (leader-written between barriers).
    end: AtomicU64,
    /// 0 = exclusive window, 1 = inclusive (final window up to a deadline),
    /// 2 = done.
    mode: AtomicU64,
    /// Total events processed across all shards (storm-guard budget).
    total: AtomicU64,
}

const MODE_EXCLUSIVE: u64 = 0;
const MODE_INCLUSIVE: u64 = 1;
const MODE_DONE: u64 = 2;

/// Runs shards in parallel windows of `lookahead` until `deadline` (if
/// `Some`) or until globally idle, whichever comes first, with `budget`
/// as an approximate global event cap (checked at window granularity).
/// Returns the total number of events executed.
///
/// `drain` must move every mailbox event destined for the given shard into
/// its queue; `process` must drain the shard's queue up to the window end
/// (exclusive, or inclusive when the flag is set) and return the event
/// count. Neither closure is allowed to touch any other shard.
pub(crate) fn run_windows<D, P>(
    shards: &mut [Shard],
    lookahead: SimDuration,
    deadline: Option<SimTime>,
    budget: u64,
    obs: bool,
    drain: D,
    process: P,
) -> u64
where
    D: Fn(&mut Shard) + Sync,
    P: Fn(&mut Shard, SimTime, bool) -> u64 + Sync,
{
    debug_assert!(
        lookahead > SimDuration::ZERO,
        "parallel run needs lookahead"
    );
    let n = shards.len();
    let ctrl = WindowCtrl {
        barrier: Barrier::new(n),
        mins: (0..n).map(|_| AtomicU64::new(u64::MAX)).collect(),
        end: AtomicU64::new(0),
        mode: AtomicU64::new(MODE_EXCLUSIVE),
        total: AtomicU64::new(0),
    };
    let ctrl = &ctrl;
    let drain = &drain;
    let process = &process;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for shard in shards.iter_mut() {
            handles.push(scope.spawn(move || {
                let wait = |shard: &mut Shard| {
                    if obs {
                        let t0 = std::time::Instant::now();
                        ctrl.barrier.wait();
                        shard.barrier_wait_ns += t0.elapsed().as_nanos() as u64;
                    } else {
                        ctrl.barrier.wait();
                    }
                };
                loop {
                    // Phase 1: all sends of the previous window are complete
                    // (we are past its trailing barrier), so drain inbound
                    // mail and publish this shard's minimum pending time.
                    drain(shard);
                    let min = shard.queue.peek_time().map_or(u64::MAX, |t| t.as_nanos());
                    ctrl.mins[shard.id].store(min, Ordering::Relaxed);
                    wait(shard);
                    // Phase 2: the leader picks the next window.
                    if shard.id == 0 {
                        let m = ctrl
                            .mins
                            .iter()
                            .map(|a| a.load(Ordering::Relaxed))
                            .min()
                            .unwrap_or(u64::MAX);
                        let over_budget = ctrl.total.load(Ordering::Relaxed) >= budget;
                        let past_deadline =
                            deadline.is_some_and(|d| m != u64::MAX && m > d.as_nanos());
                        if m == u64::MAX || over_budget || past_deadline {
                            ctrl.mode.store(MODE_DONE, Ordering::Relaxed);
                        } else {
                            let open_end = m.saturating_add(lookahead.as_nanos());
                            match deadline {
                                Some(d) if open_end > d.as_nanos() => {
                                    ctrl.end.store(d.as_nanos(), Ordering::Relaxed);
                                    ctrl.mode.store(MODE_INCLUSIVE, Ordering::Relaxed);
                                }
                                _ => {
                                    ctrl.end.store(open_end, Ordering::Relaxed);
                                    ctrl.mode.store(MODE_EXCLUSIVE, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                    wait(shard);
                    // Phase 3: everyone reads the decision and processes.
                    let mode = ctrl.mode.load(Ordering::Relaxed);
                    if mode == MODE_DONE {
                        break;
                    }
                    let end = SimTime::from_nanos(ctrl.end.load(Ordering::Relaxed));
                    let n = process(shard, end, mode == MODE_INCLUSIVE);
                    if n > 0 {
                        ctrl.total.fetch_add(n, Ordering::Relaxed);
                    }
                    shard.windows += 1;
                    // Trailing barrier: no shard may drain mail (phase 1 of
                    // the next round) while another is still pushing.
                    wait(shard);
                }
            }));
        }
        for h in handles {
            h.join().expect("shard worker panicked");
        }
    });
    ctrl.total.load(Ordering::Relaxed)
}
