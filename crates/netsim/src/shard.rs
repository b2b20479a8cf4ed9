//! Spatial sharding of the simulator: shard assignment and the
//! conservative parallel window driver.
//!
//! # Shard assignment
//!
//! Nodes are sorted by position `(x, y, id)` and cut into
//! `S × STRIPES_PER_SHARD` near-equal contiguous stripes (at most one per
//! node), which are dealt round-robin to the `S` shards: stripe `j` goes to
//! shard `j mod S`. The map is a pure function of `(topology, S)`, so the
//! assignment is identical on every machine and every run. On a grid the
//! stripes are vertical bands; on a chain, segments; on a random-geometric
//! graph, approximate vertical slabs. Within a stripe most radio
//! neighbours share the shard, so cross-shard traffic stays a small share
//! of all transits.
//!
//! Dealing several stripes per shard instead of one contiguous block is
//! what keeps every core busy. A flood or a route is a wavefront: in any
//! one window it is active in a narrow band of the topology. With one
//! block per shard that band lies inside one shard for long stretches (a
//! flood from a grid's corner reaches the second half only after crossing
//! the first), and the others idle at the barrier in every one of those
//! windows. With interleaved stripes the band spans stripes of every
//! shard for all but the first and last few hops, so each shard holds a
//! share of nearly every window's work. The price is more stripe boundaries and
//! so more mailbox crossings, which cost a push and a drain each but no
//! extra window.
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
//! (Chandy–Misra–Bryant) synchronization argument.
//!
//! # One window, two barriers
//!
//! Each shard thread runs the same loop, and no shard leads:
//!
//! 1. Drain the mail sent to this shard in the previous window, then write
//!    this shard's minimum pending time (queue head or suppressed-transit
//!    ledger, whichever is earlier) and its running event count into its
//!    own slot of the control block.
//! 2. Barrier A.
//! 3. Read every slot and decide: the global minimum `W` (or idle), the
//!    window end (`W + L`, or the deadline, inclusive, when that comes
//!    first), and whether the budget is spent. Every shard reads the same
//!    slots, so every shard takes the same decision; all of them stop
//!    together when it says done.
//! 4. Process the window, pushing cross-shard events into mailboxes, and
//!    settle the ledger entries the window's end has passed.
//! 5. Barrier B.
//!
//! Why the window is safe: every mailbox push of window `k` happens
//! before barrier B of window `k`, and every drain after it, so the slot a
//! shard writes before barrier A of window `k + 1` covers all mail
//! addressed to it and the minimum of step 3 is the true global minimum.
//! No shard pushes into a mailbox (step 4 of window `k + 1`) before every
//! shard has passed barrier A, which each reaches only after its drain, so
//! a cell is never pushed and drained at once.
//!
//! Why no slot is overwritten while it is read: a shard reads the slots in
//! step 3, between barrier A and barrier B of the same window. A slot is
//! rewritten in step 1 of the next window, after its writer has passed
//! barrier B, which it cannot do before every reader has reached B.
//!
//! Bit-exactness with the serial path does *not* come from the windows —
//! it comes from the global event order key `(time, origin_node,
//! origin_seq)` and from per-node randomness streams: every state a
//! handler touches is owned by the node the event occurs at (or keyed by
//! it), and every node's events execute in global-key order no matter how
//! shard queues interleave, so each node observes exactly the serial
//! sequence of callbacks and RNG draws. The stripe layout moves only wall
//! time, the per-shard event split and the crossing count.
//!
//! # The barrier
//!
//! A window on the benchmark grids lasts about a millisecond (248 windows
//! in a 0.3 s flood), so a barrier that always parks puts a wake-up and a
//! reschedule on the critical path of every window. This one spins a
//! short while (`SPINS` iterations) before it parks on a mutex and
//! condvar, and the releasing thread touches the mutex only when a waiter
//! parked. While it spins it yields its core now and then, so that with
//! more shards than cores the shard it waits for gets to run.
//!
//! A shard thread whose handler panics poisons the barrier on its way
//! out: every waiter is released, sees the poison and leaves its loop,
//! and [`run_windows`] re-raises the panic on the calling thread once all
//! shard threads have joined. Without it the others would wait for the
//! dead shard forever, and the run would hang instead of failing.

use crate::capture::CaptureBuffer;
use crate::event::EventQueue;
use crate::fasthash::FastHashMap;
use crate::filter::FilterSet;
use crate::packet::{PacketId, Port};
use crate::sim::{NodeId, ProtocolEvent, SimStats};
use crate::tagger::Tagger;
use crate::time::{SimDuration, SimTime};
use crate::topology::Topology;
use excovery_rng::StdRng;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// Number of log₂ buckets in the mailbox depth histogram.
pub(crate) const DEPTH_BUCKETS: usize = 16;

/// Events a shard's queue has room for from construction on, and keeps
/// room for across `Simulator::reset_for_run`: steady state holds at most
/// a few events per node in flight.
pub(crate) const QUEUE_CAPACITY: usize = 256;

/// Smallest ledger length at which `Shard::suppress` settles past entries.
pub(crate) const SETTLE_AT: usize = 1024;

/// Stripes dealt to each shard (see the module docs). On the flood and
/// unicast grids of DESIGN.md §12 at 2 shards, 8 tied with 4 on the flood
/// and lost on the unicasts, where every extra stripe edge is crossings.
const STRIPES_PER_SHARD: usize = 4;

/// Deterministic node → shard assignment (block-cyclic spatial stripes).
#[derive(Debug, Clone)]
pub(crate) struct ShardMap {
    shards: usize,
    /// Global node id → owning shard.
    of: Vec<u16>,
    /// Global node id → index into the owning shard's node vector.
    local: Vec<u32>,
}

impl ShardMap {
    /// Builds the assignment for `shards` shards over `topology`.
    /// `shards` is clamped to `[1, node_count]` (an empty topology gets one
    /// empty shard), and the stripe count to the node count.
    pub(crate) fn new(topology: &Topology, shards: usize) -> Self {
        let n = topology.len();
        let shards = shards.clamp(1, n.max(1));
        let mut order: Vec<u16> = (0..n as u16).collect();
        order.sort_by(|&a, &b| {
            let (ax, ay) = topology.position(NodeId(a));
            let (bx, by) = topology.position(NodeId(b));
            ax.total_cmp(&bx).then(ay.total_cmp(&by)).then(a.cmp(&b))
        });
        let stripes = (shards * STRIPES_PER_SHARD).min(n).max(1);
        let mut of = vec![0u16; n];
        let mut local = vec![0u32; n];
        let mut next_local = vec![0u32; shards];
        let (base, extra) = (n / stripes, n % stripes);
        let mut cursor = 0usize;
        for j in 0..stripes {
            let s = j % shards;
            let len = base + usize::from(j < extra);
            for &node in &order[cursor..cursor + len] {
                of[node as usize] = s as u16;
                local[node as usize] = next_local[s];
                next_local[s] += 1;
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
    /// The suppressed-transit ledger: `(due, key, node)` of every flood
    /// transit that `flood_from` did not queue because its target, a node
    /// of this shard, had already seen the packet when it was sent. Each
    /// is a duplicate that is counted (settled) once the clock passes it.
    pub suppressed: Vec<(SimTime, u64, NodeId)>,
    /// Earliest `due` in `suppressed`, in nanos; `u64::MAX` when empty.
    pub suppressed_min: u64,
    /// Ledger length at which `suppress` settles the entries already in
    /// the past, so a long serial run holds only the transits in flight.
    pub settle_at: usize,
    /// While set, a suppressed transit is queued as a payload-less
    /// `Ev::Duplicate` instead of entering the ledger: an event budget
    /// that counts every event is close, or shards merge at zero
    /// lookahead.
    pub fold: bool,
    /// `(time, key)` of the last event popped from `queue`; ledger entries
    /// before it are duplicates the serial order has already passed.
    pub last_popped: (SimTime, u64),
    /// End of the parallel window being processed (`ZERO` outside one);
    /// read only by the lookahead assertion in `suppress`.
    pub window_end: SimTime,
    /// Flood transits suppressed at send time.
    pub suppressed_total: u64,
    /// Emitted protocol events with their `(reference time, global key)`;
    /// merged across shards in key order when drained.
    pub protocol_events: Vec<(SimTime, u64, ProtocolEvent)>,
    /// Empty lists lent to every agent callback's `AgentCtx` and taken
    /// back drained, so a callback that arms a timer, sends or emits
    /// reuses their capacity instead of allocating two vectors.
    pub spare_actions: Vec<crate::sim::Action>,
    pub spare_events: Vec<ProtocolEvent>,
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
    pub obs_suppressed_published: u64,
    /// Test hook: `spin_loop` hints this shard burns before each window,
    /// so a test can make one shard lag the others.
    #[cfg(test)]
    pub lag_spins: u32,
}

impl Shard {
    pub(crate) fn new(id: usize) -> Self {
        Self {
            id,
            nodes: Vec::new(),
            queue: EventQueue::with_capacity(QUEUE_CAPACITY),
            time: SimTime::ZERO,
            stats: SimStats::default(),
            events_executed: 0,
            flood_seen: FastHashMap::default(),
            suppressed: Vec::new(),
            suppressed_min: u64::MAX,
            settle_at: SETTLE_AT,
            fold: false,
            last_popped: (SimTime::ZERO, 0),
            window_end: SimTime::ZERO,
            suppressed_total: 0,
            protocol_events: Vec::new(),
            spare_actions: Vec::new(),
            spare_events: Vec::new(),
            crossings_out: 0,
            windows: 0,
            barrier_wait_ns: 0,
            mailbox_depth_hist: [0; DEPTH_BUCKETS],
            obs_events_published: 0,
            obs_crossings_published: 0,
            obs_windows_published: 0,
            obs_barrier_ns_published: 0,
            obs_depth_published: [0; DEPTH_BUCKETS],
            obs_suppressed_published: 0,
            #[cfg(test)]
            lag_spins: 0,
        }
    }

    /// Time of this shard's earliest pending event, queued or in the
    /// suppressed-transit ledger, in nanos; `u64::MAX` when idle.
    #[inline]
    pub(crate) fn next_due(&self) -> u64 {
        self.queue
            .peek_time()
            .map_or(u64::MAX, |t| t.as_nanos())
            .min(self.suppressed_min)
    }

    /// Records a mailbox drain depth into the log₂ histogram.
    #[inline]
    pub(crate) fn note_mailbox_depth(&mut self, depth: usize) {
        let bucket = (usize::BITS - depth.leading_zeros()) as usize;
        self.mailbox_depth_hist[bucket.min(DEPTH_BUCKETS - 1)] += 1;
    }
}

/// Spin iterations a barrier waiter spends before it parks: about 85 µs on
/// the 2-vCPU host of DESIGN.md §12. A 16× longer spin gained nothing at
/// 2 shards there.
const SPINS: u32 = 4096;

/// Every this many spin iterations the waiter yields its core instead of
/// hinting. With more shards than cores the shard it waits for may be
/// runnable on the same core; yielding cut the 4-shard flood on 2 cores
/// from 376 to 337 ms (12 of 12 pairs) and left 2 shards unchanged.
const YIELD_EVERY: u32 = 256;

/// A sense-reversing barrier that spins, then parks.
///
/// Each arrival decrements `remaining`; the last one resets it and bumps
/// `generation`, which releases the others. A waiter spins on
/// `generation` for `SPINS` iterations, then registers in `parked` and sleeps
/// on the condvar; the releaser takes the mutex and notifies only when
/// `parked` is non-zero. The waiter increments `parked` before it checks
/// `generation` again, and the releaser bumps `generation` before it reads
/// `parked` (both sequentially consistent), so at least one of them sees
/// the other: no wake-up is lost.
///
/// Memory ordering: every arrival's decrement is a release on
/// `remaining`, the last arrival's an acquire, and its `generation` bump
/// a release that every waiter acquires, so everything any thread wrote
/// before the barrier is visible to every thread after it.
///
/// [`Self::poison`] sets `poisoned` before it bumps `generation` and
/// wakes the parked, so a waiter that sees the bump also sees the poison;
/// an arrival checks the poison after it reads `generation`, so it either
/// returns at once or is released by the bump.
struct SpinBarrier {
    n: usize,
    remaining: AtomicUsize,
    generation: AtomicUsize,
    parked: AtomicUsize,
    poisoned: AtomicBool,
    lock: Mutex<()>,
    wake: Condvar,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        Self {
            n,
            remaining: AtomicUsize::new(n),
            generation: AtomicUsize::new(0),
            parked: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        }
    }

    /// Waits until all `n` threads have arrived; `false` when the barrier
    /// was poisoned instead, and the caller must stop.
    fn wait(&self) -> bool {
        // Unpoisoned, the generation cannot move before this thread arrives.
        let generation = self.generation.load(Ordering::SeqCst);
        if self.poisoned.load(Ordering::SeqCst) {
            return false;
        }
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            // No waiter touches `remaining` again before the bump below.
            self.remaining.store(self.n, Ordering::Relaxed);
            self.generation
                .store(generation.wrapping_add(1), Ordering::SeqCst);
            if self.parked.load(Ordering::SeqCst) > 0 {
                drop(self.lock.lock().expect("barrier poisoned"));
                self.wake.notify_all();
            }
            return !self.poisoned.load(Ordering::SeqCst);
        }
        for i in 1..=SPINS {
            if self.generation.load(Ordering::Acquire) != generation {
                return !self.poisoned.load(Ordering::SeqCst);
            }
            if i % YIELD_EVERY == 0 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        let mut guard = self.lock.lock().expect("barrier poisoned");
        self.parked.fetch_add(1, Ordering::SeqCst);
        while self.generation.load(Ordering::SeqCst) == generation {
            guard = self.wake.wait(guard).expect("barrier poisoned");
        }
        self.parked.fetch_sub(1, Ordering::SeqCst);
        !self.poisoned.load(Ordering::SeqCst)
    }

    /// Releases every waiter, now and later, with `false`.
    fn poison(&self) {
        self.poisoned.store(true, Ordering::SeqCst);
        self.generation.fetch_add(1, Ordering::SeqCst);
        drop(self.lock.lock().expect("barrier poisoned"));
        self.wake.notify_all();
    }
}

/// What each shard publishes before barrier A.
struct Slot {
    /// Earliest pending event time in nanos, suppressed transits in the
    /// ledger included; `u64::MAX` when idle.
    min: AtomicU64,
    /// Events this shard executed so far in this run.
    executed: AtomicU64,
}

/// The decision every shard takes alone from the same slots.
enum Window {
    /// Process every event before `end`, or through `end` when `inclusive`
    /// (the last window before a deadline).
    Run {
        end: SimTime,
        inclusive: bool,
    },
    Done,
}

/// Decides the next window from the published slots: done when every shard
/// is idle, the budget is spent or the earliest event lies past the
/// deadline; otherwise one lookahead from the earliest event, cut at the
/// deadline.
fn decide(
    slots: &[Slot],
    lookahead: SimDuration,
    deadline: Option<SimTime>,
    budget: u64,
) -> Window {
    let min = slots
        .iter()
        .map(|s| s.min.load(Ordering::Relaxed))
        .min()
        .unwrap_or(u64::MAX);
    let executed: u64 = slots
        .iter()
        .map(|s| s.executed.load(Ordering::Relaxed))
        .sum();
    let past_deadline = deadline.is_some_and(|d| min > d.as_nanos());
    if min == u64::MAX || executed >= budget || past_deadline {
        return Window::Done;
    }
    let open_end = min.saturating_add(lookahead.as_nanos());
    match deadline {
        Some(d) if open_end > d.as_nanos() => Window::Run {
            end: d,
            inclusive: true,
        },
        _ => Window::Run {
            end: SimTime::from_nanos(open_end),
            inclusive: false,
        },
    }
}

/// Runs shards in parallel windows of `lookahead` until `deadline` (if
/// `Some`) or until globally idle, whichever comes first, with `budget`
/// as an approximate global event cap (checked at window granularity).
/// Returns the total number of events executed.
///
/// `drain` must move every mailbox event destined for the given shard into
/// its queue; `process` must drain the shard's queue up to the window end
/// (exclusive, or inclusive when the flag is set), settle the ledger
/// entries due by the same end, and return the event count, settled
/// entries included. Neither closure is allowed to touch any other shard.
///
/// A panic in either closure stops every shard at its next barrier and is
/// re-raised here once all shard threads have joined (the first panic, if
/// several shards panic).
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
    let barrier = &SpinBarrier::new(shards.len());
    let slots: &[Slot] = &shards
        .iter()
        .map(|_| Slot {
            min: AtomicU64::new(u64::MAX),
            executed: AtomicU64::new(0),
        })
        .collect::<Vec<_>>();
    let drain = &drain;
    let process = &process;
    let panicked = &Mutex::new(None);
    std::thread::scope(|scope| {
        for shard in shards.iter_mut() {
            scope.spawn(move || {
                let wait = |shard: &mut Shard| {
                    if obs {
                        let t0 = std::time::Instant::now();
                        let passed = barrier.wait();
                        shard.barrier_wait_ns += t0.elapsed().as_nanos() as u64;
                        passed
                    } else {
                        barrier.wait()
                    }
                };
                let slot = &slots[shard.id];
                let mut executed = 0;
                // Nanos every pending event is due at or after: the last
                // window's end, one past it when the window was inclusive.
                let mut floor = 0;
                let run = std::panic::catch_unwind(AssertUnwindSafe(|| loop {
                    // Every push of the previous window happened before its
                    // barrier B, and no shard reads a slot again before
                    // this shard's barrier A.
                    drain(shard);
                    let min = shard.next_due();
                    debug_assert!(
                        min >= floor,
                        "shard {} holds an event at {min} ns, before its last window's end",
                        shard.id
                    );
                    slot.min.store(min, Ordering::Relaxed);
                    slot.executed.store(executed, Ordering::Relaxed);
                    if !wait(shard) {
                        break; // A, poisoned
                    }
                    #[cfg(test)]
                    for _ in 0..shard.lag_spins {
                        std::hint::spin_loop();
                    }
                    let Window::Run { end, inclusive } = decide(slots, lookahead, deadline, budget)
                    else {
                        break;
                    };
                    executed += process(shard, end, inclusive);
                    floor = end.as_nanos().saturating_add(u64::from(inclusive));
                    shard.windows += 1;
                    if !wait(shard) {
                        break; // B, poisoned
                    }
                }));
                if let Err(payload) = run {
                    // Nothing panics while holding this lock.
                    panicked
                        .lock()
                        .expect("panic slot poisoned")
                        .get_or_insert(payload);
                    barrier.poison();
                }
            });
        }
    });
    if let Some(payload) = panicked.lock().expect("panic slot poisoned").take() {
        std::panic::resume_unwind(payload);
    }
    slots
        .iter()
        .map(|s| s.executed.load(Ordering::Relaxed))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::derive_rng;
    use proptest::prelude::*;

    /// The topology a case draws: a grid, a chain or a random-geometric
    /// graph (sparse enough at large `spread` to leave isolated nodes).
    fn topology(kind: u8, a: usize, b: usize, spread: f64, seed: u64) -> Topology {
        match kind {
            0 => Topology::grid(a, b),
            1 => Topology::chain(a * b),
            _ => Topology::random_geometric(
                a * b,
                spread * (a * b) as f64,
                1.0,
                &mut derive_rng(seed, "topology"),
            ),
        }
    }

    /// Node ids in the `(x, y, id)` order the stripes are cut from.
    fn spatial_order(t: &Topology) -> Vec<NodeId> {
        let mut order: Vec<NodeId> = t.nodes().collect();
        order.sort_by(|&a, &b| {
            let (ax, ay) = t.position(a);
            let (bx, by) = t.position(b);
            ax.total_cmp(&bx).then(ay.total_cmp(&by)).then(a.cmp(&b))
        });
        order
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// On generated grids, chains and random-geometric graphs at 1–8
        /// shards: every node has exactly one owner; each shard's local
        /// indices are dense and follow the `(x, y, id)` order; the map
        /// is a pure function of `(topology, shards)`; the stripe count
        /// is clamped to the node count, so every shard owns a node when
        /// there are at least as many nodes as shards; and the shards'
        /// sizes differ by at most one stripe's worth of nodes.
        #[test]
        fn every_node_has_one_owner_and_dense_local_indices(
            kind in 0u8..3,
            a in 1usize..24,
            b in 1usize..24,
            spread in 0.1f64..1.0,
            seed in 0u64..1_000,
            shards in 1usize..9,
        ) {
            let t = topology(kind, a, b, spread, seed);
            let n = t.len();
            let map = ShardMap::new(&t, shards);
            let s = shards.min(n);
            prop_assert_eq!(map.shard_count(), s);
            prop_assert_eq!(map.node_count(), n);

            let order = spatial_order(&t);
            let mut owned = vec![0usize; n];
            let mut sizes = Vec::with_capacity(s);
            for shard in 0..s {
                let nodes = map.nodes_of(shard);
                sizes.push(nodes.len());
                for (i, &node) in nodes.iter().enumerate() {
                    owned[node.0 as usize] += 1;
                    prop_assert_eq!(map.shard_of(node), shard);
                    prop_assert_eq!(map.local_index(node), i);
                }
                let in_order: Vec<NodeId> = order
                    .iter()
                    .copied()
                    .filter(|&node| map.shard_of(node) == shard)
                    .collect();
                prop_assert_eq!(&nodes, &in_order, "shard {} is not in (x, y, id) order", shard);
            }
            prop_assert!(owned.iter().all(|&k| k == 1), "{:?}", owned);

            let stripes = (s * STRIPES_PER_SHARD).min(n).max(1);
            let runs = 1 + order
                .windows(2)
                .filter(|w| map.shard_of(w[0]) != map.shard_of(w[1]))
                .count();
            prop_assert!(runs <= stripes, "{} runs from {} stripes", runs, stripes);
            prop_assert!(sizes.iter().all(|&k| k > 0), "{:?}", sizes);
            let (base, per_shard) = (n / stripes, stripes / s);
            let spread_bound = base + per_shard + 1;
            let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            prop_assert!(hi - lo <= spread_bound, "{:?}", sizes);

            let again = ShardMap::new(&t, shards);
            prop_assert_eq!(&again.of, &map.of);
            prop_assert_eq!(&again.local, &map.local);
        }
    }

    #[test]
    fn an_empty_topology_gets_one_empty_shard() {
        let map = ShardMap::new(&Topology::chain(0), 4);
        assert_eq!(map.shard_count(), 1);
        assert!(map.nodes_of(0).is_empty());
    }

    #[test]
    fn stripes_are_dealt_round_robin() {
        // A 16-node chain at 2 shards: 8 stripes of 2 nodes, alternating.
        let map = ShardMap::new(&Topology::chain(16), 2);
        let owners: Vec<usize> = (0..16).map(|i| map.shard_of(NodeId(i))).collect();
        assert_eq!(owners, [0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1, 0, 0, 1, 1]);
        // Fewer nodes than stripes: one node per stripe.
        let map = ShardMap::new(&Topology::chain(5), 2);
        let owners: Vec<usize> = (0..5).map(|i| map.shard_of(NodeId(i))).collect();
        assert_eq!(owners, [0, 1, 0, 1, 0]);
    }

    #[test]
    fn the_barrier_holds_every_thread_until_the_last_arrives() {
        // Each round, every thread bumps the counter before the barrier and
        // reads it after: all of them must see all of the round's bumps.
        const THREADS: usize = 3;
        const ROUNDS: usize = 200;
        let barrier = SpinBarrier::new(THREADS);
        let count = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (barrier, count) = (&barrier, &count);
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        count.fetch_add(1, Ordering::Relaxed);
                        // Make some rounds park: one thread arrives late.
                        if round % 7 == t {
                            std::thread::sleep(std::time::Duration::from_micros(200));
                        }
                        barrier.wait();
                        assert!(count.load(Ordering::Relaxed) >= (round + 1) * THREADS);
                        barrier.wait();
                    }
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), ROUNDS * THREADS);
    }
}
