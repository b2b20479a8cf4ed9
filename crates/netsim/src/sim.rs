//! The simulator core: nodes, agents, packet transport, timers.
//!
//! [`Simulator`] owns a [`Topology`], one internal node record per topology
//! node and a deterministic event queue per spatial shard (see
//! [Sharded execution](#sharded-execution)). Protocol implementations
//! (the SD substrate, test harnesses) attach as [`Agent`]s bound to a
//! `(node, port)` pair and interact with the world exclusively through an
//! [`AgentCtx`] — sending packets, arming timers and emitting protocol
//! events that ExCovery records.
//!
//! Transport model:
//!
//! * **Unicast** packets follow the shortest path, hop by hop; each link
//!   crossing draws loss from the load-dependent [`LinkModel`] and adds a
//!   jittered per-hop delay plus serialization time.
//! * **Multicast/Broadcast** packets flood the mesh with per-packet
//!   duplicate suppression, the standard mesh multicast approximation; each
//!   link crossing draws loss and delay independently. A transit to a node
//!   of the sender's shard that has already seen the packet never enters
//!   the event queue: it is counted as the duplicate it would be once the
//!   clock passes its due (DESIGN.md §8).
//!
//! Fault injection ([`FilterRule`]) is evaluated at the originator
//! (transmit direction) and the final receiver (receive direction); an
//! interface fault or the *drop-all* environment manipulation additionally
//! stops a node from relaying.
//!
//! # Sharded execution
//!
//! A simulator over a large topology is striped into spatial shards, each
//! with its own event queue, and a single run executes on one thread per
//! shard synchronized by conservative lookahead windows. The simulator
//! picks the shard count itself from the node count and the machine's
//! cores (see [`SimulatorConfig::shards`]): every topology below 1 024
//! nodes, which includes every preset and paper study, runs serially.
//! Every event carries a global ordering key
//! `(origin_node << 48) | origin_seq` and every random draw comes from a
//! per-node stream, so the outcome — stats, captures, protocol events,
//! `ExperimentOutcome::digest()` — is bit-exact with the serial path for
//! any shard count. See the `shard` module for the synchronization
//! argument.

use crate::capture::{CaptureBuffer, CaptureKind, CaptureRecord};
use crate::clock::{NodeClock, SyncMeasurement};
use crate::fasthash::FastHashMap;
use crate::filter::{Direction, FilterRule, FilterSet, RuleId, Verdict};
use crate::link::{LinkLoad, LinkModel};
use crate::mailbox::MailboxGrid;
use crate::packet::{Destination, Packet, PacketId, Payload, Port};
use crate::params::{EventName, EventParams};
use crate::rng::derive_rng_indexed;
use crate::shard::{run_windows, Shard, ShardMap, SimNode, QUEUE_CAPACITY, SETTLE_AT};
use crate::tagger::Tagger;
use crate::time::{SimDuration, SimTime};
use crate::topology::{RoutingTable, Topology};
use excovery_rng::{Rng, StdRng};
use std::any::Any;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError};

/// Index of a node in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u16);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A protocol endpoint attached to a `(node, port)`.
///
/// All methods receive an [`AgentCtx`] for interacting with the simulator;
/// default implementations ignore the callback.
pub trait Agent: std::any::Any + Send {
    /// Called once when the agent is installed.
    fn on_start(&mut self, _ctx: &mut AgentCtx) {}
    /// Called when a packet addressed to this agent's port is delivered.
    fn on_packet(&mut self, _ctx: &mut AgentCtx, _pkt: &Packet) {}
    /// Called when a timer armed via [`AgentCtx::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut AgentCtx, _token: u64) {}
    /// Concrete-type access for external control (NodeManagers drive their
    /// protocol agents between simulator steps; see `Simulator::with_agent_mut`).
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

/// A protocol-level event surfaced by an agent (e.g. `sd_service_add`),
/// recorded with the node's local clock. ExCovery's engine drains these
/// into its event list (§IV-B1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolEvent {
    /// Node the event occurred on.
    pub node: NodeId,
    /// Local clock reading at emission.
    pub local_time: SimTime,
    /// Event name (a `&'static str` for the common literal case).
    pub name: EventName,
    /// Event parameters as key/value pairs (inline up to three).
    pub params: EventParams,
}

/// What an agent asked the simulator to do during a callback.
pub(crate) enum Action {
    Send {
        dst: Destination,
        port: Port,
        payload: Payload,
    },
    SetTimer {
        delay: SimDuration,
        token: u64,
    },
}

/// Values every agent of one simulator shares, at most one of each type
/// (see [`AgentCtx::shared`]). It lives as long as its simulator: a reset
/// between runs keeps it.
#[derive(Default)]
pub(crate) struct SharedValues(Mutex<Vec<Arc<dyn Any + Send + Sync>>>);

impl SharedValues {
    fn get<T: Any + Default + Send + Sync>(&self) -> Arc<T> {
        let mut values = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(found) = values.iter().find(|v| v.as_ref().is::<T>()) {
            return Arc::clone(found).downcast().expect("checked above");
        }
        let made = Arc::new(T::default());
        values.push(Arc::clone(&made) as Arc<dyn Any + Send + Sync>);
        made
    }
}

/// The interface through which agents act on the simulated world.
pub struct AgentCtx<'a> {
    now: SimTime,
    local_now: SimTime,
    node: NodeId,
    actions: Vec<Action>,
    events: Vec<ProtocolEvent>,
    rng: &'a mut StdRng,
    shared: &'a SharedValues,
}

impl<'a> AgentCtx<'a> {
    /// Current reference-clock time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this agent runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Sends a packet from this node.
    pub fn send(&mut self, dst: Destination, port: Port, payload: impl Into<Payload>) {
        self.actions.push(Action::Send {
            dst,
            port,
            payload: payload.into(),
        });
    }

    /// Arms a timer that calls [`Agent::on_timer`] with `token` after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.actions.push(Action::SetTimer { delay, token });
    }

    /// Emits a protocol event recorded by the experimentation layer.
    ///
    /// `name` is typically a string literal (no allocation); `params`
    /// accepts an array of pairs, e.g. `[("service", value)]`, or
    /// [`EventParams::new()`] for none.
    pub fn emit(&mut self, name: impl Into<EventName>, params: impl Into<EventParams>) {
        self.events.push(ProtocolEvent {
            node: self.node,
            local_time: self.local_now,
            name: name.into(),
            params: params.into(),
        });
    }

    /// Seeded per-node randomness for protocol jitter (reproducible).
    pub fn rng(&mut self) -> &mut StdRng {
        self.rng
    }

    /// The simulator's one value of type `T`, made with `T::default()` on
    /// first use: state that every agent of this simulator shares, on
    /// every shard, such as a protocol's table of interned names. It lives
    /// as long as the simulator, so nothing outlives the simulator that
    /// made it. Each call takes a lock; an agent keeps the handle.
    pub fn shared<T: Any + Default + Send + Sync>(&self) -> Arc<T> {
        self.shared.get()
    }
}

/// Simulator-internal queued events. Every variant executes *at* exactly
/// one node ([`Ev::node`]); the event is queued on (or mailed to) the
/// shard owning that node.
#[derive(Debug)]
pub(crate) enum Ev {
    /// A unicast packet finishes crossing the link `from → to`.
    /// `path` is the full route, shared by every hop of the packet;
    /// `next` is the index into it of the hop after `to` (`path.len()` at
    /// the end).
    UnicastTransit {
        packet: Packet,
        from: NodeId,
        to: NodeId,
        path: Arc<[NodeId]>,
        next: usize,
    },
    /// A flooded packet finishes crossing the link `from → to`. The packet
    /// is shared: a fan-out of degree d bumps one refcount d times instead
    /// of deep-cloning the payload d times.
    FloodTransit {
        packet: Arc<Packet>,
        from: NodeId,
        to: NodeId,
    },
    /// Final delivery deferred by an injected receive delay; filters were
    /// already evaluated.
    Deliver { packet: Packet, at: NodeId },
    /// A timer armed by the agent at `(node, port)` fires.
    Timer {
        node: NodeId,
        port: Port,
        token: u64,
    },
    /// A flood transit to `at` that was known to be a duplicate when it
    /// was sent, queued without its packet because an event budget that
    /// counts every event is close (see `Shard::fold_ledger`).
    Duplicate { at: NodeId },
}

impl Ev {
    /// The node this event executes at — which determines the owning shard.
    #[inline]
    pub(crate) fn node(&self) -> NodeId {
        match self {
            Ev::UnicastTransit { to, .. } | Ev::FloodTransit { to, .. } => *to,
            Ev::Deliver { at, .. } | Ev::Duplicate { at } => *at,
            Ev::Timer { node, .. } => *node,
        }
    }
}

/// Counters of transport activity, useful for tests and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Packets handed to the network by agents.
    pub sent: u64,
    /// Final deliveries to an agent.
    pub delivered: u64,
    /// Packets dropped by filter rules (fault injection).
    pub dropped_filter: u64,
    /// Link crossings lost to the channel model.
    pub dropped_loss: u64,
    /// Flood duplicates suppressed.
    pub duplicates: u64,
    /// Relay transmissions performed.
    pub forwarded: u64,
}

impl SimStats {
    /// Component-wise sum (merging per-shard counters).
    pub(crate) fn merge(&mut self, o: SimStats) {
        self.sent += o.sent;
        self.delivered += o.delivered;
        self.dropped_filter += o.dropped_filter;
        self.dropped_loss += o.dropped_loss;
        self.duplicates += o.duplicates;
        self.forwarded += o.forwarded;
    }
}

/// Configuration of a [`Simulator`].
#[derive(Debug, Clone)]
pub struct SimulatorConfig {
    /// Master seed; every internal stream derives from it.
    pub seed: u64,
    /// Link loss/delay model.
    pub link_model: LinkModel,
    /// Maximum absolute node clock offset, nanoseconds (uniform draw).
    pub max_clock_offset_ns: i64,
    /// Maximum absolute node clock drift, ppm (uniform draw).
    pub max_drift_ppm: f64,
    /// Maximum absolute clock-sync measurement error, nanoseconds.
    pub max_sync_error_ns: i64,
    /// Spatial shards for multi-core execution of a single run. `0` (the
    /// default) lets the simulator choose: topologies below
    /// `2 × NODES_PER_SHARD` (1 024) nodes run serially, larger ones on
    /// one shard per 512 nodes, at most one per available core. Any other
    /// value is used as given, clamped to the node count. A link model
    /// whose minimum transit delay is zero leaves no window to run in
    /// parallel, so it runs on one shard whatever is asked. The outcome is
    /// bit-exact for every shard count; only wall time differs.
    pub shards: usize,
}

impl Default for SimulatorConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            link_model: LinkModel::default(),
            // A loosely NTP-synchronized testbed: offsets up to ±5 ms,
            // drift up to ±50 ppm, sync measurement error up to ±100 µs.
            max_clock_offset_ns: 5_000_000,
            max_drift_ppm: 50.0,
            max_sync_error_ns: 100_000,
            shards: 0,
        }
    }
}

impl SimulatorConfig {
    /// Configuration with perfectly synchronized clocks (useful in tests).
    pub fn perfect_clocks(seed: u64) -> Self {
        Self {
            seed,
            max_clock_offset_ns: 0,
            max_drift_ppm: 0.0,
            max_sync_error_ns: 0,
            ..Self::default()
        }
    }

    /// Same configuration with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Same configuration with an explicit shard count (`0` = chosen by
    /// the simulator, see [`SimulatorConfig::shards`]).
    pub fn with_shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// The shard count a simulator over `node_count` nodes will actually
    /// use: 1 under a zero lookahead, else the configured count, or
    /// [`auto_shards`] when `0`, clamped to `[1, node_count]`.
    pub(crate) fn resolved_shards(&self, node_count: usize) -> usize {
        let requested = if self.link_model.min_transit_delay() == SimDuration::ZERO {
            1
        } else if self.shards != 0 {
            self.shards
        } else if node_count < 2 * NODES_PER_SHARD {
            // Decided before the core count is read: that lookup touches
            // cgroup files and allocates, and a small simulator must not.
            1
        } else {
            let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
            auto_shards(node_count, cores)
        };
        requested.clamp(1, node_count.max(1))
    }
}

/// Nodes one shard must own before another shard pays for its thread,
/// barriers and mailbox traffic. Measured on the grids of DESIGN.md §12
/// (2-vCPU host, 12 alternating pairs against one shard): 2 shards take
/// 24k unicasts on 1 024 nodes from 345 to 167 ms and the 10 000-node
/// flood from 498 to 327 ms; 100 nodes gain nothing.
const NODES_PER_SHARD: usize = 512;

/// The shard count the simulator picks for `nodes` nodes on `cores` cores:
/// one shard per `NODES_PER_SHARD` nodes, at most one per core, so serial
/// below `2 × NODES_PER_SHARD` nodes.
fn auto_shards(nodes: usize, cores: usize) -> usize {
    cores.min(nodes / NODES_PER_SHARD).max(1)
}

/// Immutable per-run context shared by every shard: configuration, routing,
/// shard map and background load. All `Sync`; handlers read, never write.
pub(crate) struct SimCtx<'a> {
    pub cfg: &'a SimulatorConfig,
    pub routing: &'a RoutingTable,
    pub map: &'a ShardMap,
    pub link_load: &'a LinkLoad,
    pub shared: &'a SharedValues,
}

// ---- per-shard event handlers ------------------------------------------
//
// Inherent methods on `Shard` (defined in `crate::shard`); they implement
// the transport semantics. Invariant: a handler only touches state of the
// shard it runs on — its own nodes, queue, stats and maps — plus the
// read-only `SimCtx` and the cross-shard mailbox.

impl Shard {
    #[inline]
    fn node(&self, ctx: &SimCtx, id: NodeId) -> &SimNode {
        debug_assert_eq!(ctx.map.shard_of(id), self.id, "foreign node access");
        &self.nodes[ctx.map.local_index(id)]
    }

    #[inline]
    fn node_mut(&mut self, ctx: &SimCtx, id: NodeId) -> &mut SimNode {
        debug_assert_eq!(ctx.map.shard_of(id), self.id, "foreign node access");
        &mut self.nodes[ctx.map.local_index(id)]
    }

    /// Queues `ev` under `(due, key)`: locally if this shard owns the
    /// executing node, through the mailbox grid otherwise.
    fn schedule_ev(
        &mut self,
        ctx: &SimCtx,
        mail: &MailboxGrid<Ev>,
        due: SimTime,
        key: u64,
        ev: Ev,
    ) {
        let dst = ctx.map.shard_of(ev.node());
        if dst == self.id {
            self.queue.schedule_with_key(due, key, ev);
        } else {
            self.crossings_out += 1;
            mail.push(self.id, dst, due, key, ev);
        }
    }

    /// Marks that the flooded `packet` reached `node`; false if it had
    /// already.
    #[inline]
    fn mark_flood_seen(&mut self, ctx: &SimCtx, packet: PacketId, node: NodeId) -> bool {
        debug_assert_eq!(ctx.map.shard_of(node), self.id, "foreign node access");
        let words = self.nodes.len().div_ceil(64);
        let seen = self
            .flood_seen
            .entry(packet)
            .or_insert_with(|| vec![0; words].into_boxed_slice());
        let i = ctx.map.local_index(node);
        let (word, bit) = (&mut seen[i / 64], 1u64 << (i % 64));
        let first = *word & bit == 0;
        *word |= bit;
        first
    }

    /// Pops and executes the earliest event of this shard's queue.
    pub(crate) fn process_one(&mut self, ctx: &SimCtx, mail: &MailboxGrid<Ev>) -> bool {
        let Some((due, key, ev)) = self.queue.pop_keyed() else {
            return false;
        };
        debug_assert!(due >= self.time, "time must be monotone per shard");
        self.time = due;
        self.last_popped = (due, key);
        self.events_executed += 1;
        match ev {
            Ev::UnicastTransit {
                packet,
                from,
                to,
                path,
                next,
            } => self.handle_unicast_transit(ctx, mail, packet, from, to, path, next),
            Ev::FloodTransit { packet, from, to } => {
                self.handle_flood_transit(ctx, mail, packet, from, to)
            }
            Ev::Deliver { packet, at } => {
                self.deliver(ctx, mail, &packet, at, CaptureKind::Received)
            }
            Ev::Timer { node, port, token } => {
                self.dispatch(ctx, mail, node, port, |agent, actx| {
                    agent.on_timer(actx, token)
                })
            }
            Ev::Duplicate { .. } => self.stats.duplicates += 1,
        }
        true
    }

    /// Drains this shard's queue through the window `[.., end)` (or
    /// `[.., end]` when `inclusive`) and settles the suppressed transits
    /// due in it; returns the number of events executed, settled ones
    /// included. The conservative-window workhorse.
    pub(crate) fn process_window(
        &mut self,
        ctx: &SimCtx,
        mail: &MailboxGrid<Ev>,
        end: SimTime,
        inclusive: bool,
    ) -> u64 {
        let before = self.events_executed;
        self.window_end = end;
        while let Some(t) = self.queue.peek_time() {
            let in_window = if inclusive { t <= end } else { t < end };
            if !in_window {
                break;
            }
            self.process_one(ctx, mail);
        }
        self.window_end = SimTime::ZERO;
        self.settle(end, inclusive);
        self.events_executed - before
    }

    /// Bit `j` is set when `neighbors[j]` is a node of this shard that has
    /// already seen the flooded `packet`: a transit to it can only arrive
    /// as a duplicate. One bitset lookup per fan-out; a neighbour past the
    /// 64th is never marked, so its transit is queued as before.
    fn seen_neighbours(&self, ctx: &SimCtx, packet: PacketId, neighbors: &[NodeId]) -> u64 {
        let Some(seen) = self.flood_seen.get(&packet) else {
            return 0;
        };
        let mut mask = 0;
        for (j, &nb) in neighbors.iter().take(64).enumerate() {
            if ctx.map.shard_of(nb) == self.id {
                let i = ctx.map.local_index(nb);
                if seen[i / 64] & (1 << (i % 64)) != 0 {
                    mask |= 1 << j;
                }
            }
        }
        mask
    }

    /// Takes a flood transit to `at`, due at `(due, key)`, that can only
    /// arrive as a duplicate: into the ledger, or into the queue as an
    /// `Ev::Duplicate` while `fold` is set. A ledger that reaches
    /// `settle_at` entries settles those already in the past, and the
    /// mark doubles.
    fn suppress(&mut self, due: SimTime, key: u64, at: NodeId) {
        // The lookahead guarantee settlement rests on: a transit sent in
        // a window is due no earlier than the window's end.
        debug_assert!(
            due >= self.window_end,
            "transit due {due} inside its window (end {})",
            self.window_end
        );
        self.suppressed_total += 1;
        if self.fold {
            self.queue.schedule_with_key(due, key, Ev::Duplicate { at });
            return;
        }
        self.suppressed.push((due, key, at));
        self.suppressed_min = self.suppressed_min.min(due.as_nanos());
        if self.suppressed.len() >= self.settle_at {
            // Strictly before the running event, so before every event the
            // queue still holds: the serial order has passed these.
            self.settle(self.time, false);
            self.settle_at = (2 * self.suppressed.len()).max(SETTLE_AT);
        }
    }

    /// Settles the ledger entries due before `end` (through `end` when
    /// `inclusive`): each counts as the executed duplicate it stands for
    /// and moves the clock to its due, as the popped transit did.
    pub(crate) fn settle(&mut self, end: SimTime, inclusive: bool) {
        if self.suppressed_min > end.as_nanos()
            || (!inclusive && self.suppressed_min == end.as_nanos())
        {
            return;
        }
        let (mut settled, mut time, mut min) = (0, self.time, u64::MAX);
        self.suppressed.retain(|&(due, _, _)| {
            let passed = if inclusive { due <= end } else { due < end };
            if passed {
                settled += 1;
                time = time.max(due);
            } else {
                min = min.min(due.as_nanos());
            }
            !passed
        });
        self.events_executed += settled;
        self.stats.duplicates += settled;
        self.time = time;
        self.suppressed_min = min;
    }

    /// Makes the ledger exact per event, for a loop that counts an event
    /// budget one event at a time: entries the last popped event has
    /// passed are settled, every other one is queued as an
    /// `Ev::Duplicate` under its own key, and until `fold` is cleared new
    /// suppressions go to the queue the same way.
    pub(crate) fn fold_ledger(&mut self) {
        self.fold = true;
        let last = self.last_popped;
        let mut settled = 0;
        for (due, key, at) in std::mem::take(&mut self.suppressed) {
            if (due, key) < last {
                settled += 1;
            } else {
                self.queue.schedule_with_key(due, key, Ev::Duplicate { at });
            }
        }
        self.events_executed += settled;
        self.stats.duplicates += settled;
        self.suppressed_min = u64::MAX;
    }

    /// Runs `f` on the agent at `(node, port)` with a context that
    /// borrows the shard's spare action and event lists, then applies the
    /// actions the agent requested.
    pub(crate) fn dispatch(
        &mut self,
        ctx: &SimCtx,
        mail: &MailboxGrid<Ev>,
        node: NodeId,
        port: Port,
        f: impl FnOnce(&mut dyn Agent, &mut AgentCtx),
    ) {
        let now = self.time;
        let (actions, events) = self.lend_lists();
        let SimNode {
            agents, clock, rng, ..
        } = self.node_mut(ctx, node);
        let Some(agent) = agents.get_mut(&port) else {
            self.return_lists(actions, events);
            return;
        };
        let mut actx = AgentCtx {
            now,
            local_now: clock.local_time(now),
            node,
            actions,
            events,
            rng,
            shared: ctx.shared,
        };
        f(agent.as_mut(), &mut actx);
        let AgentCtx {
            mut actions,
            mut events,
            ..
        } = actx;
        self.apply(ctx, mail, node, port, &mut actions, &mut events);
        self.return_lists(actions, events);
    }

    /// The shard's spare action and event lists, empty, for one agent
    /// callback: a callback allocates only where it outgrows them.
    #[inline]
    fn lend_lists(&mut self) -> (Vec<Action>, Vec<ProtocolEvent>) {
        (
            std::mem::take(&mut self.spare_actions),
            std::mem::take(&mut self.spare_events),
        )
    }

    /// Takes back the lists [`Self::lend_lists`] lent, drained.
    #[inline]
    fn return_lists(&mut self, actions: Vec<Action>, events: Vec<ProtocolEvent>) {
        debug_assert!(actions.is_empty() && events.is_empty());
        self.spare_actions = actions;
        self.spare_events = events;
    }

    /// Records the protocol events an agent at `(node, port)` emitted and
    /// carries out the actions it requested, in order, draining both
    /// lists.
    #[inline]
    fn apply(
        &mut self,
        ctx: &SimCtx,
        mail: &MailboxGrid<Ev>,
        node: NodeId,
        port: Port,
        actions: &mut Vec<Action>,
        events: &mut Vec<ProtocolEvent>,
    ) {
        let now = self.time;
        for pe in events.drain(..) {
            let key = self.node_mut(ctx, node).next_key();
            self.protocol_events.push((now, key, pe));
        }
        for action in actions.drain(..) {
            match action {
                Action::Send {
                    dst,
                    port: p,
                    payload,
                } => self.process_send(ctx, mail, node, dst, p, payload),
                Action::SetTimer { delay, token } => {
                    let key = self.node_mut(ctx, node).next_key();
                    let due = self.time + delay;
                    // Timers fire at the arming node, so this is always a
                    // local enqueue; `schedule_ev` keeps the routing uniform.
                    self.schedule_ev(ctx, mail, due, key, Ev::Timer { node, port, token });
                }
            }
        }
    }

    fn alloc_packet(
        &mut self,
        ctx: &SimCtx,
        src: NodeId,
        dst: Destination,
        port: Port,
        payload: Payload,
    ) -> Packet {
        let sent_at = self.time;
        let n = self.node_mut(ctx, src);
        let seq = n.next_packet_seq;
        n.next_packet_seq += 1;
        // `(src << 32) | seq` stays below 2⁵³ — safe as a JSON number and
        // allocation-order deterministic per source node (shard-invariant).
        let id = PacketId((u64::from(src.0) << 32) | u64::from(seq));
        let tag = n.tagger.stamp();
        Packet::new(id, tag, src, dst, port, payload, sent_at)
    }

    fn capture(&mut self, ctx: &SimCtx, node: NodeId, packet: &Packet, kind: CaptureKind) {
        let now = self.time;
        let n = self.node_mut(ctx, node);
        let local_time = n.clock.local_time(now);
        n.captures
            .record(CaptureRecord::of(node, local_time, packet, kind));
    }

    pub(crate) fn process_send(
        &mut self,
        ctx: &SimCtx,
        mail: &MailboxGrid<Ev>,
        src: NodeId,
        dst: Destination,
        port: Port,
        payload: Payload,
    ) {
        self.stats.sent += 1;
        let packet = self.alloc_packet(ctx, src, dst, port, payload);
        // The sender observes its own transmission attempt even if egress
        // filters subsequently drop it — exactly what a local capture on a
        // faulty interface would show.
        self.capture(ctx, src, &packet, CaptureKind::Sent);
        if self.node(ctx, src).drop_all {
            self.stats.dropped_filter += 1;
            return;
        }
        // Egress filter: path rules match against the final unicast peer.
        let peer = match dst {
            Destination::Unicast(d) => Some(d),
            _ => None,
        };
        let verdict = {
            let SimNode {
                filters,
                channel_rng,
                ..
            } = self.node_mut(ctx, src);
            filters.evaluate(Direction::Transmit, peer, channel_rng)
        };
        let extra = match verdict {
            Verdict::Drop => {
                self.stats.dropped_filter += 1;
                return;
            }
            Verdict::Pass { extra_delay } => extra_delay,
        };
        match dst {
            Destination::Unicast(final_dst) => {
                if final_dst == src {
                    // Loopback: deliver immediately without touching the medium.
                    self.deliver(ctx, mail, &packet, src, CaptureKind::Received);
                    return;
                }
                let Some(path) = ctx.routing.path(src, final_dst) else {
                    self.stats.dropped_loss += 1; // unroutable
                    return;
                };
                // path = [src, h1, ..., final]; transmit to h1. Every hop
                // of this packet shares the one route allocation.
                let first = path[1];
                self.transmit_hop(ctx, mail, packet, src, first, path, 2, extra);
            }
            Destination::Multicast | Destination::Broadcast => {
                self.mark_flood_seen(ctx, packet.id, src);
                let packet = Arc::new(packet);
                self.flood_from(ctx, mail, &packet, src, None, extra);
            }
        }
    }

    /// Attempts one unicast link crossing `from → to`; on success schedules
    /// the transit-complete event. `path`/`next` index the shared route:
    /// `path[next]` is the hop after `to` (`next == path.len()` at the end).
    /// All draws come from `from`'s channel stream — `from` is always the
    /// node the current event executes at.
    #[allow(clippy::too_many_arguments)]
    fn transmit_hop(
        &mut self,
        ctx: &SimCtx,
        mail: &MailboxGrid<Ev>,
        packet: Packet,
        from: NodeId,
        to: NodeId,
        path: Arc<[NodeId]>,
        next: usize,
        extra_delay: SimDuration,
    ) {
        let load = ctx.link_load.get(from.0, to.0);
        let p = ctx.cfg.link_model.loss_probability(load);
        let lost = self.node_mut(ctx, from).channel_rng.gen::<f64>() < p;
        if lost {
            self.stats.dropped_loss += 1;
            return;
        }
        let base = ctx.cfg.link_model.hop_delay(load);
        let (jitter_draw, key) = {
            let n = self.node_mut(ctx, from);
            (n.channel_rng.gen::<f64>(), n.next_key())
        };
        let delay = ctx.cfg.link_model.jittered(base, jitter_draw)
            + ctx.cfg.link_model.serialization_delay(packet.size_bytes)
            + extra_delay;
        let due = self.time + delay;
        self.schedule_ev(
            ctx,
            mail,
            due,
            key,
            Ev::UnicastTransit {
                packet,
                from,
                to,
                path,
                next,
            },
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn handle_unicast_transit(
        &mut self,
        ctx: &SimCtx,
        mail: &MailboxGrid<Ev>,
        packet: Packet,
        _from: NodeId,
        to: NodeId,
        path: Arc<[NodeId]>,
        next: usize,
    ) {
        if self.node(ctx, to).drop_all {
            self.stats.dropped_filter += 1;
            return;
        }
        if next >= path.len() {
            // Final hop: ingress filters, then delivery.
            let verdict = {
                let SimNode {
                    filters,
                    channel_rng,
                    ..
                } = self.node_mut(ctx, to);
                filters.evaluate(Direction::Receive, Some(packet.src), channel_rng)
            };
            match verdict {
                Verdict::Drop => self.stats.dropped_filter += 1,
                Verdict::Pass { extra_delay } if extra_delay > SimDuration::ZERO => {
                    // Defer the (already filter-approved) delivery.
                    let key = self.node_mut(ctx, to).next_key();
                    let due = self.time + extra_delay;
                    self.schedule_ev(ctx, mail, due, key, Ev::Deliver { packet, at: to });
                }
                Verdict::Pass { .. } => self.deliver(ctx, mail, &packet, to, CaptureKind::Received),
            }
        } else {
            // Relay: a node with a downed interface cannot forward.
            if self.relay_blocked(ctx, to) {
                self.stats.dropped_filter += 1;
                return;
            }
            self.capture(ctx, to, &packet, CaptureKind::Forwarded);
            self.stats.forwarded += 1;
            // Advance the index into the shared route — no allocation.
            let hop = path[next];
            self.transmit_hop(
                ctx,
                mail,
                packet,
                to,
                hop,
                path,
                next + 1,
                SimDuration::ZERO,
            );
        }
    }

    /// True if `node`'s filters prevent it from relaying traffic
    /// (interface fault in any direction blocks the shared radio).
    fn relay_blocked(&self, ctx: &SimCtx, node: NodeId) -> bool {
        let n = self.node(ctx, node);
        // Fault-free fast path: nothing installed can block the relay.
        if !n.drop_all && n.filters.is_empty() {
            return false;
        }
        // Probe with a max-output RNG: `gen::<f64>()` yields ≈1.0, so
        // probabilistic loss rules (p < 1) never fire and only deterministic
        // blocks (InterfaceDown, total loss) force a Drop verdict.
        struct MaxRng;
        impl Rng for MaxRng {
            fn next_u32(&mut self) -> u32 {
                u32::MAX
            }
            fn next_u64(&mut self) -> u64 {
                u64::MAX
            }
        }
        let mut probe_rng = MaxRng;
        n.drop_all
            || matches!(
                n.filters
                    .evaluate(Direction::Transmit, None, &mut probe_rng),
                Verdict::Drop
            )
            || matches!(
                n.filters.evaluate(Direction::Receive, None, &mut probe_rng),
                Verdict::Drop
            )
    }

    fn flood_from(
        &mut self,
        ctx: &SimCtx,
        mail: &MailboxGrid<Ev>,
        packet: &Arc<Packet>,
        at: NodeId,
        came_from: Option<NodeId>,
        extra_delay: SimDuration,
    ) {
        // Borrowed from the read-only routing cache, not from the shard.
        let neighbors: &[NodeId] = ctx.routing.neighbors(at);
        let ser = ctx.cfg.link_model.serialization_delay(packet.size_bytes);
        let seen = self.seen_neighbours(ctx, packet.id, neighbors);
        for (j, &nb) in neighbors.iter().enumerate() {
            if Some(nb) == came_from {
                continue;
            }
            let load = ctx.link_load.get(at.0, nb.0);
            let p = ctx.cfg.link_model.loss_probability(load);
            let lost = self.node_mut(ctx, at).channel_rng.gen::<f64>() < p;
            if lost {
                self.stats.dropped_loss += 1;
                continue;
            }
            let base = ctx.cfg.link_model.hop_delay(load);
            let (jitter_draw, key) = {
                let n = self.node_mut(ctx, at);
                (n.channel_rng.gen::<f64>(), n.next_key())
            };
            let delay = ctx.cfg.link_model.jittered(base, jitter_draw) + ser + extra_delay;
            let due = self.time + delay;
            // Seen bits are set only by this shard and never cleared within
            // a run, so this transit would arrive as a duplicate. The draws
            // and the key above stay exactly as if it were queued.
            if j < 64 && seen & (1 << j) != 0 {
                self.suppress(due, key, nb);
                continue;
            }
            self.schedule_ev(
                ctx,
                mail,
                due,
                key,
                Ev::FloodTransit {
                    packet: Arc::clone(packet),
                    from: at,
                    to: nb,
                },
            );
        }
    }

    fn handle_flood_transit(
        &mut self,
        ctx: &SimCtx,
        mail: &MailboxGrid<Ev>,
        packet: Arc<Packet>,
        from: NodeId,
        to: NodeId,
    ) {
        if !self.mark_flood_seen(ctx, packet.id, to) {
            self.stats.duplicates += 1;
            return;
        }
        if self.node(ctx, to).drop_all {
            self.stats.dropped_filter += 1;
            return;
        }
        // Ingress filter at every receiving node.
        let verdict = {
            let SimNode {
                filters,
                channel_rng,
                ..
            } = self.node_mut(ctx, to);
            filters.evaluate(Direction::Receive, Some(packet.src), channel_rng)
        };
        let deliverable = match verdict {
            Verdict::Drop => {
                self.stats.dropped_filter += 1;
                false
            }
            Verdict::Pass { .. } => true,
        };
        if deliverable {
            self.deliver(ctx, mail, &packet, to, CaptureKind::Forwarded);
        }
        // Relaying continues regardless of local subscription, unless the
        // node's radio is down. Note a Receive-dropped packet was still
        // heard by the radio in reality only probabilistically; we model
        // fault-filtered packets as consumed (not relayed) to make the
        // interface fault actually partition the flood.
        if deliverable && !self.relay_blocked(ctx, to) {
            self.stats.forwarded += 1;
            self.flood_from(ctx, mail, &packet, to, Some(from), SimDuration::ZERO);
        }
    }

    /// Captures `packet` at `at` and hands it to the agent on its port,
    /// looking that agent up once. A node without one captures the packet
    /// as `unheard`: forwarded by a flood, received at a unicast's end.
    fn deliver(
        &mut self,
        ctx: &SimCtx,
        mail: &MailboxGrid<Ev>,
        packet: &Packet,
        at: NodeId,
        unheard: CaptureKind,
    ) {
        let now = self.time;
        let (actions, events) = self.lend_lists();
        let SimNode {
            agents,
            clock,
            rng,
            captures,
            ..
        } = self.node_mut(ctx, at);
        let local_now = clock.local_time(now);
        let agent = agents.get_mut(&packet.port);
        let kind = match agent {
            Some(_) => CaptureKind::Received,
            None => unheard,
        };
        captures.record(CaptureRecord::of(at, local_now, packet, kind));
        let Some(agent) = agent else {
            self.return_lists(actions, events);
            return;
        };
        let mut actx = AgentCtx {
            now,
            local_now,
            node: at,
            actions,
            events,
            rng,
            shared: ctx.shared,
        };
        agent.on_packet(&mut actx, packet);
        let AgentCtx {
            mut actions,
            mut events,
            ..
        } = actx;
        self.stats.delivered += 1;
        // Most deliveries (a record merged, a refresh) request nothing.
        if !(actions.is_empty() && events.is_empty()) {
            self.apply(ctx, mail, at, packet.port, &mut actions, &mut events);
        }
        self.return_lists(actions, events);
    }
}

// ---- the simulator -----------------------------------------------------

/// The deterministic discrete-event network simulator.
///
/// ```
/// use excovery_netsim::sim::{Simulator, SimulatorConfig};
/// use excovery_netsim::topology::Topology;
/// use excovery_netsim::{Destination, NodeId, Payload};
///
/// let mut sim = Simulator::new(Topology::chain(3), SimulatorConfig::perfect_clocks(7));
/// sim.send_from(NodeId(0), 5353, Destination::Unicast(NodeId(2)), Payload::from("hello"));
/// sim.run_until_idle(1_000);
/// // The receiver captured the packet (1% base loss may rarely drop it;
/// // seed 7 delivers).
/// assert_eq!(sim.captures(NodeId(2)).len(), 1);
/// ```
pub struct Simulator {
    topology: Topology,
    routing: RoutingTable,
    cfg: SimulatorConfig,
    map: ShardMap,
    shards: Vec<Shard>,
    mail: MailboxGrid<Ev>,
    /// Conservative window width: the link model's minimum transit delay.
    /// Never zero with more than one shard ([`SimulatorConfig::shards`]).
    lookahead: SimDuration,
    time: SimTime,
    link_load: LinkLoad,
    /// What the agents share ([`AgentCtx::shared`]).
    shared: SharedValues,
    /// Stats already published to the observability registry, so
    /// [`Simulator::publish_obs`] emits monotone counter deltas.
    obs_published: SimStats,
    obs_published_events: u64,
}

impl Simulator {
    /// Builds a simulator over `topology` with the given configuration.
    ///
    /// Node clocks are drawn from the seed-derived `clock` stream in node-id
    /// order, so the same `(topology, seed)` always produces the same clock
    /// population — independent of the shard count.
    pub fn new(topology: Topology, cfg: SimulatorConfig) -> Self {
        let shard_count = cfg.resolved_shards(topology.len());
        let map = ShardMap::new(&topology, shard_count);
        let mut clock_rng = crate::rng::derive_rng(cfg.seed, "clock");
        // Create nodes in GLOBAL id order (the clock stream draw order must
        // not depend on sharding), then distribute into stripe order.
        let mut slots: Vec<Option<SimNode>> = (0..topology.len())
            .map(|i| {
                let offset = if cfg.max_clock_offset_ns > 0 {
                    clock_rng.gen_range(-cfg.max_clock_offset_ns..=cfg.max_clock_offset_ns)
                } else {
                    0
                };
                let drift = if cfg.max_drift_ppm > 0.0 {
                    clock_rng.gen_range(-cfg.max_drift_ppm..=cfg.max_drift_ppm)
                } else {
                    0.0
                };
                Some(SimNode {
                    id: NodeId(i as u16),
                    clock: NodeClock::new(offset, drift),
                    filters: FilterSet::new(),
                    captures: CaptureBuffer::new(),
                    tagger: Tagger::new(),
                    drop_all: false,
                    rng: derive_rng_indexed(cfg.seed, "agent", i as u64),
                    sync_rng: derive_rng_indexed(cfg.seed, "sync", i as u64),
                    channel_rng: derive_rng_indexed(cfg.seed, "channel", i as u64),
                    next_seq: 0,
                    next_packet_seq: 0,
                    agents: FastHashMap::default(),
                })
            })
            .collect();
        let shards = (0..map.shard_count())
            .map(|s| {
                let mut shard = Shard::new(s);
                for id in map.nodes_of(s) {
                    shard
                        .nodes
                        .push(slots[id.0 as usize].take().expect("node assigned twice"));
                }
                shard
            })
            .collect();
        Self {
            routing: RoutingTable::new(&topology),
            mail: MailboxGrid::new(map.shard_count()),
            lookahead: cfg.link_model.min_transit_delay(),
            map,
            topology,
            cfg,
            shards,
            time: SimTime::ZERO,
            link_load: LinkLoad::new(),
            shared: SharedValues::default(),
            obs_published: SimStats::default(),
            obs_published_events: 0,
        }
    }

    // ---- node plumbing ---------------------------------------------------

    fn node(&self, id: NodeId) -> &SimNode {
        &self.shards[self.map.shard_of(id)].nodes[self.map.local_index(id)]
    }

    fn node_mut(&mut self, id: NodeId) -> &mut SimNode {
        let Self { shards, map, .. } = self;
        &mut shards[map.shard_of(id)].nodes[map.local_index(id)]
    }

    /// Runs `f` over every node, in global id order.
    fn for_each_node(&mut self, mut f: impl FnMut(&mut SimNode)) {
        let Self { shards, map, .. } = self;
        for i in 0..map.node_count() {
            let id = NodeId(i as u16);
            f(&mut shards[map.shard_of(id)].nodes[map.local_index(id)]);
        }
    }

    /// Dispatches an agent callback from *outside* the event loop (install,
    /// NodeManager commands): the owning shard's clock is first advanced to
    /// the global reference time.
    fn dispatch_external(
        &mut self,
        node: NodeId,
        port: Port,
        f: impl FnOnce(&mut dyn Agent, &mut AgentCtx),
    ) {
        let time = self.time;
        let Self {
            shards,
            mail,
            cfg,
            routing,
            map,
            link_load,
            shared,
            ..
        } = self;
        let ctx = SimCtx {
            cfg,
            routing,
            map,
            link_load,
            shared,
        };
        let shard = &mut shards[map.shard_of(node)];
        shard.time = shard.time.max(time);
        shard.dispatch(&ctx, mail, node, port, f);
    }

    // ---- inspection -----------------------------------------------------

    /// Current reference time.
    pub fn now(&self) -> SimTime {
        self.time
    }

    /// The topology the simulator runs on.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The routing table (BFS parent trees built lazily per source,
    /// adjacency shared as `Arc<[NodeId]>`; the topology is static).
    pub(crate) fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// Transport statistics so far (merged across shards).
    pub fn stats(&self) -> SimStats {
        let mut total = SimStats::default();
        for sh in &self.shards {
            total.merge(sh.stats);
        }
        total
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.topology.len()
    }

    /// Number of spatial shards this simulator executes with.
    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Events executed per shard (diagnostics; deterministic for a fixed
    /// shard count).
    pub fn events_per_shard(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.events_executed).collect()
    }

    /// Total events that crossed a shard boundary through the mailbox grid.
    pub fn mailbox_crossings(&self) -> u64 {
        self.shards.iter().map(|s| s.crossings_out).sum()
    }

    /// The local clock of a node.
    pub fn clock(&self, node: NodeId) -> NodeClock {
        self.node(node).clock
    }

    // ---- agents ----------------------------------------------------------

    /// Installs an agent at `(node, port)` and invokes its `on_start`.
    /// Replaces any previous agent on that port.
    pub fn install_agent(&mut self, node: NodeId, port: Port, agent: Box<dyn Agent>) {
        self.node_mut(node).agents.insert(port, agent);
        self.dispatch_external(node, port, |agent, ctx| agent.on_start(ctx));
    }

    /// Removes the agent at `(node, port)`, returning it if present.
    pub fn remove_agent(&mut self, node: NodeId, port: Port) -> Option<Box<dyn Agent>> {
        self.node_mut(node).agents.remove(&port)
    }

    /// Runs `f` against the agent at `(node, port)` with a live context —
    /// the hook NodeManagers use to issue protocol commands (e.g. the SD
    /// actions of §V) from outside the event loop. Actions the agent
    /// requests (sends, timers, events) are applied as usual. Returns
    /// `None` if no agent is installed there.
    pub fn with_agent_mut<R>(
        &mut self,
        node: NodeId,
        port: Port,
        f: impl FnOnce(&mut dyn Agent, &mut AgentCtx) -> R,
    ) -> Option<R> {
        let mut out = None;
        let captured = &mut out;
        self.dispatch_external(node, port, |agent, ctx| {
            *captured = Some(f(agent, ctx));
        });
        out
    }

    // ---- filters & faults -------------------------------------------------

    /// Installs a fault-injection rule on a node.
    pub fn install_filter(&mut self, node: NodeId, rule: FilterRule) -> RuleId {
        self.node_mut(node).filters.install(rule)
    }

    /// Removes a fault-injection rule.
    pub fn remove_filter(&mut self, node: NodeId, id: RuleId) -> bool {
        self.node_mut(node).filters.remove(id)
    }

    /// Sets the *drop-all* environment manipulation on one node: the node
    /// stops receiving, sending and forwarding experiment packets (§IV-D2).
    pub fn set_drop_all(&mut self, node: NodeId, drop: bool) {
        self.node_mut(node).drop_all = drop;
    }

    /// Applies *drop-all* to every node.
    pub fn set_drop_all_everywhere(&mut self, drop: bool) {
        self.for_each_node(|n| n.drop_all = drop);
    }

    // ---- measurement ------------------------------------------------------

    /// Measures the clock offset of `node` against the reference clock,
    /// with a seeded measurement error (paper §IV-B3). The error is drawn
    /// from the node's own `sync` stream, so the result for a given
    /// (seed, node, draw count) does not depend on when other nodes are
    /// measured.
    pub fn measure_sync(&mut self, node: NodeId) -> SyncMeasurement {
        let time = self.time;
        let max_err = self.cfg.max_sync_error_ns;
        let n = self.node_mut(node);
        let err = if max_err > 0 {
            n.sync_rng.gen_range(-max_err..=max_err)
        } else {
            0
        };
        SyncMeasurement::measure(&n.clock, time, err)
    }

    /// Capture buffer of a node.
    pub fn captures(&self, node: NodeId) -> &[CaptureRecord] {
        self.node(node).captures.records()
    }

    /// Drains the capture buffer of a node (collection phase).
    pub fn drain_captures(&mut self, node: NodeId) -> Vec<CaptureRecord> {
        self.node_mut(node).captures.drain()
    }

    /// Drains protocol events emitted by agents since the last call, in
    /// global `(time, origin key)` order — a total order over events that
    /// is identical for every shard count.
    pub fn drain_protocol_events(&mut self) -> Vec<ProtocolEvent> {
        let mut all: Vec<(SimTime, u64, ProtocolEvent)> = Vec::new();
        for sh in &mut self.shards {
            all.append(&mut sh.protocol_events);
        }
        all.sort_unstable_by_key(|e| (e.0, e.1));
        all.into_iter().map(|(_, _, e)| e).collect()
    }

    /// Records a protocol event on behalf of `node` (stamped with that
    /// node's local clock) — used by NodeManagers for `event_flag` and
    /// fault start/stop events that originate outside any agent (§IV-B1).
    pub fn emit_external_event(
        &mut self,
        node: NodeId,
        name: impl Into<EventName>,
        params: impl Into<EventParams>,
    ) {
        let time = self.time;
        let Self { shards, map, .. } = self;
        let shard = &mut shards[map.shard_of(node)];
        let n = &mut shard.nodes[map.local_index(node)];
        let local_time = n.clock.local_time(time);
        let key = n.next_key();
        shard.protocol_events.push((
            time,
            key,
            ProtocolEvent {
                node,
                local_time,
                name: name.into(),
                params: params.into(),
            },
        ));
    }

    // ---- background load (traffic generator hook) --------------------------

    /// Adds background load to the link `a—b` (kbit/s).
    pub(crate) fn add_link_load(&mut self, a: NodeId, b: NodeId, kbps: f64) {
        self.link_load.add(a.0, b.0, kbps);
    }

    /// Removes background load from the link `a—b` (kbit/s).
    pub(crate) fn remove_link_load(&mut self, a: NodeId, b: NodeId, kbps: f64) {
        self.link_load.remove(a.0, b.0, kbps);
    }

    /// Current background load on the link `a—b` (kbit/s).
    pub fn link_load(&self, a: NodeId, b: NodeId) -> f64 {
        self.link_load.get(a.0, b.0)
    }

    // ---- sending ------------------------------------------------------------

    /// Sends a packet from `node` as if an agent on `port` had sent it.
    /// Useful for tests and environment processes.
    pub fn send_from(&mut self, node: NodeId, port: Port, dst: Destination, payload: Payload) {
        let time = self.time;
        let Self {
            shards,
            mail,
            cfg,
            routing,
            map,
            link_load,
            shared,
            ..
        } = self;
        let ctx = SimCtx {
            cfg,
            routing,
            map,
            link_load,
            shared,
        };
        let shard = &mut shards[map.shard_of(node)];
        shard.time = shard.time.max(time);
        shard.process_send(&ctx, mail, node, dst, port, payload);
    }

    // ---- execution -----------------------------------------------------------

    /// Moves every mailed event into its destination shard's queue.
    fn drain_mail(shards: &mut [Shard], mail: &MailboxGrid<Ev>) {
        for (dst, shard) in shards.iter_mut().enumerate() {
            let q = &mut shard.queue;
            let depth = mail.drain_to(dst, |o| q.schedule_with_key(o.due, o.key, o.payload));
            if depth > 0 {
                shard.note_mailbox_depth(depth);
            }
        }
    }

    /// Parallel windowed execution (see `shard::run_windows`).
    #[allow(clippy::too_many_arguments)]
    fn run_parallel(
        shards: &mut [Shard],
        mail: &MailboxGrid<Ev>,
        ctx: &SimCtx,
        lookahead: SimDuration,
        deadline: Option<SimTime>,
        budget: u64,
        obs: bool,
    ) -> u64 {
        let drain = |shard: &mut Shard| {
            let id = shard.id;
            let q = &mut shard.queue;
            let depth = mail.drain_to(id, |o| q.schedule_with_key(o.due, o.key, o.payload));
            if depth > 0 {
                shard.note_mailbox_depth(depth);
            }
        };
        let process = |shard: &mut Shard, end: SimTime, inclusive: bool| {
            shard.process_window(ctx, mail, end, inclusive)
        };
        run_windows(shards, lookahead, deadline, budget, obs, drain, process)
    }

    /// Runs until the queue is empty or `deadline` is reached; the clock
    /// always advances to `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        let obs = excovery_obs::enabled();
        let Self {
            shards,
            mail,
            cfg,
            routing,
            map,
            link_load,
            shared,
            time,
            lookahead,
            ..
        } = self;
        let ctx = SimCtx {
            cfg,
            routing,
            map,
            link_load,
            shared,
        };
        if shards.len() == 1 {
            // Single shard: every event is local; the mailbox can only hold
            // nothing (all destinations are shard 0), but drain defensively.
            Self::drain_mail(shards, mail);
            let shard = &mut shards[0];
            while shard.queue.peek_time().is_some_and(|t| t <= deadline) {
                shard.process_one(&ctx, mail);
            }
            shard.settle(deadline, true);
        } else {
            Self::run_parallel(
                shards,
                mail,
                &ctx,
                *lookahead,
                Some(deadline),
                u64::MAX,
                obs,
            );
        }
        for sh in shards.iter_mut() {
            sh.time = sh.time.max(deadline);
        }
        *time = (*time).max(deadline);
    }

    /// Runs for `d` of simulated time.
    pub fn run_for(&mut self, d: SimDuration) {
        let deadline = self.time + d;
        self.run_until(deadline);
    }

    /// Runs until no events remain, up to roughly `max_events` (storm
    /// guard; with parallel shards the cap is enforced at window
    /// granularity, so slightly more events may execute). Returns the
    /// number of events executed.
    pub fn run_until_idle(&mut self, max_events: u64) -> u64 {
        let obs = excovery_obs::enabled();
        let Self {
            shards,
            mail,
            cfg,
            routing,
            map,
            link_load,
            shared,
            time,
            lookahead,
            ..
        } = self;
        let ctx = SimCtx {
            cfg,
            routing,
            map,
            link_load,
            shared,
        };
        let executed = if shards.len() == 1 {
            Self::drain_mail(shards, mail);
            let shard = &mut shards[0];
            let start = shard.events_executed;
            loop {
                // Once the ledger could hold the event that spends the
                // budget, count every event as it runs.
                let pending = shard.suppressed.len() as u64;
                if !shard.fold
                    && (shard.events_executed - start).saturating_add(pending) >= max_events
                {
                    shard.fold_ledger();
                }
                if shard.events_executed - start >= max_events || !shard.process_one(&ctx, mail) {
                    break;
                }
            }
            // Run dry below the budget (a folded ledger is empty): the
            // unsuppressed run would have popped every transit left here.
            shard.settle(SimTime::from_nanos(u64::MAX), true);
            shard.fold = false;
            shard.events_executed - start
        } else {
            Self::run_parallel(shards, mail, &ctx, *lookahead, None, max_events, obs)
        };
        // Normalize shard clocks to the global frontier. Safe under a
        // budget stop: execution is conservative, so every still-pending
        // event is due at or after the last processed window/event.
        let frontier = shards
            .iter()
            .map(|s| s.time)
            .max()
            .unwrap_or(*time)
            .max(*time);
        for sh in shards.iter_mut() {
            sh.time = frontier;
        }
        *time = frontier;
        // Unless the event budget cut execution short, idleness means every
        // cross-shard mailbox has been drained — in-flight events would be
        // lost work, not pending work.
        debug_assert!(
            executed == max_events || mail.is_empty(),
            "idle simulator with undelivered cross-shard events"
        );
        executed
    }

    /// Number of pending events (diagnostics), including any still in
    /// cross-shard mailboxes.
    pub fn pending_events(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.queue.len() + s.suppressed.len())
            .sum::<usize>()
            + self.mail.pending()
    }

    /// Total queued events executed since construction (diagnostics;
    /// invariant across shard counts).
    pub fn events_executed(&self) -> u64 {
        self.shards.iter().map(|s| s.events_executed).sum()
    }

    /// Deterministic digest of the externally observable platform state:
    /// reference time, executed-event count, transport counters and every
    /// node's complete capture buffer (timestamps, packet identity,
    /// addressing, payload bytes) in node-id order.
    ///
    /// This is the equivalence oracle of the sharded executor — the value
    /// must be bit-identical for every shard count (and with observability
    /// on or off), because per-node capture order only depends on that
    /// node's event order, never on which shard executed it.
    pub fn state_digest(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        fn fold(h: u64, v: u64) -> u64 {
            (h ^ v).wrapping_mul(PRIME)
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        h = fold(h, self.now().as_nanos());
        h = fold(h, self.events_executed());
        let stats = self.stats();
        for v in [
            stats.sent,
            stats.delivered,
            stats.dropped_filter,
            stats.dropped_loss,
            stats.duplicates,
            stats.forwarded,
        ] {
            h = fold(h, v);
        }
        for id in 0..self.map.node_count() {
            let node = self.node(NodeId(id as u16));
            h = fold(h, node.captures.len() as u64);
            for rec in node.captures.records() {
                h = fold(h, rec.local_time.as_nanos());
                h = fold(h, rec.packet_id.0);
                h = fold(h, u64::from(rec.tag));
                h = fold(h, u64::from(rec.src.0));
                h = fold(
                    h,
                    match rec.dst {
                        Destination::Unicast(n) => u64::from(n.0),
                        Destination::Multicast => 1 << 32,
                        Destination::Broadcast => 2 << 32,
                    },
                );
                h = fold(h, u64::from(rec.port));
                h = fold(h, rec.payload.as_bytes().len() as u64);
                for b in rec.payload.as_bytes() {
                    h = fold(h, u64::from(*b));
                }
                h = fold(
                    h,
                    match rec.kind {
                        crate::capture::CaptureKind::Sent => 0,
                        crate::capture::CaptureKind::Received => 1,
                        crate::capture::CaptureKind::Forwarded => 2,
                    },
                );
            }
        }
        h
    }

    /// Publishes transport counters, event-queue depth, per-link background
    /// load and per-shard sharding metrics (events, mailbox crossings,
    /// windows, barrier waits, mailbox depth histogram) into the global
    /// observability registry.
    ///
    /// Deliberately *batch*: callers invoke it at run boundaries (the
    /// engine after each run, the bench harness after each workload) and
    /// never from the packet hot path, so the simulation itself stays
    /// allocation-free and its outcome is bit-identical whether or not
    /// observability is enabled. Counters are published as deltas since
    /// the previous call, so repeated publishing stays monotone.
    pub fn publish_obs(&mut self) {
        if !excovery_obs::enabled() {
            return;
        }
        let reg = excovery_obs::global();
        let (cur, last) = (self.stats(), self.obs_published);
        let events = self.events_executed();
        reg.counter("netsim_events_executed_total", &[])
            .add(events - self.obs_published_events);
        reg.counter("netsim_packets_sent_total", &[])
            .add(cur.sent - last.sent);
        reg.counter("netsim_packets_delivered_total", &[])
            .add(cur.delivered - last.delivered);
        reg.counter("netsim_packets_forwarded_total", &[])
            .add(cur.forwarded - last.forwarded);
        reg.counter("netsim_packets_dropped_total", &[("reason", "filter")])
            .add(cur.dropped_filter - last.dropped_filter);
        reg.counter("netsim_packets_dropped_total", &[("reason", "loss")])
            .add(cur.dropped_loss - last.dropped_loss);
        reg.counter("netsim_flood_duplicates_total", &[])
            .add(cur.duplicates - last.duplicates);
        self.obs_published = cur;
        self.obs_published_events = events;
        // Per-shard sharding metrics, labelled by shard index.
        for sh in &mut self.shards {
            let sid = sh.id.to_string();
            let labels: [(&str, &str); 1] = [("shard", &sid)];
            reg.counter("netsim_shard_events_total", &labels)
                .add(sh.events_executed - sh.obs_events_published);
            sh.obs_events_published = sh.events_executed;
            reg.counter("netsim_mailbox_crossings_total", &labels)
                .add(sh.crossings_out - sh.obs_crossings_published);
            sh.obs_crossings_published = sh.crossings_out;
            reg.counter("netsim_shard_windows_total", &labels)
                .add(sh.windows - sh.obs_windows_published);
            sh.obs_windows_published = sh.windows;
            reg.counter("netsim_flood_suppressed_total", &labels)
                .add(sh.suppressed_total - sh.obs_suppressed_published);
            sh.obs_suppressed_published = sh.suppressed_total;
            reg.counter("netsim_barrier_wait_ns_total", &labels)
                .add(sh.barrier_wait_ns - sh.obs_barrier_ns_published);
            sh.obs_barrier_ns_published = sh.barrier_wait_ns;
            for (b, (&cur, pub_)) in sh
                .mailbox_depth_hist
                .iter()
                .zip(sh.obs_depth_published.iter_mut())
                .enumerate()
            {
                if cur > *pub_ {
                    let bucket = b.to_string();
                    reg.counter(
                        "netsim_mailbox_depth_bucket_total",
                        &[("shard", &sid), ("le_pow2", &bucket)],
                    )
                    .add(cur - *pub_);
                    *pub_ = cur;
                }
            }
        }
        reg.gauge("netsim_pending_events", &[])
            .set(self.pending_events() as i64);
        reg.gauge("netsim_shards", &[])
            .set(self.shard_count() as i64);
        let link_load = reg.histogram("netsim_link_load_kbps", &[]);
        for (_, kbps) in self.link_load.entries() {
            link_load.observe(kbps as u64);
        }
    }

    /// Spacing between per-run time epochs: each run starts at
    /// `run_id × 1 h` of simulated time, far beyond any sane run length.
    pub(crate) const RUN_EPOCH: SimDuration = SimDuration::from_nanos(3_600_000_000_000);

    /// Resets the platform to a defined initial working condition for the
    /// next experiment run (paper §IV-C1): pending events, timers, agents,
    /// filters, captures, background load and drop-all flags are cleared.
    ///
    /// The reset is *run-scoped*: every randomness stream is reseeded from
    /// `(seed, run_id)` and the reference clock jumps to the run's
    /// canonical epoch (`run_id ×` one hour, `RUN_EPOCH`). Per-run platform
    /// state is therefore a pure function of the configuration and the run
    /// id — never of which runs executed before. This is what makes a
    /// crash-resumed experiment bit-identical to an uninterrupted one: a
    /// master resuming at run `k` replays exactly the platform that run
    /// `k` would have seen. Time still advances monotonically across runs
    /// (like a real testbed's wall clock) as long as no run outlives the
    /// epoch spacing.
    pub fn reset_for_run(&mut self, run_id: u64) {
        let run_seed = crate::rng::derive_seed_indexed(self.cfg.seed, "run", run_id);
        self.link_load.clear();
        self.mail.clear();
        let epoch = SimTime::ZERO + Self::RUN_EPOCH.saturating_mul(run_id);
        for sh in &mut self.shards {
            sh.queue.clear();
            // Release event-storm capacity: one pathological run must not
            // pin its peak allocation for the rest of a campaign.
            sh.queue.shrink_to(QUEUE_CAPACITY);
            sh.suppressed.clear();
            sh.suppressed.shrink_to(QUEUE_CAPACITY);
            sh.suppressed_min = u64::MAX;
            sh.settle_at = SETTLE_AT;
            sh.last_popped = (SimTime::ZERO, 0);
            sh.flood_seen.clear();
            sh.protocol_events.clear();
            sh.time = sh.time.max(epoch);
            for n in &mut sh.nodes {
                let i = u64::from(n.id.0);
                n.filters.clear();
                n.captures.clear();
                n.drop_all = false;
                n.agents.clear();
                n.tagger = Tagger::new();
                n.rng = derive_rng_indexed(run_seed, "agent", i);
                n.sync_rng = derive_rng_indexed(run_seed, "sync", i);
                n.channel_rng = derive_rng_indexed(run_seed, "channel", i);
                n.next_seq = 0;
                n.next_packet_seq = 0;
            }
        }
        self.time = self.time.max(epoch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::AssertUnwindSafe;
    use std::sync::{Arc, Mutex};

    /// Test agent that records everything it sees and can auto-reply.
    struct Probe {
        log: Arc<Mutex<Vec<String>>>,
        reply_to: Option<Port>,
    }

    impl Agent for Probe {
        fn on_start(&mut self, ctx: &mut AgentCtx) {
            self.log
                .lock()
                .unwrap()
                .push(format!("start@{}", ctx.node()));
        }
        fn on_packet(&mut self, ctx: &mut AgentCtx, pkt: &Packet) {
            self.log.lock().unwrap().push(format!(
                "pkt@{} from {} t={}",
                ctx.node(),
                pkt.src,
                ctx.now()
            ));
            if let Some(port) = self.reply_to {
                ctx.send(Destination::Unicast(pkt.src), port, Payload::from("reply"));
            }
        }
        fn on_timer(&mut self, ctx: &mut AgentCtx, token: u64) {
            self.log
                .lock()
                .unwrap()
                .push(format!("timer@{} tok={token}", ctx.node()));
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn quiet_model() -> LinkModel {
        LinkModel {
            base_loss: 0.0,
            ..LinkModel::default()
        }
    }

    fn sim(n_chain: usize, seed: u64) -> Simulator {
        let cfg = SimulatorConfig {
            link_model: quiet_model(),
            ..SimulatorConfig::perfect_clocks(seed)
        };
        Simulator::new(Topology::chain(n_chain), cfg)
    }

    #[test]
    fn unicast_delivery_over_multiple_hops() {
        let mut s = sim(4, 1);
        let log = Arc::new(Mutex::new(vec![]));
        s.install_agent(
            NodeId(3),
            99,
            Box::new(Probe {
                log: Arc::clone(&log),
                reply_to: None,
            }),
        );
        s.send_from(
            NodeId(0),
            99,
            Destination::Unicast(NodeId(3)),
            Payload::from("hi"),
        );
        s.run_until_idle(1_000);
        let entries = log.lock().unwrap();
        assert!(
            entries.iter().any(|e| e.starts_with("pkt@n3 from n0")),
            "{entries:?}"
        );
        // Relays captured Forwarded records.
        assert_eq!(s.captures(NodeId(1)).len(), 1);
        assert_eq!(s.captures(NodeId(2)).len(), 1);
        assert_eq!(s.stats().delivered, 1);
        assert_eq!(s.stats().forwarded, 2);
    }

    #[test]
    fn multicast_floods_to_all_subscribed() {
        let mut s = sim(5, 2);
        let log = Arc::new(Mutex::new(vec![]));
        for n in [1u16, 2, 4] {
            s.install_agent(
                NodeId(n),
                5353,
                Box::new(Probe {
                    log: Arc::clone(&log),
                    reply_to: None,
                }),
            );
        }
        s.send_from(
            NodeId(0),
            5353,
            Destination::Multicast,
            Payload::from("query"),
        );
        s.run_until_idle(10_000);
        let pkts = log
            .lock()
            .unwrap()
            .iter()
            .filter(|e| e.starts_with("pkt@"))
            .count();
        assert_eq!(pkts, 3, "{:?}", log.lock().unwrap());
        assert_eq!(s.stats().delivered, 3);
    }

    #[test]
    fn request_reply_roundtrip() {
        let mut s = sim(3, 3);
        let log_a = Arc::new(Mutex::new(vec![]));
        let log_b = Arc::new(Mutex::new(vec![]));
        s.install_agent(
            NodeId(0),
            7,
            Box::new(Probe {
                log: log_a.clone(),
                reply_to: None,
            }),
        );
        s.install_agent(
            NodeId(2),
            7,
            Box::new(Probe {
                log: log_b.clone(),
                reply_to: Some(7),
            }),
        );
        s.send_from(
            NodeId(0),
            7,
            Destination::Unicast(NodeId(2)),
            Payload::from("ping"),
        );
        s.run_until_idle(1_000);
        assert!(log_b.lock().unwrap().iter().any(|e| e.contains("from n0")));
        assert!(
            log_a.lock().unwrap().iter().any(|e| e.contains("from n2")),
            "{:?}",
            log_a.lock().unwrap()
        );
    }

    #[test]
    fn timers_fire_in_due_order() {
        struct T {
            fired: Arc<Mutex<Vec<u64>>>,
        }
        impl Agent for T {
            fn on_start(&mut self, ctx: &mut AgentCtx) {
                ctx.set_timer(SimDuration::from_millis(5), 1);
                ctx.set_timer(SimDuration::from_millis(10), 2);
            }
            fn on_timer(&mut self, _ctx: &mut AgentCtx, token: u64) {
                self.fired.lock().unwrap().push(token);
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut s = sim(1, 4);
        let fired = Arc::new(Mutex::new(vec![]));
        s.install_agent(
            NodeId(0),
            1,
            Box::new(T {
                fired: Arc::clone(&fired),
            }),
        );
        s.run_until_idle(100);
        assert_eq!(*fired.lock().unwrap(), vec![1, 2]);
    }

    #[test]
    fn interface_fault_blocks_transmission() {
        let mut s = sim(2, 5);
        let log = Arc::new(Mutex::new(vec![]));
        s.install_agent(
            NodeId(1),
            9,
            Box::new(Probe {
                log: Arc::clone(&log),
                reply_to: None,
            }),
        );
        s.install_filter(
            NodeId(0),
            FilterRule::InterfaceDown {
                direction: Direction::Transmit,
            },
        );
        s.send_from(
            NodeId(0),
            9,
            Destination::Unicast(NodeId(1)),
            Payload::from("x"),
        );
        s.run_until_idle(100);
        assert!(log.lock().unwrap().iter().all(|e| !e.starts_with("pkt@")));
        assert_eq!(s.stats().dropped_filter, 1);
        // Sender still captured its own attempt.
        assert_eq!(s.captures(NodeId(0)).len(), 1);
    }

    #[test]
    fn interface_fault_blocks_relay() {
        let mut s = sim(3, 6);
        let log = Arc::new(Mutex::new(vec![]));
        s.install_agent(
            NodeId(2),
            9,
            Box::new(Probe {
                log: Arc::clone(&log),
                reply_to: None,
            }),
        );
        s.install_filter(
            NodeId(1),
            FilterRule::InterfaceDown {
                direction: Direction::Both,
            },
        );
        s.send_from(
            NodeId(0),
            9,
            Destination::Unicast(NodeId(2)),
            Payload::from("x"),
        );
        s.run_until_idle(100);
        assert!(log.lock().unwrap().iter().all(|e| !e.starts_with("pkt@")));
    }

    #[test]
    fn drop_all_partitions_everything() {
        let mut s = sim(3, 7);
        let log = Arc::new(Mutex::new(vec![]));
        s.install_agent(
            NodeId(2),
            9,
            Box::new(Probe {
                log: Arc::clone(&log),
                reply_to: None,
            }),
        );
        s.set_drop_all_everywhere(true);
        s.send_from(
            NodeId(0),
            9,
            Destination::Unicast(NodeId(2)),
            Payload::from("x"),
        );
        s.run_until_idle(100);
        assert!(log.lock().unwrap().iter().all(|e| !e.starts_with("pkt@")));
        s.set_drop_all_everywhere(false);
        s.send_from(
            NodeId(0),
            9,
            Destination::Unicast(NodeId(2)),
            Payload::from("y"),
        );
        s.run_until_idle(100);
        assert_eq!(
            log.lock()
                .unwrap()
                .iter()
                .filter(|e| e.starts_with("pkt@"))
                .count(),
            1
        );
    }

    #[test]
    fn message_delay_fault_defers_delivery() {
        let mut s = sim(2, 8);
        let log = Arc::new(Mutex::new(vec![]));
        s.install_agent(
            NodeId(1),
            9,
            Box::new(Probe {
                log: Arc::clone(&log),
                reply_to: None,
            }),
        );
        s.install_filter(
            NodeId(0),
            FilterRule::MessageDelay {
                delay: SimDuration::from_secs(1),
                direction: Direction::Transmit,
            },
        );
        s.send_from(
            NodeId(0),
            9,
            Destination::Unicast(NodeId(1)),
            Payload::from("x"),
        );
        s.run_until(SimTime::from_nanos(900_000_000));
        assert!(
            log.lock().unwrap().iter().all(|e| !e.starts_with("pkt@")),
            "not yet delivered"
        );
        s.run_until_idle(100);
        assert_eq!(
            log.lock()
                .unwrap()
                .iter()
                .filter(|e| e.starts_with("pkt@"))
                .count(),
            1
        );
        assert!(s.now().as_secs_f64() >= 1.0);
    }

    #[test]
    fn deterministic_repetition_is_bit_exact() {
        fn run(seed: u64) -> (SimStats, Vec<String>) {
            let cfg = SimulatorConfig::default().with_seed(seed);
            let mut s = Simulator::new(Topology::grid(3, 3), cfg);
            let log = Arc::new(Mutex::new(vec![]));
            for n in 0..9u16 {
                s.install_agent(
                    NodeId(n),
                    5353,
                    Box::new(Probe {
                        log: Arc::clone(&log),
                        reply_to: None,
                    }),
                );
            }
            s.send_from(NodeId(0), 5353, Destination::Multicast, Payload::from("q"));
            s.send_from(NodeId(4), 5353, Destination::Multicast, Payload::from("r"));
            s.run_until_idle(100_000);
            let log = log.lock().unwrap().clone();
            (s.stats(), log)
        }
        let (s1, l1) = run(42);
        let (s2, l2) = run(42);
        assert_eq!(s1, s2);
        assert_eq!(l1, l2);
        let (s3, _) = run(43);
        assert!(s1 != s3 || s1.sent == s3.sent, "different seed may differ");
    }

    /// The tentpole property in miniature: identical transport outcome for
    /// every shard count. (The full cross-preset matrix lives in
    /// `tests/shard_equivalence.rs` at the workspace root.)
    #[test]
    fn shard_count_does_not_change_outcome() {
        fn run(shards: usize) -> (SimStats, u64, Vec<usize>, Vec<String>) {
            let cfg = SimulatorConfig::default().with_seed(99).with_shards(shards);
            let mut s = Simulator::new(Topology::grid(4, 4), cfg);
            let log = Arc::new(Mutex::new(vec![]));
            for n in 0..16u16 {
                s.install_agent(
                    NodeId(n),
                    5353,
                    Box::new(Probe {
                        log: Arc::clone(&log),
                        reply_to: None,
                    }),
                );
            }
            s.send_from(NodeId(0), 5353, Destination::Multicast, Payload::from("q"));
            s.send_from(
                NodeId(5),
                5353,
                Destination::Unicast(NodeId(15)),
                Payload::from("u"),
            );
            s.send_from(NodeId(10), 5353, Destination::Multicast, Payload::from("r"));
            s.run_until_idle(1_000_000);
            let caps: Vec<usize> = (0..16u16).map(|n| s.captures(NodeId(n)).len()).collect();
            let mut log = log.lock().unwrap().clone();
            // Callback interleaving across nodes is shard-dependent (two
            // agents at the same instant may run on different threads);
            // per-node order is not. Sort for a shard-invariant view.
            log.sort();
            (s.stats(), s.events_executed(), caps, log)
        }
        let serial = run(1);
        for shards in [2, 4, 8] {
            assert_eq!(run(shards), serial, "diverged at {shards} shards");
        }
    }

    #[test]
    fn shard_queues_partition_events() {
        let cfg = SimulatorConfig {
            link_model: quiet_model(),
            ..SimulatorConfig::perfect_clocks(5)
        }
        .with_shards(4);
        let mut s = Simulator::new(Topology::grid(4, 4), cfg);
        assert_eq!(s.shard_count(), 4);
        s.send_from(NodeId(0), 9, Destination::Multicast, Payload::from("q"));
        s.run_until_idle(100_000);
        let per_shard = s.events_per_shard();
        assert_eq!(per_shard.len(), 4);
        assert_eq!(per_shard.iter().sum::<u64>(), s.events_executed());
        // A flood over a connected 4×4 grid reaches every stripe.
        assert!(per_shard.iter().all(|&n| n > 0), "{per_shard:?}");
        assert!(s.mailbox_crossings() > 0);
        assert_eq!(s.pending_events(), 0);
    }

    /// With a zero minimum transit delay no window can run in parallel:
    /// the simulator runs on one shard whatever is asked, with the
    /// single-shard outcome.
    #[test]
    fn zero_lookahead_runs_on_one_shard() {
        let instant = LinkModel {
            base_delay: SimDuration::ZERO,
            ..quiet_model()
        };
        let flood = |shards| {
            let mut s = grid_with_sinks(4, instant.clone(), shards);
            s.send_from(NodeId(0), 9, Destination::Multicast, Payload::from("q"));
            s.run_until_idle(100_000);
            s
        };
        let (one, four) = (flood(1), flood(4));
        assert_eq!(four.shard_count(), 1);
        assert_eq!(four.state_digest(), one.state_digest());
        assert!(
            !four.captures(NodeId(15)).is_empty(),
            "the flood crossed the grid"
        );
        assert_eq!(four.pending_events(), 0);
    }

    /// A sink at every node of a `side`×`side` grid.
    fn grid_with_sinks(side: usize, link_model: LinkModel, shards: usize) -> Simulator {
        struct Sink;
        impl Agent for Sink {
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let cfg = SimulatorConfig {
            link_model,
            ..SimulatorConfig::perfect_clocks(3)
        }
        .with_shards(shards);
        let mut s = Simulator::new(Topology::grid(side, side), cfg);
        for n in 0..(side * side) as u16 {
            s.install_agent(NodeId(n), 9, Box::new(Sink));
        }
        s
    }

    /// Floods from a corner, or sends unicasts between spread-out pairs
    /// over the default lossy link model; returns the simulator run dry.
    fn lag_workload(flood: bool, shards: usize, lagging: Option<usize>) -> Simulator {
        let mut s = if flood {
            grid_with_sinks(16, quiet_model(), shards)
        } else {
            grid_with_sinks(12, LinkModel::default(), shards)
        };
        if let Some(k) = lagging {
            s.shards[k].lag_spins = 2_000;
        }
        if flood {
            for _ in 0..4 {
                s.send_from(NodeId(0), 9, Destination::Multicast, Payload::from("f"));
            }
        } else {
            for i in 0..120u16 {
                let (from, to) = (i * 37 % 144, (i * 53 + 11) % 144);
                s.send_from(
                    NodeId(from),
                    9,
                    Destination::Unicast(NodeId(to)),
                    Payload::from("u"),
                );
            }
        }
        s.run_until_idle(u64::MAX);
        s
    }

    /// One shard of four spins before every window, so the others reach
    /// each barrier first and a slot or mailbox that was rewritten too
    /// early would show. The outcome must still be the serial one.
    #[test]
    fn a_lagging_shard_stays_bit_exact_with_the_serial_run() {
        for flood in [true, false] {
            let serial = lag_workload(flood, 1, None);
            for lagging in 0..4 {
                let s = lag_workload(flood, 4, Some(lagging));
                let what = format!("flood {flood}, shard {lagging} lagging");
                assert_eq!(s.state_digest(), serial.state_digest(), "{what}");
                assert_eq!(s.events_executed(), serial.events_executed(), "{what}");
                assert_eq!(s.stats(), serial.stats(), "{what}");
                assert_eq!(
                    s.events_per_shard().iter().sum::<u64>(),
                    serial.events_executed(),
                    "{what}"
                );
                assert!(s.mailbox_crossings() > 0, "{what}");
            }
        }
    }

    /// A handler that panics inside one shard of four fails the run: the
    /// other shards leave their barrier instead of waiting for the dead
    /// one, and the panic reaches the caller within a bounded time.
    #[test]
    fn a_panicking_shard_fails_the_run_instead_of_hanging_it() {
        struct Bomb;
        impl Agent for Bomb {
            fn on_packet(&mut self, _ctx: &mut AgentCtx, _pkt: &Packet) {
                panic!("bomb went off");
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let mut s = grid_with_sinks(16, quiet_model(), 4);
            // Far from the corner, so the flood is well under way in every
            // shard when it arrives.
            s.install_agent(NodeId(200), 9, Box::new(Bomb));
            s.send_from(NodeId(0), 9, Destination::Multicast, Payload::from("f"));
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| s.run_until_idle(u64::MAX)));
            let _ = tx.send(outcome.map_err(|payload| {
                payload
                    .downcast_ref::<&str>()
                    .map(|m| m.to_string())
                    .unwrap_or_default()
            }));
        });
        let outcome = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("the sharded run hung after a handler panicked");
        assert_eq!(outcome, Err("bomb went off".to_string()));
    }

    /// A small `run_until_idle` budget stops after exactly the budget on one
    /// queue and at the end of the window that reaches it on 2 and 4
    /// shards; the window ends do not depend on the partition, so both
    /// shard counts stop after the same number of events.
    #[test]
    fn a_small_budget_cuts_off_at_the_same_count() {
        let stop = |shards: usize| {
            let mut s = grid_with_sinks(16, quiet_model(), shards);
            for _ in 0..4 {
                s.send_from(NodeId(0), 9, Destination::Multicast, Payload::from("f"));
            }
            let executed = s.run_until_idle(1_500);
            assert_eq!(executed, s.events_executed(), "{shards} shards");
            (executed, s.pending_events(), s.state_digest())
        };
        let (executed, pending, _) = stop(1);
        assert_eq!((executed, pending), (1_500, 205));
        let two = stop(2);
        assert_eq!((two.0, two.1), (1_567, 208));
        assert_eq!(stop(4), two);
    }

    /// Cutting a flood at every budget and then running it dry gives the
    /// unbudgeted total and digest: on one queue each cut folds the
    /// suppressed-transit ledger at a different point, and the cut itself
    /// must stop after exactly the budget; on two shards the cut falls on
    /// a window's end, with unsettled transits left in the ledger.
    #[test]
    fn every_budget_cut_resumes_to_the_unbudgeted_run() {
        let flood = |shards: usize| {
            let mut s = grid_with_sinks(5, LinkModel::default(), shards);
            for src in [0, 12, 24] {
                s.send_from(NodeId(src), 9, Destination::Multicast, Payload::from("f"));
            }
            s.send_from(NodeId(7), 9, Destination::Broadcast, Payload::from("b"));
            s
        };
        for shards in [1, 2] {
            let mut whole = flood(shards);
            let total = whole.run_until_idle(u64::MAX);
            assert!(whole.stats().duplicates > 0);
            for budget in 1..=total {
                let mut s = flood(shards);
                let cut = s.run_until_idle(budget);
                if shards == 1 {
                    assert_eq!(cut, budget, "budget {budget}");
                }
                assert_eq!(cut, s.events_executed(), "budget {budget}");
                let rest = s.run_until_idle(u64::MAX);
                let what = format!("{shards} shards, budget {budget}");
                assert_eq!(cut + rest, total, "{what}");
                assert_eq!(s.pending_events(), 0, "{what}");
                assert_eq!(s.stats(), whole.stats(), "{what}");
                assert_eq!(s.state_digest(), whole.state_digest(), "{what}");
            }
        }
    }

    #[test]
    fn packet_ids_compose_source_and_sequence() {
        let mut s = sim(2, 16);
        for _ in 0..2 {
            s.send_from(
                NodeId(1),
                9,
                Destination::Unicast(NodeId(0)),
                Payload::from("x"),
            );
        }
        let ids: Vec<u64> = s
            .captures(NodeId(1))
            .iter()
            .map(|c| c.packet_id.0)
            .collect();
        assert_eq!(ids, vec![(1 << 32), (1 << 32) + 1]);
    }

    #[test]
    fn clock_sync_measurement_bounded_error() {
        let cfg = SimulatorConfig::default().with_seed(11);
        let mut s = Simulator::new(Topology::chain(4), cfg.clone());
        s.run_until(SimTime::from_nanos(1_000_000_000));
        for n in 0..4u16 {
            let m = s.measure_sync(NodeId(n));
            let true_off = s.clock(NodeId(n)).instantaneous_offset_ns(s.now());
            assert!(
                (m.estimated_offset_ns - true_off).abs() <= cfg.max_sync_error_ns,
                "measurement error exceeds configured bound"
            );
        }
    }

    #[test]
    fn local_timestamps_use_node_clock() {
        let cfg = SimulatorConfig::default().with_seed(12);
        let mut s = Simulator::new(Topology::chain(2), cfg);
        s.run_until(SimTime::from_nanos(500_000_000));
        s.send_from(
            NodeId(0),
            9,
            Destination::Unicast(NodeId(1)),
            Payload::from("x"),
        );
        let sent = &s.captures(NodeId(0))[0];
        let expected = s
            .clock(NodeId(0))
            .local_time(SimTime::from_nanos(500_000_000));
        assert_eq!(sent.local_time, expected);
        // And with ±5 ms offsets the local reading differs from reference.
        assert_ne!(
            sent.local_time,
            SimTime::from_nanos(500_000_000),
            "{sent:?}"
        );
    }

    #[test]
    fn unroutable_unicast_is_dropped() {
        let topo = Topology::from_positions(vec![(0.0, 0.0), (100.0, 0.0)], 1.0);
        let cfg = SimulatorConfig {
            link_model: quiet_model(),
            ..SimulatorConfig::perfect_clocks(1)
        };
        let mut s = Simulator::new(topo, cfg);
        s.send_from(
            NodeId(0),
            9,
            Destination::Unicast(NodeId(1)),
            Payload::from("x"),
        );
        s.run_until_idle(10);
        assert_eq!(s.stats().dropped_loss, 1);
        assert_eq!(s.stats().delivered, 0);
    }

    #[test]
    fn loopback_unicast_delivers_locally() {
        let mut s = sim(1, 13);
        let log = Arc::new(Mutex::new(vec![]));
        s.install_agent(
            NodeId(0),
            9,
            Box::new(Probe {
                log: Arc::clone(&log),
                reply_to: None,
            }),
        );
        s.send_from(
            NodeId(0),
            9,
            Destination::Unicast(NodeId(0)),
            Payload::from("self"),
        );
        s.run_until_idle(10);
        assert_eq!(
            log.lock()
                .unwrap()
                .iter()
                .filter(|e| e.starts_with("pkt@"))
                .count(),
            1
        );
    }

    #[test]
    fn background_load_increases_loss() {
        fn delivered_ratio(load_kbps: f64) -> f64 {
            let cfg = SimulatorConfig::perfect_clocks(77);
            let mut s = Simulator::new(Topology::chain(2), cfg);
            if load_kbps > 0.0 {
                s.add_link_load(NodeId(0), NodeId(1), load_kbps);
            }
            let n = 2_000;
            for _ in 0..n {
                s.send_from(
                    NodeId(0),
                    9,
                    Destination::Unicast(NodeId(1)),
                    Payload::from("x"),
                );
            }
            s.run_until_idle(100_000);
            s.captures(NodeId(1)).len() as f64 / n as f64
        }
        let idle = delivered_ratio(0.0);
        let loaded = delivered_ratio(5_000.0);
        assert!(idle > 0.97, "idle delivery {idle}");
        assert!(loaded < idle - 0.2, "loaded {loaded} vs idle {idle}");
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut s = sim(1, 14);
        s.run_until(SimTime::from_nanos(123));
        assert_eq!(s.now(), SimTime::from_nanos(123));
        s.run_for(SimDuration::from_nanos(7));
        assert_eq!(s.now(), SimTime::from_nanos(130));
    }

    #[test]
    fn publish_obs_emits_monotone_deltas() {
        excovery_obs::set_enabled(true);
        let reg = excovery_obs::global();
        let sent = reg.counter("netsim_packets_sent_total", &[]);
        let before = sent.value();
        let mut s = sim(3, 21);
        for _ in 0..5 {
            s.send_from(
                NodeId(0),
                9,
                Destination::Unicast(NodeId(2)),
                Payload::from("x"),
            );
        }
        s.run_until_idle(1_000);
        assert!(s.events_executed() > 0);
        s.publish_obs();
        assert_eq!(sent.value() - before, s.stats().sent);
        assert_eq!(reg.gauge("netsim_shards", &[]).value(), 1);
        // Publishing again without new activity adds nothing: the
        // published counters are deltas, not absolute re-adds.
        s.publish_obs();
        assert_eq!(sent.value() - before, s.stats().sent);
    }

    #[test]
    fn auto_shards_keeps_small_topologies_serial() {
        for nodes in [9, 100, 1_023] {
            for cores in [1, 2, 4, 64] {
                assert_eq!(auto_shards(nodes, cores), 1, "{nodes} nodes, {cores} cores");
            }
        }
        assert_eq!(auto_shards(1_024, 2), 2);
        assert_eq!(auto_shards(10_000, 1), 1);
        assert_eq!(auto_shards(10_000, 2), 2);
        assert_eq!(auto_shards(10_000, 64), 19);
        for nodes in [0, 1, 2, 511, 1_024, 1_536, 10_000, 65_535] {
            for cores in [0, 1, 3, 64, 1 << 20] {
                let shards = auto_shards(nodes, cores);
                assert!(
                    shards >= 1 && shards <= nodes.max(1),
                    "{nodes} nodes, {cores} cores"
                );
            }
        }
    }

    #[test]
    fn a_small_grid_left_to_choose_runs_serially() {
        let cfg = SimulatorConfig {
            shards: 0,
            ..SimulatorConfig::perfect_clocks(1)
        };
        assert_eq!(Simulator::new(Topology::grid(3, 3), cfg).shard_count(), 1);
    }

    #[test]
    fn tagger_ids_increment_per_source_node() {
        let mut s = sim(2, 15);
        for _ in 0..3 {
            s.send_from(
                NodeId(0),
                9,
                Destination::Unicast(NodeId(1)),
                Payload::from("x"),
            );
        }
        let tags: Vec<u16> = s.captures(NodeId(0)).iter().map(|c| c.tag).collect();
        assert_eq!(tags, vec![0, 1, 2]);
    }
}
