//! The SD protocol agent.
//!
//! One [`SdAgent`] per participating node implements both the two-party
//! (mDNS-like) and three-party (SLP-like) protocol behaviour, selected by
//! [`crate::model::Architecture`]. The agent surfaces exactly the events of
//! the paper's §V through the simulator's protocol-event stream:
//! `sd_init_done`, `sd_exit_done`, `sd_start_search`, `sd_stop_search`,
//! `sd_service_add`, `sd_service_del`, `sd_service_upd`,
//! `sd_start_publish`, `sd_stop_publish`, `scm_started`, `scm_found`,
//! `scm_registration_add`, `scm_registration_del`, `scm_registration_upd`.
//!
//! The agent keys its state by the interned ids of [`crate::names`]:
//! publications and searches are short vectors in the order they started,
//! the caches are indexed by record id. Whatever the agent does for
//! several of them at once (exit, a newly found SCM) it does in that
//! order, so the packets and events it makes follow the commands, never a
//! hash order.

use crate::cache::{CacheChange, ServiceCache};
use crate::model::{Architecture, Role, SdConfig, ServiceDescription, ServiceType};
use crate::names::{Names, RecordId, StypeId};
use crate::wire::{Heard, Record, SdMessage};
use excovery_netsim::fasthash::FastHashMap;
use excovery_netsim::{
    Agent, AgentCtx, Destination, EventParams, NodeId, Packet, Port, SimDuration, SimTime,
};
use excovery_rng::Rng;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Counters of protocol activity (for tests and the ablation benches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SdStats {
    /// Multicast queries sent.
    pub queries_sent: u64,
    /// Directed (unicast) queries sent.
    pub directed_queries_sent: u64,
    /// Responses sent.
    pub responses_sent: u64,
    /// Responses suppressed by the known-answer rule.
    pub suppressed_responses: u64,
    /// Unsolicited announcements sent (including goodbyes).
    pub announces_sent: u64,
    /// Registrations sent (including retries).
    pub registrations_sent: u64,
    /// Probes sent while establishing a name.
    pub probes_sent: u64,
    /// Name conflicts detected (and resolved by renaming).
    pub name_conflicts: u64,
}

#[derive(Debug, Clone)]
struct Publication {
    /// The id of the published type.
    id: StypeId,
    /// The published record, shared with the messages that carry it.
    desc: Record,
    announces_left: u32,
    next_interval: SimDuration,
    registered: bool,
    /// Probes still to send before announcing (RFC 6762-style); 0 when
    /// the name is established.
    probes_left: u32,
}

#[derive(Debug, Clone)]
struct Search {
    /// The id of the searched type.
    id: StypeId,
    stype: ServiceType,
    current_interval: SimDuration,
}

#[derive(Debug, Clone)]
enum TimerPurpose {
    Announce(StypeId),
    QueryRetry(StypeId),
    ResponseJitter {
        qid: u64,
        to: Option<NodeId>,
        records: Vec<Record>,
    },
    Probe(StypeId),
    /// A cache sweep due at this instant.
    CacheExpiry(SimTime),
    ScmAdvert,
    RegRetry(u64),
    RegRefresh(StypeId),
}

/// The service-discovery agent; install on a node's SD port.
pub struct SdAgent {
    cfg: SdConfig,
    role: Option<Role>,
    /// At most one per type, in the order they started.
    publications: Vec<Publication>,
    /// At most one per type, in the order they started.
    searches: Vec<Search>,
    cache: ServiceCache,
    registry: ServiceCache,
    scm_known: Option<NodeId>,
    /// The type of every registration awaiting its ack, by registration id.
    pending_regs: FastHashMap<u64, StypeId>,
    next_qid: u64,
    next_rid: u64,
    next_timer_token: u64,
    /// Purposes of the armed timers by token. Deterministically hashed,
    /// so the table's growth, and with it the allocations a run costs,
    /// does not vary between processes.
    timers: FastHashMap<u64, TimerPurpose>,
    /// Due instants of the pending [`TimerPurpose::CacheExpiry`] timers.
    expiry_timers: BTreeSet<SimTime>,
    /// The last due instant found pending in `expiry_timers`, while it
    /// still is.
    armed_expiry: Option<SimTime>,
    /// The simulator's table of interned names, fetched on install.
    names: Option<Arc<Names>>,
    port: Port,
    stats: SdStats,
}

impl SdAgent {
    /// Creates an agent with the given protocol configuration, bound to
    /// `port` (usually [`crate::SD_PORT`]).
    pub fn new(cfg: SdConfig, port: Port) -> Self {
        Self {
            cfg,
            role: None,
            publications: Vec::new(),
            searches: Vec::new(),
            cache: ServiceCache::new(),
            registry: ServiceCache::new(),
            scm_known: None,
            pending_regs: FastHashMap::default(),
            next_qid: 1,
            next_rid: 1,
            next_timer_token: 1,
            timers: FastHashMap::default(),
            expiry_timers: BTreeSet::new(),
            armed_expiry: None,
            names: None,
            port,
            stats: SdStats::default(),
        }
    }

    /// Protocol statistics so far.
    pub fn stats(&self) -> SdStats {
        self.stats
    }

    fn arm(&mut self, ctx: &mut AgentCtx, delay: SimDuration, purpose: TimerPurpose) -> u64 {
        let token = self.next_timer_token;
        self.next_timer_token += 1;
        self.timers.insert(token, purpose);
        ctx.set_timer(delay, token);
        token
    }

    fn uses_multicast(&self) -> bool {
        matches!(
            self.cfg.architecture,
            Architecture::TwoParty | Architecture::Hybrid
        )
    }

    fn uses_directory(&self) -> bool {
        matches!(
            self.cfg.architecture,
            Architecture::ThreeParty | Architecture::Hybrid
        )
    }

    /// The simulator's name table.
    fn names(&self) -> &Names {
        self.names
            .as_ref()
            .expect("fetched when the agent was installed")
    }

    fn publication_mut(&mut self, stype: StypeId) -> Option<&mut Publication> {
        self.publications.iter_mut().find(|p| p.id == stype)
    }

    fn searching(&self, stype: StypeId) -> bool {
        self.searches.iter().any(|s| s.id == stype)
    }

    // ---- SD actions (paper §V) -------------------------------------------

    /// `Init SD`: establishes the node's role; SCMs announce themselves.
    /// Emits `scm_started` (SCM) and `sd_init_done`.
    pub(crate) fn sd_init(&mut self, ctx: &mut AgentCtx, role: Role) {
        self.role = Some(role);
        if role == Role::CacheManager {
            ctx.emit("scm_started", EventParams::new());
            self.send_scm_advert(ctx);
            self.arm(ctx, self.cfg.scm_advert_interval, TimerPurpose::ScmAdvert);
        }
        ctx.emit("sd_init_done", [("role", role.as_str())]);
    }

    /// `Exit SD`: stops the role, all publications and searches, each in
    /// the order it started; emits `sd_exit_done`. The node must re-init
    /// to participate again.
    pub(crate) fn sd_exit(&mut self, ctx: &mut AgentCtx) {
        while !self.publications.is_empty() {
            self.end_publication(ctx, 0);
        }
        while !self.searches.is_empty() {
            self.end_search(ctx, 0);
        }
        // Drop timers by forgetting their purposes; stale fires are ignored.
        self.timers.clear();
        self.expiry_timers.clear();
        self.armed_expiry = None;
        self.role = None;
        self.scm_known = None;
        self.cache.clear();
        self.registry.clear();
        self.pending_regs.clear();
        ctx.emit("sd_exit_done", EventParams::new());
    }

    /// `Start searching`: begins a continuous discovery for `stype`.
    /// Emits `sd_start_search`, then `sd_service_add` per discovery.
    pub(crate) fn start_search(&mut self, ctx: &mut AgentCtx, stype: ServiceType) {
        ctx.emit("sd_start_search", [("stype", stype.0.clone())]);
        let id = self.names().stype(&stype);
        // Passively cached records count as discovered immediately.
        let already: Vec<Record> = self
            .cache
            .lookup(id, ctx.now())
            .into_iter()
            .cloned()
            .collect();
        for d in already {
            self.emit_service_event(ctx, "sd_service_add", &d);
        }
        let search = Search {
            id,
            stype,
            current_interval: self.cfg.query_interval,
        };
        match self.searches.iter_mut().find(|s| s.id == id) {
            Some(running) => *running = search,
            None => self.searches.push(search),
        }
        self.arm(
            ctx,
            self.cfg.first_query_delay,
            TimerPurpose::QueryRetry(id),
        );
    }

    /// `Stop searching`. Emits `sd_stop_search`.
    pub(crate) fn stop_search(&mut self, ctx: &mut AgentCtx, stype: &ServiceType) {
        if let Some(at) = self.searches.iter().position(|s| s.stype == *stype) {
            self.end_search(ctx, at);
        }
    }

    /// Ends the search at position `at` of `searches`.
    fn end_search(&mut self, ctx: &mut AgentCtx, at: usize) {
        let search = self.searches.remove(at);
        self.timers
            .retain(|_, p| !matches!(p, TimerPurpose::QueryRetry(id) if *id == search.id));
        ctx.emit("sd_stop_search", [("stype", search.stype.0)]);
    }

    /// `Start publishing`: publishes a service instance. Emits
    /// `sd_start_publish`.
    pub(crate) fn start_publish(&mut self, ctx: &mut AgentCtx, desc: ServiceDescription) {
        ctx.emit(
            "sd_start_publish",
            [
                ("service", desc.instance.clone()),
                ("stype", desc.stype.0.clone()),
            ],
        );
        let id = self.names().stype(&desc.stype);
        let probing = self.cfg.probe_before_announce && self.uses_multicast();
        let publication = Publication {
            id,
            desc: Arc::new(desc),
            announces_left: self.cfg.announce_count,
            next_interval: self.cfg.announce_interval,
            registered: false,
            probes_left: if probing { self.cfg.probe_count } else { 0 },
        };
        match self.publication_mut(id) {
            Some(running) => *running = publication,
            None => self.publications.push(publication),
        }
        if self.uses_multicast() {
            if probing {
                // Establish name uniqueness before announcing.
                self.arm(ctx, SimDuration::ZERO, TimerPurpose::Probe(id));
            } else {
                self.arm(
                    ctx,
                    self.cfg.first_announce_delay,
                    TimerPurpose::Announce(id),
                );
            }
        }
        if self.uses_directory() && self.scm_known.is_some() {
            self.register_publication(ctx, id);
        }
    }

    /// `Stop publishing`: gracefully stops, sending goodbye announcements
    /// and SCM deregistrations. Emits `sd_stop_publish`.
    pub(crate) fn stop_publish(&mut self, ctx: &mut AgentCtx, stype: &ServiceType) {
        if let Some(at) = self
            .publications
            .iter()
            .position(|p| p.desc.stype == *stype)
        {
            self.end_publication(ctx, at);
        }
    }

    /// Ends the publication at position `at` of `publications`.
    fn end_publication(&mut self, ctx: &mut AgentCtx, at: usize) {
        let publication = self.publications.remove(at);
        let desc = &publication.desc;
        if self.uses_multicast() {
            let goodbye = SdMessage::Announce {
                record: Arc::new(desc.goodbye()),
            };
            ctx.send(Destination::Multicast, self.port, goodbye.encode());
            self.stats.announces_sent += 1;
        }
        if let (true, Some(scm)) = (self.uses_directory(), self.scm_known) {
            let msg = SdMessage::Deregister {
                instance: desc.instance.clone(),
                stype: desc.stype.clone(),
            };
            ctx.send(Destination::Unicast(scm), self.port, msg.encode());
        }
        self.timers.retain(|_, p| {
            !matches!(p, TimerPurpose::Announce(id) | TimerPurpose::RegRefresh(id) if *id == publication.id)
        });
        ctx.emit(
            "sd_stop_publish",
            [
                ("service", desc.instance.clone()),
                ("stype", desc.stype.0.clone()),
            ],
        );
    }

    /// `Update publication`: changes a published description. Emits
    /// `sd_service_upd` *before* the update is executed (paper §V).
    pub(crate) fn update_publication(&mut self, ctx: &mut AgentCtx, desc: ServiceDescription) {
        ctx.emit(
            "sd_service_upd",
            [
                ("service", desc.instance.clone()),
                ("stype", desc.stype.0.clone()),
            ],
        );
        let Some(p) = self
            .publications
            .iter_mut()
            .find(|p| p.desc.stype == desc.stype)
        else {
            return;
        };
        let id = p.id;
        p.desc = Arc::new(desc);
        p.announces_left = self.cfg.announce_count;
        p.next_interval = self.cfg.announce_interval;
        p.registered = false;
        if self.uses_multicast() {
            self.arm(ctx, SimDuration::ZERO, TimerPurpose::Announce(id));
        }
        if self.uses_directory() && self.scm_known.is_some() {
            self.register_publication(ctx, id);
        }
    }

    // ---- internals --------------------------------------------------------

    fn emit_service_event(&self, ctx: &mut AgentCtx, name: &'static str, d: &ServiceDescription) {
        ctx.emit(
            name,
            [
                ("service", d.instance.clone()),
                ("stype", d.stype.0.clone()),
                ("provider", d.provider.to_string()),
            ],
        );
    }

    fn send_scm_advert(&mut self, ctx: &mut AgentCtx) {
        let msg = SdMessage::ScmAdvert { scm: ctx.node() };
        ctx.send(Destination::Multicast, self.port, msg.encode());
    }

    fn send_query(&mut self, ctx: &mut AgentCtx, id: StypeId, stype: &ServiceType) {
        if self.uses_multicast() {
            let qid = self.alloc_qid(ctx);
            let known = if self.cfg.known_answer_suppression {
                self.cache.known_answers(id, ctx.now())
            } else {
                Vec::new()
            };
            let msg = SdMessage::Query {
                qid,
                stype: stype.clone(),
                known,
            };
            ctx.send(Destination::Multicast, self.port, msg.encode());
            self.stats.queries_sent += 1;
        }
        if let (true, Some(scm)) = (self.uses_directory(), self.scm_known) {
            let qid = self.alloc_qid(ctx);
            let msg = SdMessage::DirectedQuery {
                qid,
                stype: stype.clone(),
            };
            ctx.send(Destination::Unicast(scm), self.port, msg.encode());
            self.stats.directed_queries_sent += 1;
        }
    }

    fn alloc_qid(&mut self, ctx: &AgentCtx) -> u64 {
        let qid = (u64::from(ctx.node().0) << 32) | self.next_qid;
        self.next_qid += 1;
        qid
    }

    fn register_publication(&mut self, ctx: &mut AgentCtx, stype: StypeId) {
        let Some(scm) = self.scm_known else { return };
        let Some(p) = self.publications.iter().find(|p| p.id == stype) else {
            return;
        };
        let rid = self.next_rid;
        self.next_rid += 1;
        let lease_s = (self.cfg.registration_lease.as_millis() / 1000).max(1) as u32;
        let msg = SdMessage::Register {
            rid,
            record: Arc::clone(&p.desc),
            lease_s,
        };
        ctx.send(Destination::Unicast(scm), self.port, msg.encode());
        self.stats.registrations_sent += 1;
        self.pending_regs.insert(rid, stype);
        self.arm(
            ctx,
            self.cfg.registration_retry,
            TimerPurpose::RegRetry(rid),
        );
    }

    /// Makes sure a sweep is pending 1 ms after the cache's earliest
    /// deadline (1 ms after now if that has passed). One timer serves
    /// every call that asks for the same instant. Each distinct instant
    /// keeps its own timer, even after the minimum has moved on: a sweep
    /// still pending for an older minimum can lapse a later entry before
    /// that entry's own deadline + 1 ms, and dropping the sweep would
    /// move that entry's `sd_service_del`.
    fn rearm_cache_expiry(&mut self, ctx: &mut AgentCtx) {
        if let Some(next) = self.cache.next_expiry() {
            let delay = next.saturating_since(ctx.now()) + SimDuration::from_millis(1);
            let due = ctx.now() + delay;
            if self.armed_expiry == Some(due) {
                return; // the usual case: the minimum has not moved
            }
            self.armed_expiry = Some(due);
            if self.expiry_timers.insert(due) {
                self.arm(ctx, delay, TimerPurpose::CacheExpiry(due));
            }
        }
    }

    /// Detects a name conflict: another provider claims an instance name
    /// we are publishing. Resolves by renaming (mDNS appends a counter),
    /// emitting `sd_name_conflict`, and restarting the establish cycle.
    fn check_name_conflict(
        &mut self,
        ctx: &mut AgentCtx,
        record: &ServiceDescription,
        id: RecordId,
    ) {
        if record.is_goodbye() || record.provider == ctx.node() {
            return;
        }
        let node = ctx.node();
        let Some(p) = self.publications.iter_mut().find(|p| p.id == id.stype) else {
            return;
        };
        if p.desc.instance != record.instance || p.desc.provider == record.provider {
            return;
        }
        // Tie-break: the lexicographically greater (instance, node) yields
        // — deterministic, so exactly one side renames.
        let ours = (p.desc.instance.as_str(), node.0);
        let theirs = (record.instance.as_str(), record.provider.0);
        if ours < theirs {
            return; // we keep the name; the other side renames
        }
        let old = p.desc.instance.clone();
        let new = format!("{old}-{}", node.0 + 2);
        let probing = self.cfg.probe_before_announce
            && matches!(
                self.cfg.architecture,
                Architecture::TwoParty | Architecture::Hybrid
            );
        Arc::make_mut(&mut p.desc).instance = new.clone();
        p.announces_left = self.cfg.announce_count;
        p.next_interval = self.cfg.announce_interval;
        p.registered = false;
        p.probes_left = if probing { self.cfg.probe_count } else { 0 };
        self.stats.name_conflicts += 1;
        ctx.emit(
            "sd_name_conflict",
            [
                ("old", old),
                ("new", new),
                ("stype", record.stype.0.clone()),
            ],
        );
        if self.uses_multicast() {
            if probing {
                self.arm(ctx, SimDuration::ZERO, TimerPurpose::Probe(id.stype));
            } else {
                self.arm(
                    ctx,
                    self.cfg.first_announce_delay,
                    TimerPurpose::Announce(id.stype),
                );
            }
        }
    }

    /// Merges received records, whose ids are `ids`, into the cache.
    fn absorb_records(&mut self, ctx: &mut AgentCtx, records: &[Record], ids: &[RecordId]) {
        for (r, &id) in records.iter().zip(ids) {
            self.check_name_conflict(ctx, r, id);
        }
        for (r, &id) in records.iter().zip(ids) {
            let change = self.cache.merge(id, r, ctx.now());
            if !self.searching(id.stype) {
                continue; // no event reports the change
            }
            match change {
                CacheChange::Added => self.emit_service_event(ctx, "sd_service_add", r),
                CacheChange::Updated => self.emit_service_event(ctx, "sd_service_upd", r),
                CacheChange::Removed => self.emit_service_event(ctx, "sd_service_del", r),
                CacheChange::Refreshed | CacheChange::Ignored => {}
            }
        }
        self.rearm_cache_expiry(ctx);
    }

    fn handle_query(&mut self, ctx: &mut AgentCtx, qid: u64, stype: StypeId, known: &[String]) {
        // Only publishing SMs answer multicast queries; SCMs answer only
        // directed queries (three-party discovery is directed by design).
        let Some(p) = self.publications.iter().find(|p| p.id == stype) else {
            return;
        };
        if p.probes_left > 0 {
            return; // name not established yet (probing phase)
        }
        if self.cfg.known_answer_suppression && known.contains(&p.desc.instance) {
            self.stats.suppressed_responses += 1;
            return;
        }
        // Response jitter avoids synchronized responder collisions.
        let jitter_ns = if self.cfg.response_jitter_max > SimDuration::ZERO {
            ctx.rng()
                .gen_range(0..=self.cfg.response_jitter_max.as_nanos())
        } else {
            0
        };
        let records = vec![Arc::clone(&p.desc)];
        self.arm(
            ctx,
            SimDuration::from_nanos(jitter_ns),
            TimerPurpose::ResponseJitter {
                qid,
                to: None,
                records,
            },
        );
    }

    fn handle_directed_query(
        &mut self,
        ctx: &mut AgentCtx,
        qid: u64,
        stype: StypeId,
        from: NodeId,
    ) {
        if self.role != Some(Role::CacheManager) {
            return;
        }
        let records: Vec<Record> = self
            .registry
            .lookup(stype, ctx.now())
            .into_iter()
            .cloned()
            .collect();
        let msg = SdMessage::Response { qid, records };
        ctx.send(Destination::Unicast(from), self.port, msg.encode());
        self.stats.responses_sent += 1;
    }

    fn handle_register(
        &mut self,
        ctx: &mut AgentCtx,
        rid: u64,
        record: &ServiceDescription,
        id: RecordId,
        lease_s: u32,
        from: NodeId,
    ) {
        if self.role != Some(Role::CacheManager) {
            return;
        }
        let mut leased = ServiceDescription::clone(record);
        leased.ttl_s = lease_s;
        let change = self.registry.merge(id, &Arc::new(leased), ctx.now());
        let event = match change {
            CacheChange::Added => Some("scm_registration_add"),
            CacheChange::Updated => Some("scm_registration_upd"),
            _ => None,
        };
        if let Some(name) = event {
            ctx.emit(
                name,
                [
                    ("service", record.instance.clone()),
                    ("registrant", from.to_string()),
                ],
            );
        }
        ctx.send(
            Destination::Unicast(from),
            self.port,
            SdMessage::RegisterAck { rid }.encode(),
        );
    }

    fn handle_deregister(&mut self, ctx: &mut AgentCtx, instance: &str, id: RecordId) {
        if self.role != Some(Role::CacheManager) {
            return;
        }
        if self.registry.remove(id) {
            ctx.emit("scm_registration_del", [("service", instance.to_string())]);
        }
    }

    fn handle_scm_advert(&mut self, ctx: &mut AgentCtx, scm: NodeId) {
        if self.role == Some(Role::CacheManager) || !self.uses_directory() {
            return;
        }
        if self.scm_known.is_none() {
            self.scm_known = Some(scm);
            ctx.emit("scm_found", [("scm", scm.to_string())]);
            // Register any publications now that a directory exists.
            let unregistered: Vec<StypeId> = self
                .publications
                .iter()
                .filter(|p| !p.registered)
                .map(|p| p.id)
                .collect();
            for id in unregistered {
                self.register_publication(ctx, id);
            }
            // Fire directed queries for ongoing searches immediately.
            let searching: Vec<ServiceType> =
                self.searches.iter().map(|s| s.stype.clone()).collect();
            for stype in searching {
                let qid = self.alloc_qid(ctx);
                let msg = SdMessage::DirectedQuery { qid, stype };
                ctx.send(Destination::Unicast(scm), self.port, msg.encode());
                self.stats.directed_queries_sent += 1;
            }
        }
    }
}

impl Agent for SdAgent {
    /// Fetches the simulator's name table and sizes the cache for the
    /// records it holds: from the second run of an experiment on, every
    /// record, so the cache does not grow in steps. Every receiver of a
    /// packet reads ids from the one shared decode, so an agent interns
    /// in the table of the simulator it runs in, and in no other.
    fn on_start(&mut self, ctx: &mut AgentCtx) {
        let names = ctx.shared::<Names>();
        match &self.names {
            Some(mine) => assert!(
                Arc::ptr_eq(mine, &names),
                "an SD agent serves one simulator"
            ),
            None => {
                self.cache.reserve(names.records());
                self.names = Some(names);
            }
        }
    }

    fn on_packet(&mut self, ctx: &mut AgentCtx, pkt: &Packet) {
        // Every receiver of a flooded packet shares one decode, with its
        // names interned. A slot that another protocol filled leaves this
        // agent a local decode.
        let names = self.names();
        let local;
        let heard = match pkt.view(|bytes| Heard::decode(bytes, names)) {
            Some(Some(shared)) => shared,
            Some(None) => return, // garbage is dropped, as a real stack would
            None => {
                local = Heard::decode(pkt.payload.as_bytes(), names);
                let Some(local) = &local else {
                    return;
                };
                local
            }
        };
        let ids = &heard.records;
        match &heard.msg {
            SdMessage::Query { qid, known, .. } => {
                self.handle_query(ctx, *qid, heard.query_type(), known)
            }
            SdMessage::Response { qid: _, records } => self.absorb_records(ctx, records, ids),
            SdMessage::Announce { record } => {
                self.absorb_records(ctx, std::slice::from_ref(record), ids)
            }
            SdMessage::ScmAdvert { scm } => self.handle_scm_advert(ctx, *scm),
            SdMessage::Register {
                rid,
                record,
                lease_s,
            } => self.handle_register(ctx, *rid, record, ids[0], *lease_s, pkt.src),
            SdMessage::RegisterAck { rid } => {
                if let Some(stype) = self.pending_regs.remove(rid) {
                    if let Some(p) = self.publication_mut(stype) {
                        p.registered = true;
                    }
                    // Refresh before the lease expires.
                    let refresh = self.cfg.registration_lease.mul_f64(0.5);
                    self.arm(ctx, refresh, TimerPurpose::RegRefresh(stype));
                }
            }
            SdMessage::Deregister { instance, .. } => self.handle_deregister(ctx, instance, ids[0]),
            SdMessage::DirectedQuery { qid, .. } => {
                self.handle_directed_query(ctx, *qid, heard.query_type(), pkt.src)
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx, token: u64) {
        let Some(purpose) = self.timers.remove(&token) else {
            return; // cancelled or superseded
        };
        match purpose {
            TimerPurpose::Announce(stype) => {
                let Some(p) = self.publication_mut(stype) else {
                    return;
                };
                if p.announces_left == 0 {
                    return;
                }
                p.announces_left -= 1;
                let record = Arc::clone(&p.desc);
                let interval = p.next_interval;
                p.next_interval = p.next_interval.mul_f64(2.0);
                let more = p.announces_left > 0;
                ctx.send(
                    Destination::Multicast,
                    self.port,
                    SdMessage::Announce { record }.encode(),
                );
                self.stats.announces_sent += 1;
                if more {
                    self.arm(ctx, interval, TimerPurpose::Announce(stype));
                }
            }
            TimerPurpose::QueryRetry(id) => {
                let Some(s) = self.searches.iter().find(|s| s.id == id) else {
                    return;
                };
                let stype = s.stype.clone();
                self.send_query(ctx, id, &stype);
                let backoff = self.cfg.query_backoff;
                let max = self.cfg.max_query_interval;
                let s = self
                    .searches
                    .iter_mut()
                    .find(|s| s.id == id)
                    .expect("found above");
                let interval = s.current_interval;
                s.current_interval = s.current_interval.mul_f64(backoff).min(max);
                self.arm(ctx, interval, TimerPurpose::QueryRetry(id));
            }
            TimerPurpose::ResponseJitter { qid, to, records } => {
                let dst = match to {
                    Some(node) => Destination::Unicast(node),
                    None => Destination::Multicast,
                };
                ctx.send(
                    dst,
                    self.port,
                    SdMessage::Response { qid, records }.encode(),
                );
                self.stats.responses_sent += 1;
            }
            TimerPurpose::Probe(stype) => {
                let Some(p) = self.publication_mut(stype) else {
                    return;
                };
                if p.probes_left == 0 {
                    return; // superseded (e.g. renamed meanwhile)
                }
                p.probes_left -= 1;
                let remaining = p.probes_left;
                let query_type = p.desc.stype.clone();
                let qid = self.alloc_qid(ctx);
                let msg = SdMessage::Query {
                    qid,
                    stype: query_type,
                    known: Vec::new(),
                };
                ctx.send(Destination::Multicast, self.port, msg.encode());
                self.stats.probes_sent += 1;
                if remaining > 0 {
                    self.arm(ctx, self.cfg.probe_interval, TimerPurpose::Probe(stype));
                } else {
                    // Name won: start the announcement schedule.
                    self.arm(
                        ctx,
                        self.cfg.first_announce_delay,
                        TimerPurpose::Announce(stype),
                    );
                }
            }
            TimerPurpose::CacheExpiry(due) => {
                self.expiry_timers.remove(&due);
                if self.armed_expiry == Some(due) {
                    self.armed_expiry = None;
                }
                let lapsed = self.cache.expire(ctx.now());
                for d in lapsed {
                    if self.searches.iter().any(|s| s.stype == d.stype) {
                        self.emit_service_event(ctx, "sd_service_del", &d);
                    }
                }
                self.rearm_cache_expiry(ctx);
            }
            TimerPurpose::ScmAdvert => {
                if self.role == Some(Role::CacheManager) {
                    self.send_scm_advert(ctx);
                    self.arm(ctx, self.cfg.scm_advert_interval, TimerPurpose::ScmAdvert);
                }
            }
            TimerPurpose::RegRetry(rid) => {
                if let Some(stype) = self.pending_regs.remove(&rid) {
                    // Not acked in time: re-register from scratch.
                    self.register_publication(ctx, stype);
                }
            }
            TimerPurpose::RegRefresh(stype) => {
                if self.publications.iter().any(|p| p.id == stype) {
                    self.register_publication(ctx, stype);
                }
            }
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::{sd_command, SdCommand};
    use crate::SD_PORT;
    use excovery_netsim::link::LinkModel;
    use excovery_netsim::sim::{ProtocolEvent, Simulator, SimulatorConfig};
    use excovery_netsim::topology::Topology;

    fn quiet_sim(n: usize, seed: u64) -> Simulator {
        let cfg = SimulatorConfig {
            link_model: LinkModel {
                base_loss: 0.0,
                ..LinkModel::default()
            },
            ..SimulatorConfig::perfect_clocks(seed)
        };
        Simulator::new(Topology::chain(n), cfg)
    }

    fn install(sim: &mut Simulator, node: u16, cfg: SdConfig) {
        sim.install_agent(NodeId(node), SD_PORT, Box::new(SdAgent::new(cfg, SD_PORT)));
    }

    fn events(sim: &mut Simulator) -> Vec<ProtocolEvent> {
        sim.drain_protocol_events()
    }

    fn names_on(evts: &[ProtocolEvent], node: u16) -> Vec<&str> {
        evts.iter()
            .filter(|e| e.node == NodeId(node))
            .map(|e| e.name.as_str())
            .collect()
    }

    fn http() -> ServiceType {
        ServiceType::new("_http._tcp")
    }

    fn publish_cmd(instance: &str, node: u16) -> SdCommand {
        SdCommand::StartPublish(ServiceDescription::new(instance, http(), NodeId(node)))
    }

    #[test]
    fn two_party_one_shot_discovery() {
        let mut sim = quiet_sim(2, 1);
        install(&mut sim, 0, SdConfig::two_party());
        install(&mut sim, 1, SdConfig::two_party());
        sd_command(&mut sim, NodeId(0), SdCommand::Init(Role::ServiceManager));
        sd_command(&mut sim, NodeId(1), SdCommand::Init(Role::ServiceUser));
        sd_command(&mut sim, NodeId(0), publish_cmd("sm-A", 0));
        sd_command(&mut sim, NodeId(1), SdCommand::StartSearch(http()));
        sim.run_for(SimDuration::from_secs(5));
        let evts = events(&mut sim);
        let su = names_on(&evts, 1);
        assert!(su.contains(&"sd_init_done"), "{su:?}");
        assert!(su.contains(&"sd_start_search"));
        assert!(su.contains(&"sd_service_add"), "{su:?}");
        let add = evts
            .iter()
            .find(|e| e.name == "sd_service_add" && e.node == NodeId(1))
            .unwrap();
        assert!(add
            .params
            .iter()
            .any(|(k, v)| k == "service" && v == "sm-A"));
    }

    #[test]
    fn discovery_time_is_subsecond_when_idle() {
        let mut sim = quiet_sim(2, 2);
        install(&mut sim, 0, SdConfig::two_party());
        install(&mut sim, 1, SdConfig::two_party());
        sd_command(&mut sim, NodeId(0), SdCommand::Init(Role::ServiceManager));
        sd_command(&mut sim, NodeId(1), SdCommand::Init(Role::ServiceUser));
        sd_command(&mut sim, NodeId(0), publish_cmd("sm-A", 0));
        // Let announcements settle, then search.
        sim.run_for(SimDuration::from_secs(10));
        let _ = events(&mut sim);
        let search_start = sim.now();
        sd_command(&mut sim, NodeId(1), SdCommand::StartSearch(http()));
        sim.run_for(SimDuration::from_secs(2));
        let evts = events(&mut sim);
        let add = evts
            .iter()
            .find(|e| e.name == "sd_service_add")
            .expect("discovered");
        let t_r = add.local_time.saturating_since(SimTime::ZERO).as_nanos() as i64
            - search_start.as_nanos() as i64;
        assert!(t_r >= 0, "clock is perfect, local == reference");
        assert!(
            t_r < 1_000_000_000,
            "t_R = {t_r} ns, expected < 1 s when idle"
        );
    }

    #[test]
    fn passive_discovery_from_cached_announcement() {
        let mut sim = quiet_sim(2, 3);
        install(&mut sim, 0, SdConfig::two_party());
        install(&mut sim, 1, SdConfig::two_party());
        sd_command(&mut sim, NodeId(0), SdCommand::Init(Role::ServiceManager));
        sd_command(&mut sim, NodeId(1), SdCommand::Init(Role::ServiceUser));
        sd_command(&mut sim, NodeId(0), publish_cmd("sm-A", 0));
        sim.run_for(SimDuration::from_secs(5)); // announcements heard passively
        let _ = events(&mut sim);
        sd_command(&mut sim, NodeId(1), SdCommand::StartSearch(http()));
        // No simulated time passes: the cached record is reported at once.
        let evts = events(&mut sim);
        assert!(names_on(&evts, 1).contains(&"sd_service_add"), "{evts:?}");
    }

    #[test]
    fn goodbye_triggers_service_del() {
        let mut sim = quiet_sim(2, 4);
        install(&mut sim, 0, SdConfig::two_party());
        install(&mut sim, 1, SdConfig::two_party());
        sd_command(&mut sim, NodeId(0), SdCommand::Init(Role::ServiceManager));
        sd_command(&mut sim, NodeId(1), SdCommand::Init(Role::ServiceUser));
        sd_command(&mut sim, NodeId(0), publish_cmd("sm-A", 0));
        sd_command(&mut sim, NodeId(1), SdCommand::StartSearch(http()));
        sim.run_for(SimDuration::from_secs(3));
        let _ = events(&mut sim);
        sd_command(&mut sim, NodeId(0), SdCommand::StopPublish(http()));
        sim.run_for(SimDuration::from_secs(1));
        let evts = events(&mut sim);
        assert!(names_on(&evts, 0).contains(&"sd_stop_publish"));
        assert!(names_on(&evts, 1).contains(&"sd_service_del"), "{evts:?}");
    }

    #[test]
    fn ttl_expiry_triggers_service_del() {
        let mut sim = quiet_sim(2, 5);
        let cfg = SdConfig {
            announce_count: 1,
            ..SdConfig::two_party()
        };
        install(&mut sim, 0, cfg.clone());
        install(&mut sim, 1, cfg);
        sd_command(&mut sim, NodeId(0), SdCommand::Init(Role::ServiceManager));
        sd_command(&mut sim, NodeId(1), SdCommand::Init(Role::ServiceUser));
        let mut desc = ServiceDescription::new("sm-A", http(), NodeId(0));
        desc.ttl_s = 2; // short-lived record
        sd_command(&mut sim, NodeId(0), SdCommand::StartPublish(desc));
        sd_command(&mut sim, NodeId(1), SdCommand::StartSearch(http()));
        sim.run_for(SimDuration::from_secs(1));
        // Kill the SM silently (no goodbye): partition it.
        sim.set_drop_all(NodeId(0), true);
        sim.run_for(SimDuration::from_secs(5));
        let evts = events(&mut sim);
        assert!(names_on(&evts, 1).contains(&"sd_service_del"), "{evts:?}");
    }

    #[test]
    fn known_answer_suppression_reduces_responses() {
        fn responses_with(kas: bool) -> u64 {
            let mut sim = quiet_sim(2, 6);
            let cfg = SdConfig {
                known_answer_suppression: kas,
                ..SdConfig::two_party()
            };
            install(&mut sim, 0, cfg.clone());
            install(&mut sim, 1, cfg);
            sd_command(&mut sim, NodeId(0), SdCommand::Init(Role::ServiceManager));
            sd_command(&mut sim, NodeId(1), SdCommand::Init(Role::ServiceUser));
            sd_command(&mut sim, NodeId(0), publish_cmd("sm-A", 0));
            sd_command(&mut sim, NodeId(1), SdCommand::StartSearch(http()));
            sim.run_for(SimDuration::from_secs(30));
            sim.with_agent_mut(NodeId(0), SD_PORT, |agent, _| {
                agent
                    .as_any_mut()
                    .downcast_ref::<SdAgent>()
                    .unwrap()
                    .stats()
                    .responses_sent
            })
            .unwrap()
        }
        let with = responses_with(true);
        let without = responses_with(false);
        assert!(with < without, "suppression {with} !< plain {without}");
    }

    #[test]
    fn three_party_discovery_via_scm() {
        let mut sim = quiet_sim(3, 7);
        install(&mut sim, 0, SdConfig::three_party());
        install(&mut sim, 1, SdConfig::three_party());
        install(&mut sim, 2, SdConfig::three_party());
        sd_command(&mut sim, NodeId(1), SdCommand::Init(Role::CacheManager));
        sd_command(&mut sim, NodeId(0), SdCommand::Init(Role::ServiceManager));
        sd_command(&mut sim, NodeId(2), SdCommand::Init(Role::ServiceUser));
        sim.run_for(SimDuration::from_secs(4)); // adverts propagate
        sd_command(&mut sim, NodeId(0), publish_cmd("sm-A", 0));
        sim.run_for(SimDuration::from_secs(1)); // registration completes
        sd_command(&mut sim, NodeId(2), SdCommand::StartSearch(http()));
        sim.run_for(SimDuration::from_secs(5));
        let evts = events(&mut sim);
        assert!(names_on(&evts, 1).contains(&"scm_started"));
        assert!(
            names_on(&evts, 1).contains(&"scm_registration_add"),
            "{evts:?}"
        );
        assert!(names_on(&evts, 0).contains(&"scm_found"));
        assert!(names_on(&evts, 2).contains(&"scm_found"));
        assert!(names_on(&evts, 2).contains(&"sd_service_add"), "{evts:?}");
        // Pure three-party SU must not have sent multicast queries.
        let stats = sim
            .with_agent_mut(NodeId(2), SD_PORT, |agent, _| {
                agent
                    .as_any_mut()
                    .downcast_ref::<SdAgent>()
                    .unwrap()
                    .stats()
            })
            .unwrap();
        assert_eq!(stats.queries_sent, 0);
        assert!(stats.directed_queries_sent > 0);
    }

    #[test]
    fn hybrid_works_without_scm_then_uses_it() {
        let mut sim = quiet_sim(3, 8);
        install(&mut sim, 0, SdConfig::hybrid());
        install(&mut sim, 2, SdConfig::hybrid());
        sd_command(&mut sim, NodeId(0), SdCommand::Init(Role::ServiceManager));
        sd_command(&mut sim, NodeId(2), SdCommand::Init(Role::ServiceUser));
        sd_command(&mut sim, NodeId(0), publish_cmd("sm-A", 0));
        sd_command(&mut sim, NodeId(2), SdCommand::StartSearch(http()));
        sim.run_for(SimDuration::from_secs(3));
        let evts = events(&mut sim);
        assert!(
            names_on(&evts, 2).contains(&"sd_service_add"),
            "hybrid discovers two-party without SCM: {evts:?}"
        );
        // Now an SCM appears; both sides find it.
        install(&mut sim, 1, SdConfig::hybrid());
        sd_command(&mut sim, NodeId(1), SdCommand::Init(Role::CacheManager));
        sim.run_for(SimDuration::from_secs(5));
        let evts = events(&mut sim);
        assert!(names_on(&evts, 0).contains(&"scm_found"), "{evts:?}");
        assert!(names_on(&evts, 2).contains(&"scm_found"));
    }

    #[test]
    fn exit_emits_done_and_resets_role() {
        let mut sim = quiet_sim(1, 9);
        install(&mut sim, 0, SdConfig::two_party());
        sd_command(&mut sim, NodeId(0), SdCommand::Init(Role::ServiceUser));
        sd_command(&mut sim, NodeId(0), SdCommand::StartSearch(http()));
        sd_command(&mut sim, NodeId(0), SdCommand::Exit);
        let evts = events(&mut sim);
        let names = names_on(&evts, 0);
        assert!(names.contains(&"sd_stop_search"));
        assert!(names.contains(&"sd_exit_done"));
        let role = sim
            .with_agent_mut(NodeId(0), SD_PORT, |agent, _| {
                agent.as_any_mut().downcast_ref::<SdAgent>().unwrap().role
            })
            .unwrap();
        assert_eq!(role, None);
    }

    #[test]
    fn multihop_discovery_works() {
        let mut sim = quiet_sim(5, 10);
        for n in 0..5 {
            install(&mut sim, n, SdConfig::two_party());
        }
        sd_command(&mut sim, NodeId(0), SdCommand::Init(Role::ServiceManager));
        sd_command(&mut sim, NodeId(4), SdCommand::Init(Role::ServiceUser));
        sd_command(&mut sim, NodeId(0), publish_cmd("sm-far", 0));
        sd_command(&mut sim, NodeId(4), SdCommand::StartSearch(http()));
        sim.run_for(SimDuration::from_secs(5));
        let evts = events(&mut sim);
        assert!(names_on(&evts, 4).contains(&"sd_service_add"), "{evts:?}");
    }

    #[test]
    fn update_publication_emits_upd_on_searching_su() {
        let mut sim = quiet_sim(2, 11);
        install(&mut sim, 0, SdConfig::two_party());
        install(&mut sim, 1, SdConfig::two_party());
        sd_command(&mut sim, NodeId(0), SdCommand::Init(Role::ServiceManager));
        sd_command(&mut sim, NodeId(1), SdCommand::Init(Role::ServiceUser));
        sd_command(&mut sim, NodeId(0), publish_cmd("sm-A", 0));
        sd_command(&mut sim, NodeId(1), SdCommand::StartSearch(http()));
        sim.run_for(SimDuration::from_secs(3));
        let _ = events(&mut sim);
        let mut updated = ServiceDescription::new("sm-A", http(), NodeId(0));
        updated.service_port = 8080;
        sd_command(&mut sim, NodeId(0), SdCommand::UpdatePublication(updated));
        sim.run_for(SimDuration::from_secs(2));
        let evts = events(&mut sim);
        assert!(
            names_on(&evts, 0).contains(&"sd_service_upd"),
            "SM-side event"
        );
        assert!(
            names_on(&evts, 1).contains(&"sd_service_upd"),
            "SU-side event: {evts:?}"
        );
    }

    #[test]
    fn search_for_absent_service_finds_nothing() {
        let mut sim = quiet_sim(2, 12);
        install(&mut sim, 1, SdConfig::two_party());
        sd_command(&mut sim, NodeId(1), SdCommand::Init(Role::ServiceUser));
        sd_command(&mut sim, NodeId(1), SdCommand::StartSearch(http()));
        sim.run_for(SimDuration::from_secs(10));
        let evts = events(&mut sim);
        assert!(!names_on(&evts, 1).contains(&"sd_service_add"));
    }

    #[test]
    fn query_backoff_is_exponential() {
        let mut sim = quiet_sim(1, 13);
        install(&mut sim, 0, SdConfig::two_party());
        sd_command(&mut sim, NodeId(0), SdCommand::Init(Role::ServiceUser));
        sd_command(&mut sim, NodeId(0), SdCommand::StartSearch(http()));
        sim.run_for(SimDuration::from_secs(16));
        let queries = sim
            .with_agent_mut(NodeId(0), SD_PORT, |agent, _| {
                agent
                    .as_any_mut()
                    .downcast_ref::<SdAgent>()
                    .unwrap()
                    .stats()
                    .queries_sent
            })
            .unwrap();
        // Queries at ~0.02, 1.02, 3.02, 7.02, 15.02 s → 5 within 16 s.
        assert_eq!(queries, 5, "exponential backoff schedule");
    }

    /// A lossless 3×3 grid with an SD agent and an SU role at every node.
    fn grid_of_users() -> Simulator {
        let cfg = SimulatorConfig {
            link_model: LinkModel {
                base_loss: 0.0,
                ..LinkModel::default()
            },
            ..SimulatorConfig::perfect_clocks(21)
        };
        let mut sim = Simulator::new(excovery_netsim::topology::Topology::grid(3, 3), cfg);
        for n in 0..9 {
            install(&mut sim, n, SdConfig::two_party());
            sd_command(&mut sim, NodeId(n), SdCommand::Init(Role::ServiceUser));
        }
        let _ = events(&mut sim);
        sim
    }

    fn decodes() -> u64 {
        crate::wire::tests::DECODES.with(|n| n.get())
    }

    #[test]
    fn a_flooded_announcement_is_decoded_once_for_every_receiver() {
        let mut sim = grid_of_users();
        let record = Arc::new(ServiceDescription::new("sm-A", http(), NodeId(0)));
        let before = decodes();
        sim.send_from(
            NodeId(0),
            SD_PORT,
            Destination::Multicast,
            SdMessage::Announce { record }.encode().into(),
        );
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.stats().delivered, 8);
        assert_eq!(decodes() - before, 1, "one decode for eight receivers");
        // Every receiver cached the record: a search reports it at once.
        for n in 1..9 {
            sd_command(&mut sim, NodeId(n), SdCommand::StartSearch(http()));
        }
        let evts = events(&mut sim);
        for n in 1..9 {
            assert!(names_on(&evts, n).contains(&"sd_service_add"), "node {n}");
        }
    }

    #[test]
    fn garbage_is_decoded_once_and_dropped_by_every_receiver() {
        let mut sim = grid_of_users();
        let before = decodes();
        for garbage in [&b"ANN|no;record"[..], b"\xff\xfe|", b"QRY|1|t|%C3%A9|0|"] {
            sim.send_from(
                NodeId(4),
                SD_PORT,
                Destination::Multicast,
                garbage.to_vec().into(),
            );
        }
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.stats().delivered, 3 * 8);
        assert_eq!(decodes() - before, 3, "one decode per packet");
        assert!(events(&mut sim).is_empty());
    }

    /// A protocol that reads SD packets its own way, filling their slots
    /// with its own view. Counts the packets it heard and those whose
    /// slot it filled.
    struct Foreign {
        counts: Arc<std::sync::Mutex<(usize, usize)>>,
    }

    impl Agent for Foreign {
        fn on_packet(&mut self, _ctx: &mut AgentCtx, pkt: &Packet) {
            let mut counts = self.counts.lock().unwrap();
            counts.0 += 1;
            if pkt.view(|bytes| bytes.len()).is_some() {
                counts.1 += 1;
            }
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn a_slot_of_another_protocol_falls_back_to_a_local_decode() {
        // The middle node of the chain hears every packet first.
        let mut sim = quiet_sim(3, 22);
        install(&mut sim, 0, SdConfig::two_party());
        let counts = Arc::new(std::sync::Mutex::new((0, 0)));
        let foreign = Foreign {
            counts: Arc::clone(&counts),
        };
        sim.install_agent(NodeId(1), SD_PORT, Box::new(foreign));
        install(&mut sim, 2, SdConfig::two_party());
        sd_command(&mut sim, NodeId(0), SdCommand::Init(Role::ServiceManager));
        sd_command(&mut sim, NodeId(2), SdCommand::Init(Role::ServiceUser));
        sd_command(&mut sim, NodeId(0), publish_cmd("sm-A", 0));
        sd_command(&mut sim, NodeId(2), SdCommand::StartSearch(http()));
        sim.run_for(SimDuration::from_secs(3));
        let evts = events(&mut sim);
        // Every SD packet crossed the foreign node first, so both SD
        // agents only ever decoded local copies.
        let (heard, filled) = *counts.lock().unwrap();
        assert!(heard > 0);
        assert_eq!(filled, heard);
        assert!(names_on(&evts, 2).contains(&"sd_service_add"), "{evts:?}");
    }

    #[test]
    #[should_panic(expected = "an SD agent serves one simulator")]
    fn an_agent_moved_to_another_simulator_is_refused() {
        let mut first = quiet_sim(1, 23);
        install(&mut first, 0, SdConfig::two_party());
        let agent = first.remove_agent(NodeId(0), SD_PORT).unwrap();
        let mut second = quiet_sim(1, 23);
        second.install_agent(NodeId(0), SD_PORT, agent);
    }

    #[test]
    fn deterministic_two_party_run() {
        fn run(seed: u64) -> Vec<(excovery_netsim::EventName, u64)> {
            let mut sim = quiet_sim(3, seed);
            for n in 0..3 {
                install(&mut sim, n, SdConfig::two_party());
            }
            sd_command(&mut sim, NodeId(0), SdCommand::Init(Role::ServiceManager));
            sd_command(&mut sim, NodeId(2), SdCommand::Init(Role::ServiceUser));
            sd_command(&mut sim, NodeId(0), publish_cmd("sm-A", 0));
            sd_command(&mut sim, NodeId(2), SdCommand::StartSearch(http()));
            sim.run_for(SimDuration::from_secs(10));
            events(&mut sim)
                .into_iter()
                .map(|e| (e.name, e.local_time.as_nanos()))
                .collect()
        }
        assert_eq!(run(99), run(99));
    }
}
