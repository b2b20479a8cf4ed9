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

use crate::cache::{CacheChange, ServiceCache};
use crate::model::{Architecture, Role, SdConfig, ServiceDescription, ServiceType};
use crate::wire::SdMessage;
use excovery_netsim::fasthash::FastHashMap;
use excovery_netsim::{
    Agent, AgentCtx, Destination, EventParams, NodeId, Packet, Port, SimDuration, SimTime,
};
use excovery_rng::Rng;
use std::collections::{BTreeSet, HashMap};

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
    desc: ServiceDescription,
    announces_left: u32,
    next_interval: SimDuration,
    registered: bool,
    /// Probes still to send before announcing (RFC 6762-style); 0 when
    /// the name is established.
    probes_left: u32,
}

#[derive(Debug, Clone)]
struct Search {
    current_interval: SimDuration,
}

#[derive(Debug, Clone)]
enum TimerPurpose {
    Announce(ServiceType),
    QueryRetry(ServiceType),
    ResponseJitter {
        qid: u64,
        to: Option<NodeId>,
        records: Vec<ServiceDescription>,
    },
    Probe(ServiceType),
    /// A cache sweep due at this instant.
    CacheExpiry(SimTime),
    ScmAdvert,
    RegRetry(u64),
    RegRefresh(ServiceType),
}

#[derive(Debug, Clone)]
struct PendingReg {
    stype: ServiceType,
}

/// The service-discovery agent; install on a node's SD port.
pub struct SdAgent {
    cfg: SdConfig,
    role: Option<Role>,
    publications: HashMap<ServiceType, Publication>,
    searches: HashMap<ServiceType, Search>,
    cache: ServiceCache,
    registry: ServiceCache,
    scm_known: Option<NodeId>,
    pending_regs: HashMap<u64, PendingReg>,
    next_qid: u64,
    next_rid: u64,
    next_timer_token: u64,
    /// Purposes of the armed timers by token. Deterministically hashed,
    /// so the table's growth, and with it the allocations a run costs,
    /// does not vary between processes.
    timers: FastHashMap<u64, TimerPurpose>,
    /// Due instants of the pending [`TimerPurpose::CacheExpiry`] timers.
    expiry_timers: BTreeSet<SimTime>,
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
            publications: HashMap::new(),
            searches: HashMap::new(),
            cache: ServiceCache::new(),
            registry: ServiceCache::new(),
            scm_known: None,
            pending_regs: HashMap::new(),
            next_qid: 1,
            next_rid: 1,
            next_timer_token: 1,
            timers: FastHashMap::default(),
            expiry_timers: BTreeSet::new(),
            port,
            stats: SdStats::default(),
        }
    }

    /// Current role, if initialized.
    pub fn role(&self) -> Option<Role> {
        self.role
    }

    /// Protocol statistics so far.
    pub fn stats(&self) -> SdStats {
        self.stats
    }

    /// Live records this agent has cached for a service type.
    pub fn cached(&self, stype: &ServiceType, ctx: &AgentCtx) -> Vec<ServiceDescription> {
        self.cache
            .lookup(stype, ctx.now())
            .into_iter()
            .cloned()
            .collect()
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

    // ---- SD actions (paper §V) -------------------------------------------

    /// `Init SD`: establishes the node's role; SCMs announce themselves.
    /// Emits `scm_started` (SCM) and `sd_init_done`.
    pub fn sd_init(&mut self, ctx: &mut AgentCtx, role: Role) {
        self.role = Some(role);
        if role == Role::CacheManager {
            ctx.emit("scm_started", EventParams::new());
            self.send_scm_advert(ctx);
            self.arm(ctx, self.cfg.scm_advert_interval, TimerPurpose::ScmAdvert);
        }
        ctx.emit("sd_init_done", [("role", role.as_str())]);
    }

    /// `Exit SD`: stops the role, all searches and publications; emits
    /// `sd_exit_done`. The node must re-init to participate again.
    pub fn sd_exit(&mut self, ctx: &mut AgentCtx) {
        let published: Vec<ServiceType> = self.publications.keys().cloned().collect();
        for st in published {
            self.stop_publish(ctx, &st);
        }
        let searches: Vec<ServiceType> = self.searches.keys().cloned().collect();
        for st in searches {
            self.stop_search(ctx, &st);
        }
        // Drop timers by forgetting their purposes; stale fires are ignored.
        self.timers.clear();
        self.expiry_timers.clear();
        self.role = None;
        self.scm_known = None;
        self.cache.clear();
        self.registry.clear();
        self.pending_regs.clear();
        ctx.emit("sd_exit_done", EventParams::new());
    }

    /// `Start searching`: begins a continuous discovery for `stype`.
    /// Emits `sd_start_search`, then `sd_service_add` per discovery.
    pub fn start_search(&mut self, ctx: &mut AgentCtx, stype: ServiceType) {
        ctx.emit("sd_start_search", [("stype", stype.0.clone())]);
        // Passively cached records count as discovered immediately.
        let already: Vec<ServiceDescription> = self
            .cache
            .lookup(&stype, ctx.now())
            .into_iter()
            .cloned()
            .collect();
        for d in already {
            self.emit_service_event(ctx, "sd_service_add", &d);
        }
        self.searches.insert(
            stype.clone(),
            Search {
                current_interval: self.cfg.query_interval,
            },
        );
        self.arm(
            ctx,
            self.cfg.first_query_delay,
            TimerPurpose::QueryRetry(stype),
        );
    }

    /// `Stop searching`. Emits `sd_stop_search`.
    pub fn stop_search(&mut self, ctx: &mut AgentCtx, stype: &ServiceType) {
        if self.searches.remove(stype).is_some() {
            self.timers
                .retain(|_, p| !matches!(p, TimerPurpose::QueryRetry(st) if st == stype));
            ctx.emit("sd_stop_search", [("stype", stype.0.clone())]);
        }
    }

    /// `Start publishing`: publishes a service instance. Emits
    /// `sd_start_publish`.
    pub fn start_publish(&mut self, ctx: &mut AgentCtx, desc: ServiceDescription) {
        ctx.emit(
            "sd_start_publish",
            [
                ("service", desc.instance.clone()),
                ("stype", desc.stype.0.clone()),
            ],
        );
        let stype = desc.stype.clone();
        let probing = self.cfg.probe_before_announce && self.uses_multicast();
        self.publications.insert(
            stype.clone(),
            Publication {
                desc,
                announces_left: self.cfg.announce_count,
                next_interval: self.cfg.announce_interval,
                registered: false,
                probes_left: if probing { self.cfg.probe_count } else { 0 },
            },
        );
        if self.uses_multicast() {
            if probing {
                // Establish name uniqueness before announcing.
                self.arm(ctx, SimDuration::ZERO, TimerPurpose::Probe(stype.clone()));
            } else {
                self.arm(
                    ctx,
                    self.cfg.first_announce_delay,
                    TimerPurpose::Announce(stype.clone()),
                );
            }
        }
        if self.uses_directory() && self.scm_known.is_some() {
            self.register_publication(ctx, &stype);
        }
    }

    /// `Stop publishing`: gracefully stops, sending goodbye announcements
    /// and SCM deregistrations. Emits `sd_stop_publish`.
    pub fn stop_publish(&mut self, ctx: &mut AgentCtx, stype: &ServiceType) {
        let Some(publication) = self.publications.remove(stype) else {
            return;
        };
        if self.uses_multicast() {
            let goodbye = SdMessage::Announce {
                record: publication.desc.goodbye(),
            };
            ctx.send(Destination::Multicast, self.port, goodbye.encode());
            self.stats.announces_sent += 1;
        }
        if let (true, Some(scm)) = (self.uses_directory(), self.scm_known) {
            let msg = SdMessage::Deregister {
                instance: publication.desc.instance.clone(),
                stype: stype.clone(),
            };
            ctx.send(Destination::Unicast(scm), self.port, msg.encode());
        }
        self.timers.retain(|_, p| {
            !matches!(p, TimerPurpose::Announce(st) | TimerPurpose::RegRefresh(st) if st == stype)
        });
        ctx.emit(
            "sd_stop_publish",
            [
                ("service", publication.desc.instance.clone()),
                ("stype", stype.0.clone()),
            ],
        );
    }

    /// `Update publication`: changes a published description. Emits
    /// `sd_service_upd` *before* the update is executed (paper §V).
    pub fn update_publication(&mut self, ctx: &mut AgentCtx, desc: ServiceDescription) {
        ctx.emit(
            "sd_service_upd",
            [
                ("service", desc.instance.clone()),
                ("stype", desc.stype.0.clone()),
            ],
        );
        let stype = desc.stype.clone();
        if let Some(p) = self.publications.get_mut(&stype) {
            p.desc = desc;
            p.announces_left = self.cfg.announce_count;
            p.next_interval = self.cfg.announce_interval;
            p.registered = false;
        } else {
            return;
        }
        if self.uses_multicast() {
            self.arm(
                ctx,
                SimDuration::ZERO,
                TimerPurpose::Announce(stype.clone()),
            );
        }
        if self.uses_directory() && self.scm_known.is_some() {
            self.register_publication(ctx, &stype);
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

    fn send_query(&mut self, ctx: &mut AgentCtx, stype: &ServiceType) {
        if self.uses_multicast() {
            let qid = self.alloc_qid(ctx);
            let known = if self.cfg.known_answer_suppression {
                self.cache.known_answers(stype, ctx.now())
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

    fn register_publication(&mut self, ctx: &mut AgentCtx, stype: &ServiceType) {
        let Some(scm) = self.scm_known else { return };
        let Some(p) = self.publications.get(stype) else {
            return;
        };
        let rid = self.next_rid;
        self.next_rid += 1;
        let lease_s = (self.cfg.registration_lease.as_millis() / 1000).max(1) as u32;
        let msg = SdMessage::Register {
            rid,
            record: p.desc.clone(),
            lease_s,
        };
        ctx.send(Destination::Unicast(scm), self.port, msg.encode());
        self.stats.registrations_sent += 1;
        self.pending_regs.insert(
            rid,
            PendingReg {
                stype: stype.clone(),
            },
        );
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
            if self.expiry_timers.insert(due) {
                self.arm(ctx, delay, TimerPurpose::CacheExpiry(due));
            }
        }
    }

    /// Detects a name conflict: another provider claims an instance name
    /// we are publishing. Resolves by renaming (mDNS appends a counter),
    /// emitting `sd_name_conflict`, and restarting the establish cycle.
    fn check_name_conflict(&mut self, ctx: &mut AgentCtx, record: &ServiceDescription) {
        if record.is_goodbye() || record.provider == ctx.node() {
            return;
        }
        let Some(p) = self.publications.get_mut(&record.stype) else {
            return;
        };
        if p.desc.instance != record.instance || p.desc.provider == record.provider {
            return;
        }
        // Tie-break: the lexicographically greater (instance, node) yields
        // — deterministic, so exactly one side renames.
        let ours = (p.desc.instance.clone(), ctx.node().0);
        let theirs = (record.instance.clone(), record.provider.0);
        if ours < theirs {
            return; // we keep the name; the other side renames
        }
        let old = p.desc.instance.clone();
        let new = format!("{old}-{}", ctx.node().0 + 2);
        let announce_count = self.cfg.announce_count;
        let announce_interval = self.cfg.announce_interval;
        let probing = matches!(
            self.cfg.architecture,
            crate::model::Architecture::TwoParty | crate::model::Architecture::Hybrid
        ) && self.cfg.probe_before_announce;
        let probe_count = self.cfg.probe_count;
        p.desc.instance = new.clone();
        p.announces_left = announce_count;
        p.next_interval = announce_interval;
        p.registered = false;
        p.probes_left = if probing { probe_count } else { 0 };
        self.stats.name_conflicts += 1;
        let stype = record.stype.clone();
        ctx.emit(
            "sd_name_conflict",
            [("old", old), ("new", new), ("stype", stype.0.clone())],
        );
        if self.uses_multicast() {
            if probing {
                self.arm(ctx, SimDuration::ZERO, TimerPurpose::Probe(stype));
            } else {
                self.arm(
                    ctx,
                    self.cfg.first_announce_delay,
                    TimerPurpose::Announce(stype),
                );
            }
        }
    }

    fn absorb_records<R>(&mut self, ctx: &mut AgentCtx, records: R)
    where
        R: AsRef<[ServiceDescription]> + IntoIterator<Item = ServiceDescription>,
    {
        for r in records.as_ref() {
            self.check_name_conflict(ctx, r);
        }
        for r in records {
            if !self.searches.contains_key(&r.stype) {
                // No event reports the change, so the cache keeps the
                // decoded record itself.
                self.cache.merge_owned(r, ctx.now());
                continue;
            }
            match self.cache.merge(&r, ctx.now()) {
                CacheChange::Added => self.emit_service_event(ctx, "sd_service_add", &r),
                CacheChange::Updated => self.emit_service_event(ctx, "sd_service_upd", &r),
                CacheChange::Removed => self.emit_service_event(ctx, "sd_service_del", &r),
                CacheChange::Refreshed | CacheChange::Ignored => {}
            }
        }
        self.rearm_cache_expiry(ctx);
    }

    fn handle_query(
        &mut self,
        ctx: &mut AgentCtx,
        qid: u64,
        stype: &ServiceType,
        known: &[String],
    ) {
        // Only publishing SMs answer multicast queries; SCMs answer only
        // directed queries (three-party discovery is directed by design).
        let Some(p) = self.publications.get(stype) else {
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
        let records = vec![p.desc.clone()];
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
        stype: &ServiceType,
        from: NodeId,
    ) {
        if self.role != Some(Role::CacheManager) {
            return;
        }
        let records: Vec<ServiceDescription> = self
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
        lease_s: u32,
        from: NodeId,
    ) {
        if self.role != Some(Role::CacheManager) {
            return;
        }
        let mut leased = record.clone();
        leased.ttl_s = lease_s;
        let change = self.registry.merge_owned(leased, ctx.now());
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

    fn handle_deregister(&mut self, ctx: &mut AgentCtx, instance: &str, stype: &ServiceType) {
        if self.role != Some(Role::CacheManager) {
            return;
        }
        let mut goodbye = ServiceDescription::new(instance.to_string(), stype.clone(), NodeId(0));
        goodbye.ttl_s = 0;
        if self.registry.merge(&goodbye, SimTime::ZERO) == CacheChange::Removed {
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
            let stypes: Vec<ServiceType> = self
                .publications
                .iter()
                .filter(|(_, p)| !p.registered)
                .map(|(st, _)| st.clone())
                .collect();
            for st in stypes {
                self.register_publication(ctx, &st);
            }
            // Fire directed queries for ongoing searches immediately.
            let searching: Vec<ServiceType> = self.searches.keys().cloned().collect();
            for st in searching {
                let qid = self.alloc_qid(ctx);
                let msg = SdMessage::DirectedQuery { qid, stype: st };
                ctx.send(Destination::Unicast(scm), self.port, msg.encode());
                self.stats.directed_queries_sent += 1;
            }
        }
    }
}

impl Agent for SdAgent {
    fn on_packet(&mut self, ctx: &mut AgentCtx, pkt: &Packet) {
        let Some(msg) = SdMessage::decode(pkt.payload.as_bytes()) else {
            return; // garbage is dropped, as a real stack would
        };
        match msg {
            SdMessage::Query { qid, stype, known } => self.handle_query(ctx, qid, &stype, &known),
            SdMessage::Response { qid: _, records } => self.absorb_records(ctx, records),
            SdMessage::Announce { record } => self.absorb_records(ctx, [record]),
            SdMessage::ScmAdvert { scm } => self.handle_scm_advert(ctx, scm),
            SdMessage::Register {
                rid,
                record,
                lease_s,
            } => self.handle_register(ctx, rid, &record, lease_s, pkt.src),
            SdMessage::RegisterAck { rid } => {
                if let Some(pending) = self.pending_regs.remove(&rid) {
                    if let Some(p) = self.publications.get_mut(&pending.stype) {
                        p.registered = true;
                    }
                    // Refresh before the lease expires.
                    let refresh = self.cfg.registration_lease.mul_f64(0.5);
                    self.arm(ctx, refresh, TimerPurpose::RegRefresh(pending.stype));
                }
            }
            SdMessage::Deregister { instance, stype } => {
                self.handle_deregister(ctx, &instance, &stype)
            }
            SdMessage::DirectedQuery { qid, stype } => {
                self.handle_directed_query(ctx, qid, &stype, pkt.src)
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx, token: u64) {
        let Some(purpose) = self.timers.remove(&token) else {
            return; // cancelled or superseded
        };
        match purpose {
            TimerPurpose::Announce(stype) => {
                let Some(p) = self.publications.get_mut(&stype) else {
                    return;
                };
                if p.announces_left == 0 {
                    return;
                }
                p.announces_left -= 1;
                let record = p.desc.clone();
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
            TimerPurpose::QueryRetry(stype) => {
                if !self.searches.contains_key(&stype) {
                    return;
                }
                self.send_query(ctx, &stype);
                let s = self.searches.get_mut(&stype).unwrap();
                let interval = s.current_interval;
                let next = s.current_interval.mul_f64(self.cfg.query_backoff);
                s.current_interval = next.min(self.cfg.max_query_interval);
                self.arm(ctx, interval, TimerPurpose::QueryRetry(stype));
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
                let Some(p) = self.publications.get_mut(&stype) else {
                    return;
                };
                if p.probes_left == 0 {
                    return; // superseded (e.g. renamed meanwhile)
                }
                p.probes_left -= 1;
                let remaining = p.probes_left;
                let qid = self.alloc_qid(ctx);
                let msg = SdMessage::Query {
                    qid,
                    stype: stype.clone(),
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
                let lapsed = self.cache.expire(ctx.now());
                for d in lapsed {
                    if self.searches.contains_key(&d.stype) {
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
                if let Some(pending) = self.pending_regs.remove(&rid) {
                    // Not acked in time: re-register from scratch.
                    self.register_publication(ctx, &pending.stype);
                }
            }
            TimerPurpose::RegRefresh(stype) => {
                if self.publications.contains_key(&stype) {
                    self.register_publication(ctx, &stype);
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
                agent.as_any_mut().downcast_ref::<SdAgent>().unwrap().role()
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
