//! SD roles, service descriptions and protocol configuration.

use excovery_netsim::{NodeId, SimDuration};

/// The role a node plays in the SD process (Dabrowski taxonomy, §III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Service user: discovers services on behalf of a user.
    ServiceUser,
    /// Service manager: publishes services on behalf of a provider.
    ServiceManager,
    /// Service cache manager: caches descriptions of multiple SMs.
    CacheManager,
}

impl Role {
    /// The role string used in descriptions and events.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Role::ServiceUser => "SU",
            Role::ServiceManager => "SM",
            Role::CacheManager => "SCM",
        }
    }

    /// Parses a role string (`SU`, `SM`, `SCM`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "SU" => Some(Role::ServiceUser),
            "SM" => Some(Role::ServiceManager),
            "SCM" => Some(Role::CacheManager),
            _ => None,
        }
    }
}

/// The discovery architecture (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Architecture {
    /// Decentralized: SUs and SMs communicate directly (multicast).
    TwoParty,
    /// Centralized: discovery via one or more SCMs (directed).
    ThreeParty,
    /// Adaptive: two-party until an SCM is discovered at runtime.
    Hybrid,
}

impl Architecture {
    /// Parses an architecture string.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "two-party" => Some(Architecture::TwoParty),
            "three-party" => Some(Architecture::ThreeParty),
            "hybrid" => Some(Architecture::Hybrid),
            _ => None,
        }
    }
}

/// An abstract service class, e.g. `_http._tcp`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceType(pub String);

impl ServiceType {
    /// Creates a service type.
    pub fn new(s: impl Into<String>) -> Self {
        Self(s.into())
    }
}

impl std::fmt::Display for ServiceType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A concrete service instance description (§III-A): SM identity, type,
/// interface location and optional attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceDescription {
    /// Instance name — the SM identity (unique per provider).
    pub instance: String,
    /// Service type provided.
    pub stype: ServiceType,
    /// Network address of the provider.
    pub provider: NodeId,
    /// Service port at the provider.
    pub service_port: u16,
    /// Additional attributes (TXT-record style).
    pub attributes: Vec<(String, String)>,
    /// Record time-to-live in seconds (0 announces a removal — "goodbye").
    pub ttl_s: u32,
}

impl ServiceDescription {
    /// Creates a plain description with the default TTL of 120 s
    /// (mDNS's common value for host records).
    pub fn new(instance: impl Into<String>, stype: ServiceType, provider: NodeId) -> Self {
        Self {
            instance: instance.into(),
            stype,
            provider,
            service_port: 80,
            attributes: Vec::new(),
            ttl_s: 120,
        }
    }

    /// The same record with TTL 0 — the goodbye form.
    pub(crate) fn goodbye(&self) -> Self {
        Self {
            ttl_s: 0,
            ..self.clone()
        }
    }

    /// True if this record announces removal.
    pub(crate) fn is_goodbye(&self) -> bool {
        self.ttl_s == 0
    }
}

/// Tunable protocol parameters.
///
/// Defaults follow mDNS (RFC 6762) and SLP conventions scaled to the
/// experiment timescales of the paper's case study.
#[derive(Debug, Clone)]
pub struct SdConfig {
    /// Discovery architecture.
    pub architecture: Architecture,
    /// Delay before the first unsolicited announcement of a publication.
    pub first_announce_delay: SimDuration,
    /// Number of unsolicited announcements per publication.
    pub announce_count: u32,
    /// Interval between unsolicited announcements (doubles each time,
    /// mDNS-style).
    pub announce_interval: SimDuration,
    /// Delay of the first query after `Start searching`.
    pub first_query_delay: SimDuration,
    /// Interval after the first query; multiplied by `query_backoff` after
    /// each retransmission.
    pub query_interval: SimDuration,
    /// Backoff multiplier for successive queries (mDNS: 2.0).
    pub query_backoff: f64,
    /// Queries never space out further than this.
    pub max_query_interval: SimDuration,
    /// Maximum random response jitter of responders (mDNS: 20–120 ms for
    /// shared records; we draw uniform in [0, max]).
    pub response_jitter_max: SimDuration,
    /// Interval of SCM presence adverts (three-party/hybrid).
    pub scm_advert_interval: SimDuration,
    /// Registration lease granted by SCMs.
    pub registration_lease: SimDuration,
    /// Retransmission interval for unacknowledged registrations.
    pub registration_retry: SimDuration,
    /// Known-answer suppression: responders stay quiet if the query lists
    /// their record (with TTL above half) as already known.
    pub known_answer_suppression: bool,
    /// Probe for name uniqueness before announcing (RFC 6762 §8.1-style):
    /// the publisher queries for its own instance and renames on conflict.
    pub probe_before_announce: bool,
    /// Number of probes sent before the name is considered won.
    pub probe_count: u32,
    /// Interval between probes (mDNS: 250 ms).
    pub probe_interval: SimDuration,
}

impl Default for SdConfig {
    fn default() -> Self {
        Self {
            architecture: Architecture::TwoParty,
            first_announce_delay: SimDuration::from_millis(50),
            announce_count: 3,
            announce_interval: SimDuration::from_secs(1),
            first_query_delay: SimDuration::from_millis(20),
            query_interval: SimDuration::from_secs(1),
            query_backoff: 2.0,
            max_query_interval: SimDuration::from_secs(60),
            response_jitter_max: SimDuration::from_millis(120),
            scm_advert_interval: SimDuration::from_secs(3),
            registration_lease: SimDuration::from_secs(60),
            registration_retry: SimDuration::from_millis(500),
            known_answer_suppression: true,
            probe_before_announce: false,
            probe_count: 3,
            probe_interval: SimDuration::from_millis(250),
        }
    }
}

impl SdConfig {
    /// Two-party defaults.
    pub fn two_party() -> Self {
        Self::default()
    }

    /// Three-party defaults.
    pub fn three_party() -> Self {
        Self {
            architecture: Architecture::ThreeParty,
            ..Self::default()
        }
    }

    /// Hybrid defaults.
    pub fn hybrid() -> Self {
        Self {
            architecture: Architecture::Hybrid,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_roundtrip() {
        for r in [Role::ServiceUser, Role::ServiceManager, Role::CacheManager] {
            assert_eq!(Role::parse(r.as_str()), Some(r));
        }
        assert_eq!(Role::parse("XX"), None);
    }

    #[test]
    fn architecture_parses() {
        for (s, a) in [
            ("two-party", Architecture::TwoParty),
            ("three-party", Architecture::ThreeParty),
            ("hybrid", Architecture::Hybrid),
        ] {
            assert_eq!(Architecture::parse(s), Some(a));
        }
        assert_eq!(Architecture::parse("four-party"), None);
    }

    #[test]
    fn goodbye_semantics() {
        let d = ServiceDescription::new("web-1", ServiceType::new("_http._tcp"), NodeId(3));
        assert!(!d.is_goodbye());
        let g = d.goodbye();
        assert!(g.is_goodbye());
        assert_eq!(g.instance, d.instance);
        assert_eq!(g.stype, d.stype);
    }

    #[test]
    fn config_presets() {
        assert_eq!(SdConfig::two_party().architecture, Architecture::TwoParty);
        assert_eq!(
            SdConfig::three_party().architecture,
            Architecture::ThreeParty
        );
        assert_eq!(SdConfig::hybrid().architecture, Architecture::Hybrid);
    }

    #[test]
    fn service_type_display() {
        assert_eq!(ServiceType::new("_ipp._tcp").to_string(), "_ipp._tcp");
    }
}
