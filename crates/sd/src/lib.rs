//! # excovery-sd
//!
//! The service-discovery substrate of the case study (paper §III and §V).
//!
//! Implements the general SD model of Dabrowski et al. with the three roles
//! *service user* (SU), *service manager* (SM) and *service cache manager*
//! (SCM), in three architectures:
//!
//! * **two-party** (decentralized): an mDNS/Zeroconf-like protocol on port
//!   5353 — unsolicited multicast announcements, multicast queries with
//!   exponential backoff, multicast responses with jitter, TTL caches,
//!   known-answer suppression and goodbye packets;
//! * **three-party** (centralized): an SLP-like directory protocol on port
//!   427 — SCM adverts, unicast registrations with acknowledgement and
//!   lease refresh, directed queries;
//! * **hybrid**: both at once, preferring the SCM once discovered.
//!
//! Like the paper's modified Avahi, responses carry the id of the query
//! they answer, so request/response pairs can be associated in packet-level
//! analysis (§VI-A).
//!
//! The protocols run as [`excovery_netsim::Agent`]s; the SD actions of §V
//! (`Init SD`, `Start searching`, …) are issued through [`control`] and
//! surface the paper's events (`sd_init_done`, `sd_service_add`, …) via the
//! simulator's protocol-event stream.

pub mod agent;
pub mod cache;
pub mod control;
pub mod model;
pub mod wire;

pub use agent::SdAgent;
pub use control::{sd_command, SdCommand};
pub use model::{Architecture, Role, SdConfig, ServiceDescription, ServiceType};
pub use wire::SdMessage;

/// Port the SD agent binds in this implementation (both protocols are
/// multiplexed by message type; the agent listens on one port).
pub const SD_PORT: u16 = 5353;
