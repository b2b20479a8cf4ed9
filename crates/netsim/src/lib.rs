//! # excovery-netsim
//!
//! A deterministic discrete-event network simulator that stands in for the
//! wireless DES testbed used by the ExCovery paper (§IV-A, §VI).
//!
//! The paper's platform requirements are all provided here:
//!
//! * **Experiment management** — the simulator is driven in-process, which is
//!   the "separate and reliable communication channel" of a simulator
//!   platform; experiment control never shares the simulated medium.
//! * **Connection control** — interfaces can be activated/deactivated per
//!   direction, and packets can be dropped, delayed or restricted per peer
//!   through [`filter`] rules (the paper's fault-injection mechanisms).
//! * **Measurement** — every node records packet [`capture`]s with local
//!   (drifting) timestamps, a 16-bit incrementing packet [`tagger`] mirrors
//!   the prototype's IP-option tagger, per-node clocks expose a
//!   quantifiable synchronization error, and hop counts are measured from
//!   the [`topology`].
//!
//! The wireless mesh is modelled as a unit-disk graph; unicast packets are
//! routed along shortest paths and multicast packets flood the mesh with
//! duplicate suppression, both with per-link loss and delay that grow with
//! background load (produced by the [`traffic`] generator). All randomness
//! comes from a single seeded PRNG, so a run is exactly repeatable — the
//! property ExCovery demands from its platforms (§IV-C1).

pub mod capture;
pub mod cbr;
mod clock;
pub mod event;
pub mod fasthash;
pub mod filter;
pub mod link;
pub(crate) mod mailbox;
pub mod packet;
mod params;
pub mod rng;
pub(crate) mod shard;
pub mod sim;
pub mod tagger;
pub mod time;
pub mod topology;
pub mod traffic;

pub use capture::CaptureRecord;
pub use filter::{Direction, FilterRule};
pub use packet::{Destination, Packet, PacketId, Payload, Port};
pub use params::{EventName, EventParams};
pub use sim::{Agent, AgentCtx, NodeId, Simulator, SimulatorConfig};
pub use time::{SimDuration, SimTime};
pub use topology::{RoutingTable, Topology};
