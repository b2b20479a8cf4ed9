//! Constant-bit-rate (CBR) traffic agents.
//!
//! The load-based [`crate::traffic::TrafficGenerator`] models the *effect*
//! of background flows on the channel; this module additionally puts real
//! packets on the simulated medium, as the prototype's traffic generator
//! does between its node pairs (§IV-D2). Because every transmission is
//! stamped by the sending node's 16-bit tagger, the resulting captures let
//! the analysis reconstruct per-path loss from tag gaps — the purpose of
//! the packet tagger (§VI-A).

use crate::packet::{Destination, Payload, Port};
use crate::sim::{Agent, AgentCtx, NodeId, Simulator};
use crate::time::SimDuration;

/// Well-known base port of CBR flows (one port per flow).
pub(crate) const CBR_BASE_PORT: Port = 40_000;

/// A unidirectional CBR sender: `size_bytes` to `peer` every `interval`.
pub(crate) struct CbrSender {
    peer: NodeId,
    port: Port,
    interval: SimDuration,
    payload: Vec<u8>,
    seq: u32,
    running: bool,
}

const TIMER_TICK: u64 = 1;

impl CbrSender {
    /// Creates a sender for one flow.
    pub(crate) fn new(peer: NodeId, port: Port, rate_kbps: f64, size_bytes: usize) -> Self {
        let bits_per_packet = (size_bytes.max(1) * 8) as f64;
        let packets_per_sec = (rate_kbps * 1_000.0 / bits_per_packet).max(0.1);
        Self {
            peer,
            port,
            interval: SimDuration::from_secs_f64(1.0 / packets_per_sec),
            payload: vec![0xCB; size_bytes.max(1)],
            seq: 0,
            running: true,
        }
    }

    fn send_one(&mut self, ctx: &mut AgentCtx) {
        // A sequence number in the payload keeps packets distinct so
        // payload-matching analyses can pair send/receive observations.
        let mut data = self.payload.clone();
        let seq = self.seq.to_be_bytes();
        let n = 4.min(data.len());
        data[..n].copy_from_slice(&seq[..n]);
        self.seq = self.seq.wrapping_add(1);
        ctx.send(
            Destination::Unicast(self.peer),
            self.port,
            Payload::new(data),
        );
        ctx.set_timer(self.interval, TIMER_TICK);
    }
}

impl Agent for CbrSender {
    fn on_start(&mut self, ctx: &mut AgentCtx) {
        self.send_one(ctx);
    }

    fn on_timer(&mut self, ctx: &mut AgentCtx, token: u64) {
        if token == TIMER_TICK && self.running {
            self.send_one(ctx);
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A sink agent that accepts CBR packets (so deliveries count and the
/// receiving node records `Received` captures rather than `Forwarded`).
pub(crate) struct CbrSink;

impl Agent for CbrSink {
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Installs bidirectional CBR flows for the given pairs. Flow `i` uses
/// ports `CBR_BASE_PORT + 2i` (a→b) and `CBR_BASE_PORT + 2i + 1` (b→a).
/// Returns the ports used (for later removal).
pub fn install_cbr_flows(
    sim: &mut Simulator,
    pairs: &[(NodeId, NodeId)],
    rate_kbps: f64,
    size_bytes: usize,
) -> Vec<(NodeId, Port)> {
    let mut installed = Vec::new();
    for (i, &(a, b)) in pairs.iter().enumerate() {
        let port_ab = CBR_BASE_PORT + (2 * i) as u16;
        let port_ba = port_ab + 1;
        sim.install_agent(b, port_ab, Box::new(CbrSink));
        sim.install_agent(a, port_ba, Box::new(CbrSink));
        sim.install_agent(
            a,
            port_ab,
            Box::new(CbrSender::new(b, port_ab, rate_kbps, size_bytes)),
        );
        sim.install_agent(
            b,
            port_ba,
            Box::new(CbrSender::new(a, port_ba, rate_kbps, size_bytes)),
        );
        installed.extend([(a, port_ab), (b, port_ab), (a, port_ba), (b, port_ba)]);
    }
    installed
}

/// Removes previously installed CBR agents (pending sends drain naturally).
pub fn remove_cbr_flows(sim: &mut Simulator, installed: &[(NodeId, Port)]) {
    for &(node, port) in installed {
        sim.remove_agent(node, port);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::CaptureKind;
    use crate::link::LinkModel;
    use crate::sim::SimulatorConfig;
    use crate::tagger::analyze_stream;
    use crate::topology::Topology;

    fn sim(loss: f64, seed: u64) -> Simulator {
        let cfg = SimulatorConfig {
            link_model: LinkModel {
                base_loss: loss,
                ..LinkModel::default()
            },
            ..SimulatorConfig::perfect_clocks(seed)
        };
        Simulator::new(Topology::chain(2), cfg)
    }

    #[test]
    fn cbr_rate_matches_configuration() {
        let mut s = sim(0.0, 1);
        // 80 kbit/s at 1000-byte packets = 10 packets/s.
        install_cbr_flows(&mut s, &[(NodeId(0), NodeId(1))], 80.0, 1_000);
        s.run_for(SimDuration::from_secs(10));
        let sent_a = s
            .captures(NodeId(0))
            .iter()
            .filter(|c| c.kind == CaptureKind::Sent)
            .count();
        assert!(
            (95..=105).contains(&sent_a),
            "≈100 packets in 10 s, got {sent_a}"
        );
    }

    #[test]
    fn flows_are_bidirectional_and_received() {
        let mut s = sim(0.0, 2);
        install_cbr_flows(&mut s, &[(NodeId(0), NodeId(1))], 100.0, 500);
        s.run_for(SimDuration::from_secs(2));
        for n in [0u16, 1] {
            let received = s
                .captures(NodeId(n))
                .iter()
                .filter(|c| c.kind == CaptureKind::Received)
                .count();
            assert!(received > 10, "node {n} received {received}");
        }
        assert!(s.stats().delivered > 20);
    }

    #[test]
    fn tag_gaps_reconstruct_injected_loss() {
        let mut s = sim(0.3, 3);
        install_cbr_flows(&mut s, &[(NodeId(0), NodeId(1))], 400.0, 500);
        s.run_for(SimDuration::from_secs(30));
        // Observed tags at the receiver, one stream per direction; node 0's
        // tagger stamps both its flows, so collect only port-ab packets.
        let tags: Vec<u16> = s
            .captures(NodeId(1))
            .iter()
            .filter(|c| c.kind == CaptureKind::Received && c.src == NodeId(0))
            .map(|c| c.tag)
            .collect();
        assert!(tags.len() > 100, "need a long stream, got {}", tags.len());
        let stats = analyze_stream(tags.iter().copied());
        let loss = stats.loss_ratio();
        assert!(
            (0.2..0.4).contains(&loss),
            "tag-gap loss estimate {loss} should be near the injected 0.3"
        );
    }

    #[test]
    fn removal_stops_the_flows() {
        let mut s = sim(0.0, 4);
        let installed = install_cbr_flows(&mut s, &[(NodeId(0), NodeId(1))], 100.0, 500);
        s.run_for(SimDuration::from_secs(1));
        remove_cbr_flows(&mut s, &installed);
        s.run_until_idle(100_000);
        let before = s.stats().sent;
        s.run_for(SimDuration::from_secs(2));
        assert_eq!(s.stats().sent, before, "no sends after removal");
    }
}
