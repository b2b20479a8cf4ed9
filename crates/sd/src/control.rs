//! External control of SD agents — the SD actions of paper §V.
//!
//! The NodeManager receives `sd_*` actions over XML-RPC and must drive its
//! local protocol agent. [`sd_command`] delivers such a command into the
//! agent installed on a simulator node, between event-loop steps.

use crate::agent::SdAgent;
use crate::model::{Role, ServiceDescription, ServiceType};
use crate::SD_PORT;
use excovery_netsim::{NodeId, Simulator};

/// The SD actions a node process can execute (paper §V).
#[derive(Debug, Clone, PartialEq)]
pub enum SdCommand {
    /// `Init SD` with the node's role.
    Init(Role),
    /// `Exit SD`.
    Exit,
    /// `Start searching` for a service type.
    StartSearch(ServiceType),
    /// `Stop searching` for a service type.
    StopSearch(ServiceType),
    /// `Start publishing` a service instance.
    StartPublish(ServiceDescription),
    /// `Stop publishing` a service type.
    StopPublish(ServiceType),
    /// `Update publication` with a changed description.
    UpdatePublication(ServiceDescription),
}

/// Applies a command to the SD agent on `node` (port [`SD_PORT`]).
///
/// Returns `false` if no SD agent is installed there.
pub fn sd_command(sim: &mut Simulator, node: NodeId, cmd: SdCommand) -> bool {
    sd_command_on_port(sim, node, SD_PORT, cmd)
}

/// Applies a command to the SD agent on an explicit port.
pub(crate) fn sd_command_on_port(
    sim: &mut Simulator,
    node: NodeId,
    port: u16,
    cmd: SdCommand,
) -> bool {
    sim.with_agent_mut(node, port, move |agent, ctx| {
        let Some(sd) = agent.as_any_mut().downcast_mut::<SdAgent>() else {
            return false;
        };
        match cmd {
            SdCommand::Init(role) => sd.sd_init(ctx, role),
            SdCommand::Exit => sd.sd_exit(ctx),
            SdCommand::StartSearch(st) => sd.start_search(ctx, st),
            SdCommand::StopSearch(st) => sd.stop_search(ctx, &st),
            SdCommand::StartPublish(desc) => sd.start_publish(ctx, desc),
            SdCommand::StopPublish(st) => sd.stop_publish(ctx, &st),
            SdCommand::UpdatePublication(desc) => sd.update_publication(ctx, desc),
        }
        true
    })
    .unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SdConfig;
    use excovery_netsim::sim::SimulatorConfig;
    use excovery_netsim::topology::Topology;

    #[test]
    fn command_to_empty_node_returns_false() {
        let mut sim = Simulator::new(Topology::chain(2), SimulatorConfig::perfect_clocks(1));
        assert!(!sd_command(&mut sim, NodeId(0), SdCommand::Exit));
    }

    #[test]
    fn command_to_wrong_agent_type_returns_false() {
        struct Other;
        impl excovery_netsim::Agent for Other {
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }
        let mut sim = Simulator::new(Topology::chain(1), SimulatorConfig::perfect_clocks(1));
        sim.install_agent(NodeId(0), SD_PORT, Box::new(Other));
        assert!(!sd_command(&mut sim, NodeId(0), SdCommand::Exit));
    }

    #[test]
    fn command_reaches_agent() {
        let mut sim = Simulator::new(Topology::chain(1), SimulatorConfig::perfect_clocks(1));
        sim.install_agent(
            NodeId(0),
            SD_PORT,
            Box::new(SdAgent::new(SdConfig::two_party(), SD_PORT)),
        );
        assert!(sd_command(
            &mut sim,
            NodeId(0),
            SdCommand::Init(Role::ServiceUser)
        ));
        let evts = sim.drain_protocol_events();
        assert!(evts.iter().any(|e| e.name == "sd_init_done"));
    }
}
