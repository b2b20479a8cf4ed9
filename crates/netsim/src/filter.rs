//! Packet filter rules — the mechanism behind ExCovery's communication
//! fault injections (§IV-D1).
//!
//! Rules are attached to a node and consulted on every packet crossing that
//! node's interface, in the given [`Direction`]. The rule set covers exactly
//! the paper's fault list: interface fault, message loss, message delay, and
//! the path-selective variants of loss and delay.

use crate::sim::NodeId;
use crate::time::SimDuration;
use excovery_rng::Rng;

/// Traffic direction a rule applies to, relative to the filtered node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Only packets being received.
    Receive,
    /// Only packets being transmitted.
    Transmit,
    /// Both directions.
    Both,
}

impl Direction {
    /// True if a rule with this direction applies to traffic flowing in
    /// `actual` (which is never `Both`).
    pub(crate) fn matches(self, actual: Direction) -> bool {
        self == Direction::Both || self == actual
    }
}

/// Identifier of an installed rule, used to remove it when the fault stops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RuleId(pub u64);

/// A communication fault rule (paper §IV-D1).
#[derive(Debug, Clone, PartialEq)]
pub enum FilterRule {
    /// **Interface fault**: no messages pass in the given direction.
    InterfaceDown {
        /// Affected direction.
        direction: Direction,
    },
    /// **Message loss**: each packet is dropped with `probability`.
    MessageLoss {
        /// Drop probability in `[0, 1]`.
        probability: f64,
        /// Affected direction.
        direction: Direction,
    },
    /// **Message delay**: every packet is delayed by a constant amount.
    MessageDelay {
        /// Added delay.
        delay: SimDuration,
        /// Affected direction.
        direction: Direction,
    },
    /// **Path loss**: message loss affecting only traffic with `peer`.
    PathLoss {
        /// The second node of the affected path.
        peer: NodeId,
        /// Drop probability in `[0, 1]`.
        probability: f64,
        /// Affected direction.
        direction: Direction,
    },
    /// **Path delay**: message delay affecting only traffic with `peer`.
    PathDelay {
        /// The second node of the affected path.
        peer: NodeId,
        /// Added delay.
        delay: SimDuration,
        /// Affected direction.
        direction: Direction,
    },
}

impl FilterRule {
    fn direction(&self) -> Direction {
        match self {
            FilterRule::InterfaceDown { direction }
            | FilterRule::MessageLoss { direction, .. }
            | FilterRule::MessageDelay { direction, .. }
            | FilterRule::PathLoss { direction, .. }
            | FilterRule::PathDelay { direction, .. } => *direction,
        }
    }
}

/// Result of passing a packet through a rule set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// Deliver, possibly after an additional delay.
    Pass {
        /// Extra delay accumulated from delay rules.
        extra_delay: SimDuration,
    },
    /// Drop the packet.
    Drop,
}

/// An ordered set of filter rules installed on one node.
#[derive(Debug, Clone, Default)]
pub(crate) struct FilterSet {
    rules: Vec<(RuleId, FilterRule)>,
    next_id: u64,
}

impl FilterSet {
    /// Creates an empty set.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Installs a rule, returning its id for later removal.
    pub(crate) fn install(&mut self, rule: FilterRule) -> RuleId {
        let id = RuleId(self.next_id);
        self.next_id += 1;
        self.rules.push((id, rule));
        id
    }

    /// Removes a rule; returns true if it was present.
    pub(crate) fn remove(&mut self, id: RuleId) -> bool {
        let before = self.rules.len();
        self.rules.retain(|(rid, _)| *rid != id);
        self.rules.len() != before
    }

    /// Removes all rules (end-of-run clean-up).
    pub(crate) fn clear(&mut self) {
        self.rules.clear();
    }

    /// True if no rules are installed.
    pub(crate) fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Evaluates the rule set for a packet travelling in `direction`
    /// between the filtered node and `peer` (the other endpoint; for
    /// multicast, the relevant neighbour). Probabilistic rules draw from
    /// `rng` — callers pass a seeded stream so verdicts are reproducible.
    pub(crate) fn evaluate(
        &self,
        direction: Direction,
        peer: Option<NodeId>,
        rng: &mut impl Rng,
    ) -> Verdict {
        let mut extra_delay = SimDuration::ZERO;
        for (_, rule) in &self.rules {
            if !rule.direction().matches(direction) {
                continue;
            }
            match rule {
                FilterRule::InterfaceDown { .. } => return Verdict::Drop,
                FilterRule::MessageLoss { probability, .. } => {
                    if rng.gen::<f64>() < *probability {
                        return Verdict::Drop;
                    }
                }
                FilterRule::MessageDelay { delay, .. } => extra_delay += *delay,
                FilterRule::PathLoss {
                    peer: p,
                    probability,
                    ..
                } => {
                    if peer == Some(*p) && rng.gen::<f64>() < *probability {
                        return Verdict::Drop;
                    }
                }
                FilterRule::PathDelay { peer: p, delay, .. } => {
                    if peer == Some(*p) {
                        extra_delay += *delay;
                    }
                }
            }
        }
        Verdict::Pass { extra_delay }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use excovery_rng::StdRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1)
    }

    #[test]
    fn empty_set_passes_everything() {
        let f = FilterSet::new();
        assert_eq!(
            f.evaluate(Direction::Receive, None, &mut rng()),
            Verdict::Pass {
                extra_delay: SimDuration::ZERO
            }
        );
    }

    #[test]
    fn interface_down_blocks_matching_direction_only() {
        let mut f = FilterSet::new();
        f.install(FilterRule::InterfaceDown {
            direction: Direction::Transmit,
        });
        assert_eq!(
            f.evaluate(Direction::Transmit, None, &mut rng()),
            Verdict::Drop
        );
        assert!(matches!(
            f.evaluate(Direction::Receive, None, &mut rng()),
            Verdict::Pass { .. }
        ));
    }

    #[test]
    fn both_direction_matches_either() {
        let mut f = FilterSet::new();
        f.install(FilterRule::InterfaceDown {
            direction: Direction::Both,
        });
        assert_eq!(
            f.evaluate(Direction::Transmit, None, &mut rng()),
            Verdict::Drop
        );
        assert_eq!(
            f.evaluate(Direction::Receive, None, &mut rng()),
            Verdict::Drop
        );
    }

    #[test]
    fn message_loss_is_probabilistic() {
        let mut f = FilterSet::new();
        f.install(FilterRule::MessageLoss {
            probability: 0.5,
            direction: Direction::Both,
        });
        let mut r = rng();
        let drops = (0..10_000)
            .filter(|_| f.evaluate(Direction::Receive, None, &mut r) == Verdict::Drop)
            .count();
        assert!((4_500..5_500).contains(&drops), "drops={drops}");
    }

    #[test]
    fn loss_probability_zero_and_one() {
        let mut f = FilterSet::new();
        let id = f.install(FilterRule::MessageLoss {
            probability: 0.0,
            direction: Direction::Both,
        });
        let mut r = rng();
        assert!(matches!(
            f.evaluate(Direction::Receive, None, &mut r),
            Verdict::Pass { .. }
        ));
        f.remove(id);
        f.install(FilterRule::MessageLoss {
            probability: 1.0,
            direction: Direction::Both,
        });
        assert_eq!(f.evaluate(Direction::Receive, None, &mut r), Verdict::Drop);
    }

    #[test]
    fn delays_accumulate() {
        let mut f = FilterSet::new();
        f.install(FilterRule::MessageDelay {
            delay: SimDuration::from_millis(10),
            direction: Direction::Both,
        });
        f.install(FilterRule::MessageDelay {
            delay: SimDuration::from_millis(5),
            direction: Direction::Both,
        });
        assert_eq!(
            f.evaluate(Direction::Transmit, None, &mut rng()),
            Verdict::Pass {
                extra_delay: SimDuration::from_millis(15)
            }
        );
    }

    #[test]
    fn path_rules_only_affect_named_peer() {
        let mut f = FilterSet::new();
        f.install(FilterRule::PathLoss {
            peer: NodeId(3),
            probability: 1.0,
            direction: Direction::Both,
        });
        f.install(FilterRule::PathDelay {
            peer: NodeId(4),
            delay: SimDuration::from_millis(7),
            direction: Direction::Both,
        });
        let mut r = rng();
        assert_eq!(
            f.evaluate(Direction::Transmit, Some(NodeId(3)), &mut r),
            Verdict::Drop
        );
        assert_eq!(
            f.evaluate(Direction::Transmit, Some(NodeId(4)), &mut r),
            Verdict::Pass {
                extra_delay: SimDuration::from_millis(7)
            }
        );
        assert_eq!(
            f.evaluate(Direction::Transmit, Some(NodeId(9)), &mut r),
            Verdict::Pass {
                extra_delay: SimDuration::ZERO
            }
        );
    }

    #[test]
    fn remove_and_clear() {
        let mut f = FilterSet::new();
        let a = f.install(FilterRule::InterfaceDown {
            direction: Direction::Both,
        });
        assert!(!f.is_empty());
        assert!(f.remove(a));
        assert!(!f.remove(a), "second removal must report absence");
        f.install(FilterRule::InterfaceDown {
            direction: Direction::Both,
        });
        f.install(FilterRule::InterfaceDown {
            direction: Direction::Both,
        });
        f.clear();
        assert!(f.is_empty());
    }
}
