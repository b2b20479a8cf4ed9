//! Fault-injection envelopes and action parsing (paper §IV-D).
//!
//! "Fault injection processes can have common parameters describing their
//! temporal behavior: *duration*, *rate* and *randomseed*. The duration
//! specifies the amount of time a fault should be applied to the target.
//! The rate specifies a percentage of a given duration in which a fault is
//! active. The fault is active in one continuous block, its activation
//! time is chosen randomly using the randomseed."

use excovery_desc::factors::LevelValue;
use excovery_netsim::rng::derive_rng;
use excovery_netsim::{SimDuration, SimTime};
use excovery_rng::Rng;
use excovery_rpc::Value;
use std::collections::HashMap;

/// The temporal envelope of a fault action.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultEnvelope {
    /// Total span the fault is associated with; `None` = until stopped.
    pub duration: Option<SimDuration>,
    /// Fraction of `duration` the fault is active, in `(0, 1]`.
    pub rate: f64,
    /// Seed choosing the position of the active block.
    pub randomseed: u64,
}

impl Default for FaultEnvelope {
    fn default() -> Self {
        Self {
            duration: None,
            rate: 1.0,
            randomseed: 0,
        }
    }
}

impl FaultEnvelope {
    /// Computes the activation window relative to `now`.
    ///
    /// Returns `None` for unbounded faults (explicit stop required).
    /// With `rate < 1`, the active block of length `rate × duration`
    /// starts at a seeded-random offset within the duration.
    ///
    /// All arithmetic is checked: a window that would wrap past the end of
    /// representable simulated time (~584 years) is rejected as `None`
    /// rather than silently wrapping to the experiment epoch.
    pub fn activation_window(&self, now: SimTime) -> Option<(SimTime, SimTime)> {
        let duration = self.duration?;
        let rate = self.rate.clamp(0.0, 1.0);
        let active = duration.mul_f64(rate);
        let slack = duration.saturating_sub(active);
        let offset = if slack > SimDuration::ZERO {
            let mut rng = derive_rng(self.randomseed, "fault_window");
            SimDuration::from_nanos(rng.gen_range(0..=slack.as_nanos()))
        } else {
            SimDuration::ZERO
        };
        let start_ns = now.as_nanos().checked_add(offset.as_nanos())?;
        let stop_ns = start_ns.checked_add(active.as_nanos())?;
        Some((SimTime::from_nanos(start_ns), SimTime::from_nanos(stop_ns)))
    }
}

/// A parsed fault action, ready for the `fault_start` RPC.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedFault {
    /// Fault kind as understood by the NodeManager
    /// (`interface`, `message_loss`, `message_delay`, `path_loss`,
    /// `path_delay`).
    pub kind: String,
    /// The wire spec for `fault_start`.
    pub spec: Value,
    /// Temporal envelope.
    pub envelope: FaultEnvelope,
}

/// What a fault-named invoke means.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultInvoke {
    /// Start a fault.
    Start(ParsedFault),
    /// Stop the most recent fault of the given kind.
    Stop(String),
}

/// Recognizes and parses `fault_<kind>_start` / `fault_<kind>_stop` invoke
/// actions. `params` are the already-resolved action parameters.
///
/// Returns `None` if the action name is not a fault action.
pub fn parse_fault_invoke(
    name: &str,
    params: &HashMap<String, LevelValue>,
) -> Option<Result<FaultInvoke, String>> {
    let body = name.strip_prefix("fault_")?;
    let (kind, is_start) = if let Some(k) = body.strip_suffix("_start") {
        (k, true)
    } else if let Some(k) = body.strip_suffix("_stop") {
        (k, false)
    } else {
        return None;
    };
    const KINDS: [&str; 5] = [
        "interface",
        "message_loss",
        "message_delay",
        "path_loss",
        "path_delay",
    ];
    if !KINDS.contains(&kind) {
        return Some(Err(format!("unknown fault kind '{kind}'")));
    }
    if !is_start {
        return Some(Ok(FaultInvoke::Stop(kind.to_string())));
    }

    let get_f64 = |key: &str| params.get(key).and_then(LevelValue::as_float);
    let get_text = |key: &str| params.get(key).and_then(LevelValue::as_text);

    let mut spec = vec![("kind".to_string(), Value::str(kind))];
    if let Some(d) = get_text("direction") {
        spec.push(("direction".into(), Value::str(d)));
    }
    if let Some(p) = get_f64("probability") {
        spec.push(("probability".into(), Value::Double(p)));
    }
    if let Some(d) = get_f64("delay_ms") {
        spec.push(("delay_ms".into(), Value::Int(d as i32)));
    }
    if let Some(peer) = get_text("peer") {
        spec.push(("peer".into(), Value::str(peer)));
    }
    let envelope = FaultEnvelope {
        duration: get_f64("duration").map(SimDuration::from_secs_f64),
        rate: get_f64("rate").unwrap_or(1.0),
        randomseed: get_f64("randomseed").map(|v| v as u64).unwrap_or(0),
    };
    if envelope.rate <= 0.0 || envelope.rate > 1.0 {
        return Some(Err(format!("fault rate {} outside (0, 1]", envelope.rate)));
    }
    Some(Ok(FaultInvoke::Start(ParsedFault {
        kind: kind.to_string(),
        spec: Value::Struct(spec),
        envelope,
    })))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(pairs: &[(&str, LevelValue)]) -> HashMap<String, LevelValue> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn non_fault_names_pass_through() {
        assert!(parse_fault_invoke("sd_init", &HashMap::new()).is_none());
        assert!(parse_fault_invoke("env_traffic_start", &HashMap::new()).is_none());
        assert!(parse_fault_invoke("fault_message_loss", &HashMap::new()).is_none());
    }

    #[test]
    fn unknown_kind_is_error() {
        let r = parse_fault_invoke("fault_gremlin_start", &HashMap::new()).unwrap();
        assert!(r.is_err());
    }

    #[test]
    fn stop_actions_parse() {
        match parse_fault_invoke("fault_interface_stop", &HashMap::new())
            .unwrap()
            .unwrap()
        {
            FaultInvoke::Stop(kind) => assert_eq!(kind, "interface"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn message_loss_start_builds_spec() {
        let p = params(&[
            ("probability", LevelValue::Float(0.25)),
            ("direction", LevelValue::Text("receive".into())),
        ]);
        match parse_fault_invoke("fault_message_loss_start", &p)
            .unwrap()
            .unwrap()
        {
            FaultInvoke::Start(f) => {
                assert_eq!(f.kind, "message_loss");
                assert_eq!(f.spec.member("probability"), Some(&Value::Double(0.25)));
                assert_eq!(f.spec.member("direction"), Some(&Value::str("receive")));
                assert_eq!(f.envelope, FaultEnvelope::default());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn envelope_parsing() {
        let p = params(&[
            ("duration", LevelValue::Int(10)),
            ("rate", LevelValue::Float(0.5)),
            ("randomseed", LevelValue::Int(7)),
        ]);
        match parse_fault_invoke("fault_interface_start", &p)
            .unwrap()
            .unwrap()
        {
            FaultInvoke::Start(f) => {
                assert_eq!(f.envelope.duration, Some(SimDuration::from_secs(10)));
                assert_eq!(f.envelope.rate, 0.5);
                assert_eq!(f.envelope.randomseed, 7);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn invalid_rate_rejected() {
        let p = params(&[
            ("duration", LevelValue::Int(10)),
            ("rate", LevelValue::Float(1.5)),
        ]);
        assert!(parse_fault_invoke("fault_interface_start", &p)
            .unwrap()
            .is_err());
        let p = params(&[
            ("duration", LevelValue::Int(10)),
            ("rate", LevelValue::Float(0.0)),
        ]);
        assert!(parse_fault_invoke("fault_interface_start", &p)
            .unwrap()
            .is_err());
    }

    #[test]
    fn unbounded_envelope_has_no_window() {
        assert_eq!(
            FaultEnvelope::default().activation_window(SimTime::ZERO),
            None
        );
    }

    #[test]
    fn full_rate_window_starts_immediately() {
        let e = FaultEnvelope {
            duration: Some(SimDuration::from_secs(10)),
            rate: 1.0,
            randomseed: 3,
        };
        let now = SimTime::from_nanos(5_000);
        let (start, stop) = e.activation_window(now).unwrap();
        assert_eq!(start, now);
        assert_eq!(stop, now + SimDuration::from_secs(10));
    }

    #[test]
    fn partial_rate_window_fits_inside_duration() {
        let e = FaultEnvelope {
            duration: Some(SimDuration::from_secs(10)),
            rate: 0.3,
            randomseed: 11,
        };
        let now = SimTime::from_nanos(1_000_000);
        let (start, stop) = e.activation_window(now).unwrap();
        assert!(start >= now);
        assert_eq!(stop - start, SimDuration::from_secs(3));
        assert!(stop <= now + SimDuration::from_secs(10));
        // Deterministic in the seed.
        assert_eq!(e.activation_window(now), e.activation_window(now));
        let other = FaultEnvelope {
            randomseed: 12,
            ..e
        };
        assert_ne!(e.activation_window(now), other.activation_window(now));
    }
}
