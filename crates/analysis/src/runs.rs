//! Reconstruction of discovery episodes from the stored event lists.
//!
//! A *discovery episode* is the paper's Fig. 11 one-shot process: an SU
//! starts a search at some common time and services are added until the
//! search stops. The response time `t_R` of a service is the span between
//! `sd_start_search` on the SU and the matching `sd_service_add`.

use excovery_store::records::EventRow;
use excovery_store::{Database, StoreError};
use std::collections::HashMap;

/// One discovered service within an episode.
#[derive(Debug, Clone, PartialEq)]
pub struct Discovery {
    /// Service identifier (the SM's platform id in engine-run experiments).
    pub service: String,
    /// Common time of the `sd_service_add` event, ns.
    pub at_ns: i64,
    /// Response time relative to the search start, ns.
    pub t_r_ns: i64,
}

/// One search episode of one SU in one run.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveryEpisode {
    /// Run the episode belongs to.
    pub run_id: u64,
    /// The searching node (SU).
    pub su_node: String,
    /// Common time of `sd_start_search`, ns.
    pub search_start_ns: i64,
    /// Services discovered, in discovery order.
    pub discoveries: Vec<Discovery>,
}

impl DiscoveryEpisode {
    /// Response time of the first discovery, if any.
    pub fn first_t_r_ns(&self) -> Option<i64> {
        self.discoveries.first().map(|d| d.t_r_ns)
    }

    /// True if at least `k` distinct services were found within
    /// `deadline_ns` of the search start.
    pub fn discovered_within(&self, k: usize, deadline_ns: i64) -> bool {
        let mut seen = std::collections::HashSet::new();
        for d in &self.discoveries {
            if d.t_r_ns <= deadline_ns {
                seen.insert(&d.service);
            }
        }
        seen.len() >= k
    }
}

/// A borrowed event as the episode state machine sees it — enough of an
/// [`EventRow`] to reconstruct episodes, regardless of whether the row came
/// from the row engine or a columnar scan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct EpisodeEvent<'a> {
    /// The node the event happened on.
    pub node_id: &'a str,
    /// Common time, ns.
    pub common_time_ns: i64,
    /// Event type name.
    pub event_type: &'a str,
    /// Encoded `k=v;k=v` parameter string.
    pub parameter: &'a str,
}

/// The one episode state machine: replays a run's events (ordered by common
/// time) and opens/fills/closes episodes. Both [`RunView::episodes`] and the
/// columnar path in [`crate::dataset`] call this, so they cannot drift.
pub(crate) fn episodes_from_ordered<'a>(
    run_id: u64,
    events: impl Iterator<Item = EpisodeEvent<'a>>,
) -> Vec<DiscoveryEpisode> {
    let mut episodes: Vec<DiscoveryEpisode> = Vec::new();
    let mut open: HashMap<&str, usize> = HashMap::new(); // node -> episode idx
    for e in events {
        match e.event_type {
            "sd_start_search" => {
                episodes.push(DiscoveryEpisode {
                    run_id,
                    su_node: e.node_id.to_string(),
                    search_start_ns: e.common_time_ns,
                    discoveries: Vec::new(),
                });
                open.insert(e.node_id, episodes.len() - 1);
            }
            "sd_service_add" => {
                if let Some(&idx) = open.get(e.node_id) {
                    let params = EventRow::decode_params(e.parameter);
                    let service = params
                        .iter()
                        .find(|(k, _)| k == "service")
                        .map(|(_, v)| v.clone())
                        .unwrap_or_default();
                    let ep = &mut episodes[idx];
                    ep.discoveries.push(Discovery {
                        service,
                        at_ns: e.common_time_ns,
                        t_r_ns: e.common_time_ns - ep.search_start_ns,
                    });
                }
            }
            "sd_stop_search" => {
                open.remove(e.node_id);
            }
            _ => {}
        }
    }
    episodes
}

/// A typed view over one run's events.
#[derive(Debug, Clone)]
pub struct RunView {
    /// Run id.
    pub run_id: u64,
    /// Events ordered by common time.
    pub events: Vec<EventRow>,
}

impl RunView {
    /// Loads a run from the level-3 database.
    pub fn load(db: &Database, run_id: u64) -> Result<Self, StoreError> {
        Ok(Self {
            run_id,
            events: EventRow::read_run(db, run_id)?,
        })
    }

    /// All run ids present in a database.
    pub fn run_ids(db: &Database) -> Result<Vec<u64>, StoreError> {
        let mut ids: Vec<u64> = EventRow::read_all(db)?
            .into_iter()
            .map(|e| e.run_id)
            .collect();
        ids.sort_unstable();
        ids.dedup();
        Ok(ids)
    }

    /// Extracts the discovery episodes of this run: one per
    /// `sd_start_search` event, holding the `sd_service_add`s that follow
    /// on the same node until the next search start or run end.
    pub fn episodes(&self) -> Vec<DiscoveryEpisode> {
        episodes_from_ordered(
            self.run_id,
            self.events.iter().map(|e| EpisodeEvent {
                node_id: &e.node_id,
                common_time_ns: e.common_time_ns,
                event_type: &e.event_type,
                parameter: &e.parameter,
            }),
        )
    }

    /// Convenience: all episodes of all runs of a database.
    pub fn all_episodes(db: &Database) -> Result<Vec<DiscoveryEpisode>, StoreError> {
        let mut out = Vec::new();
        for run_id in Self::run_ids(db)? {
            out.extend(Self::load(db, run_id)?.episodes());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use excovery_store::schema::create_level3_database;

    fn ev(db: &mut Database, run: u64, node: &str, t: i64, name: &str, service: Option<&str>) {
        EventRow {
            run_id: run,
            node_id: node.into(),
            common_time_ns: t,
            event_type: name.into(),
            parameter: service
                .map(|s| format!("service={s};stype=_exp._tcp"))
                .unwrap_or_default(),
        }
        .insert(db)
        .unwrap();
    }

    fn sample_db() -> Database {
        let mut db = create_level3_database();
        // Run 0: SU on n1 finds two services.
        ev(&mut db, 0, "n1", 1_000, "sd_start_search", None);
        ev(&mut db, 0, "n1", 51_000, "sd_service_add", Some("sm-a"));
        ev(&mut db, 0, "n1", 900_000, "sd_service_add", Some("sm-b"));
        ev(&mut db, 0, "n1", 950_000, "sd_stop_search", None);
        // Run 1: nothing found.
        ev(&mut db, 1, "n1", 2_000, "sd_start_search", None);
        ev(&mut db, 1, "n1", 990_000, "sd_stop_search", None);
        db
    }

    #[test]
    fn episode_extraction_and_t_r() {
        let db = sample_db();
        let eps = RunView::load(&db, 0).unwrap().episodes();
        assert_eq!(eps.len(), 1);
        let ep = &eps[0];
        assert_eq!(ep.su_node, "n1");
        assert_eq!(ep.discoveries.len(), 2);
        assert_eq!(ep.discoveries[0].service, "sm-a");
        assert_eq!(ep.discoveries[0].t_r_ns, 50_000);
        assert_eq!(ep.first_t_r_ns(), Some(50_000));
    }

    #[test]
    fn empty_episode_when_nothing_found() {
        let db = sample_db();
        let eps = RunView::load(&db, 1).unwrap().episodes();
        assert_eq!(eps.len(), 1);
        assert!(eps[0].discoveries.is_empty());
        assert_eq!(eps[0].first_t_r_ns(), None);
    }

    #[test]
    fn discovered_within_counts_distinct_services() {
        let db = sample_db();
        let ep = &RunView::load(&db, 0).unwrap().episodes()[0];
        assert!(ep.discovered_within(1, 50_000));
        assert!(!ep.discovered_within(2, 50_000), "sm-b was later");
        assert!(ep.discovered_within(2, 899_000));
        assert!(!ep.discovered_within(3, i64::MAX));
    }

    #[test]
    fn adds_after_stop_are_ignored() {
        let mut db = create_level3_database();
        ev(&mut db, 0, "n1", 1_000, "sd_start_search", None);
        ev(&mut db, 0, "n1", 2_000, "sd_stop_search", None);
        ev(&mut db, 0, "n1", 3_000, "sd_service_add", Some("late"));
        let eps = RunView::load(&db, 0).unwrap().episodes();
        assert!(eps[0].discoveries.is_empty());
    }

    #[test]
    fn adds_on_other_nodes_do_not_leak() {
        let mut db = create_level3_database();
        ev(&mut db, 0, "n1", 1_000, "sd_start_search", None);
        ev(&mut db, 0, "n2", 2_000, "sd_service_add", Some("other"));
        let eps = RunView::load(&db, 0).unwrap().episodes();
        assert!(eps[0].discoveries.is_empty());
    }

    #[test]
    fn run_ids_and_all_episodes() {
        let db = sample_db();
        assert_eq!(RunView::run_ids(&db).unwrap(), vec![0, 1]);
        assert_eq!(RunView::all_episodes(&db).unwrap().len(), 2);
    }

    #[test]
    fn duplicate_service_adds_counted_once_for_k() {
        let mut db = create_level3_database();
        ev(&mut db, 0, "n1", 1_000, "sd_start_search", None);
        ev(&mut db, 0, "n1", 2_000, "sd_service_add", Some("sm-a"));
        ev(&mut db, 0, "n1", 3_000, "sd_service_add", Some("sm-a"));
        let ep = &RunView::load(&db, 0).unwrap().episodes()[0];
        assert!(!ep.discovered_within(2, i64::MAX));
        assert!(ep.discovered_within(1, 1_500));
    }
}
