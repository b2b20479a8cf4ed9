//! Treatment-plan generation (paper §IV-C1).
//!
//! "To execute the overall experiment and its individual runs from the
//! abstract experiment description, ExCovery generates treatment plans from
//! replications, the factors and their levels. Plans are OFAT if no custom
//! factor level variation plan is given. [...] Which seed is used for
//! initialization is clearly defined in the experiment description so that
//! all random sequences can be reproduced."

use crate::factors::{FactorList, FactorUsage, Level};
use excovery_rng::{derive_rng, SliceRandom};
use std::collections::BTreeMap;

/// How treatments are ordered over the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Design {
    /// One-factor-at-a-time: the first factor of the list varies least
    /// often, the last changes every treatment (the paper's default:
    /// "plans are OFAT if no custom factor level variation plan is given").
    Ofat,
    /// Completely randomized: all runs (treatments × replicates) shuffled.
    CompletelyRandomized,
    /// Randomized complete block design: runs are shuffled *within* each
    /// block of the first blocking factor, preserving block order — the
    /// classic way to combine the paper's blocking factors (§II-A3) with
    /// the randomization statistical analysis requires.
    RandomizedWithinBlocks,
}

/// Options controlling plan generation.
#[derive(Debug, Clone)]
pub struct PlanOptions {
    /// Treatment ordering.
    pub design: Design,
    /// Master seed for all random sequences of the plan.
    pub seed: u64,
}

impl Default for PlanOptions {
    fn default() -> Self {
        Self {
            design: Design::Ofat,
            seed: 0,
        }
    }
}

fn renumber(runs: &mut [RunSpec]) {
    for (i, r) in runs.iter_mut().enumerate() {
        r.run_id = i as u64;
    }
}

/// One treatment: a level chosen for every factor.
#[derive(Debug, Clone, PartialEq)]
pub struct Treatment {
    assignments: BTreeMap<String, Level>,
}

impl Treatment {
    /// Creates a treatment from explicit assignments.
    pub fn from_assignments(assignments: impl IntoIterator<Item = (String, Level)>) -> Self {
        Self {
            assignments: assignments.into_iter().collect(),
        }
    }

    /// The level assigned to `factor_id`.
    pub fn level(&self, factor_id: &str) -> Option<&Level> {
        self.assignments.get(factor_id)
    }

    /// Integer shortcut.
    pub fn int(&self, factor_id: &str) -> Option<i64> {
        self.level(factor_id).and_then(Level::as_int)
    }

    /// Float shortcut.
    pub fn float(&self, factor_id: &str) -> Option<f64> {
        self.level(factor_id).and_then(Level::as_float)
    }

    /// All assignments, ordered by factor id.
    pub fn assignments(&self) -> impl Iterator<Item = (&str, &Level)> {
        self.assignments.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Stable textual key identifying the treatment (for grouping in
    /// analysis and for the stored experiment plan).
    pub fn key(&self) -> String {
        self.assignments
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join("|")
    }
}

/// One planned run: a treatment plus its replicate index.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Position in the executed sequence, starting at 0.
    pub run_id: u64,
    /// The treatment applied in this run.
    pub treatment: Treatment,
    /// Replicate number within the treatment, starting at 0.
    pub replicate: u64,
}

/// The fully expanded, ordered list of runs.
///
/// ```
/// use excovery_desc::plan::{PlanOptions, TreatmentPlan};
/// use excovery_desc::FactorList;
///
/// // Fig. 5: 6 treatments x 1000 replications.
/// let plan = TreatmentPlan::generate(&FactorList::paper_fig5(), &PlanOptions::default());
/// assert_eq!(plan.len(), 6000);
/// assert_eq!(plan.distinct_treatments().len(), 6);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TreatmentPlan {
    /// Runs in execution order.
    pub runs: Vec<RunSpec>,
    /// Options the plan was generated with (stored for transparency).
    pub options_seed: u64,
    /// Design used.
    pub design: Design,
}

impl TreatmentPlan {
    /// Generates the plan for a factor list.
    ///
    /// Deterministic: the same `(factors, options)` always yields the same
    /// plan. Random level orders (factors with `usage="random"`) and the
    /// completely randomized design draw from streams derived from
    /// `options.seed`.
    pub fn generate(factors: &FactorList, options: &PlanOptions) -> Self {
        // Per-factor level orders; random factors get a seeded shuffle.
        let mut level_orders: Vec<Vec<usize>> = Vec::with_capacity(factors.factors.len());
        for f in &factors.factors {
            let mut order: Vec<usize> = (0..f.level_count()).collect();
            if f.usage == FactorUsage::Random {
                let mut rng = derive_rng(options.seed, &format!("levels:{}", f.id));
                order.shuffle(&mut rng);
            }
            level_orders.push(order);
        }

        // Cartesian product in OFAT order: first factor varies least,
        // last factor changes every treatment (odometer, last digit fastest).
        let mut treatments: Vec<Treatment> = Vec::new();
        let counts: Vec<usize> = factors
            .factors
            .iter()
            .map(|f| f.level_count().max(1))
            .collect();
        let total: usize = counts.iter().product();
        for mut idx in 0..total {
            let mut digits = vec![0usize; counts.len()];
            for (d, &c) in digits.iter_mut().zip(&counts).rev() {
                *d = idx % c;
                idx /= c;
            }
            let assignments = factors.factors.iter().enumerate().filter_map(|(i, f)| {
                if f.levels.is_empty() {
                    return None;
                }
                let level = f.levels[level_orders[i][digits[i]]].clone();
                Some((f.id.clone(), level))
            });
            treatments.push(Treatment::from_assignments(assignments));
        }

        // Expand replication: OFAT replicates each treatment back-to-back.
        let reps = factors.replication.count.max(1);
        let mut runs: Vec<RunSpec> = Vec::with_capacity(treatments.len() * reps as usize);
        let mut run_id = 0;
        for t in &treatments {
            for r in 0..reps {
                runs.push(RunSpec {
                    run_id,
                    treatment: t.clone(),
                    replicate: r,
                });
                run_id += 1;
            }
        }

        match options.design {
            Design::Ofat => {}
            Design::CompletelyRandomized => {
                let mut rng = derive_rng(options.seed, "plan:crd");
                runs.shuffle(&mut rng);
                renumber(&mut runs);
            }
            Design::RandomizedWithinBlocks => {
                // Identify the blocking factor: the first with that usage.
                let blocking = factors
                    .factors
                    .iter()
                    .find(|f| f.usage == FactorUsage::Blocking);
                match blocking {
                    None => {
                        // Without blocks this degenerates to CRD.
                        let mut rng = derive_rng(options.seed, "plan:rcbd");
                        runs.shuffle(&mut rng);
                    }
                    Some(bf) => {
                        // Runs are already grouped by the blocking factor if
                        // it comes first in OFAT order; group explicitly to
                        // be robust against arbitrary factor positions.
                        let mut groups: Vec<(String, Vec<RunSpec>)> = Vec::new();
                        for run in runs.drain(..) {
                            let key = run
                                .treatment
                                .level(&bf.id)
                                .map(|l| l.to_string())
                                .unwrap_or_default();
                            match groups.iter_mut().find(|(k, _)| *k == key) {
                                Some((_, g)) => g.push(run),
                                None => groups.push((key, vec![run])),
                            }
                        }
                        for (i, (_, group)) in groups.iter_mut().enumerate() {
                            let mut rng = derive_rng(options.seed, &format!("plan:rcbd:block{i}"));
                            group.shuffle(&mut rng);
                        }
                        runs = groups.into_iter().flat_map(|(_, g)| g).collect();
                    }
                }
                renumber(&mut runs);
            }
        }

        Self {
            runs,
            options_seed: options.seed,
            design: options.design,
        }
    }

    /// Generates a plan following a **custom factor level variation plan**
    /// (paper §IV-C1): `order` lists treatment indices (into the OFAT
    /// treatment enumeration) in the order they should run; each index may
    /// appear any number of times, and each appearance executes the full
    /// replication count back to back.
    pub fn with_custom_order(
        factors: &FactorList,
        options: &PlanOptions,
        order: &[usize],
    ) -> Result<Self, String> {
        let base = Self::generate(
            factors,
            &PlanOptions {
                design: Design::Ofat,
                ..options.clone()
            },
        );
        let treatments = base.distinct_treatments();
        let reps = factors.replication.count.max(1);
        let mut runs = Vec::with_capacity(order.len() * reps as usize);
        for &idx in order {
            let t = treatments.get(idx).ok_or_else(|| {
                format!("treatment index {idx} out of range 0..{}", treatments.len())
            })?;
            for r in 0..reps {
                runs.push(RunSpec {
                    run_id: 0,
                    treatment: (*t).clone(),
                    replicate: r,
                });
            }
        }
        renumber(&mut runs);
        Ok(Self {
            runs,
            options_seed: options.seed,
            design: Design::Ofat,
        })
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// True if the plan has no runs.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Distinct treatments in first-appearance order.
    pub fn distinct_treatments(&self) -> Vec<&Treatment> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for r in &self.runs {
            if seen.insert(r.treatment.key()) {
                out.push(&r.treatment);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factors::{Factor, FactorList};

    fn two_by_three() -> FactorList {
        FactorList::new()
            .with_factor(Factor::int("a", FactorUsage::Constant, [1, 2]))
            .with_factor(Factor::int("b", FactorUsage::Constant, [10, 20, 30]))
            .with_replication("rep", 2)
    }

    #[test]
    fn ofat_order_last_factor_fastest() {
        let fl = two_by_three();
        let plan = TreatmentPlan::generate(&fl, &PlanOptions::default());
        assert_eq!(plan.len(), 12);
        // With 2 replicates per treatment: a=1 stays for 6 runs.
        let a_vals: Vec<i64> = plan
            .runs
            .iter()
            .map(|r| r.treatment.int("a").unwrap())
            .collect();
        assert_eq!(&a_vals[..6], &[1, 1, 1, 1, 1, 1]);
        assert_eq!(&a_vals[6..], &[2, 2, 2, 2, 2, 2]);
        let b_vals: Vec<i64> = plan
            .runs
            .iter()
            .map(|r| r.treatment.int("b").unwrap())
            .collect();
        assert_eq!(&b_vals[..6], &[10, 10, 20, 20, 30, 30]);
    }

    #[test]
    fn replicate_indices_count_within_treatment() {
        let fl = two_by_three();
        let plan = TreatmentPlan::generate(&fl, &PlanOptions::default());
        for chunk in plan.runs.chunks(2) {
            assert_eq!(chunk[0].replicate, 0);
            assert_eq!(chunk[1].replicate, 1);
            assert_eq!(chunk[0].treatment, chunk[1].treatment);
        }
    }

    #[test]
    fn run_ids_are_sequential() {
        let plan = TreatmentPlan::generate(&two_by_three(), &PlanOptions::default());
        for (i, r) in plan.runs.iter().enumerate() {
            assert_eq!(r.run_id, i as u64);
        }
    }

    #[test]
    fn random_usage_shuffles_level_order_deterministically() {
        let fl = FactorList::new()
            .with_factor(Factor::int("r", FactorUsage::Random, 0..20))
            .with_replication("rep", 1);
        let p1 = TreatmentPlan::generate(
            &fl,
            &PlanOptions {
                design: Design::Ofat,
                seed: 7,
            },
        );
        let p2 = TreatmentPlan::generate(
            &fl,
            &PlanOptions {
                design: Design::Ofat,
                seed: 7,
            },
        );
        assert_eq!(p1, p2, "same seed, same plan");
        let p3 = TreatmentPlan::generate(
            &fl,
            &PlanOptions {
                design: Design::Ofat,
                seed: 8,
            },
        );
        let order1: Vec<i64> = p1
            .runs
            .iter()
            .map(|r| r.treatment.int("r").unwrap())
            .collect();
        let order3: Vec<i64> = p3
            .runs
            .iter()
            .map(|r| r.treatment.int("r").unwrap())
            .collect();
        assert_ne!(order1, order3, "different seed shuffles differently");
        // All levels still present exactly once.
        let mut sorted = order1.clone();
        sorted.sort();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn completely_randomized_permutes_all_runs() {
        let fl = two_by_three();
        let ofat = TreatmentPlan::generate(
            &fl,
            &PlanOptions {
                design: Design::Ofat,
                seed: 3,
            },
        );
        let crd = TreatmentPlan::generate(
            &fl,
            &PlanOptions {
                design: Design::CompletelyRandomized,
                seed: 3,
            },
        );
        assert_eq!(ofat.len(), crd.len());
        // Same multiset of (treatment, replicate) pairs.
        let keyfn = |r: &RunSpec| (r.treatment.key(), r.replicate);
        let mut a: Vec<_> = ofat.runs.iter().map(keyfn).collect();
        let mut b: Vec<_> = crd.runs.iter().map(keyfn).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        // Run ids renumbered sequentially.
        for (i, r) in crd.runs.iter().enumerate() {
            assert_eq!(r.run_id, i as u64);
        }
        // And the order actually differs (12 runs, astronomically unlikely
        // to shuffle into identity).
        assert_ne!(
            ofat.runs.iter().map(keyfn).collect::<Vec<_>>(),
            crd.runs.iter().map(keyfn).collect::<Vec<_>>()
        );
    }

    #[test]
    fn paper_fig5_plan_counts() {
        let fl = FactorList::paper_fig5();
        let plan = TreatmentPlan::generate(&fl, &PlanOptions::default());
        assert_eq!(plan.len(), 6_000);
        assert_eq!(plan.distinct_treatments().len(), 6);
        // Constant bw factor cycles 10 → 50 → 100 in listed order.
        let bw_first_three: Vec<i64> = plan
            .distinct_treatments()
            .iter()
            .take(3)
            .map(|t| t.int("fact_bw").unwrap())
            .collect();
        assert_eq!(bw_first_three, vec![10, 50, 100]);
    }

    #[test]
    fn treatment_key_is_stable_and_distinct() {
        let fl = two_by_three();
        let plan = TreatmentPlan::generate(&fl, &PlanOptions::default());
        let keys: std::collections::HashSet<String> =
            plan.runs.iter().map(|r| r.treatment.key()).collect();
        assert_eq!(keys.len(), 6);
        assert!(keys.iter().any(|k| k == "a=1|b=10"), "{keys:?}");
    }

    #[test]
    fn empty_factor_list_yields_replication_only() {
        let fl = FactorList::new().with_replication("rep", 5);
        let plan = TreatmentPlan::generate(&fl, &PlanOptions::default());
        assert_eq!(plan.len(), 5);
        for r in &plan.runs {
            assert_eq!(r.treatment.assignments().count(), 0);
        }
    }

    #[test]
    fn rcbd_preserves_block_order_and_shuffles_within() {
        use crate::factors::{ActorAssignment, LevelValue};
        // Blocking factor with 2 levels (two actor maps), inner factor 3 levels.
        let mk_map = |node: &str| {
            LevelValue::ActorMap(vec![ActorAssignment {
                actor_id: "actor0".into(),
                instances: vec![node.to_string()],
            }])
        };
        let mut blocking = Factor::int("block", FactorUsage::Blocking, std::iter::empty());
        blocking.level_type = "actor_node_map".into();
        blocking.levels = vec![mk_map("A"), mk_map("B")];
        let fl = FactorList::new()
            .with_factor(blocking)
            .with_factor(Factor::int("x", FactorUsage::Constant, [1, 2, 3]))
            .with_replication("rep", 4);
        let plan = TreatmentPlan::generate(
            &fl,
            &PlanOptions {
                design: Design::RandomizedWithinBlocks,
                seed: 9,
            },
        );
        assert_eq!(plan.len(), 24);
        // First 12 runs all in block A, last 12 in block B.
        let block_of = |r: &RunSpec| r.treatment.level("block").unwrap().to_string();
        assert!(plan.runs[..12]
            .iter()
            .all(|r| block_of(r) == block_of(&plan.runs[0])));
        assert!(plan.runs[12..]
            .iter()
            .all(|r| block_of(r) == block_of(&plan.runs[12])));
        assert_ne!(block_of(&plan.runs[0]), block_of(&plan.runs[12]));
        // Within a block the x sequence is shuffled relative to OFAT.
        let ofat = TreatmentPlan::generate(
            &fl,
            &PlanOptions {
                design: Design::Ofat,
                seed: 9,
            },
        );
        let xs_rcbd: Vec<i64> = plan.runs[..12]
            .iter()
            .map(|r| r.treatment.int("x").unwrap())
            .collect();
        let xs_ofat: Vec<i64> = ofat.runs[..12]
            .iter()
            .map(|r| r.treatment.int("x").unwrap())
            .collect();
        assert_ne!(xs_rcbd, xs_ofat, "within-block order must be randomized");
        let mut sorted = xs_rcbd.clone();
        sorted.sort();
        let mut expected = xs_ofat.clone();
        expected.sort();
        assert_eq!(sorted, expected, "same multiset within the block");
        // Deterministic in the seed.
        let again = TreatmentPlan::generate(
            &fl,
            &PlanOptions {
                design: Design::RandomizedWithinBlocks,
                seed: 9,
            },
        );
        assert_eq!(plan, again);
    }

    #[test]
    fn rcbd_without_blocking_factor_degenerates_to_crd() {
        let fl = two_by_three();
        let plan = TreatmentPlan::generate(
            &fl,
            &PlanOptions {
                design: Design::RandomizedWithinBlocks,
                seed: 5,
            },
        );
        assert_eq!(plan.len(), 12);
        let ofat = TreatmentPlan::generate(&fl, &PlanOptions::default());
        let key = |r: &RunSpec| (r.treatment.key(), r.replicate);
        let mut a: Vec<_> = plan.runs.iter().map(key).collect();
        let mut b: Vec<_> = ofat.runs.iter().map(key).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn custom_order_plan_follows_given_sequence() {
        let fl = two_by_three(); // 6 treatments, 2 reps
        let plan =
            TreatmentPlan::with_custom_order(&fl, &PlanOptions::default(), &[5, 0, 0, 3]).unwrap();
        assert_eq!(plan.len(), 8, "4 entries x 2 replications");
        let ofat = TreatmentPlan::generate(&fl, &PlanOptions::default());
        let treatments = ofat.distinct_treatments();
        assert_eq!(&plan.runs[0].treatment, treatments[5]);
        assert_eq!(&plan.runs[2].treatment, treatments[0]);
        assert_eq!(&plan.runs[4].treatment, treatments[0]);
        assert_eq!(&plan.runs[6].treatment, treatments[3]);
        for (i, r) in plan.runs.iter().enumerate() {
            assert_eq!(r.run_id, i as u64);
        }
        assert!(TreatmentPlan::with_custom_order(&fl, &PlanOptions::default(), &[6]).is_err());
    }

    #[test]
    fn factor_with_no_levels_is_skipped() {
        let fl = FactorList::new()
            .with_factor(Factor::int(
                "empty",
                FactorUsage::Constant,
                std::iter::empty(),
            ))
            .with_factor(Factor::int("x", FactorUsage::Constant, [1, 2]));
        let plan = TreatmentPlan::generate(&fl, &PlanOptions::default());
        assert_eq!(plan.len(), 2);
        assert!(plan.runs[0].treatment.level("empty").is_none());
    }
}
