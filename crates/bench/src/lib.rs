//! # excovery-bench
//!
//! Harnesses that regenerate every table and figure of the ExCovery paper,
//! plus the case-study experiments its evaluation infrastructure was built
//! for (see EXPERIMENTS.md at the workspace root for the full index).
//!
//! Binaries (``cargo run -p excovery-bench --release --bin <name>``):
//!
//! | binary | artifact |
//! |---|---|
//! | `table1_schema` | Table I — storage schema |
//! | `fig1_model` | Fig. 1 — model of a generic experiment process |
//! | `fig2_architectures` | Fig. 2 — two-party vs three-party message flows |
//! | `fig3_workflow` | Fig. 3 — concepts and experiment workflow |
//! | `fig5_plan` | Fig. 5 — factor list and treatment plan |
//! | `fig11_timeline` | Fig. 11 — one-shot discovery visualization |
//! | `fig_listings` | Figs. 4–10 — the XML description listings |
//! | `cs1_responsiveness_loss` | CS-1 — responsiveness vs message loss |
//! | `cs2_responsiveness_load` | CS-2 — responsiveness vs generated load |
//! | `cs3_responsiveness_hops` | CS-3 — responsiveness vs hop distance |
//! | `cs4_architecture_compare` | CS-4 — architectures, SCM trade-off |
//! | `cs5_ablation_backoff` | CS-5 — query backoff ablation |
//! | `cs6_model_vs_experiment` | CS-6 — analytic model vs experiment |
//! | `cs7_ablation_suppression` | CS-7 — known-answer suppression ablation |
//! | `cs8_chaos_recovery` | CS-8 — control-plane chaos and recovery cost |
//! | `tagger_validation` | §VI-A — packet-tagger loss reconstruction |
//!
//! Replication counts scale with the `EXCOVERY_REPS` environment variable
//! (default 40); the paper uses 1000 per treatment.

pub mod harness;
