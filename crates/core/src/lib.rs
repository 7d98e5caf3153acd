//! # Monocle — dynamic, fine-grained data plane monitoring
//!
//! A from-scratch Rust implementation of the CoNEXT 2015 paper
//! *"Monocle: Dynamic, Fine-Grained Data Plane Monitoring"* (Peresini,
//! Kuzniar, Kostic).
//!
//! Monocle sits as a proxy between an SDN controller and its switches,
//! mirrors every flow-table command into an *expected* table, and verifies
//! that the switch data plane actually behaves as that table prescribes.
//! Verification is per rule: a *probe packet* is synthesized such that the
//! switch's observable output differs depending on whether the rule is
//! installed. Finding such a packet is NP-hard (Appendix A), so it is
//! encoded as SAT (§5.3) and handed to the bundled CDCL solver.
//!
//! ## Module map (paper section → module)
//!
//! | Paper | Module |
//! |---|---|
//! | Table 1 constraints, §5.3/§5.4 encoding (App. B's ITE chain: its test oracle) | [`encode`] |
//! | §3.2/§3.4 DiffPorts/DiffRewrite, App. B Tables 3–4 | [`outcome`] |
//! | §5.2 abstract→raw translation, spare values | [`generator`], `monocle-packet` |
//! | plan cache + fast path in front of the generator (hot path) | [`engine`] |
//! | §2 expected-state tracking, one warm planner per switch: the expected table and pins; all planning work, update plans and steady refreshes alike, one stream of [`planner::Step`]s answered by one function — at once on the monitor itself inline, or on a [`planner::Replica`] replaying the stream — the answers handed back after the call that asked, in request order: a deferred planner's through one entry (`MonitorProxy::answer`), the inline ones by the proxy at the end of the call, so both modes put out one order | [`dynamic`], [`planner`] |
//! | the sweep set; a serial job-batch shim (benchmark and tests only) | [`pool`] |
//! | probe plans & semantic verification | [`plan`] |
//! | §3 steady-state monitoring: the sweep, its probes and their verdicts (`RuleFailed` / `RuleRecovered`), emitted as the proxy's outputs | [`steady`] |
//! | §4.1–4.2 update monitoring, overlap queuing | [`dynamic`] |
//! | §4.3 drop-postponing | [`droppost`] |
//! | §6 catching rules & coloring strategies | [`catching`] |
//! | §7 proxy architecture (Monitor + Multiplexer): the monitor, one OpenFlow session around it (sans-IO), the simulator's wiring | [`proxy`], [`channel`], [`harness`] |
//! | Appendix A NP-hardness reduction | [`reduction`] |
//!
//! ## Quick start
//!
//! ```
//! use monocle::encode::CatchSpec;
//! use monocle::generator::{generate_probe, GeneratorConfig};
//! use monocle_openflow::{Action, FlowTable, Match};
//!
//! // Figure 1's switch: one specific rule over a default route.
//! let mut table = FlowTable::new();
//! let rule = table
//!     .add_rule(10, Match::any().with_nw_src([10, 0, 0, 1], 32),
//!               vec![Action::Output(1)])
//!     .unwrap();
//! table.add_rule(1, Match::any(), vec![Action::Output(2)]).unwrap();
//!
//! let plan = generate_probe(&table, rule, &CatchSpec::default(),
//!                           &GeneratorConfig::default()).unwrap();
//! assert_eq!(plan.fields.nw_src, [10, 0, 0, 1]);
//! assert_eq!(plan.present.observations[0].0, 1); // port A when installed
//! assert_eq!(plan.absent.observations[0].0, 2);  // port B when missing
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catching;
pub mod channel;
pub mod droppost;
pub mod dynamic;
pub mod encode;
pub mod engine;
pub mod generator;
pub mod harness;
pub mod outcome;
pub mod plan;
pub mod planner;
pub mod pool;
pub mod proxy;
pub mod reduction;
pub mod steady;

pub use dynamic::{PlanRequest, UPDATE_DEADLINE};
pub use encode::CatchSpec;
pub use engine::{EngineConfig, EngineStats, ProbeEngine};
pub use generator::{generate_probe, GenStats, GeneratorConfig, ProbeError};
pub use plan::{ConcreteOutcome, ProbePlan, Verdict, STEADY_SEQ_BIT};
pub use pool::{EnginePool, JobResult, JobSpec, PoolConfig, ProbeJob};
