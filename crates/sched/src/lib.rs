//! # monocle_sched — streaming telemetry + adaptive probe scheduling
//!
//! Monocle's steady-state monitor (§3) sweeps all rules round-robin at a
//! fixed rate, which spends most of the probe budget re-verifying rules
//! that have not changed in ages while recently-modified, high-churn or
//! previously-failing rules wait a full sweep period. This crate supplies
//! the two pieces that fix that, in the spirit of CeMon's cost-aware
//! polling and Dynamic Network Probes' on-demand placement (PAPERS.md):
//!
//! * [`telemetry`] — O(1) streaming estimators (EWMA, decayed counters,
//!   windowed ratios); the per-switch ones (RTT, backpressure) are
//!   aggregated in [`telemetry::SwitchTelemetry`], fed from the transport
//!   layer (`monocle_net::SessionStats`), the per-rule ones live in the
//!   scheduler, fed from probe verdicts;
//! * [`scheduler`] — [`scheduler::AdaptiveScheduler`], an
//!   earliest-deadline-first priority queue under a token-bucket probe
//!   budget and a per-rule staleness SLO. Its round-robin configuration
//!   is the fixed sweep itself.
//!
//! The crate is dependency-free and keyed by raw `u64` rule ids so both
//! `monocle` (core) and `monocle_net` can use it without cycles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod scheduler;
pub mod telemetry;

pub use scheduler::{AdaptiveScheduler, RuleKey, SchedConfig, SchedStats};
pub use telemetry::{DecayCounter, Ewma, SwitchTelemetry, WindowedRatio};
