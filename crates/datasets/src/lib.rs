//! Synthetic datasets calibrated to the paper's evaluation inputs.
//!
//! The paper evaluates on external artifacts we cannot ship: the Stanford
//! backbone router "yoza" ACL dump \[11\] (2755 rules), campus-network ACLs
//! \[21\] (10958 rules), the Internet Topology Zoo \[13\] (261 topologies) and
//! Rocketfuel \[20\] (10 ISP maps, up to ~11800 nodes). This crate generates
//! seeded synthetic equivalents with the same scale and the structural
//! properties the experiments are sensitive to:
//!
//! * [`acl`] — ClassBench-style rule sets: prefix-heavy matches over the
//!   OF1.0 tuple, first-match-wins priorities, a configurable fraction of
//!   drop rules, plus deliberately *shadowed* and *indistinguishable* rules
//!   so the "probes found / total" column of Table 2 has the same character
//!   as the paper's (Stanford ≈ 88.6%, Campus ≈ 97.1%).
//! * [`fib`] — plain L3 forwarding tables (the 1000-rule table of Fig. 4).
//! * [`corpus`] — topology corpora with Zoo-like and Rocketfuel-like size
//!   and degree distributions for the Fig. 9 coloring study.
//! * [`workload`] — flow workloads (the 300-flow reroute of Fig. 5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acl;
pub mod corpus;
pub mod fib;
pub mod workload;

use monocle_openflow::{ActionProgram, Match};

/// One generated rule: priority, match, actions.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleSpec {
    /// Priority (higher wins).
    pub priority: u16,
    /// Match.
    pub match_: Match,
    /// Actions (empty = drop).
    pub actions: ActionProgram,
}
