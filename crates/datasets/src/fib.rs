//! L3 forwarding-table generator (the Fig. 4 workload: "1000 layer-3
//! forwarding rules" on the monitored switch).

use crate::RuleSpec;
use monocle_openflow::{Action, Match};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Generates `n` host routes (/32 destinations) spread over `ports` egress
/// ports, plus their destination addresses. Destinations are unique, so all
/// rules are disjoint and every rule is monitorable (matching the Fig. 4
/// setup where Monocle cycles through every rule).
pub fn l3_host_routes(n: usize, ports: u16, seed: u64) -> Vec<RuleSpec> {
    assert!(ports >= 1);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut used = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let addr: u32 = 0x0a00_0000 | rng.random_range(0..(1u32 << 24));
        if !used.insert(addr) {
            continue;
        }
        let port = rng.random_range(1..=ports);
        out.push(RuleSpec {
            priority: 100,
            match_: Match::any().with_nw_dst(addr.to_be_bytes(), 32),
            actions: vec![Action::Output(port)],
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use monocle_openflow::FlowTable;

    #[test]
    fn host_routes_unique_and_disjoint() {
        let rules = l3_host_routes(1000, 4, 1);
        assert_eq!(rules.len(), 1000);
        let mut t = FlowTable::new();
        for r in &rules {
            t.add_rule(r.priority, r.match_, r.actions.clone()).unwrap();
        }
        assert_eq!(t.len(), 1000);
        // Disjoint: each rule overlaps only itself.
        for r in t.rules().iter().take(50) {
            assert_eq!(t.overlapping(&r.tern).len(), 1);
        }
    }

    #[test]
    fn ports_in_range() {
        let rules = l3_host_routes(200, 4, 2);
        for r in &rules {
            match &r.actions[0] {
                Action::Output(p) => assert!((1..=4).contains(p)),
                other => panic!("unexpected action {other:?}"),
            }
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(l3_host_routes(100, 4, 9), l3_host_routes(100, 4, 9));
        assert_ne!(l3_host_routes(100, 4, 9), l3_host_routes(100, 4, 10));
    }
}
