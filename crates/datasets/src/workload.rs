//! Flow workloads for the dynamic experiments.

use monocle_openflow::{Action, Match};
use monocle_packet::PacketFields;

/// One end-to-end flow: a unique (src, dst) IP pair.
#[derive(Debug, Clone)]
pub struct FlowPath {
    /// Flow index (also used as host-traffic tag).
    pub id: u32,
    /// Abstract header of the flow's packets.
    pub fields: PacketFields,
}

/// Builds the Fig. 5 workload: `n` flows from H1 to H2, distinguished by
/// destination IP (10.1.x.y) and source IP (10.0.x.y).
pub fn reroute_flows(n: usize) -> Vec<FlowPath> {
    (0..n)
        .map(|i| {
            let i = i as u32;
            FlowPath {
                id: i,
                fields: PacketFields {
                    nw_src: [10, 0, (i >> 8) as u8, i as u8],
                    nw_dst: [10, 1, (i >> 8) as u8, i as u8],
                    ..Default::default()
                },
            }
        })
        .collect()
}

/// The exact-match rule for one flow (matches its src/dst pair).
pub fn flow_match(f: &FlowPath) -> Match {
    Match::any()
        .with_nw_src(f.fields.nw_src, 32)
        .with_nw_dst(f.fields.nw_dst, 32)
}

/// The forwarding action toward `port`.
pub fn forward_to(port: u16) -> Vec<Action> {
    vec![Action::Output(port)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flows_unique_headers() {
        let flows = reroute_flows(300);
        assert_eq!(flows.len(), 300);
        let set: std::collections::BTreeSet<_> = flows
            .iter()
            .map(|f| (f.fields.nw_src, f.fields.nw_dst))
            .collect();
        assert_eq!(set.len(), 300, "all flows distinct");
    }

    #[test]
    fn match_matches_own_flow_only() {
        let flows = reroute_flows(10);
        let m = flow_match(&flows[3]);
        assert!(m.matches_packet(1, &flows[3].fields));
        assert!(!m.matches_packet(1, &flows[4].fields));
    }
}
