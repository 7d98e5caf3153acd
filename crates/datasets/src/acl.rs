//! ClassBench-style ACL rule-set generator (Table 2 inputs).
//!
//! The paper observes that ACLs "are the most similar to OpenFlow rules,
//! since they match on various combinations of header fields" (§8.2). The
//! generator reproduces the properties that drive Monocle's probe-generation
//! cost and success rate:
//!
//! * **overlap structure** — rules draw prefixes from a small pool of
//!   subnets so that each rule overlaps a handful of others (the §5.4
//!   pre-filter keeps per-probe work small; this pool size controls how
//!   small);
//! * **field mix** — src/dst CIDR prefixes of varying length, protocol,
//!   transport ports, occasionally DSCP;
//! * **unmonitorable rules** (§3.5) — a configurable fraction of rules is
//!   deliberately generated fully shadowed by a higher-priority rule, or
//!   duplicating a lower-priority rule's forwarding outcome, making a probe
//!   impossible; this is what keeps "probes found" below 100% in Table 2.

use crate::RuleSpec;
use monocle_openflow::{Action, Match, Ternary};
use monocle_packet::ipproto;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct AclConfig {
    /// Number of rules to generate.
    pub rules: usize,
    /// RNG seed.
    pub seed: u64,
    /// Fraction of drop rules (ACL deny entries).
    pub drop_fraction: f64,
    /// Number of egress ports forwarding rules choose from.
    pub ports: u16,
    /// Fraction of rules constructed to be fully shadowed by a
    /// higher-priority rule (unmonitorable by Hit).
    pub shadowed_fraction: f64,
    /// Fraction of rules constructed to be indistinguishable from the
    /// default rule (same outcome as the table-wide fallback).
    pub indistinct_fraction: f64,
    /// Size of the subnet pool prefixes are drawn from (smaller = more
    /// overlap between rules).
    pub subnet_pool: usize,
    /// Install a low-priority catch-all forwarding rule (routers have one;
    /// pure ACLs may not).
    pub default_rule: bool,
}

impl AclConfig {
    /// Stanford backbone "yoza" scale: 2755 rules, relatively many
    /// unmonitorable entries (paper finds probes for 2442/2755 ≈ 88.6%).
    pub fn stanford_like() -> AclConfig {
        AclConfig {
            rules: 2755,
            seed: 0x5747_4f5a, // "YOZA"
            drop_fraction: 0.35,
            ports: 16,
            shadowed_fraction: 0.075,
            indistinct_fraction: 0.055,
            subnet_pool: 320,
            default_rule: true,
        }
    }

    /// Campus ACL scale: 10958 rules, mostly monitorable (10642/10958 ≈
    /// 97.1%).
    pub fn campus_like() -> AclConfig {
        AclConfig {
            rules: 10958,
            seed: 0x4341_4d50, // "CAMP"
            drop_fraction: 0.5,
            ports: 24,
            shadowed_fraction: 0.010,
            indistinct_fraction: 0.008,
            subnet_pool: 2400,
            default_rule: true,
        }
    }
}

/// Generates the rule set, highest priority first.
pub fn generate(cfg: &AclConfig) -> Vec<RuleSpec> {
    assert!(cfg.rules >= 8, "need a few rules to be interesting");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    // Subnet pool: /16s and /24s under 10.0.0.0/8 and 172.16/12-ish space.
    let pool: Vec<(u32, u8)> = (0..cfg.subnet_pool)
        .map(|i| {
            let base: u32 = if i % 3 == 0 {
                0x0a00_0000 | ((i as u32) << 16) // 10.0.0.0/8 and beyond
            } else {
                0xac10_0000 | ((i as u32) << 12) // 172.16.0.0/12 and beyond
            };
            let plen = if i % 3 == 0 { 16 } else { 20 };
            (base, plen)
        })
        .collect();

    let default_port: u16 = 1;
    let mut out: Vec<RuleSpec> = Vec::with_capacity(cfg.rules);
    // `out[i].match_.ternary()`, built once per rule for the dead-rule check.
    let mut terns: Vec<Ternary> = Vec::with_capacity(cfg.rules);
    let total = cfg.rules;
    // Priorities descend so earlier rules win, ACL-style. Reserve 1 for the
    // default rule.
    for i in 0..total {
        let priority = (total - i + 1) as u16;
        let shadowed = !out.is_empty() && rng.random_bool(cfg.shadowed_fraction);
        let indistinct = !shadowed && rng.random_bool(cfg.indistinct_fraction);
        if shadowed {
            // Pick a victim among earlier (higher-priority) rules and
            // create a strictly more specific match: fully covered => no
            // probe can Hit it.
            let victim_idx = rng.random_range(0..out.len());
            let victim = out[victim_idx].match_;
            let specific = specialize(&mut rng, victim);
            terns.push(specific.ternary());
            out.push(RuleSpec {
                priority,
                match_: specific,
                actions: random_action(&mut rng, cfg),
            });
            continue;
        }
        // Resample until the rule is not accidentally dead (fully subsumed
        // by an earlier, higher-priority rule) — real ACL compilers strip
        // such entries, and the deliberate `shadowed_fraction` above covers
        // the ones that do survive in practice.
        let mut m = random_match(&mut rng, cfg, &pool);
        for _attempt in 0..20 {
            let tern = m.ternary();
            if !terns.iter().any(|t| t.subsumes(&tern)) {
                break;
            }
            m = random_match(&mut rng, cfg, &pool);
        }
        let actions = if indistinct && cfg.default_rule {
            // Same outcome as the default rule: no lower-priority rule can
            // be distinguished (§3.5's "does not change the forwarding
            // behavior" case) — unless an intermediate rule saves it, which
            // keeps this probabilistic like real ACLs.
            vec![Action::Output(default_port)]
        } else {
            random_action(&mut rng, cfg)
        };
        terns.push(m.ternary());
        out.push(RuleSpec {
            priority,
            match_: m,
            actions,
        });
    }
    if cfg.default_rule {
        out.push(RuleSpec {
            priority: 1,
            match_: Match::any(),
            actions: vec![Action::Output(default_port)],
        });
    }
    out
}

/// Makes `m` strictly more specific (still a subset).
fn specialize(rng: &mut StdRng, mut m: Match) -> Match {
    // Extend or add a source prefix; if impossible, pin a port.
    match m.nw_src {
        Some((addr, plen)) if plen < 32 => {
            let extra = rng.random_range(1..=(32 - plen)).min(8);
            m.nw_src = Some((addr | (1 << (31 - plen)) >> (extra - 1), plen + extra));
        }
        None => {
            m.nw_src = Some((0x0a00_0000 | rng.random_range(0..1u32 << 16), 32));
            if m.dl_type.is_none() {
                m.dl_type = Some(monocle_packet::ethertype::IPV4);
            }
        }
        _ => {
            if m.tp_src.is_none() {
                m.tp_src = Some(rng.random_range(1024..65000));
                if m.nw_proto.is_none() {
                    m.nw_proto = Some(ipproto::TCP);
                }
            } else if m.tp_dst.is_none() {
                m.tp_dst = Some(rng.random_range(1..1024));
                if m.nw_proto.is_none() {
                    m.nw_proto = Some(ipproto::TCP);
                }
            } else if m.nw_tos.is_none() {
                m.nw_tos = Some(rng.random_range(0..64));
            }
        }
    }
    m
}

fn random_match(rng: &mut StdRng, _cfg: &AclConfig, pool: &[(u32, u8)]) -> Match {
    let mut m = Match::any().with_dl_type(monocle_packet::ethertype::IPV4);
    // Source side.
    let style = rng.random_range(0..10);
    if style < 2 {
        // wildcard src
    } else if style < 6 {
        let (base, plen) = pool[rng.random_range(0..pool.len())];
        let extra = rng.random_range(0..=8u8);
        let plen = (plen + extra).min(32);
        let host = rng.random_range(0..1u32 << (32 - plen).min(16));
        m.nw_src = Some((
            (base | host.checked_shl(32 - u32::from(plen)).unwrap_or(0)) & prefix_mask(plen),
            plen,
        ));
    } else {
        let (base, _) = pool[rng.random_range(0..pool.len())];
        m.nw_src = Some((base | rng.random_range(0..0xffffu32), 32));
    }
    // Destination side.
    let style = rng.random_range(0..10);
    if style < 1 {
        // wildcard dst
    } else if style < 6 {
        let (base, plen) = pool[rng.random_range(0..pool.len())];
        let extra = rng.random_range(0..=8u8);
        let plen = (plen + extra).min(32);
        m.nw_dst = Some((base & prefix_mask(plen), plen));
    } else {
        let (base, _) = pool[rng.random_range(0..pool.len())];
        m.nw_dst = Some((base | rng.random_range(0..0xffffu32), 32));
    }
    // Never emit a match covering the whole IPv4 space: such a rule would
    // shadow every later rule (real ACLs have exactly one terminal
    // catch-all, modeled by `default_rule`).
    if m.nw_src.is_none() && m.nw_dst.is_none() {
        let (base, plen) = pool[rng.random_range(0..pool.len())];
        m.nw_dst = Some((base & prefix_mask(plen), plen));
    }
    // Protocol and ports.
    let style = rng.random_range(0..10);
    if style < 4 {
        m.nw_proto = Some(ipproto::TCP);
    } else if style < 6 {
        m.nw_proto = Some(ipproto::UDP);
    } else if style < 7 {
        m.nw_proto = Some(ipproto::ICMP);
    }
    if matches!(m.nw_proto, Some(p) if p == ipproto::TCP || p == ipproto::UDP) {
        if rng.random_bool(0.6) {
            const COMMON: [u16; 10] = [22, 25, 53, 80, 123, 143, 443, 445, 3306, 8080];
            m.tp_dst = Some(COMMON[rng.random_range(0..COMMON.len())]);
        }
        if rng.random_bool(0.1) {
            m.tp_src = Some(rng.random_range(1024..65535));
        }
    }
    if rng.random_bool(0.03) {
        m.nw_tos = Some(rng.random_range(0..64));
    }
    m
}

fn random_action(rng: &mut StdRng, cfg: &AclConfig) -> Vec<Action> {
    if rng.random_bool(cfg.drop_fraction) {
        Vec::new() // drop
    } else {
        let port = rng.random_range(1..=cfg.ports);
        if rng.random_bool(0.06) {
            vec![
                Action::SetNwTos(rng.random_range(0..64)),
                Action::Output(port),
            ]
        } else {
            vec![Action::Output(port)]
        }
    }
}

fn prefix_mask(plen: u8) -> u32 {
    if plen == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(plen))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use monocle_openflow::FlowTable;

    #[test]
    fn generates_requested_counts() {
        // FNV-1a over the `Debug` form: `benchmark/` and every Table 2 figure
        // build their inputs from these two tables, so they must not move.
        let digest = |rules: &[RuleSpec]| {
            format!("{rules:?}")
                .bytes()
                .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                    (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
                })
        };
        let rules = generate(&AclConfig::stanford_like());
        assert_eq!(rules.len(), 2756); // 2755 + default
        assert_eq!(digest(&rules), 0x01ea_8417_79c9_53dc);
        let rules = generate(&AclConfig::campus_like());
        assert_eq!(rules.len(), 10959);
        assert_eq!(digest(&rules), 0x51b9_7f42_7d36_4d7d);
    }

    #[test]
    fn deterministic() {
        let a = generate(&AclConfig::stanford_like());
        let b = generate(&AclConfig::stanford_like());
        assert_eq!(a, b);
    }

    #[test]
    fn priorities_strictly_descend() {
        let rules = generate(&AclConfig::stanford_like());
        for w in rules.windows(2) {
            assert!(w[0].priority > w[1].priority);
        }
    }

    #[test]
    fn loads_into_flow_table() {
        let rules = generate(&AclConfig {
            rules: 500,
            ..AclConfig::stanford_like()
        });
        let mut t = FlowTable::new();
        for r in &rules {
            t.add_rule(r.priority, r.match_, r.actions.clone()).unwrap();
        }
        assert_eq!(t.len(), rules.len());
    }

    #[test]
    fn has_drop_and_forward_mix() {
        let rules = generate(&AclConfig::campus_like());
        let drops = rules.iter().filter(|r| r.actions.is_empty()).count();
        let frac = drops as f64 / rules.len() as f64;
        assert!(frac > 0.3 && frac < 0.7, "drop fraction {frac}");
    }

    #[test]
    fn overlap_is_local_not_global() {
        // §5.4's premise: typical rules overlap a handful of others.
        let rules = generate(&AclConfig {
            rules: 1000,
            ..AclConfig::campus_like()
        });
        let mut t = FlowTable::new();
        for r in &rules {
            t.add_rule(r.priority, r.match_, r.actions.clone()).unwrap();
        }
        let mut total = 0usize;
        for r in t.rules().iter().take(200) {
            total += t.overlapping(&r.tern).len();
        }
        let avg = total as f64 / 200.0;
        assert!(
            avg < rules.len() as f64 * 0.25,
            "overlap should be sparse, avg {avg}"
        );
    }

    #[test]
    fn shadowed_rules_exist() {
        // At least some rules are subsumed by a higher-priority rule.
        let rules = generate(&AclConfig::stanford_like());
        let mut shadowed = 0;
        for (i, r) in rules.iter().enumerate().take(600) {
            let tern = r.match_.ternary();
            if rules[..i]
                .iter()
                .any(|hi| hi.match_.ternary().subsumes(&tern))
            {
                shadowed += 1;
            }
        }
        assert!(shadowed > 10, "found only {shadowed} shadowed rules");
    }
}
