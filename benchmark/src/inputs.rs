//! Benchmark inputs: the two paper-size ACL tables and the seeded update
//! stream every workload replays.
//!
//! The tables are the repository's fixed, paper-calibrated datasets
//! (`acl::AclConfig::{stanford_like, campus_like}`); `--seed` decides which
//! rules churn or break, in which order and to what. Keeping the table
//! fixed keeps the spread across seeds about the *product's* timing, and
//! lets the O(n²) synthesis (11 s for Campus) be paid once per checkout:
//! generated tables are cached as a stream of OF1.0 `FlowMod` frames under
//! `<out>/inputs/`.

use std::collections::{BTreeMap, HashSet, VecDeque};
use std::path::Path;
use std::time::Instant;

use monocle_datasets::acl::{self, AclConfig};
use monocle_datasets::RuleSpec;
use monocle_openflow::flowmatch::{headervec_to_packet, packet_to_headervec};
use monocle_openflow::{wire, Action, ActionProgram, FlowMod, FlowTable, Framer, Match, OfMessage};
use monocle_packet::PacketFields;

/// SplitMix64: the benchmark's own generator, so its inputs cannot drift
/// with the workspace's vendored `rand`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    /// Stanford backbone "yoza" scale: 2755 ACL rules + a default route.
    Stanford,
    /// Campus scale: 10 958 ACL rules + a default route.
    Campus,
}

impl Dataset {
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Stanford => "stanford",
            Dataset::Campus => "campus",
        }
    }

    fn config(self) -> AclConfig {
        match self {
            Dataset::Stanford => AclConfig::stanford_like(),
            Dataset::Campus => AclConfig::campus_like(),
        }
    }
}

/// A generated table, highest priority first, default route last.
#[derive(Debug, Clone)]
pub struct TableSpec {
    pub rules: Vec<RuleSpec>,
    /// Seconds spent synthesising (0 when served from the cache). Reported
    /// as `inputgen_s`; never part of `setup_s`.
    pub inputgen_s: f64,
}

impl TableSpec {
    /// The first `acl_rules` ACL entries plus the default route.
    pub fn truncated(&self, acl_rules: usize) -> TableSpec {
        let n = self.rules.len();
        let mut rules: Vec<RuleSpec> = self.rules[..acl_rules.min(n - 1)].to_vec();
        rules.push(self.rules[n - 1].clone());
        TableSpec {
            rules,
            inputgen_s: self.inputgen_s,
        }
    }

    pub fn build(&self) -> FlowTable {
        let mut t = FlowTable::new();
        for r in &self.rules {
            t.add_rule(r.priority, r.match_, r.actions.clone())
                .expect("generated ACL rules have valid action lists");
        }
        t
    }

    /// Install order for a preload: the default route first, so every later
    /// rule has an observable "absent" outcome, then highest priority first.
    pub fn preload_order(&self) -> impl Iterator<Item = &RuleSpec> {
        let n = self.rules.len();
        self.rules[n - 1..].iter().chain(self.rules[..n - 1].iter())
    }
}

fn add_of(r: &RuleSpec) -> FlowMod {
    FlowMod::add(r.priority, r.match_, r.actions.clone())
}

fn encode_rules(rules: &[RuleSpec]) -> Vec<u8> {
    let mut out = Vec::new();
    for r in rules {
        out.extend_from_slice(&wire::encode(&OfMessage::FlowMod(add_of(r)), 0));
    }
    out
}

fn decode_rules(bytes: &[u8]) -> Option<Vec<RuleSpec>> {
    let mut framer = Framer::new();
    framer.push(bytes);
    let mut rules = Vec::new();
    while let Some((msg, _)) = framer.next_frame().ok()? {
        let OfMessage::FlowMod(fm) = msg else {
            return None;
        };
        rules.push(RuleSpec {
            priority: fm.priority,
            match_: fm.match_,
            actions: fm.actions,
        });
    }
    (framer.buffered() == 0).then_some(rules)
}

/// The first `acl_rules` entries of `dataset` plus its default route,
/// synthesised directly: `--smoke` must not pay (or cache) a full table.
pub fn load_small(dataset: Dataset, acl_rules: usize) -> TableSpec {
    let t0 = Instant::now();
    let rules = acl::generate(&AclConfig {
        rules: acl_rules,
        ..dataset.config()
    });
    TableSpec {
        rules,
        inputgen_s: t0.elapsed().as_secs_f64(),
    }
}

/// Loads `dataset` from `<out>/inputs/`, generating and caching it on a
/// miss. A cache file that does not decode to the expected rule count is
/// regenerated.
pub fn load(dataset: Dataset, out_dir: &Path) -> TableSpec {
    let cfg = dataset.config();
    let path = out_dir
        .join("inputs")
        .join(format!("{}.of10", dataset.name()));
    if let Some(rules) = std::fs::read(&path).ok().and_then(|b| decode_rules(&b)) {
        if rules.len() == cfg.rules + 1 {
            return TableSpec {
                rules,
                inputgen_s: 0.0,
            };
        }
    }
    let t0 = Instant::now();
    let rules = acl::generate(&cfg);
    let inputgen_s = t0.elapsed().as_secs_f64();
    // Best effort: a read-only checkout only costs the next run the
    // synthesis again. Write-then-rename so a killed run leaves no torn file.
    if let Some(dir) = path.parent() {
        let tmp = path.with_extension(format!("tmp{}", std::process::id()));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&tmp, encode_rules(&rules)))
            .and_then(|()| std::fs::rename(&tmp, &path));
        if written.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }
    TableSpec { rules, inputgen_s }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Strict delete of a live ACL rule.
    Delete,
    /// Re-add of a rule an earlier op deleted.
    Readd,
    /// Strict modify of a live rule's actions.
    Modify,
}

/// One controller update. `fm.cookie` carries `index + 1`, which lets the
/// switch endpoint attribute the forwarded FlowMod (the proxy re-xids it).
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    pub index: u64,
    pub kind: OpKind,
    /// Index of the touched rule in the table spec.
    pub rule: usize,
    pub fm: FlowMod,
}

/// The update mix, one cycle: ¼ strict delete, ¼ re-add, ½ strict modify.
const CYCLE: [OpKind; 4] = [
    OpKind::Delete,
    OpKind::Readd,
    OpKind::Modify,
    OpKind::Modify,
];

/// Golden-ratio conjugate: `frac(offset + i·φ)` is the low-discrepancy walk
/// the stream takes over the rules.
const PHI: f64 = 0.618_033_988_749_894_9;

/// The seeded update stream. Lazy and endless; op `i` depends only on the
/// table, the seed and `i`.
///
/// What an update costs the product depends mostly on how many other rules
/// the touched rule overlaps, and that number is heavy-tailed (median a
/// handful, mean in the hundreds on the Campus table). Drawing victims
/// uniformly at random made 150-update runs differ by ±30 % between seeds
/// for no reason the product is responsible for. The stream therefore keeps
/// the live rules ordered by overlap degree and walks that order with a
/// golden-ratio step from a seed-chosen offset: every seed touches different
/// rules, and every seed touches the same share of cheap and expensive ones.
/// The seed also decides every new action list.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: Rng,
    /// Current actions per rule (modifies update them).
    actions: Vec<ActionProgram>,
    spec: Vec<(u16, Match)>,
    /// Position of each rule in the overlap-degree order (ties by index).
    rank: Vec<u32>,
    /// Live ACL rules, ascending by `rank`.
    live: Vec<usize>,
    /// Deleted rules, oldest first.
    removed: VecDeque<usize>,
    /// Rules touched by the last `cooldown` ops are not picked again, so
    /// updates in flight rarely target the same rule.
    recent: VecDeque<usize>,
    recent_set: HashSet<usize>,
    cooldown: usize,
    offset: f64,
    next_index: u64,
    ports: u16,
    /// Strict modifies only (the `detect_breakage` churn).
    modify_only: bool,
}

impl OpStream {
    /// `cooldown` should be at least the number of updates in flight; it is
    /// clamped so that half of the rules always stay eligible.
    pub fn new(table: &TableSpec, seed: u64, cooldown: usize) -> OpStream {
        let acl = table.rules.len() - 1; // the default route never churns
        assert!(acl >= 8, "need a few ACL rules to churn");
        let built = table.build();
        let degree: Vec<usize> = table.rules[..acl]
            .iter()
            .map(|r| built.overlapping(&r.match_.ternary()).len())
            .collect();
        let mut live: Vec<usize> = (0..acl).collect();
        live.sort_by_key(|&r| (degree[r], r));
        let mut rank = vec![0u32; acl];
        for (pos, &r) in live.iter().enumerate() {
            rank[r] = pos as u32;
        }
        let mut rng = Rng::new(seed ^ 0x6f70_7374_7265_616d); // "opstream"
        let offset = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        OpStream {
            rng,
            actions: table.rules.iter().map(|r| r.actions.clone()).collect(),
            spec: table.rules.iter().map(|r| (r.priority, r.match_)).collect(),
            rank,
            live,
            removed: VecDeque::new(),
            recent: VecDeque::new(),
            recent_set: HashSet::new(),
            cooldown: cooldown.min(acl / 2),
            offset,
            next_index: 0,
            ports: 16,
            modify_only: false,
        }
    }

    /// The same walk with every op a strict modify.
    pub fn modifies_only(table: &TableSpec, seed: u64, cooldown: usize) -> OpStream {
        OpStream {
            modify_only: true,
            ..OpStream::new(table, seed, cooldown)
        }
    }

    fn touch(&mut self, rule: usize) {
        self.recent.push_back(rule);
        self.recent_set.insert(rule);
        if self.recent.len() > self.cooldown {
            if let Some(old) = self.recent.pop_front() {
                self.recent_set.remove(&old);
            }
        }
    }

    /// Position in `live` of op `index`'s victim: the walk's point, moved
    /// forward past rules that are cooling down (their neighbours overlap
    /// about as many rules). At most half the rules cool down at once.
    fn pick_live(&mut self, index: u64) -> usize {
        let u = (self.offset + index as f64 * PHI).fract();
        let n = self.live.len();
        let mut pos = ((u * n as f64) as usize).min(n - 1);
        for _ in 0..n {
            if !self.recent_set.contains(&self.live[pos]) {
                break;
            }
            pos = (pos + 1) % n;
        }
        self.touch(self.live[pos]);
        pos
    }

    fn new_actions(&mut self, old: &ActionProgram) -> ActionProgram {
        let old_port = old.iter().find_map(|a| match a {
            Action::Output(p) => Some(*p),
            _ => None,
        });
        // Forwarding rules turn into drops about as often as the datasets
        // hold drops; the result always differs from `old`.
        if old_port.is_some() && self.rng.below(3) == 0 {
            return Vec::new();
        }
        let mut port = 1 + self.rng.below(usize::from(self.ports)) as u16;
        if Some(port) == old_port {
            port = port % self.ports + 1;
        }
        vec![Action::Output(port)]
    }

    pub fn next_op(&mut self) -> Op {
        let index = self.next_index;
        self.next_index += 1;
        // The oldest deleted rule comes back once it has cooled down; until
        // one has, the re-add slot of the cycle is a modify.
        let readd = self
            .removed
            .front()
            .is_some_and(|r| !self.recent_set.contains(r));
        let kind = match CYCLE[(index % 4) as usize] {
            _ if self.modify_only => OpKind::Modify,
            OpKind::Readd if !readd => OpKind::Modify,
            kind => kind,
        };
        let (rule, mut fm) = match kind {
            OpKind::Delete => {
                let pos = self.pick_live(index);
                let rule = self.live.remove(pos);
                self.removed.push_back(rule);
                let (prio, m) = self.spec[rule];
                (rule, FlowMod::delete_strict(prio, m))
            }
            OpKind::Readd => {
                let rule = self.removed.pop_front().expect("checked non-empty above");
                self.touch(rule);
                let at = self
                    .live
                    .partition_point(|&r| self.rank[r] < self.rank[rule]);
                self.live.insert(at, rule);
                let (prio, m) = self.spec[rule];
                (rule, FlowMod::add(prio, m, self.actions[rule].clone()))
            }
            OpKind::Modify => {
                let pos = self.pick_live(index);
                let rule = self.live[pos];
                let old = self.actions[rule].clone();
                let new = self.new_actions(&old);
                self.actions[rule] = new.clone();
                let (prio, m) = self.spec[rule];
                (rule, FlowMod::modify_strict(prio, m, new))
            }
        };
        fm.cookie = index + 1;
        Op {
            index,
            kind,
            rule,
            fm,
        }
    }

    /// The table the ops issued so far should leave behind, keyed by
    /// priority (unique within the ACL datasets).
    pub fn model(&self) -> BTreeMap<u16, (Match, ActionProgram)> {
        let default = self.spec.len() - 1;
        self.live
            .iter()
            .copied()
            .chain(std::iter::once(default))
            .map(|r| (self.spec[r].0, (self.spec[r].1, self.actions[r].clone())))
            .collect()
    }
}

/// What `datapath` sends back for a probe entering on `in_port`: one
/// `(egress port, header as received)` per leg, none when it drops.
/// `ecmp_choice` 0 is the deterministic pick the proxy plans with.
pub fn answer_probe(
    datapath: &FlowTable,
    in_port: u16,
    fields: &PacketFields,
) -> Vec<(u16, PacketFields)> {
    datapath
        .process(&packet_to_headervec(in_port, fields), 0)
        .into_iter()
        .map(|(port, hdr)| (port, headervec_to_packet(&hdr)))
        .collect()
}

/// A flow table's content in the same shape as [`OpStream::model`].
pub fn table_content(table: &FlowTable) -> BTreeMap<u16, (Match, ActionProgram)> {
    table
        .rules()
        .iter()
        .map(|r| (r.priority, (r.match_, r.actions.clone())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_table() -> TableSpec {
        TableSpec {
            rules: acl::generate(&AclConfig {
                rules: 60,
                ..AclConfig::stanford_like()
            }),
            inputgen_s: 0.0,
        }
    }

    #[test]
    fn op_stream_is_deterministic_per_seed() {
        let table = small_table();
        let take = |seed| {
            let mut s = OpStream::new(&table, seed, 8);
            (0..200).map(|_| s.next_op()).collect::<Vec<_>>()
        };
        assert_eq!(take(1), take(1));
        assert_ne!(take(1), take(2));
    }

    #[test]
    fn op_stream_keeps_size_mix_and_cooldown() {
        let table = small_table();
        let mut s = OpStream::new(&table, 7, 8);
        let mut datapath = table.build();
        let mut kinds = [0usize; 3];
        let mut last: VecDeque<usize> = VecDeque::new();
        for i in 0..2000u64 {
            let op = s.next_op();
            assert_eq!(op.fm.cookie, i + 1);
            assert!(
                !last.contains(&op.rule),
                "rule {} reused within cooldown",
                op.rule
            );
            last.push_back(op.rule);
            if last.len() > 8 {
                last.pop_front();
            }
            kinds[op.kind as usize] += 1;
            datapath.apply(&op.fm).unwrap();
            let n = datapath.len();
            assert!((61 - 8..=61).contains(&n), "table size drifted to {n}");
        }
        // ¼ / ¼ / ½: re-adds wait for the cooldown, so a few early slots
        // of the cycle fall back to modifies.
        assert_eq!(kinds[0], 500, "{kinds:?}");
        assert!((490..=500).contains(&kinds[1]), "{kinds:?}");
        assert_eq!(kinds.iter().sum::<usize>(), 2000);
        // Replaying the FlowMods on a real table lands on the model.
        assert_eq!(table_content(&datapath), s.model());
    }

    #[test]
    fn every_seed_touches_the_same_share_of_expensive_rules() {
        let table = TableSpec {
            rules: acl::generate(&AclConfig {
                rules: 600,
                ..AclConfig::stanford_like()
            }),
            inputgen_s: 0.0,
        };
        let built = table.build();
        let degree: Vec<usize> = table
            .rules
            .iter()
            .map(|r| built.overlapping(&r.match_.ternary()).len())
            .collect();
        let touched_degree = |seed| -> usize {
            let mut s = OpStream::new(&table, seed, 16);
            (0..400).map(|_| degree[s.next_op().rule]).sum()
        };
        let totals: Vec<usize> = (1..=6).map(touched_degree).collect();
        let (lo, hi) = (totals.iter().min().unwrap(), totals.iter().max().unwrap());
        // Uniform random victims spread this sum by ±30 %.
        assert!(
            (*hi as f64) < *lo as f64 * 1.12,
            "overlap work differs too much between seeds: {totals:?}"
        );
    }

    #[test]
    fn modifies_always_change_the_actions() {
        let table = small_table();
        let mut s = OpStream::new(&table, 3, 4);
        let mut actions: Vec<ActionProgram> =
            table.rules.iter().map(|r| r.actions.clone()).collect();
        for _ in 0..500 {
            let op = s.next_op();
            if op.kind == OpKind::Modify {
                assert_ne!(op.fm.actions, actions[op.rule]);
                actions[op.rule] = op.fm.actions.clone();
            }
        }
    }

    #[test]
    fn cache_round_trips_through_the_wire_codec() {
        let table = small_table();
        let bytes = encode_rules(&table.rules);
        assert_eq!(decode_rules(&bytes).unwrap(), table.rules);
        assert!(decode_rules(&bytes[..bytes.len() - 3]).is_none());
    }

    #[test]
    fn preload_starts_with_the_default_route() {
        let table = small_table();
        let order: Vec<_> = table.preload_order().collect();
        assert_eq!(order.len(), 61);
        assert_eq!(order[0].match_, Match::any());
        assert_eq!(order[1].priority, table.rules[0].priority);
        let small = table.truncated(10);
        assert_eq!(small.rules.len(), 11);
        assert_eq!(small.rules[10].match_, Match::any());
    }
}
