//! No plan moves: stateless probe generation over a fixed slice of the
//! Stanford-like table gives the same plans after the same search. The
//! constants below are what the solver read when they were written; a
//! change to the encoder or the solver that moves any of them moved a plan
//! or the search that found it, and says so by changing them.

use monocle::generator::{generate_probe_with_stats, GenStats, GeneratorConfig};
use monocle::CatchSpec;
use monocle_datasets::acl::{generate, AclConfig};
use monocle_openflow::FlowTable;

/// The rules probed: these positions of the table, in table order. A slice
/// keeps the test to a few seconds in a debug build, and this one holds four
/// rules whose search meets a conflict.
const SLICE: std::ops::Range<usize> = 0..1200;

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

#[test]
fn stateless_generation_on_the_stanford_slice_is_pinned() {
    let mut table = FlowTable::new();
    for r in generate(&AclConfig::stanford_like()) {
        let _ = table.add_rule(r.priority, r.match_, r.actions);
    }
    let ids: Vec<_> = table.rules()[SLICE].iter().map(|r| r.id).collect();
    let (catch, cfg) = (CatchSpec::default(), GeneratorConfig::default());
    let mut sum = GenStats::default();
    let mut hash = Fnv(0xcbf2_9ce4_8422_2325);
    let mut found = 0;
    for id in ids {
        match generate_probe_with_stats(&table, id, &catch, &cfg) {
            Ok((plan, stats)) => {
                found += 1;
                sum += stats;
                for w in plan.header.0 {
                    hash.word(w);
                }
                hash.word(u64::from(plan.in_port));
            }
            Err(e) => hash.bytes(format!("{e:?}").as_bytes()),
        }
    }
    assert_eq!(found, 1056);
    let search = (
        sum.solver_calls,
        sum.instances_built,
        sum.clauses,
        sum.solver_propagations,
        sum.conflicts,
    );
    assert_eq!(search, (1056, 1056, 1_846_055, 326_652, 6));
    assert_eq!(hash.0, 13_699_011_007_704_316_737, "a result moved");
}
