//! Property-based tests for the SAT toolkit: differential testing of the
//! CDCL solver against the DPLL reference and a brute-force oracle, model
//! validity, and one solver reused across formulas against a fresh solver
//! per formula.

use monocle_sat::{solve, CdclSolver, Cnf, DpllSolver, SatResult, SolveOutcome, SolverStats};
use proptest::prelude::*;

/// Generates a random CNF with up to `max_vars` variables and `max_clauses`
/// clauses of 1..=4 literals.
fn arb_cnf(max_vars: u32, max_clauses: usize) -> impl Strategy<Value = Cnf> {
    let clause = prop::collection::vec((1..=max_vars, any::<bool>()), 1..=4);
    prop::collection::vec(clause, 0..=max_clauses).prop_map(|clauses| {
        let mut cnf = Cnf::new();
        for cl in clauses {
            let lits: Vec<i32> = cl
                .into_iter()
                .map(|(v, neg)| if neg { -(v as i32) } else { v as i32 })
                .collect();
            cnf.add_clause(&lits);
        }
        cnf
    })
}

/// Pigeonhole PHP(holes + 1, holes): UNSAT, and past a handful of holes more
/// conflicts than a small budget allows.
fn pigeonhole(holes: u32) -> Cnf {
    let var = |p: u32, h: u32| (p * holes + h + 1) as i32;
    let mut cnf = Cnf::new();
    for p in 0..=holes {
        cnf.add_clause(&(0..holes).map(|h| var(p, h)).collect::<Vec<_>>());
    }
    for h in 0..holes {
        for p1 in 0..=holes {
            for p2 in p1 + 1..=holes {
                cnf.add_clause(&[-var(p1, h), -var(p2, h)]);
            }
        }
    }
    cnf
}

/// A formula of a reuse sequence: mostly random, at times a pigeonhole that
/// a small budget cannot finish.
fn arb_formula() -> impl Strategy<Value = Cnf> {
    prop_oneof![
        4 => arb_cnf(16, 60),
        1 => (2u32..=6).prop_map(pigeonhole),
    ]
}

/// The counters a solve reports, less the arena's growth events: a reused
/// solver's buffers are already grown, which is the point of reusing it.
fn search_stats(out: &SolveOutcome) -> SolverStats {
    SolverStats {
        arena_reallocs: 0,
        ..out.stats
    }
}

/// Header bits of an encoder-shaped formula; its definitions' variables come
/// after them.
const BITS: i32 = 10;

/// A literal over the header bits.
fn arb_bit_lit() -> impl Strategy<Value = i32> {
    (1..=BITS, any::<bool>()).prop_map(|(v, neg)| if neg { -v } else { v })
}

/// A formula shaped as a probe instance is: unit clauses on header bits,
/// Tseitin definitions `m ⇔ l₁ ∧ … ∧ lₖ` over fresh variables (the binaries
/// `¬m ∨ lᵢ` and the long clause `¬l₁ ∨ … ∨ ¬lₖ ∨ m`, two literals long for
/// `k = 1`), two-literal clauses among which some repeat a literal, repeat a
/// definition's binary or pair a literal with its complement, and one clause
/// over the definitions, as Distinguish has.
fn arb_encoder_formula() -> impl Strategy<Value = Cnf> {
    (
        prop::collection::vec(arb_bit_lit(), 0..=4),
        prop::collection::vec(prop::collection::vec(arb_bit_lit(), 1..=4), 1..=6),
        prop::collection::vec((arb_bit_lit(), arb_bit_lit(), 0u8..4), 0..=8),
        prop::collection::vec(any::<bool>(), 1..=6),
    )
        .prop_map(|(units, defs, pairs, signs)| {
            let mut cnf = Cnf::new();
            cnf.grow_vars(BITS as u32);
            for &u in &units {
                cnf.add_clause(&[u]);
            }
            let mut defined = Vec::new();
            for def in &defs {
                let m = cnf.fresh_var() as i32;
                for &l in def {
                    cnf.add_clause(&[-m, l]);
                }
                let mut long: Vec<i32> = def.iter().map(|&l| -l).collect();
                long.push(m);
                cnf.add_clause(&long);
                defined.push((m, def[0]));
            }
            for (i, &(a, b, kind)) in pairs.iter().enumerate() {
                match kind {
                    0 | 1 => cnf.add_clause(&[a, b]),
                    2 => cnf.add_clause(&[a, a]),
                    _ if i % 2 == 0 => cnf.add_clause(&[a, -a]),
                    _ => {
                        let (m, l) = defined[i % defined.len()];
                        cnf.add_clause(&[l, -m]);
                    }
                }
            }
            let distinguish: Vec<i32> = defined
                .iter()
                .zip(signs.iter().cycle())
                .map(|(&(m, _), &neg)| if neg { -m } else { m })
                .collect();
            cnf.add_clause(&distinguish);
            cnf
        })
}

/// Brute force oracle: tries all 2^n assignments.
fn brute_force_sat(cnf: &Cnf) -> bool {
    let n = cnf.num_vars();
    assert!(n <= 20, "oracle only for small instances");
    for bits in 0u64..(1u64 << n) {
        let ok = cnf.clauses().all(|cl| {
            cl.iter().any(|&l| {
                let v = l.unsigned_abs();
                let val = bits >> (v - 1) & 1 == 1;
                if l > 0 {
                    val
                } else {
                    !val
                }
            })
        });
        if ok {
            return true;
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cdcl_matches_brute_force(cnf in arb_cnf(8, 30)) {
        let expected = brute_force_sat(&cnf);
        match solve(&cnf) {
            SatResult::Sat(m) => {
                prop_assert!(expected, "CDCL said SAT but oracle disagrees");
                prop_assert!(m.satisfies(&cnf), "model does not satisfy the formula");
            }
            SatResult::Unsat => prop_assert!(!expected, "CDCL said UNSAT but oracle disagrees"),
            SatResult::Unknown => prop_assert!(false, "no budget given, Unknown impossible"),
        }
    }

    #[test]
    fn cdcl_matches_dpll(cnf in arb_cnf(12, 50)) {
        let c = CdclSolver::new().solve(&cnf);
        let d = DpllSolver::new().solve(&cnf);
        prop_assert_eq!(c.is_sat(), d.is_sat());
        if let SatResult::Sat(m) = c {
            prop_assert!(m.satisfies(&cnf));
        }
        if let SatResult::Sat(m) = d {
            prop_assert!(m.satisfies(&cnf));
        }
    }

    /// Formulas shaped as probe instances, most of their clauses binary:
    /// the solver agrees with the DPLL reference, and its model satisfies
    /// the formula.
    #[test]
    fn encoder_shaped_formulas_agree_with_dpll(cnf in arb_encoder_formula()) {
        let c = CdclSolver::new().solve(&cnf);
        prop_assert_eq!(c.is_sat(), DpllSolver::new().solve(&cnf).is_sat());
        if let SatResult::Sat(m) = c {
            prop_assert!(m.satisfies(&cnf));
        }
    }

    #[test]
    fn solver_deterministic(cnf in arb_cnf(10, 40)) {
        let a = CdclSolver::new().solve(&cnf);
        let b = CdclSolver::new().solve(&cnf);
        prop_assert_eq!(a, b);
    }

    /// One solver reused across a sequence of formulas of varying sizes
    /// answers each exactly as a fresh solver does: the same result, model
    /// included, after the same search, with the conflict budget applying
    /// to each call on its own, a call right after a budget-exhausted one
    /// included.
    #[test]
    fn a_reused_solver_answers_as_a_fresh_one(
        formulas in prop::collection::vec(arb_formula(), 1..12),
        budget in prop_oneof![Just(None), (1u64..40).prop_map(Some)],
    ) {
        let solver = || match budget {
            Some(b) => CdclSolver::new().with_conflict_budget(b),
            None => CdclSolver::new(),
        };
        let mut reused = solver();
        for (i, cnf) in formulas.iter().enumerate() {
            let fresh = solver().solve_with_stats(cnf);
            let again = reused.solve_with_stats(cnf);
            prop_assert_eq!(&again.result, &fresh.result, "formula {}", i);
            prop_assert_eq!(search_stats(&again), search_stats(&fresh), "formula {}", i);
        }
    }
}

#[test]
fn a_reused_solver_gets_its_budget_back_after_exhausting_it() {
    let mut reused = CdclSolver::new().with_conflict_budget(30);
    let mut easy = Cnf::new();
    easy.add_clause(&[1, 2]);
    easy.add_clause(&[-1]);
    for cnf in [pigeonhole(6), pigeonhole(3), pigeonhole(6), easy] {
        let fresh = CdclSolver::new().with_conflict_budget(30).solve(&cnf);
        assert_eq!(reused.solve(&cnf), fresh);
    }
    assert_eq!(reused.solve(&pigeonhole(7)), SatResult::Unknown);
    assert_eq!(reused.solve(&pigeonhole(2)), SatResult::Unsat);
}

#[test]
fn larger_random_instances_agree() {
    // A deterministic mini-fuzz loop beyond proptest's default sizes.
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for round in 0..50 {
        let nvars = rng.random_range(5..=16);
        let nclauses = rng.random_range(10..=70);
        let mut cnf = Cnf::new();
        for _ in 0..nclauses {
            let len = rng.random_range(1..=3);
            let lits: Vec<i32> = (0..len)
                .map(|_| {
                    let v: i32 = rng.random_range(1..=nvars);
                    if rng.random_bool(0.5) {
                        v
                    } else {
                        -v
                    }
                })
                .collect();
            cnf.add_clause(&lits);
        }
        let c = CdclSolver::new().solve(&cnf);
        let d = DpllSolver::new().solve(&cnf);
        assert_eq!(c.is_sat(), d.is_sat(), "round {round}");
        if let SatResult::Sat(m) = c {
            assert!(m.satisfies(&cnf), "round {round}");
        }
    }
}

/// 64-bit FNV-1a over `words`, continuing from `h`.
fn fnv(mut h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// The search on a fixed set of seeded formulas is pinned: every answer,
/// model and search counter, hashed, plus how many were SAT and the summed
/// conflicts and learnt clauses. A fifth of each formula's clauses are
/// binary and the rest ternary, 3.3 clauses per variable, so the searches
/// conflict, learn binary and longer clauses and resolve through both kinds
/// of reason. A change to how the solver stores, watches or analyses a clause
/// that moves any decision moves the hash. No formula learns enough for
/// `reduce_db` to run, so the order it leaves the watch lists in is not
/// pinned here.
#[test]
fn the_search_on_seeded_formulas_is_pinned() {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(0x5eed_b1a7);
    let (mut hash, mut conflicts, mut learnts) = (0xcbf2_9ce4_8422_2325u64, 0u64, 0u64);
    let mut sats = 0;
    for _ in 0..120 {
        let nvars: i32 = rng.random_range(120..=250);
        let mut cnf = Cnf::new();
        for _ in 0..(nvars * 33 / 10) {
            let len = if rng.random_bool(0.2) { 2 } else { 3 };
            let lits: Vec<i32> = (0..len)
                .map(|_| {
                    let v = rng.random_range(1..=nvars);
                    if rng.random_bool(0.5) {
                        v
                    } else {
                        -v
                    }
                })
                .collect();
            cnf.add_clause(&lits);
        }
        let out = CdclSolver::new().solve_with_stats(&cnf);
        let answer: Vec<u64> = match &out.result {
            SatResult::Sat(m) => {
                sats += 1;
                assert!(m.satisfies(&cnf));
                (1..=cnf.num_vars())
                    .map(|v| u64::from(m.value(v)))
                    .collect()
            }
            SatResult::Unsat => vec![2],
            SatResult::Unknown => vec![3],
        };
        let s = out.stats;
        hash = fnv(hash, answer);
        hash = fnv(
            hash,
            [
                s.decisions,
                s.propagations,
                s.conflicts,
                s.restarts,
                s.learnt_clauses,
            ],
        );
        conflicts += s.conflicts;
        learnts += s.learnt_clauses;
    }
    assert_eq!(
        (sats, conflicts, learnts, hash),
        (24, 4353, 3880, 15_777_279_548_896_177_316)
    );
}
