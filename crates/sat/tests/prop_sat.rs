//! Property-based tests for the SAT toolkit: differential testing of the
//! CDCL solver against the DPLL reference and a brute-force oracle, and model
//! validity.

use monocle_sat::{solve, CdclSolver, Cnf, DpllSolver, SatResult};
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

    #[test]
    fn solver_deterministic(cnf in arb_cnf(10, 40)) {
        let a = CdclSolver::new().solve(&cnf);
        let b = CdclSolver::new().solve(&cnf);
        prop_assert_eq!(a, b);
    }
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
