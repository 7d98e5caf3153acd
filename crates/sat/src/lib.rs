//! SAT toolkit used by Monocle's probe generator.
//!
//! The paper (§5.3, §7, Appendix B) converts probe-generation constraints
//! into plain CNF and feeds them to PicoSAT, after finding that off-the-shelf
//! SMT solvers were 3–5× slower for these tiny instances. This crate is the
//! Rust equivalent of that pipeline:
//!
//! * [`Cnf`] — clause database stored as one flat `i32` vector in DIMACS
//!   layout (literals separated by `0`). The paper explicitly reports that a
//!   one-dimensional representation (instead of a vector-of-vectors) was
//!   required for performance; we keep the same layout so no per-clause
//!   allocation happens while constraints are built.
//! * [`solver::CdclSolver`] — a conflict-driven clause-learning solver with
//!   two-watched-literal propagation, VSIDS branching, phase saving, Luby
//!   restarts and learnt-clause database reduction.
//! * [`dpll::DpllSolver`] — a small reference solver used for differential
//!   testing and for the solver ablation benchmark.
//!
//! The paper's if-then-else chain encoding (Velev's construction, §5.3 and
//! Appendix B) is not here: it is the test oracle of `monocle::encode`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cnf;
pub mod dpll;
pub mod solver;

pub use cnf::{Cnf, CnfMark, Lit, Var};
pub use dpll::DpllSolver;
pub use solver::{CdclSolver, SolveOutcome, SolverStats};

/// Result of a satisfiability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Formula is satisfiable; the model maps `var -> bool` for all variables
    /// `1..=num_vars` (index 0 unused).
    Sat(Model),
    /// Formula is unsatisfiable.
    Unsat,
    /// Resource budget (conflict limit) exhausted before an answer was found.
    Unknown,
}

impl SatResult {
    /// True if this result is [`SatResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// Extracts the model, panicking when unsat/unknown. Test helper.
    pub fn model(self) -> Model {
        match self {
            SatResult::Sat(m) => m,
            other => panic!("expected SAT, got {other:?}"),
        }
    }
}

/// A satisfying assignment. `value(v)` for `v` in `1..=num_vars`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Model {
    values: Vec<bool>,
}

impl Model {
    /// Builds a model from per-variable booleans (`values[0]` is ignored and
    /// conventionally `false`).
    pub fn from_values(values: Vec<bool>) -> Self {
        Model { values }
    }

    /// Truth value of variable `v` (1-based).
    pub fn value(&self, v: Var) -> bool {
        self.values[v as usize]
    }

    /// Truth value of a literal (DIMACS convention: negative = negated).
    pub fn lit_value(&self, l: Lit) -> bool {
        let v = l.unsigned_abs() as usize;
        let val = self.values[v];
        if l > 0 {
            val
        } else {
            !val
        }
    }

    /// Number of variables covered by the model.
    pub fn num_vars(&self) -> usize {
        self.values.len().saturating_sub(1)
    }

    /// Checks the model against a CNF; true iff every clause has a true literal.
    pub fn satisfies(&self, cnf: &Cnf) -> bool {
        cnf.clauses()
            .all(|cl| cl.iter().any(|&l| self.lit_value(l)))
    }
}

/// Convenience front door: solve a CNF with the CDCL solver and no budget.
pub fn solve(cnf: &Cnf) -> SatResult {
    CdclSolver::new().solve(cnf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trivial_sat() {
        let mut cnf = Cnf::new();
        cnf.add_clause(&[1, 2]);
        cnf.add_clause(&[-1]);
        let m = solve(&cnf).model();
        assert!(!m.value(1));
        assert!(m.value(2));
    }

    #[test]
    fn trivial_unsat() {
        let mut cnf = Cnf::new();
        cnf.add_clause(&[1]);
        cnf.add_clause(&[-1]);
        assert_eq!(solve(&cnf), SatResult::Unsat);
    }

    #[test]
    fn empty_cnf_is_sat() {
        let cnf = Cnf::new();
        assert!(solve(&cnf).is_sat());
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut cnf = Cnf::new();
        cnf.add_clause(&[]);
        assert_eq!(solve(&cnf), SatResult::Unsat);
    }

    #[test]
    fn model_satisfies_reports_truth() {
        let mut cnf = Cnf::new();
        cnf.add_clause(&[1, -2]);
        cnf.add_clause(&[2, 3]);
        let m = Model::from_values(vec![false, true, false, true]);
        assert!(m.satisfies(&cnf));
        let bad = Model::from_values(vec![false, false, true, false]);
        assert!(!bad.satisfies(&cnf));
    }
}
