//! Flat-vector CNF clause database.
//!
//! Clauses are stored in a single `Vec<i32>` using the DIMACS body layout:
//! the literals of each clause followed by a `0` terminator. The paper's
//! implementation section (§7) reports that exactly this one-dimensional
//! representation was needed to make constraint construction fast (a
//! vector-of-vectors "necessitated malloc()-ing of too many small objects").
//! Building a clause is therefore just a series of `push` calls on one
//! growable buffer.

/// A propositional variable, 1-based as in DIMACS.
pub type Var = u32;

/// A literal in DIMACS convention: `v` is the positive literal of variable
/// `v`, `-v` its negation. `0` is reserved as the clause terminator and is
/// never a valid literal.
pub type Lit = i32;

/// A point in a [`Cnf`]'s clause sequence, taken with [`Cnf::mark`], that
/// [`Cnf::truncate`] rolls the formula back to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CnfMark {
    lits: usize,
    num_vars: Var,
    num_clauses: usize,
    long_clauses: usize,
    long_words: usize,
}

/// Clause database in flat DIMACS layout.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cnf {
    /// `lit lit lit 0 lit lit 0 ...`
    data: Vec<i32>,
    /// Highest variable index mentioned (also the variable count).
    num_vars: Var,
    /// Number of clauses (number of `0` terminators).
    num_clauses: usize,
    /// Clauses of three or more literals, and the words they take in `data`
    /// (terminators included): what a solver keeps beyond its watch lists.
    long_clauses: usize,
    long_words: usize,
    /// Where the clause being built starts in `data`.
    clause_start: usize,
}

impl Cnf {
    /// Empty formula (vacuously satisfiable).
    pub fn new() -> Self {
        Cnf::default()
    }

    /// Empty formula with reserved capacity for `lits` literal slots.
    pub fn with_capacity(lits: usize) -> Self {
        Cnf {
            data: Vec::with_capacity(lits),
            ..Cnf::default()
        }
    }

    /// Number of variables (the highest index used).
    pub fn num_vars(&self) -> Var {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.num_clauses
    }

    /// Raw flat buffer (DIMACS body layout), mainly for I/O and tests.
    pub fn raw(&self) -> &[i32] {
        &self.data
    }

    /// Clauses of three or more literals, and the words of [`Cnf::raw`]
    /// they take, terminators included.
    pub(crate) fn long_clauses(&self) -> (usize, usize) {
        (self.long_clauses, self.long_words)
    }

    /// Terminates the clause being built and counts it.
    fn close_clause(&mut self) {
        self.data.push(0);
        self.num_clauses += 1;
        let words = self.data.len() - self.clause_start;
        if words > 3 {
            self.long_clauses += 1;
            self.long_words += words;
        }
        self.clause_start = self.data.len();
    }

    /// Ensures the variable count is at least `v` even if no clause mentions
    /// it (used when callers allocate fresh Tseitin variables up front).
    pub fn grow_vars(&mut self, v: Var) {
        self.num_vars = self.num_vars.max(v);
    }

    /// Allocates and returns a fresh variable.
    pub fn fresh_var(&mut self) -> Var {
        self.num_vars += 1;
        self.num_vars
    }

    /// Adds a clause given as a slice of literals.
    ///
    /// An empty slice adds the empty clause, making the formula trivially
    /// unsatisfiable. Duplicate literals are kept (harmless); callers that
    /// want tautology elimination should use [`Cnf::add_clause_checked`].
    pub fn add_clause(&mut self, lits: &[Lit]) {
        for &l in lits {
            debug_assert!(l != 0, "literal 0 is the clause terminator");
            self.num_vars = self.num_vars.max(l.unsigned_abs());
            self.data.push(l);
        }
        self.close_clause();
    }

    /// Adds a clause unless it is a tautology (contains `l` and `-l`);
    /// duplicate literals are removed. Returns true if the clause was added.
    pub fn add_clause_checked(&mut self, lits: &[Lit]) -> bool {
        let start = self.data.len();
        'outer: for (i, &l) in lits.iter().enumerate() {
            debug_assert!(l != 0);
            for &m in &lits[..i] {
                if m == -l {
                    self.data.truncate(start);
                    return false; // tautology
                }
                if m == l {
                    continue 'outer; // duplicate
                }
            }
            self.num_vars = self.num_vars.max(l.unsigned_abs());
            self.data.push(l);
        }
        self.close_clause();
        true
    }

    /// Pushes one literal of the clause currently being built.
    pub fn push_lit(&mut self, l: Lit) {
        debug_assert!(l != 0);
        self.num_vars = self.num_vars.max(l.unsigned_abs());
        self.data.push(l);
    }

    /// Terminates the clause currently being built.
    pub fn end_clause(&mut self) {
        self.close_clause();
    }

    /// The formula as it stands: its clauses and its variable count.
    pub fn mark(&self) -> CnfMark {
        debug_assert_eq!(self.clause_start, self.data.len(), "a clause is open");
        CnfMark {
            lits: self.data.len(),
            num_vars: self.num_vars,
            num_clauses: self.num_clauses,
            long_clauses: self.long_clauses,
            long_words: self.long_words,
        }
    }

    /// Drops every clause and variable added since `mark` was taken, leaving
    /// the formula exactly as it was then.
    pub fn truncate(&mut self, mark: CnfMark) {
        debug_assert!(mark.lits <= self.data.len() && mark.num_vars <= self.num_vars);
        self.data.truncate(mark.lits);
        self.num_vars = mark.num_vars;
        self.num_clauses = mark.num_clauses;
        self.long_clauses = mark.long_clauses;
        self.long_words = mark.long_words;
        self.clause_start = mark.lits;
    }

    /// Iterator over clauses as literal slices (terminators stripped).
    pub fn clauses(&self) -> ClauseIter<'_> {
        ClauseIter {
            data: &self.data,
            pos: 0,
        }
    }

    /// True when the formula contains an empty clause.
    pub fn has_empty_clause(&self) -> bool {
        let mut prev_zero = true;
        for &l in &self.data {
            if l == 0 {
                if prev_zero {
                    return true;
                }
                prev_zero = true;
            } else {
                prev_zero = false;
            }
        }
        false
    }
}

/// Iterator over the clauses of a [`Cnf`].
pub struct ClauseIter<'a> {
    data: &'a [i32],
    pos: usize,
}

impl<'a> Iterator for ClauseIter<'a> {
    type Item = &'a [Lit];

    fn next(&mut self) -> Option<&'a [Lit]> {
        if self.pos >= self.data.len() {
            return None;
        }
        let start = self.pos;
        let mut end = self.pos;
        while self.data[end] != 0 {
            end += 1;
        }
        self.pos = end + 1;
        Some(&self.data[start..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_layout_roundtrip() {
        let mut cnf = Cnf::new();
        cnf.add_clause(&[1, -2, 3]);
        cnf.add_clause(&[-3]);
        cnf.add_clause(&[2, 4]);
        assert_eq!(cnf.num_vars(), 4);
        assert_eq!(cnf.num_clauses(), 3);
        assert_eq!(cnf.raw(), &[1, -2, 3, 0, -3, 0, 2, 4, 0]);
        let got: Vec<Vec<i32>> = cnf.clauses().map(|c| c.to_vec()).collect();
        assert_eq!(got, vec![vec![1, -2, 3], vec![-3], vec![2, 4]]);
    }

    #[test]
    fn incremental_builder_matches_add_clause() {
        let mut a = Cnf::new();
        a.add_clause(&[5, -6]);
        let mut b = Cnf::new();
        b.push_lit(5);
        b.push_lit(-6);
        b.end_clause();
        assert_eq!(a, b);
    }

    #[test]
    fn tautology_and_duplicate_handling() {
        let mut cnf = Cnf::new();
        assert!(!cnf.add_clause_checked(&[1, -1, 2]));
        assert_eq!(cnf.num_clauses(), 0);
        assert!(cnf.add_clause_checked(&[1, 1, 2]));
        assert_eq!(cnf.raw(), &[1, 2, 0]);
    }

    #[test]
    fn empty_clause_detection() {
        let mut cnf = Cnf::new();
        cnf.add_clause(&[1]);
        assert!(!cnf.has_empty_clause());
        cnf.add_clause(&[]);
        assert!(cnf.has_empty_clause());
    }

    #[test]
    fn long_clauses_are_counted_however_they_are_built() {
        let mut cnf = Cnf::new();
        cnf.add_clause(&[1, 2]);
        cnf.add_clause(&[1, 2, 3]);
        cnf.add_clause(&[]);
        assert!(cnf.add_clause_checked(&[4, 4, 5, -6]));
        assert!(!cnf.add_clause_checked(&[1, 2, -1]));
        let mark = cnf.mark();
        cnf.push_lit(7);
        cnf.end_clause();
        for l in [-7, 8, 9, 10] {
            cnf.push_lit(l);
        }
        cnf.end_clause();
        let recount = |cnf: &Cnf| {
            let long: Vec<usize> = cnf.clauses().map(<[Lit]>::len).filter(|&n| n > 2).collect();
            (long.len(), long.iter().map(|n| n + 1).sum::<usize>())
        };
        assert_eq!(cnf.long_clauses(), (3, 4 + 4 + 5));
        assert_eq!(cnf.long_clauses(), recount(&cnf));
        cnf.truncate(mark);
        assert_eq!(cnf.long_clauses(), (2, 4 + 4));
        cnf.add_clause(&[1, -2, 3]);
        assert_eq!(cnf.long_clauses(), recount(&cnf));
    }

    #[test]
    fn truncate_restores_the_marked_formula() {
        let mut cnf = Cnf::new();
        cnf.grow_vars(3);
        cnf.add_clause(&[1, -2]);
        let before = cnf.clone();
        let mark = cnf.mark();
        let v = cnf.fresh_var() as Lit;
        cnf.add_clause(&[-v, 3]);
        cnf.add_clause(&[v]);
        cnf.truncate(mark);
        assert_eq!(cnf, before);
    }

    #[test]
    fn fresh_vars_and_grow() {
        let mut cnf = Cnf::new();
        cnf.add_clause(&[2]);
        assert_eq!(cnf.fresh_var(), 3);
        cnf.grow_vars(10);
        assert_eq!(cnf.num_vars(), 10);
        cnf.grow_vars(4);
        assert_eq!(cnf.num_vars(), 10);
    }
}
