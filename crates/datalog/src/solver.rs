//! A sound decision procedure for conjunctions of comparison literals.
//!
//! The residue method needs two judgements about sets of evaluable atoms
//! (`X = Y`, `Age > 30`, `Name1 = "john"`, …):
//!
//! * **Satisfiability** — after a residue adds a comparison to a query, an
//!   unsatisfiable set means the query is contradictory and need not be
//!   evaluated (Example 1 and Application 1 of the paper).
//! * **Implication** — a comparison implied by the rest of the set is
//!   redundant and can be removed; implication is also how a residue's
//!   evaluable body literals are matched against the query.
//!
//! The solver treats the numeric domain as *dense* (reals): `X > 3 ∧ X < 4`
//! is satisfiable. This is sound for contradiction detection (it never
//! reports a false contradiction) and matches the paper's examples, which
//! never rely on integer gaps. Implication is decided as
//! `unsat(set ∪ {¬c})`, which is likewise sound.
//!
//! Implementation: a union-find over term nodes for equalities, plus a
//! transitive closure over `≤`/`<` edges where strictness is the path
//! maximum. Non-strict cycles merge their nodes; a strict cycle, a merged
//! disequality, two distinct constants in one class, or a derived
//! constant-to-constant edge that contradicts the real order each yield
//! *unsatisfiable*. A set of nothing but constant bounds on variables —
//! what a query's own comparisons usually are — never gets that far: one
//! pass reduces it to an interval per variable ([`ConstraintSet::check`]
//! keeps it), and every later bound probed against the set is read off
//! those intervals.

use crate::atom::{CmpOp, Comparison};
use crate::fxhash::FxHashMap;
use crate::term::{Const, Term, Var};
use std::cell::OnceCell;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Result of a satisfiability check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sat {
    /// The constraint set has a model.
    Satisfiable,
    /// The constraint set is contradictory.
    Unsatisfiable,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Strict {
    NonStrict,
    Strict,
}

/// The tightest constant bounds on one variable, each with whether it is
/// strict.
#[derive(Debug, Clone, Copy, Default)]
struct Interval {
    lo: Option<(Const, Strict)>,
    hi: Option<(Const, Strict)>,
}

/// What [`ConstraintSet::check`] learned about the current assertions.
#[derive(Debug, Clone)]
struct Checked {
    sat: Sat,
    /// The interval summary: present exactly when the set is satisfiable
    /// and lies in the bounds fragment (see [`ConstraintSet::summarize`]).
    /// One entry per bounded variable — a handful at query sizes, so a
    /// probe scans it.
    summary: Option<Vec<(Var, Interval)>>,
}

/// Whether `lo ≤ hi` (`lo < hi` when strict) holds between two constants;
/// constants of incomparable types are never ordered.
fn ordered(lo: &Const, hi: &Const, s: Strict) -> bool {
    let op = if s == Strict::Strict {
        CmpOp::Lt
    } else {
        CmpOp::Le
    };
    matches!(lo.order(hi), Some(ord) if op.test(ord))
}

/// Whether the bound `(c, s)` is tighter than `cur` on the side where
/// moving towards `tighter` narrows the interval; `None` when the two
/// constants cannot be ordered.
fn tightens(c: &Const, s: Strict, cur: &(Const, Strict), tighter: Ordering) -> Option<bool> {
    Some(match c.order(&cur.0)? {
        Ordering::Equal => s > cur.1,
        ord => ord == tighter,
    })
}

/// Answer the probe `summary ∧ c` from a satisfiable set's interval
/// summary: a new bound on a variable is consistent exactly when it
/// clears that variable's tightest opposite bound, and a ground probe
/// when it holds. `None` for what the summary cannot see — `=`, `!=`,
/// a var–var edge.
fn probe(summary: &[(Var, Interval)], c: &Comparison) -> Option<Sat> {
    let (lo, hi, s) = match c.op {
        CmpOp::Lt => (&c.lhs, &c.rhs, Strict::Strict),
        CmpOp::Le => (&c.lhs, &c.rhs, Strict::NonStrict),
        CmpOp::Gt => (&c.rhs, &c.lhs, Strict::Strict),
        CmpOp::Ge => (&c.rhs, &c.lhs, Strict::NonStrict),
        CmpOp::Eq | CmpOp::Ne => return None,
    };
    let interval = |v: &Var| summary.iter().find(|(w, _)| w == v).map(|(_, i)| i);
    let holds = match (lo, hi) {
        (Term::Var(_), Term::Var(_)) => return None,
        (Term::Const(a), Term::Const(b)) => ordered(a, b, s),
        (Term::Const(k), Term::Var(v)) => interval(v)
            .and_then(|i| i.hi.as_ref())
            .is_none_or(|(hi, s2)| ordered(k, hi, s.max(*s2))),
        (Term::Var(v), Term::Const(k)) => interval(v)
            .and_then(|i| i.lo.as_ref())
            .is_none_or(|(lo, s1)| ordered(lo, k, s.max(*s1))),
    };
    Some(if holds {
        Sat::Satisfiable
    } else {
        Sat::Unsatisfiable
    })
}

/// A conjunction of comparison constraints over variables and constants.
#[derive(Debug, Clone, Default)]
pub struct ConstraintSet {
    nodes: Vec<Term>,
    index: FxHashMap<Term, usize>,
    /// Asserted equalities (pairs of node ids).
    eqs: Vec<(usize, usize)>,
    /// Asserted `a ≤ b` / `a < b` edges.
    edges: Vec<(usize, usize, Strict)>,
    /// Asserted disequalities.
    diseqs: Vec<(usize, usize)>,
    /// Set when an assertion is immediately inconsistent (e.g. `"a" < 3`).
    poisoned: bool,
    /// Memo of [`ConstraintSet::check`] for the current assertions
    /// (cleared by `assert_cmp`): the verdict, and the interval summary
    /// that answers [`ConstraintSet::sat_with`] probes on an unchanged set.
    checked: OnceCell<Checked>,
}

impl ConstraintSet {
    /// An empty (trivially satisfiable) constraint set.
    pub fn new() -> Self {
        ConstraintSet::default()
    }

    /// Build a constraint set from comparisons.
    pub fn from_comparisons<'a>(cmps: impl IntoIterator<Item = &'a Comparison>) -> Self {
        let mut s = ConstraintSet::new();
        for c in cmps {
            s.assert_cmp(c);
        }
        s
    }

    fn node(&mut self, t: &Term) -> usize {
        if let Some(&i) = self.index.get(t) {
            return i;
        }
        let i = self.nodes.len();
        self.nodes.push(*t);
        self.index.insert(*t, i);
        i
    }

    /// Assert a comparison. Returns `self` satisfiability *after* the
    /// assertion (recomputed from scratch; cheap at query sizes).
    pub fn assert_cmp(&mut self, c: &Comparison) -> Sat {
        let l = self.node(&c.lhs);
        let r = self.node(&c.rhs);
        // Order comparisons between incomparable constant types poison the
        // set immediately (a query `"a" < 3` can never hold).
        if let (Term::Const(a), Term::Const(b)) = (&c.lhs, &c.rhs) {
            let order_op = !matches!(c.op, CmpOp::Eq | CmpOp::Ne);
            if order_op && a.order(b).is_none() {
                self.poisoned = true;
            }
        }
        match c.op {
            CmpOp::Eq => self.eqs.push((l, r)),
            CmpOp::Ne => self.diseqs.push((l, r)),
            CmpOp::Lt => self.edges.push((l, r, Strict::Strict)),
            CmpOp::Le => self.edges.push((l, r, Strict::NonStrict)),
            CmpOp::Gt => self.edges.push((r, l, Strict::Strict)),
            CmpOp::Ge => self.edges.push((r, l, Strict::NonStrict)),
        }
        self.checked = OnceCell::new();
        self.check()
    }

    /// Decide the dominant query shape — the *bounds fragment*: no
    /// equalities, no disequalities, and every order edge touching a
    /// constant (var–const bounds and ground const–const assertions) — in
    /// one pass over the edges, keeping each variable's tightest lower and
    /// upper bound. In that fragment the closure the general algorithm
    /// computes collapses to lower-bound × upper-bound checks per variable
    /// — every cycle through a variable alternates const→var→const, so the
    /// only derivable const–const relations are exactly those pairs — and
    /// some pair is violated exactly when the tightest pair is, because
    /// the violation test is monotone in the bound and in its strictness.
    /// So the verdict is the general path's, without the union-find, hash
    /// maps or Floyd–Warshall, and the intervals it leaves behind answer
    /// every later `var ⋚ const` probe.
    ///
    /// A poisoned set is unsatisfiable wherever it lies. Returns `None` —
    /// the general path decides — outside the fragment, and for two bounds
    /// on one side of a variable with incomparable constants.
    fn summarize(&self) -> Option<Checked> {
        const UNSAT: Checked = Checked {
            sat: Sat::Unsatisfiable,
            summary: None,
        };
        if self.poisoned {
            return Some(UNSAT);
        }
        if !self.eqs.is_empty() || !self.diseqs.is_empty() {
            return None;
        }
        let mut summary: Vec<(Var, Interval)> = Vec::new();
        for &(a, b, s) in &self.edges {
            let (lo, hi) = (&self.nodes[a], &self.nodes[b]);
            let (v, c, lower) = match (lo, hi) {
                (Term::Var(_), Term::Var(_)) => return None,
                (Term::Const(lo), Term::Const(hi)) => {
                    if !ordered(lo, hi, s) {
                        return Some(UNSAT);
                    }
                    continue;
                }
                (Term::Const(lo), Term::Var(v)) => (v, lo, true),
                (Term::Var(v), Term::Const(hi)) => (v, hi, false),
            };
            let at = summary.iter().position(|(w, _)| w == v).unwrap_or_else(|| {
                summary.push((*v, Interval::default()));
                summary.len() - 1
            });
            let interval = &mut summary[at].1;
            let (side, tighter) = if lower {
                (&mut interval.lo, Ordering::Greater)
            } else {
                (&mut interval.hi, Ordering::Less)
            };
            match side {
                Some(cur) if !tightens(c, s, cur, tighter)? => {}
                _ => *side = Some((*c, s)),
            }
        }
        let empty = |i: &Interval| match (&i.lo, &i.hi) {
            (Some((lo, s1)), Some((hi, s2))) => !ordered(lo, hi, *s1.max(s2)),
            _ => false,
        };
        if summary.iter().any(|(_, i)| empty(i)) {
            return Some(UNSAT);
        }
        Some(Checked {
            sat: Sat::Satisfiable,
            summary: Some(summary),
        })
    }

    /// Satisfiability of `self ∧ c` without mutating `self`.
    /// Decision-identical to `self.clone().assert_cmp(c)`: an
    /// unsatisfiable set stays so whatever is added, an order probe
    /// against a summarised set only has to clear the tightest opposite
    /// bound of its variable, and everything else takes the clone.
    pub fn sat_with(&self, c: &Comparison) -> Sat {
        let checked = self.checked();
        if checked.sat == Sat::Unsatisfiable {
            return Sat::Unsatisfiable;
        }
        if let Some(sat) = checked.summary.as_deref().and_then(|s| probe(s, c)) {
            return sat;
        }
        let mut with = self.clone();
        with.assert_cmp(c)
    }

    fn checked(&self) -> &Checked {
        self.checked.get_or_init(|| self.check_uncached())
    }

    /// Check satisfiability of the currently asserted constraints.
    pub fn check(&self) -> Sat {
        self.checked().sat
    }

    fn check_uncached(&self) -> Checked {
        self.summarize().unwrap_or_else(|| Checked {
            sat: self.close(),
            summary: None,
        })
    }

    /// The general path: union-find over equalities, transitive closure
    /// over the order edges.
    fn close(&self) -> Sat {
        let n = self.nodes.len();
        let mut uf = UnionFind::new(n);
        for &(a, b) in &self.eqs {
            uf.union(a, b);
        }
        loop {
            // Representative-level closure over order edges.
            let mut reach: HashMap<(usize, usize), Strict> = HashMap::new();
            let add = |m: &mut HashMap<(usize, usize), Strict>, a: usize, b: usize, s: Strict| {
                let e = m.entry((a, b)).or_insert(s);
                if s > *e {
                    *e = s;
                }
            };
            for &(a, b, s) in &self.edges {
                add(&mut reach, uf.find(a), uf.find(b), s);
            }
            // Implicit edges between comparable constants reflect the real
            // order, so that e.g. `30 < X, X < 18` closes through `30 → 18`
            // and is caught against `18 < 30`.
            // (We only need the *check* direction: derived const→const
            // edges are validated below against Const::order.)
            let reps: Vec<usize> = {
                let mut r: Vec<usize> = (0..n).map(|i| uf.find(i)).collect();
                r.sort_unstable();
                r.dedup();
                r
            };
            // Floyd–Warshall with strictness as path maximum.
            let mut closed = reach.clone();
            for &k in &reps {
                for &i in &reps {
                    let Some(&s1) = closed.get(&(i, k)) else {
                        continue;
                    };
                    for &j in &reps {
                        let Some(&s2) = closed.get(&(k, j)) else {
                            continue;
                        };
                        let s = s1.max(s2);
                        let e = closed.entry((i, j)).or_insert(s);
                        if s > *e {
                            *e = s;
                        }
                    }
                }
            }
            // Strict self-loop ⇒ unsat.
            for &i in &reps {
                if closed.get(&(i, i)) == Some(&Strict::Strict) {
                    return Sat::Unsatisfiable;
                }
            }
            // Pin each class to its constant (if any); two distinct
            // constants in one class ⇒ unsat.
            let mut class_const: HashMap<usize, &Const> = HashMap::new();
            for (i, t) in self.nodes.iter().enumerate() {
                if let Term::Const(c) = t {
                    let rep = uf.find(i);
                    if let Some(prev) = class_const.get(&rep) {
                        if *prev != c {
                            return Sat::Unsatisfiable;
                        }
                    } else {
                        class_const.insert(rep, c);
                    }
                }
            }
            // Validate derived constant-to-constant relations against the
            // real order.
            for (&(a, b), &s) in &closed {
                if a == b {
                    continue;
                }
                if let (Some(&ca), Some(&cb)) = (class_const.get(&a), class_const.get(&b)) {
                    if !ordered(ca, cb, s) {
                        return Sat::Unsatisfiable;
                    }
                }
            }
            // Non-strict cycles merge their endpoints; iterate to fixpoint.
            let mut merged = false;
            for (&(a, b), &s) in &closed {
                if a != b
                    && s == Strict::NonStrict
                    && closed.get(&(b, a)).copied() == Some(Strict::NonStrict)
                    && uf.find(a) != uf.find(b)
                {
                    uf.union(a, b);
                    merged = true;
                }
            }
            if !merged {
                // Disequality violated by the final classes ⇒ unsat.
                for &(a, b) in &self.diseqs {
                    let (ra, rb) = (uf.find(a), uf.find(b));
                    if ra == rb {
                        return Sat::Unsatisfiable;
                    }
                    // Classes pinned to the same constant value (covers
                    // syntactically distinct but equal constants too).
                    if let (Some(&x), Some(&y)) = (class_const.get(&ra), class_const.get(&rb)) {
                        if x == y {
                            return Sat::Unsatisfiable;
                        }
                    }
                }
                return Sat::Satisfiable;
            }
        }
    }

    /// Whether the set entails the given comparison, decided as
    /// `unsat(self ∧ ¬c)`. Sound; incomplete only for disjunctive
    /// disequality reasoning.
    pub fn implies(&self, c: &Comparison) -> bool {
        // `t = t` holds in every model; its negation would only be refuted
        // by the general path, one clone and closure per call.
        if c.op == CmpOp::Eq && c.lhs == c.rhs {
            return true;
        }
        // Ground comparisons decide directly where possible.
        if let (Term::Const(a), Term::Const(b)) = (&c.lhs, &c.rhs) {
            match c.op {
                CmpOp::Eq => return a == b,
                CmpOp::Ne => return a != b,
                _ => {
                    if let Some(ord) = a.order(b) {
                        return c.op.test(ord);
                    }
                }
            }
        }
        self.sat_with(&c.negate()) == Sat::Unsatisfiable
    }

    /// Whether the two terms are entailed equal.
    pub fn entails_equal(&self, a: &Term, b: &Term) -> bool {
        self.implies(&Comparison::eq(*a, *b))
    }
}

#[derive(Debug, Clone)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cmp(l: Term, op: CmpOp, r: Term) -> Comparison {
        Comparison::new(l, op, r)
    }
    fn v(n: &str) -> Term {
        Term::var(n)
    }
    fn i(x: i64) -> Term {
        Term::int(x)
    }

    #[test]
    fn example1_contradiction_age_lt18_gt30() {
        // The paper's Example 1: Age < 18 together with residue Age > 30.
        let mut s = ConstraintSet::new();
        assert_eq!(
            s.assert_cmp(&cmp(v("Age"), CmpOp::Lt, i(18))),
            Sat::Satisfiable
        );
        assert_eq!(
            s.assert_cmp(&cmp(v("Age"), CmpOp::Gt, i(30))),
            Sat::Unsatisfiable
        );
    }

    #[test]
    fn application1_contradiction_v_lt1000_gt3000() {
        // Application 1: V < 1000 together with residue V > 3000.
        let s = ConstraintSet::from_comparisons(&[
            cmp(v("V"), CmpOp::Lt, i(1000)),
            cmp(v("V"), CmpOp::Gt, i(3000)),
        ]);
        assert_eq!(s.check(), Sat::Unsatisfiable);
    }

    #[test]
    fn transitive_chains() {
        let s = ConstraintSet::from_comparisons(&[
            cmp(v("X"), CmpOp::Lt, v("Y")),
            cmp(v("Y"), CmpOp::Le, v("Z")),
            cmp(v("Z"), CmpOp::Lt, v("X")),
        ]);
        assert_eq!(s.check(), Sat::Unsatisfiable);
        let s2 = ConstraintSet::from_comparisons(&[
            cmp(v("X"), CmpOp::Le, v("Y")),
            cmp(v("Y"), CmpOp::Le, v("Z")),
            cmp(v("Z"), CmpOp::Le, v("X")),
        ]);
        assert_eq!(s2.check(), Sat::Satisfiable); // all equal is a model
    }

    #[test]
    fn nonstrict_cycle_merges_and_violates_diseq() {
        let s = ConstraintSet::from_comparisons(&[
            cmp(v("X"), CmpOp::Le, v("Y")),
            cmp(v("Y"), CmpOp::Le, v("X")),
            cmp(v("X"), CmpOp::Ne, v("Y")),
        ]);
        assert_eq!(s.check(), Sat::Unsatisfiable);
    }

    #[test]
    fn equality_pins_constants() {
        let s = ConstraintSet::from_comparisons(&[
            cmp(v("X"), CmpOp::Eq, i(3)),
            cmp(v("X"), CmpOp::Eq, i(4)),
        ]);
        assert_eq!(s.check(), Sat::Unsatisfiable);
        let s2 = ConstraintSet::from_comparisons(&[
            cmp(v("X"), CmpOp::Eq, i(3)),
            cmp(v("Y"), CmpOp::Eq, v("X")),
            cmp(v("Y"), CmpOp::Gt, i(2)),
        ]);
        assert_eq!(s2.check(), Sat::Satisfiable);
        let s3 = ConstraintSet::from_comparisons(&[
            cmp(v("X"), CmpOp::Eq, i(3)),
            cmp(v("Y"), CmpOp::Eq, v("X")),
            cmp(v("Y"), CmpOp::Gt, i(3)),
        ]);
        assert_eq!(s3.check(), Sat::Unsatisfiable);
    }

    #[test]
    fn string_equality_and_order() {
        let s = ConstraintSet::from_comparisons(&[
            cmp(v("N"), CmpOp::Eq, Term::str("john")),
            cmp(v("N"), CmpOp::Eq, Term::str("james")),
        ]);
        assert_eq!(s.check(), Sat::Unsatisfiable);
        let s2 = ConstraintSet::from_comparisons(&[
            cmp(v("N"), CmpOp::Gt, Term::str("a")),
            cmp(v("N"), CmpOp::Lt, Term::str("b")),
        ]);
        assert_eq!(s2.check(), Sat::Satisfiable);
    }

    #[test]
    fn cross_type_order_is_unsat() {
        let s = ConstraintSet::from_comparisons(&[cmp(Term::str("a"), CmpOp::Lt, i(3))]);
        assert_eq!(s.check(), Sat::Unsatisfiable);
        // But cross-type disequality is fine (always true).
        let s2 = ConstraintSet::from_comparisons(&[cmp(Term::str("a"), CmpOp::Ne, i(3))]);
        assert_eq!(s2.check(), Sat::Satisfiable);
        // Cross-type equality is unsat.
        let s3 = ConstraintSet::from_comparisons(&[cmp(Term::str("a"), CmpOp::Eq, i(3))]);
        assert_eq!(s3.check(), Sat::Unsatisfiable);
    }

    #[test]
    fn dense_domain_gap_is_satisfiable() {
        // Over the reals X with 3 < X < 4 has a model; the solver must NOT
        // report a contradiction (sound w.r.t. the dense interpretation).
        let s = ConstraintSet::from_comparisons(&[
            cmp(v("X"), CmpOp::Gt, i(3)),
            cmp(v("X"), CmpOp::Lt, i(4)),
        ]);
        assert_eq!(s.check(), Sat::Satisfiable);
    }

    #[test]
    fn implication_basics() {
        let s = ConstraintSet::from_comparisons(&[cmp(v("X"), CmpOp::Gt, i(30))]);
        assert!(s.implies(&cmp(v("X"), CmpOp::Gt, i(20))));
        assert!(s.implies(&cmp(v("X"), CmpOp::Ge, i(30))));
        assert!(s.implies(&cmp(v("X"), CmpOp::Ne, i(30))));
        assert!(!s.implies(&cmp(v("X"), CmpOp::Gt, i(40))));
        assert!(!s.implies(&cmp(v("X"), CmpOp::Lt, i(40))));
    }

    #[test]
    fn implication_via_equalities() {
        let s = ConstraintSet::from_comparisons(&[
            cmp(v("X"), CmpOp::Eq, v("Y")),
            cmp(v("Y"), CmpOp::Eq, v("Z")),
        ]);
        assert!(s.entails_equal(&v("X"), &v("Z")));
        assert!(s.implies(&cmp(v("Z"), CmpOp::Eq, v("X"))));
        assert!(!s.entails_equal(&v("X"), &v("W")));
    }

    #[test]
    fn implication_antisymmetry() {
        let s = ConstraintSet::from_comparisons(&[
            cmp(v("X"), CmpOp::Le, v("Y")),
            cmp(v("Y"), CmpOp::Le, v("X")),
        ]);
        assert!(s.entails_equal(&v("X"), &v("Y")));
    }

    #[test]
    fn ground_implication_fast_path() {
        let s = ConstraintSet::new();
        assert!(s.implies(&cmp(i(3), CmpOp::Lt, i(4))));
        assert!(!s.implies(&cmp(i(4), CmpOp::Lt, i(3))));
        assert!(s.implies(&cmp(Term::str("a"), CmpOp::Ne, i(3))));
        assert!(s.implies(&cmp(Term::real(3.0), CmpOp::Eq, i(3))));
    }

    #[test]
    fn mixed_int_real_bounds() {
        let s = ConstraintSet::from_comparisons(&[
            cmp(v("X"), CmpOp::Gt, Term::real(0.5)),
            cmp(v("X"), CmpOp::Lt, i(0)),
        ]);
        assert_eq!(s.check(), Sat::Unsatisfiable);
    }

    #[test]
    fn empty_set_is_satisfiable_and_implies_nothing_contingent() {
        let s = ConstraintSet::new();
        assert_eq!(s.check(), Sat::Satisfiable);
        assert!(!s.implies(&cmp(v("X"), CmpOp::Lt, v("Y"))));
        assert!(s.implies(&cmp(v("X"), CmpOp::Eq, v("X"))));
        assert!(s.implies(&cmp(v("X"), CmpOp::Le, v("X"))));
    }

    /// The interval summary must decide exactly like the general
    /// union-find/closure path: enumerate small bound-only constraint
    /// sets over `consts` and compare `check()`/`sat_with()`/`implies()`
    /// (answered from the summary) against a set with a redundant
    /// variable–variable tautology appended (which forces the general
    /// path without changing the decision). Probes cover both
    /// orientations of a bound on a bounded and on an unbounded variable,
    /// and ground comparisons. Returns the number of sets.
    fn fast_path_matches_general_path(consts: [Term; 3]) -> usize {
        let ops = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
        let mut probes = Vec::new();
        for &op in &ops {
            for &k in &consts {
                probes.push(cmp(v("X"), op, k));
                probes.push(cmp(k, op, v("X")));
                probes.push(cmp(v("U"), op, k));
                probes.push(cmp(consts[1], op, k));
            }
        }
        let mut cases = 0usize;
        for &op1 in &ops {
            for &c1 in &consts {
                for &op2 in &ops {
                    for &c2 in &consts {
                        for &op3 in &ops {
                            for &c3 in &consts {
                                let cmps = [
                                    cmp(v("X"), op1, c1),
                                    cmp(v("X"), op2, c2),
                                    cmp(v("Y"), op3, c3),
                                ];
                                let fast = ConstraintSet::from_comparisons(&cmps);
                                let mut general = ConstraintSet::from_comparisons(&cmps);
                                // `Z ≤ W` touches no constant, so the
                                // summary refuses and the general closure
                                // runs.
                                general.assert_cmp(&cmp(v("Z"), CmpOp::Le, v("W")));
                                assert!(general.checked().summary.is_none());
                                assert_eq!(fast.check(), general.check(), "{cmps:?}");
                                assert_eq!(
                                    fast.checked().summary.is_some(),
                                    fast.check() == Sat::Satisfiable,
                                    "{cmps:?}"
                                );
                                for probe in &probes {
                                    assert_eq!(
                                        fast.sat_with(probe),
                                        general.clone().assert_cmp(probe),
                                        "{cmps:?} + {probe:?}"
                                    );
                                    assert_eq!(
                                        fast.implies(probe),
                                        general.implies(probe),
                                        "{cmps:?} => {probe:?}"
                                    );
                                }
                                cases += 1;
                            }
                        }
                    }
                }
            }
        }
        cases
    }

    #[test]
    fn bounds_fast_path_matches_general_path() {
        assert_eq!(fast_path_matches_general_path([i(0), i(5), i(10)]), 1728);
    }

    /// Past 2^53 two integers straddle the real they both round to; the
    /// summary orders them exactly and decides as the general path does.
    #[test]
    fn bounds_fast_path_matches_general_path_past_f64_precision() {
        let big = 1_i64 << 53;
        let consts = [i(big), Term::real(big as f64), i(big + 1)];
        assert_eq!(fast_path_matches_general_path(consts), 1728);
    }

    /// What the summary declines goes to the general path and comes back
    /// with its answer: a var–var probe, an `=`/`!=` probe, two lower
    /// bounds of incomparable types. An integer past 2^53 it answers.
    #[test]
    fn summary_declines_what_it_cannot_order() {
        let s = ConstraintSet::from_comparisons(&[
            cmp(v("X"), CmpOp::Gt, i(3)),
            cmp(v("X"), CmpOp::Lt, i(9)),
        ]);
        let summary = s.checked().summary.as_deref().expect("bounds only");
        assert!(probe(summary, &cmp(v("X"), CmpOp::Lt, v("Y"))).is_none());
        assert!(probe(summary, &cmp(v("X"), CmpOp::Eq, i(4))).is_none());
        assert_eq!(
            probe(summary, &cmp(v("X"), CmpOp::Lt, i(1 << 60))),
            Some(Sat::Satisfiable)
        );
        assert_eq!(s.sat_with(&cmp(v("X"), CmpOp::Eq, i(4))), Sat::Satisfiable);
        assert_eq!(
            s.sat_with(&cmp(v("X"), CmpOp::Eq, i(9))),
            Sat::Unsatisfiable
        );
        assert!(s.implies(&cmp(v("X"), CmpOp::Ne, i(9))));
        assert!(s.implies(&cmp(v("X"), CmpOp::Lt, i(1 << 60))));

        let mixed = ConstraintSet::from_comparisons(&[
            cmp(v("X"), CmpOp::Gt, Term::str("a")),
            cmp(v("X"), CmpOp::Gt, i(3)),
        ]);
        assert!(mixed.checked().summary.is_none());
        assert_eq!(mixed.check(), Sat::Satisfiable);
        let huge = ConstraintSet::from_comparisons(&[cmp(v("X"), CmpOp::Ge, i((1 << 53) + 1))]);
        assert!(huge.checked().summary.is_some());
        assert!(huge.implies(&cmp(v("X"), CmpOp::Gt, i(1 << 53))));
    }

    #[test]
    fn reflexive_equality_is_implied_without_the_solver() {
        let s = ConstraintSet::from_comparisons(&[cmp(v("X"), CmpOp::Lt, v("Y"))]);
        assert!(s.implies(&cmp(v("X"), CmpOp::Eq, v("X"))));
        assert!(s.implies(&cmp(v("Name"), CmpOp::Eq, v("Name"))));
        assert!(s.implies(&cmp(Term::oid(7), CmpOp::Eq, Term::oid(7))));
        assert!(!s.implies(&cmp(v("X"), CmpOp::Eq, v("Y"))));
    }

    #[test]
    fn ground_const_edges_in_fast_path() {
        // Asserted const–const order edges are validated directly.
        let s = ConstraintSet::from_comparisons(&[cmp(i(3), CmpOp::Lt, i(4))]);
        assert_eq!(s.check(), Sat::Satisfiable);
        let s = ConstraintSet::from_comparisons(&[cmp(i(4), CmpOp::Lt, i(3))]);
        assert_eq!(s.check(), Sat::Unsatisfiable);
        // Incomparable constant types refuse order outright.
        let s = ConstraintSet::from_comparisons(&[
            cmp(v("X"), CmpOp::Ge, Term::str("a")),
            cmp(v("X"), CmpOp::Le, i(3)),
        ]);
        assert_eq!(s.check(), Sat::Unsatisfiable);
    }
}
