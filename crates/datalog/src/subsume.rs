//! θ-subsumption: matching a clause body onto a query.
//!
//! A residue applies to a query when its remaining body literals can all be
//! mapped *into* the query by a substitution θ that only instantiates the
//! residue's variables (partial subsumption, Section 2 of the paper):
//!
//! * a positive database literal must match some positive literal of the
//!   query (one-way matching);
//! * a negative literal must match some negative literal of the query;
//! * an evaluable literal (comparison), once instantiated by θ, must be
//!   *implied* by the query's own comparison constraints — e.g. the
//!   residue body literal `Name1 = Name2` of IC7 is implied by the query
//!   literal `Name1 = Name2` (Application 3), but implication also covers
//!   derived cases such as matching `Age < 25` in a query against a
//!   residue's `Age < 30`.

use crate::atom::{Atom, Comparison, Literal};
use crate::clause::{CanonScratch, CanonTok, Query};
use crate::fxhash::FxHashSet;
use crate::solver::ConstraintSet;
use crate::subst::Subst;
use crate::unify::match_atoms;
use sqo_obs as obs;

/// The fixed side of a match: the query's positive atoms, negative atoms,
/// and a solver primed with its comparison literals (plus any derived
/// equalities, e.g. OID-functional congruence).
pub struct MatchTarget<'a> {
    /// Positive database atoms of the query body.
    pub pos: Vec<&'a Atom>,
    /// Negative database atoms of the query body.
    pub neg: Vec<&'a Atom>,
    /// Solver primed with the query's evaluable literals.
    pub solver: &'a ConstraintSet,
}

impl<'a> MatchTarget<'a> {
    /// Build a target from a body slice and a primed solver.
    pub fn new(body: &'a [Literal], solver: &'a ConstraintSet) -> Self {
        let mut pos = Vec::new();
        let mut neg = Vec::new();
        for l in body {
            match l {
                Literal::Pos(a) => pos.push(a),
                Literal::Neg(a) => neg.push(a),
                Literal::Cmp(_) => {}
            }
        }
        MatchTarget { pos, neg, solver }
    }
}

/// Find every substitution θ extending `seed` such that each literal of
/// `pattern` maps into the target as described in the module docs.
/// Duplicate substitutions are removed.
///
/// **Precondition:** pattern variables disjoint from target variables
/// (see [`crate::unify::match_terms`]).
pub fn match_body_onto(pattern: &[Literal], target: &MatchTarget<'_>, seed: &Subst) -> Vec<Subst> {
    obs::bump(obs::Counter::SubsumeChecks);
    // Match database literals first so comparisons see their variables
    // bound; among database literals keep the given order.
    let mut db: Vec<&Literal> = Vec::new();
    let mut cmps: Vec<&Literal> = Vec::new();
    for l in pattern {
        match l {
            Literal::Cmp(_) => cmps.push(l),
            _ => db.push(l),
        }
    }
    let ordered: Vec<&Literal> = db.into_iter().chain(cmps).collect();

    let mut results: Vec<Subst> = Vec::new();
    let mut stack: Vec<(usize, Subst)> = vec![(0, seed.clone())];
    while let Some((i, s)) = stack.pop() {
        if i == ordered.len() {
            if !results.contains(&s) {
                results.push(s);
            }
            continue;
        }
        match ordered[i] {
            Literal::Pos(pat) => {
                for cand in &target.pos {
                    let mut s2 = s.clone();
                    if match_atoms(pat, cand, &mut s2) {
                        stack.push((i + 1, s2));
                    }
                }
            }
            Literal::Neg(pat) => {
                for cand in &target.neg {
                    let mut s2 = s.clone();
                    if match_atoms(pat, cand, &mut s2) {
                        stack.push((i + 1, s2));
                    }
                }
            }
            Literal::Cmp(c) => {
                let inst = s.apply_cmp(c);
                // Every variable of the instantiated comparison must now be
                // a query term; a residue variable that never got bound
                // cannot be checked and the match fails conservatively.
                let unbound_residue_var = [&inst.lhs, &inst.rhs].into_iter().any(|t| {
                    t.as_var()
                        .is_some_and(|v| s.lookup(v).is_none() && c.vars().any(|w| w == v))
                });
                if !unbound_residue_var && target.solver.implies(&inst) {
                    stack.push((i + 1, s));
                }
            }
        }
    }
    results
}

/// One complete match of a pattern's *database* literals, with the
/// pattern's comparison literals instantiated under θ but not yet
/// checked against any solver.
///
/// Produced by [`match_db_staged`]; a caller holding a query-specific
/// [`ConstraintSet`] accepts the match iff every deferred comparison is
/// implied. Filtering staged matches this way yields exactly the
/// substitution sequence [`match_body_onto`] returns against the same
/// atoms, because comparison steps never bind variables: the database
/// DFS is identical, and equal substitutions pass or fail the deferred
/// checks identically, so dedup-before-filter equals filter-before-dedup.
#[derive(Debug, Clone)]
pub struct StagedMatch {
    /// The substitution at the database-literal leaf.
    pub theta: Subst,
    /// The pattern's comparison literals instantiated under `theta`, in
    /// pattern order. Empty when the pattern has no comparisons.
    pub deferred: Vec<Comparison>,
}

/// [`match_body_onto`] with the solver-dependent half deferred: match
/// only the database literals of `pattern` onto `pos`/`neg`, returning
/// each surviving substitution with its instantiated comparisons.
///
/// A residue variable that stays unbound inside one of the pattern's
/// comparisons fails the match conservatively here (that check depends
/// only on θ, never on the target's solver), mirroring
/// [`match_body_onto`].
pub fn match_db_staged(
    pattern: &[Literal],
    pos: &[&Atom],
    neg: &[&Atom],
    seed: &Subst,
) -> Vec<StagedMatch> {
    obs::bump(obs::Counter::SubsumeChecks);
    let mut db: Vec<&Literal> = Vec::new();
    let mut cmps: Vec<&Comparison> = Vec::new();
    for l in pattern {
        match l {
            Literal::Cmp(c) => cmps.push(c),
            _ => db.push(l),
        }
    }

    let mut results: Vec<StagedMatch> = Vec::new();
    let mut stack: Vec<(usize, Subst)> = vec![(0, seed.clone())];
    'leaves: while let Some((i, s)) = stack.pop() {
        if i == db.len() {
            if results.iter().any(|m| m.theta == s) {
                continue;
            }
            let mut deferred = Vec::with_capacity(cmps.len());
            for c in &cmps {
                let inst = s.apply_cmp(c);
                let unbound_residue_var = [&inst.lhs, &inst.rhs].into_iter().any(|t| {
                    t.as_var()
                        .is_some_and(|v| s.lookup(v).is_none() && c.vars().any(|w| w == v))
                });
                if unbound_residue_var {
                    continue 'leaves;
                }
                deferred.push(inst);
            }
            results.push(StagedMatch { theta: s, deferred });
            continue;
        }
        match db[i] {
            Literal::Pos(pat) => {
                for cand in pos {
                    let mut s2 = s.clone();
                    if match_atoms(pat, cand, &mut s2) {
                        stack.push((i + 1, s2));
                    }
                }
            }
            Literal::Neg(pat) => {
                for cand in neg {
                    let mut s2 = s.clone();
                    if match_atoms(pat, cand, &mut s2) {
                        stack.push((i + 1, s2));
                    }
                }
            }
            Literal::Cmp(_) => unreachable!("comparisons were split off above"),
        }
    }
    results
}

/// The exact duplicate index over query variants: the set of their
/// canonical forms ([`Query::canonical_form`]).
///
/// A set of 64-bit fingerprints would accept a (vanishingly small but
/// nonzero) risk that a collision silently drops a genuinely novel
/// variant. The index instead keeps each form whole, buckets it by a
/// cheap Fx digest of its tokens and confirms a match by comparing the
/// tokens — so a true duplicate is recognized exactly, and a collision
/// costs one token-sequence compare instead of a lost variant. Each
/// insert renders its form into buffers the index keeps, and copies it
/// out only when it is new.
#[derive(Debug, Default)]
pub struct SubsumptionIndex {
    forms: FxHashSet<Box<[CanonTok]>>,
    scratch: CanonScratch,
}

impl SubsumptionIndex {
    /// An empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert `q`'s canonical form; `true` iff it was not already
    /// present.
    pub fn insert(&mut self, q: &Query) -> bool {
        let form = q.canonical_tokens(&mut self.scratch);
        if self.forms.contains(form) {
            return false;
        }
        self.forms.insert(form.into())
    }

    /// Number of distinct canonical forms inserted.
    pub fn len(&self) -> usize {
        self.forms.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.forms.is_empty()
    }
}

/// Classical θ-subsumption between clause bodies: does θ exist with
/// `pattern`θ ⊆ `body` (comparisons must be implied by `body`'s own
/// comparisons)?
pub fn body_subsumes(pattern: &[Literal], body: &[Literal]) -> bool {
    let cmps: Vec<_> = body
        .iter()
        .filter_map(|l| match l {
            Literal::Cmp(c) => Some(*c),
            _ => None,
        })
        .collect();
    let solver = ConstraintSet::from_comparisons(cmps.iter());
    let target = MatchTarget::new(body, &solver);
    !match_body_onto(pattern, &target, &Subst::new()).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::CmpOp;
    use crate::term::Term;

    fn lit(p: &str, args: Vec<Term>) -> Literal {
        Literal::pos(p, args)
    }

    #[test]
    fn single_literal_match() {
        let pattern = vec![lit("faculty", vec![Term::var("X"), Term::var("A")])];
        let body = vec![lit("faculty", vec![Term::var("Z"), Term::var("Age")])];
        assert!(body_subsumes(&pattern, &body));
    }

    #[test]
    fn repeated_vars_constrain_match() {
        let pattern = vec![lit("r", vec![Term::var("X"), Term::var("X")])];
        let body_ok = vec![lit("r", vec![Term::var("A"), Term::var("A")])];
        let body_bad = vec![lit("r", vec![Term::var("A"), Term::var("B")])];
        assert!(body_subsumes(&pattern, &body_ok));
        assert!(!body_subsumes(&pattern, &body_bad));
    }

    #[test]
    fn multi_literal_join_structure() {
        // pattern: takes(X,Y), taught_by(Y,Z) must respect the shared Y.
        let pattern = vec![
            lit("takes", vec![Term::var("X"), Term::var("Y")]),
            lit("taught_by", vec![Term::var("Y"), Term::var("Z")]),
        ];
        let body_ok = vec![
            lit("takes", vec![Term::var("S"), Term::var("Sec")]),
            lit("taught_by", vec![Term::var("Sec"), Term::var("F")]),
        ];
        let body_bad = vec![
            lit("takes", vec![Term::var("S"), Term::var("Sec1")]),
            lit("taught_by", vec![Term::var("Sec2"), Term::var("F")]),
        ];
        assert!(body_subsumes(&pattern, &body_ok));
        assert!(!body_subsumes(&pattern, &body_bad));
    }

    #[test]
    fn comparison_implied_by_query() {
        // Residue body `N1 = N2` is implied by the query's own `Name1 = Name2`
        // once N1↦Name1, N2↦Name2 (the IC7 case of Application 3).
        let pattern = vec![
            lit("faculty", vec![Term::var("X1"), Term::var("N1")]),
            lit("faculty", vec![Term::var("X2"), Term::var("N2")]),
            Literal::cmp(Term::var("N1"), CmpOp::Eq, Term::var("N2")),
        ];
        let body = vec![
            lit("faculty", vec![Term::var("Z"), Term::var("Name1")]),
            lit("faculty", vec![Term::var("W"), Term::var("Name2")]),
            Literal::cmp(Term::var("Name1"), CmpOp::Eq, Term::var("Name2")),
        ];
        assert!(body_subsumes(&pattern, &body));
    }

    #[test]
    fn comparison_implied_by_stronger_query_bound() {
        // Residue body `Age < 30` is implied by query `Age < 20`.
        let pattern = vec![
            lit("person", vec![Term::var("X"), Term::var("A")]),
            Literal::cmp(Term::var("A"), CmpOp::Lt, Term::int(30)),
        ];
        let body = vec![
            lit("person", vec![Term::var("P"), Term::var("Age")]),
            Literal::cmp(Term::var("Age"), CmpOp::Lt, Term::int(20)),
        ];
        assert!(body_subsumes(&pattern, &body));
        // The reverse is not implied.
        let pattern2 = vec![
            lit("person", vec![Term::var("X"), Term::var("A")]),
            Literal::cmp(Term::var("A"), CmpOp::Lt, Term::int(10)),
        ];
        assert!(!body_subsumes(&pattern2, &body));
    }

    #[test]
    fn negative_literals_match_only_negatives() {
        let pattern = vec![Literal::neg("faculty", vec![Term::var("X")])];
        let pos_body = vec![lit("faculty", vec![Term::var("A")])];
        let neg_body = vec![Literal::neg("faculty", vec![Term::var("A")])];
        assert!(!body_subsumes(&pattern, &pos_body));
        assert!(body_subsumes(&pattern, &neg_body));
    }

    #[test]
    fn all_matches_enumerated() {
        // Two candidate faculty atoms → two matches for a single-literal
        // pattern.
        let pattern = vec![lit("faculty", vec![Term::var("X"), Term::var("N")])];
        let body = vec![
            lit("faculty", vec![Term::var("Z"), Term::var("Name1")]),
            lit("faculty", vec![Term::var("W"), Term::var("Name2")]),
        ];
        let cmp_none: Vec<crate::atom::Comparison> = Vec::new();
        let solver = ConstraintSet::from_comparisons(cmp_none.iter());
        let target = MatchTarget::new(&body, &solver);
        let matches = match_body_onto(&pattern, &target, &Subst::new());
        assert_eq!(matches.len(), 2);
    }

    #[test]
    fn ground_constant_pattern_needs_exact_constant() {
        let pattern = vec![lit("p", vec![Term::int(3)])];
        let body_ok = vec![lit("p", vec![Term::int(3)])];
        let body_bad = vec![lit("p", vec![Term::var("X")])];
        assert!(body_subsumes(&pattern, &body_ok));
        // One-way matching: a constant cannot match a query variable.
        assert!(!body_subsumes(&pattern, &body_bad));
    }
}
