//! Unification and one-way matching for the function-free fragment.
//!
//! Two operations are needed by the residue method:
//!
//! * **Unification** (two-way): used during semantic compilation when an
//!   integrity-constraint body literal is resolved against a relation
//!   template (partial subsumption, Section 2 of the paper).
//! * **Matching** (one-way, a.k.a. θ-subsumption step): used at query
//!   transformation time, when a residue's remaining body literal must be
//!   mapped *onto* a query literal without instantiating the query.

use crate::atom::Atom;
use crate::subst::Subst;
use crate::term::Term;

/// Unify two terms under an accumulating substitution. Returns `true` and
/// extends `s` on success; on failure `s` may be partially extended, so
/// callers should clone before speculative unification.
pub fn unify_terms(a: &Term, b: &Term, s: &mut Subst) -> bool {
    let ra = s.resolve(a);
    let rb = s.resolve(b);
    match (ra, rb) {
        (Term::Const(x), Term::Const(y)) => x == y,
        (Term::Var(v), t) | (t, Term::Var(v)) => s.bind(v, t),
    }
}

/// Unify two atoms (same predicate, same arity, pairwise-unifiable args).
pub fn unify_atoms(a: &Atom, b: &Atom, s: &mut Subst) -> bool {
    if a.pred != b.pred || a.arity() != b.arity() {
        return false;
    }
    a.args
        .iter()
        .zip(&b.args)
        .all(|(x, y)| unify_terms(x, y, s))
}

/// One-way matching: extend `s` so that `pattern`θ = `target`, binding only
/// variables of the pattern side. The target is treated as fixed — its
/// variables behave like constants.
///
/// **Precondition:** the pattern's variables must be disjoint from the
/// target's. Every compiled pattern — residue, chase dependency, view —
/// lives in the [`crate::subst::APART`] namespace, which no query uses.
/// With shared names a substitution cannot distinguish the two variable
/// spaces and bindings may chain through the overlap.
pub fn match_terms(pattern: &Term, target: &Term, s: &mut Subst) -> bool {
    match pattern {
        Term::Const(c) => matches!(target, Term::Const(d) if c == d),
        // Only ever bind *pattern* variables; an already-bound pattern
        // variable must coincide with the target exactly (target variables
        // behave like constants and are never bound). Identity matches are
        // recorded too, so a repeated pattern variable stays consistent
        // even when pattern and target share variable names.
        Term::Var(v) => match s.lookup(v) {
            Some(bound) => bound == target,
            None => s.bind_exact(*v, *target),
        },
    }
}

/// One-way matching of atoms: `pattern`θ = `target`.
pub fn match_atoms(pattern: &Atom, target: &Atom, s: &mut Subst) -> bool {
    sqo_obs::bump(sqo_obs::Counter::UnifyAttempts);
    if pattern.pred != target.pred || pattern.arity() != target.arity() {
        return false;
    }
    pattern
        .args
        .iter()
        .zip(&target.args)
        .all(|(p, t)| match_terms(p, t, s))
}

/// Compute the most general unifier of two atoms, if any.
pub fn mgu(a: &Atom, b: &Atom) -> Option<Subst> {
    let mut s = Subst::new();
    if unify_atoms(a, b, &mut s) {
        Some(s)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Var;

    #[test]
    fn unify_basic() {
        let a = Atom::new("p", vec![Term::var("X"), Term::int(3)]);
        let b = Atom::new("p", vec![Term::str("a"), Term::var("Y")]);
        let s = mgu(&a, &b).expect("unifies");
        assert_eq!(s.apply_atom(&a), s.apply_atom(&b));
    }

    #[test]
    fn unify_fails_on_pred_or_arity() {
        let a = Atom::new("p", vec![Term::var("X")]);
        let b = Atom::new("q", vec![Term::var("X")]);
        assert!(mgu(&a, &b).is_none());
        let c = Atom::new("p", vec![Term::var("X"), Term::var("Y")]);
        assert!(mgu(&a, &c).is_none());
    }

    #[test]
    fn unify_occurs_trivially_fine_without_functions() {
        // Function-free: X with Y, then Y with X must not loop.
        let a = Atom::new("p", vec![Term::var("X"), Term::var("Y")]);
        let b = Atom::new("p", vec![Term::var("Y"), Term::var("X")]);
        let s = mgu(&a, &b).expect("unifies");
        assert_eq!(s.apply_atom(&a), s.apply_atom(&b));
    }

    #[test]
    fn unify_conflicting_constants_fails() {
        let a = Atom::new("p", vec![Term::var("X"), Term::var("X")]);
        let b = Atom::new("p", vec![Term::int(1), Term::int(2)]);
        assert!(mgu(&a, &b).is_none());
    }

    #[test]
    fn matching_is_one_way() {
        let pat = Atom::new("p", vec![Term::var("X")]);
        let tgt = Atom::new("p", vec![Term::var("QueryVar")]);
        let mut s = Subst::new();
        assert!(match_atoms(&pat, &tgt, &mut s));
        assert_eq!(s.apply_term(&Term::var("X")), Term::var("QueryVar"));

        // The reverse direction must fail: a constant pattern position
        // cannot match a target variable.
        let pat2 = Atom::new("p", vec![Term::int(1)]);
        let mut s2 = Subst::new();
        assert!(!match_atoms(&pat2, &tgt, &mut s2));
    }

    #[test]
    fn matching_respects_repeated_pattern_vars() {
        let pat = Atom::new("p", vec![Term::var("X"), Term::var("X")]);
        let tgt_ok = Atom::new("p", vec![Term::var("A"), Term::var("A")]);
        let tgt_bad = Atom::new("p", vec![Term::var("A"), Term::var("B")]);
        assert!(match_atoms(&pat, &tgt_ok, &mut Subst::new()));
        assert!(!match_atoms(&pat, &tgt_bad, &mut Subst::new()));
    }

    #[test]
    fn mgu_is_most_general_on_samples() {
        // mgu of p(X, b) and p(a, Y) must map X↦a, Y↦b and nothing else.
        let a = Atom::new("p", vec![Term::var("X"), Term::str("b")]);
        let b = Atom::new("p", vec![Term::str("a"), Term::var("Y")]);
        let s = mgu(&a, &b).unwrap();
        assert_eq!(s.len(), 2);
        assert_eq!(s.apply_term(&Term::var("X")), Term::str("a"));
        assert_eq!(s.apply_term(&Term::var("Y")), Term::str("b"));
        let _ = Var::new("X"); // silence unused import on some cfgs
    }
}
