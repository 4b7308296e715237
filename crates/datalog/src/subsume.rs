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

use crate::atom::{Atom, Comparison, Literal, PredSym};
use crate::clause::{CanonScratch, CanonTok, Query};
use crate::fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
use crate::solver::ConstraintSet;
use crate::subst::Subst;
use crate::unify::match_terms;
use sqo_obs as obs;
use std::borrow::Borrow;
use std::hash::BuildHasher;

/// The fixed side of a match, by relation: for each sign, predicate and
/// arity, the target's atoms of it, in target order. A pattern literal is
/// tried against exactly the atoms [`Target::atoms`] hands it.
///
/// A query's target borrows its body's atoms ([`Target::of`]); the chase
/// keeps its facts, all positive, in one of its own.
#[derive(Debug)]
pub struct Target<A>(FxHashMap<(bool, PredSym, usize), Vec<A>>);

/// A database literal's relation: whether it is negated, its predicate
/// and its arity; with its atom.
fn relation(l: &Literal) -> Option<((bool, PredSym, usize), &Atom)> {
    let a = l.atom()?;
    Some(((!l.is_positive(), a.pred, a.arity()), a))
}

impl<A> Default for Target<A> {
    fn default() -> Self {
        Target(FxHashMap::default())
    }
}

impl<'a> Target<&'a Atom> {
    /// The target of a body: its positive and negated atoms.
    pub fn of(body: &'a [Literal]) -> Self {
        let mut target = Target::default();
        for (key, a) in body.iter().filter_map(relation) {
            target.0.entry(key).or_default().push(a);
        }
        target
    }
}

impl<A: Borrow<Atom>> Target<A> {
    /// The atoms a database literal may match, those of its own
    /// relation, in target order; none for a comparison.
    pub fn atoms(&self, l: &Literal) -> &[A] {
        let own = relation(l).and_then(|(key, _)| self.0.get(&key));
        own.map_or(&[], Vec::as_slice)
    }

    /// Whether every database literal of `pattern` has an atom to match.
    pub fn covers(&self, pattern: &[Literal]) -> bool {
        let has_atoms = |l: &Literal| l.atom().is_none() || !self.atoms(l).is_empty();
        pattern.iter().all(has_atoms)
    }

    /// Append a positive atom after its relation's others.
    pub fn push(&mut self, atom: A) {
        let key = (false, atom.borrow().pred, atom.borrow().arity());
        self.0.entry(key).or_default().push(atom);
    }

    /// Each relation's atoms, in target order, and the relations in no
    /// particular one.
    pub fn relations(&self) -> impl Iterator<Item = &[A]> {
        self.0.values().map(Vec::as_slice)
    }
}

/// Find every substitution θ extending `seed` such that each literal of
/// `pattern` maps into the target as described in the module docs, its
/// comparisons implied by `solver`. Duplicate substitutions are removed.
///
/// This is [`match_db_staged`] with each staged match kept iff `solver`
/// implies all its deferred comparisons ([`Staged::implied_by`]),
/// charged as one `subsume.checks` and its steps as `unify.attempts`.
///
/// **Precondition:** pattern variables disjoint from target variables
/// (see [`crate::unify::match_terms`]).
pub fn match_body_onto<A: Borrow<Atom>>(
    pattern: &[Literal],
    target: &Target<A>,
    solver: &ConstraintSet,
    seed: &Subst,
) -> Vec<Subst> {
    let staged = match_db_staged(pattern, target, seed);
    staged.charge();
    staged.implied_by(solver)
}

/// One complete match of a pattern's *database* literals, with the
/// pattern's comparison literals instantiated under θ but not yet
/// checked against any solver.
///
/// Produced by [`match_db_staged`]; a caller holding a query-specific
/// [`ConstraintSet`] accepts the match iff every deferred comparison is
/// implied, which is all [`match_body_onto`] does. Checking comparisons
/// after the database search rather than as its last steps finds the
/// same substitutions in the same order, because comparison steps never
/// bind variables, and equal substitutions pass or fail the deferred
/// checks identically, so dedup-before-filter equals filter-before-dedup.
#[derive(Debug, Clone)]
pub struct StagedMatch {
    /// The substitution at the database-literal leaf.
    pub theta: Subst,
    /// The pattern's comparison literals instantiated under `theta`, in
    /// pattern order. Empty when the pattern has no comparisons.
    pub deferred: Vec<Comparison>,
}

/// Candidate atoms one [`match_db_staged`] call may try (a chase may
/// take this many a round). Each try of an atom of the literal's own
/// relation is one step, so a call's work is linear in this bound
/// whatever the pattern: a long pattern over many like atoms (a chase
/// dependency over the facts it derived) otherwise enumerates a product
/// of them.
pub const MAX_MATCH_STEPS: u64 = 8_000;

/// What one [`match_db_staged`] call found.
#[derive(Debug, Default)]
pub struct Staged {
    /// The distinct matches, in the search's depth-first order.
    pub matches: Vec<StagedMatch>,
    /// Candidate atoms tried, each of its literal's own relation: one
    /// one-way atom match attempt each (plus the matches scanned when two
    /// of them share a digest).
    pub steps: u64,
    /// Whether [`MAX_MATCH_STEPS`] stopped the search; `matches` is then
    /// the prefix found so far. Every match in it is a real one, so a
    /// residue caller may use it; the chase refuses instead.
    pub exhausted: bool,
}

impl Staged {
    /// Charge the call to the residue matchers' counters: one
    /// `subsume.checks`, a `unify.attempts` per step, and one
    /// `subsume.budget_exhausted` if the bound stopped it. The chase's
    /// calls are per-node work and charge none of them.
    pub fn charge(&self) {
        obs::bump(obs::Counter::SubsumeChecks);
        obs::add(obs::Counter::UnifyAttempts, self.steps);
        if self.exhausted {
            obs::bump(obs::Counter::SubsumeBudgetExhausted);
        }
    }

    /// The θs whose deferred comparisons `solver` implies, in order: the
    /// solver-dependent half of a match, for the residue path and the
    /// chase alike.
    pub fn implied_by(self, solver: &ConstraintSet) -> Vec<Subst> {
        let implied = |m: &StagedMatch| m.deferred.iter().all(|c| solver.implies(c));
        self.matches
            .into_iter()
            .filter(implied)
            .map(|m| m.theta)
            .collect()
    }
}

/// The database half of [`match_body_onto`], with the solver-dependent
/// half deferred: match only the database literals of `pattern` onto the
/// atoms `target` hands each (in pattern order, depth first), returning
/// each distinct surviving substitution with its instantiated
/// comparisons. The search stops after [`MAX_MATCH_STEPS`] candidate
/// tries; a literal with no candidate ends it before the first.
///
/// A residue variable that stays unbound inside one of the pattern's
/// comparisons cannot be checked, so the match fails conservatively
/// here (that check depends only on θ, never on the target's solver).
pub fn match_db_staged<A: Borrow<Atom>>(
    pattern: &[Literal],
    target: &Target<A>,
    seed: &Subst,
) -> Staged {
    // Each database literal with the atoms it may match.
    let mut db: Vec<(&Atom, &[A])> = Vec::new();
    let mut cmps: Vec<&Comparison> = Vec::new();
    for l in pattern {
        match l {
            Literal::Cmp(c) => cmps.push(c),
            Literal::Pos(a) | Literal::Neg(a) => match target.atoms(l) {
                [] => return Staged::default(),
                own => db.push((a, own)),
            },
        }
    }

    let mut out = Staged::default();
    // Each match's θ by digest, to its index: a repeat costs one lookup
    // and one compare. Two θs of one digest cost a scan of the matches,
    // counted as steps, so θs chosen to collide only spend the bound.
    let mut seen: FxHashMap<u64, usize> = FxHashMap::default();
    let mut stack: Vec<(usize, Subst)> = vec![(0, seed.clone())];
    'leaves: while let Some((i, s)) = stack.pop() {
        if i == db.len() {
            let digest = FxBuildHasher::default().hash_one(&s);
            if let Some(&j) = seen.get(&digest) {
                if out.matches[j].theta == s {
                    continue;
                }
                out.steps += out.matches.len() as u64;
                if out.matches.iter().any(|m| m.theta == s) {
                    continue;
                }
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
            seen.entry(digest).or_insert(out.matches.len());
            out.matches.push(StagedMatch { theta: s, deferred });
            continue;
        }
        let (pat, candidates) = db[i];
        for cand in candidates.iter().map(Borrow::<Atom>::borrow) {
            if out.steps >= MAX_MATCH_STEPS {
                out.exhausted = true;
                return out;
            }
            out.steps += 1;
            let mut s2 = s.clone();
            if pat
                .args
                .iter()
                .zip(&cand.args)
                .all(|(p, t)| match_terms(p, t, &mut s2))
            {
                stack.push((i + 1, s2));
            }
        }
    }
    out
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
    !match_body_onto(pattern, &Target::of(body), &solver, &Subst::new()).is_empty()
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
        let matches = match_body_onto(&pattern, &Target::of(&body), &solver, &Subst::new());
        assert_eq!(matches.len(), 2);
    }

    #[test]
    fn a_literal_tries_only_atoms_of_its_own_relation() {
        let (x, y, z) = (Term::var("X"), Term::var("Y"), Term::var("Z"));
        let [s, a, b, f, g] = ["S", "A", "B", "F", "G"].map(Term::var);
        let pattern = vec![lit("takes", vec![x, y]), lit("taught_by", vec![y, z])];
        let base = vec![
            lit("takes", vec![s, a]),
            lit("taught_by", vec![a, f]),
            lit("takes", vec![s, b]),
            lit("taught_by", vec![b, g]),
        ];
        // Other relations, another arity of `takes`, and negated atoms of
        // the pattern's own relations, interleaved with the base.
        let mut noisy = base.clone();
        noisy.insert(0, lit("student", vec![s]));
        noisy.insert(2, Literal::neg("takes", vec![s, a]));
        noisy.insert(4, lit("takes", vec![s, a, b]));
        noisy.push(Literal::neg("taught_by", vec![b, g]));
        noisy.push(Literal::cmp(a, CmpOp::Lt, b));
        let thetas = |staged: &Staged| -> Vec<Subst> {
            staged.matches.iter().map(|m| m.theta.clone()).collect()
        };
        let plain = match_db_staged(&pattern, &Target::of(&base), &Subst::new());
        let mixed = match_db_staged(&pattern, &Target::of(&noisy), &Subst::new());
        // Two `takes` tries, then two `taught_by` tries under each.
        assert_eq!(plain.steps, 6);
        assert_eq!(plain.matches.len(), 2);
        assert_eq!(thetas(&mixed), thetas(&plain));
        assert_eq!(mixed.steps, plain.steps);
        assert!(!mixed.exhausted);

        // A literal whose relation the target lacks ends the call before
        // its first try, wherever it sits in the pattern.
        let absent = vec![lit("takes", vec![x, y]), lit("has_ta", vec![y, z])];
        let none = match_db_staged(&absent, &Target::of(&noisy), &Subst::new());
        assert_eq!(
            (none.steps, none.matches.len(), none.exhausted),
            (0, 0, false)
        );
        assert!(!Target::of(&noisy).covers(&absent));
        assert!(Target::of(&noisy).covers(&pattern));
    }

    #[test]
    fn a_product_pattern_stops_at_the_bound_and_is_counted() {
        // Six unrelated `r` literals over five `r` atoms: 5^6 matches.
        let pattern: Vec<Literal> = (0..6)
            .map(|i| lit("r", vec![Term::var(format!("X{i}"))]))
            .collect();
        let body: Vec<Literal> = (0..5)
            .map(|i| lit("r", vec![Term::var(format!("A{i}"))]))
            .collect();
        let staged = match_db_staged(&pattern, &Target::of(&body), &Subst::new());
        assert!(staged.exhausted);
        assert_eq!(staged.steps, MAX_MATCH_STEPS);
        assert!(!staged.matches.is_empty() && staged.matches.len() < 5usize.pow(6));
        // Read this thread's own bumps off a request trace: other tests
        // in the binary match concurrently.
        obs::trace_begin("subsume-test".into());
        {
            let _span = obs::span!("test.subsume");
            staged.charge();
        }
        let trace = obs::trace_end().expect("trace was begun on this thread");
        let counters = &trace.events[0].counters;
        assert!(
            counters.contains(&("subsume.budget_exhausted", 1)),
            "{counters:?}"
        );
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
