//! A bounded chase for deciding literal-removal soundness.
//!
//! Removing a positive literal from a conjunctive query only enlarges its
//! answer set, so `Q ≡ Q \ {a}` holds exactly when `Q \ {a} ⊆ Q`, i.e.
//! when the remaining body, *under the integrity constraints*, implies the
//! removed conjunct. We decide this with the classical chase:
//!
//! 1. Freeze the remaining body: its atoms become the facts, and its
//!    variables stay rigid, as [`crate::unify::match_terms`] treats a
//!    target's variables.
//! 2. Chase the facts with the tuple-generating dependencies
//!    (atom-headed ICs: OID identification, subclass hierarchy, inverse
//!    relationships, IC9), the *reverse* direction of view definitions
//!    (an access support relation fact implies a witness path with fresh
//!    nulls), and the equality-generating dependencies (key constraints
//!    such as IC7, one-to-one constraints, and OID-functionality of class
//!    relations).
//! 3. The removal (possibly of a whole group of literals, as in the ASR
//!    fold of Application 4) is sound if the removed conjunct maps
//!    homomorphically into the chased facts, with variables shared with
//!    the kept part frozen and purely-internal variables existential.
//!
//! A fact is an [`Atom`], a labelled null a fresh [`Var`] in a namespace
//! no parser produces, and the merges are one [`Subst`] applied to the
//! facts. The facts are kept by relation, as a [`Target`], and every
//! dependency body and the final test are matched onto them by Step 3's
//! one matcher, [`match_db_staged`]; the query's solver decides the
//! comparisons it defers ([`crate::subsume::Staged::implied_by`]).
//!
//! The chase derives only what the dependencies require:
//!
//! * Its dependencies are the constraints as written
//!   ([`crate::residue::ResidueSet::written`]); the strengthened and
//!   contrapositive forms compilation derives say what the chase derives
//!   from the written ones.
//! * Firing is restricted (the standard chase): a match θ of a
//!   dependency's body fires only when no extension of θ maps its head
//!   into the facts, so a witness already present gets no second one in
//!   fresh nulls. The head check is a match like any other, charged to
//!   the chase's steps.
//! * A round's merges bind the chase's one [`Subst`] and nothing else;
//!   the facts are rewritten through it once, after them.
//!
//! The chase is bounded (rounds, facts, nulls, and [`MAX_MATCH_STEPS`]
//! per match and per round), so the check is sound but not complete:
//! "not derivable within the budget" means the optimizer keeps the
//! literal, and a chase whose matching runs out of steps is refused.

use crate::atom::{Atom, CmpOp, Literal, PredSym};
use crate::clause::{Constraint, ConstraintHead, Rule};
use crate::solver::ConstraintSet;
use crate::subst::{apart, Subst};
use crate::subsume::{match_db_staged, Target, MAX_MATCH_STEPS};
use crate::term::{Term, Var};
use sqo_obs as obs;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// Maximum fixpoint rounds of one chase.
const MAX_ROUNDS: usize = 6;
/// Maximum number of facts one chase holds.
const MAX_FACTS: usize = 400;
/// Maximum number of fresh nulls one chase introduces.
const MAX_NULLS: usize = 64;
/// Match steps one chase may take in all: [`MAX_MATCH_STEPS`] a round.
const CHASE_STEPS: u64 = MAX_ROUNDS as u64 * MAX_MATCH_STEPS;

/// The namespace of labelled nulls.
const NULL: char = '\u{2}';

/// The dependencies the chase runs with. [`ChaseContext::from_constraints`]
/// renames their variables into [`crate::subst::APART`], apart from every
/// query's, as matching requires (see [`crate::unify::match_terms`]).
#[derive(Debug, Clone, Default)]
pub struct ChaseContext {
    /// Tuple-generating dependencies: ICs whose head is a positive atom.
    pub tgds: Vec<Constraint>,
    /// Equality-generating dependencies: ICs whose head is `X = Y`.
    pub egds: Vec<Constraint>,
    /// View definitions (e.g. access support relations); used in the
    /// reverse direction — a view fact implies a witness body — and by
    /// Step 3's view folds, which match their bodies against a query.
    pub views: Vec<Rule>,
    /// Functional-dependency map: `pred → k` means the first `k`
    /// arguments determine the remaining ones (classes and structures:
    /// `k = 1`; methods `m(OID, args…, V)`: `k = arity − 1`).
    pub functional: BTreeMap<PredSym, usize>,
}

impl ChaseContext {
    /// Partition a constraint list into tgds/egds (others are ignored by
    /// the chase — denials and range ICs are the solver's business), and
    /// rename them and the views into [`crate::subst::APART`].
    pub fn from_constraints(
        constraints: &[Constraint],
        views: Vec<Rule>,
        functional: BTreeMap<PredSym, usize>,
    ) -> Self {
        let mut tgds = Vec::new();
        let mut egds = Vec::new();
        for ic in constraints {
            let apart = || apart(ic.vars().iter()).apply_constraint(ic);
            match &ic.head {
                ConstraintHead::Atom(_) => tgds.push(apart()),
                ConstraintHead::Cmp(c) if c.op == CmpOp::Eq => egds.push(apart()),
                _ => {}
            }
        }
        let views = views.iter().map(|v| (v, apart(v.vars())));
        let views = views.map(|(v, s)| Rule::new(s.apply_atom(&v.head), s.apply_body(&v.body)));
        let views = views.collect();
        ChaseContext {
            tgds,
            egds,
            views,
            functional,
        }
    }
}

/// Rank of a term as a merge representative: constants first, then the
/// query's variables, then nulls.
fn rank(t: &Term) -> u8 {
    match t {
        Term::Const(_) => 0,
        Term::Var(v) if v.name().starts_with(NULL) => 2,
        Term::Var(_) => 1,
    }
}

/// The chase state: the facts, and the merges made so far.
pub struct Chase<'a> {
    ctx: &'a ChaseContext,
    /// The query's comparison context: it decides a dependency body's
    /// comparisons over the facts' terms.
    solver: &'a ConstraintSet,
    /// The facts by relation, each relation's in derivation order.
    facts: Target<Atom>,
    /// Each fact, with its place in derivation order over all relations.
    known: HashMap<Atom, usize>,
    /// Every merge so far: a merged-away variable ↦ its representative.
    /// The facts are kept in its image.
    merged: Subst,
    nulls: usize,
    /// Triggers already tried, each by its dependency's index and its
    /// match θ (views are numbered after the tgds): fired, or found
    /// satisfied, which later facts and merges keep it.
    fired: HashSet<(usize, Subst)>,
    /// Whether the null or fact budget refused something the
    /// dependencies asked for.
    refused: bool,
    /// Match steps taken so far, over every match.
    steps: u64,
    /// Whether a match, or all of them together, ran out of
    /// [`MAX_MATCH_STEPS`]: the chase then entails nothing.
    exhausted: bool,
    /// Whether `chase.budget_exhausted` was bumped for this chase.
    counted: bool,
}

impl<'a> Chase<'a> {
    /// Create a chase over the frozen body of a query.
    pub fn new(body: &[Literal], ctx: &'a ChaseContext, solver: &'a ConstraintSet) -> Self {
        let mut chase = Chase {
            ctx,
            solver,
            facts: Target::default(),
            known: HashMap::new(),
            merged: Subst::new(),
            nulls: 0,
            fired: HashSet::new(),
            refused: false,
            steps: 0,
            exhausted: false,
            counted: false,
        };
        for l in body {
            if let Literal::Pos(a) = l {
                chase.insert_fact(a.clone());
            }
        }
        chase
    }

    /// Insert `a` as the last fact, unless it is one already.
    fn insert_fact(&mut self, a: Atom) -> bool {
        if self.known.contains_key(&a) {
            return false;
        }
        self.known.insert(a.clone(), self.known.len());
        self.facts.push(a);
        true
    }

    /// Every merge so far, as a substitution from a merged-away variable
    /// to its representative.
    pub fn merged(&self) -> &Subst {
        &self.merged
    }

    /// Merge two terms (egd firing) in `merged` alone; the facts are
    /// rewritten once the round's merges are made ([`Chase::rewrite`]).
    /// Prefers constants, then the query's variables, as representatives.
    /// Merging two distinct constants is skipped (the query would be
    /// unsatisfiable; the solver reports that separately).
    fn merge(&mut self, a: &Term, b: &Term) -> bool {
        let (a, b) = (self.merged.apply_term(a), self.merged.apply_term(b));
        let (keep, drop) = if rank(&b) < rank(&a) { (b, a) } else { (a, b) };
        let Term::Var(drop) = drop else {
            return false;
        };
        if keep == Term::Var(drop) {
            return false;
        }
        self.merged.bind(drop, keep)
    }

    /// Put the facts in `merged`'s image, each once, in derivation order.
    /// `merged` is idempotent, so one rewrite after a round's merges
    /// leaves the facts a rewrite after each merge would.
    fn rewrite(&mut self) {
        let mut old: Vec<(Atom, usize)> = std::mem::take(&mut self.known).into_iter().collect();
        old.sort_unstable_by_key(|(_, place)| *place);
        self.facts = Target::default();
        for (a, _) in old {
            self.insert_fact(self.merged.apply_atom(&a));
        }
    }

    /// Insert a fact a dependency derived, unless the fact budget is
    /// spent.
    fn derive_fact(&mut self, a: Atom) -> bool {
        if self.known.len() < MAX_FACTS {
            return self.insert_fact(a);
        }
        self.refused |= !self.known.contains_key(&a);
        false
    }

    fn fresh_null(&mut self) -> Option<Term> {
        if self.nulls >= MAX_NULLS {
            self.refused = true;
            return None;
        }
        self.nulls += 1;
        Some(Term::Var(Var::new(format!("{NULL}{}", self.nulls))))
    }

    /// Every match of `pattern` into the facts, extending `seed`, whose
    /// comparisons the query's solver implies. A match that runs out of
    /// steps marks the chase exhausted, and nothing matches from then on.
    fn matches(&mut self, pattern: &[Literal], seed: &Subst) -> Vec<Subst> {
        if self.exhausted {
            return Vec::new();
        }
        let staged = match_db_staged(pattern, &self.facts, seed);
        obs::add(obs::Counter::ChaseSteps, staged.steps);
        self.steps += staged.steps;
        self.exhausted |= staged.exhausted || self.steps > CHASE_STEPS;
        if self.exhausted {
            return Vec::new();
        }
        staged.implied_by(self.solver)
    }

    /// Fire dependency `dep`, `body ⇒ head`, on each match θ of its body
    /// not tried before whose head the facts do not already satisfy (no
    /// extension of θ maps the head into them): the head atoms are
    /// derived with one fresh null per variable θ leaves unbound.
    fn fire(&mut self, dep: usize, body: &[Literal], head: &[&Atom]) -> bool {
        let head_lits: Vec<Literal> = head.iter().map(|a| Literal::Pos((*a).clone())).collect();
        let mut changed = false;
        'matches: for mut theta in self.matches(body, &Subst::new()) {
            if !self.fired.insert((dep, theta.clone())) {
                continue;
            }
            if !self.matches(&head_lits, &theta).is_empty() {
                continue;
            }
            if self.exhausted {
                break;
            }
            let mut derived = Vec::with_capacity(head.len());
            for a in head {
                for v in a.vars() {
                    if theta.lookup(v).is_none() {
                        let Some(null) = self.fresh_null() else {
                            continue 'matches;
                        };
                        theta.bind(*v, null);
                    }
                }
                derived.push(theta.apply_atom(a));
            }
            for a in derived {
                changed |= self.derive_fact(a);
            }
        }
        changed
    }

    /// Count this chase in `chase.budget_exhausted`, once.
    fn count_exhausted(&mut self) {
        if !std::mem::replace(&mut self.counted, true) {
            obs::bump(obs::Counter::ChaseExhausted);
        }
    }

    /// Run the chase to fixpoint (or budget exhaustion, which bumps
    /// `chase.budget_exhausted` once).
    pub fn run(&mut self) {
        let ctx = self.ctx;
        let mut fixpoint = false;
        for _round in 0..MAX_ROUNDS {
            let mut changed = false;

            // 1. tgds: body ⇒ head atom (existential head vars get nulls).
            for (ti, tgd) in ctx.tgds.iter().enumerate() {
                if let ConstraintHead::Atom(head) = &tgd.head {
                    changed |= self.fire(ti, &tgd.body, &[head]);
                }
            }

            // 2. views in reverse: a view-head fact implies its body with
            //    shared fresh nulls for body-only variables.
            for (vi, view) in ctx.views.iter().enumerate() {
                let positive = view.body.iter().filter(|l| l.is_positive());
                let witness: Vec<&Atom> = positive.filter_map(Literal::atom).collect();
                let head = [Literal::Pos(view.head.clone())];
                changed |= self.fire(ctx.tgds.len() + vi, &head, &witness);
            }

            // 3. egds: body ⇒ X = Y merges.
            let mut merges: Vec<(Term, Term)> = Vec::new();
            for egd in &ctx.egds {
                let ConstraintHead::Cmp(c) = &egd.head else {
                    continue;
                };
                for theta in self.matches(&egd.body, &Subst::new()) {
                    let bound = |t: &Term| match t {
                        Term::Var(v) => theta.lookup(v).copied(),
                        Term::Const(_) => Some(*t),
                    };
                    if let (Some(l), Some(r)) = (bound(&c.lhs), bound(&c.rhs)) {
                        merges.push((l, r));
                    }
                }
            }
            // 4. Functional congruence: if the determinant prefix of two
            //    facts of the same relation agrees, the remaining
            //    arguments merge (classes/structures: OID determines all
            //    attributes; methods: OID + arguments determine Value).
            //    The pairs merge in derivation order, by the first
            //    fact's place and then the second's: which term a
            //    merge keeps depends on that order.
            let mut congruent: Vec<((usize, usize), Term, Term)> = Vec::new();
            for relation in self.facts.relations() {
                let Some(&k) = ctx.functional.get(&relation[0].pred) else {
                    continue;
                };
                if relation[0].arity() < k {
                    continue;
                }
                for (i, a1) in relation.iter().enumerate() {
                    for a2 in relation[i + 1..].iter() {
                        if a1.args[..k] == a2.args[..k] {
                            let at = (self.known[a1], self.known[a2]);
                            let args = a1.args.iter().zip(&a2.args).skip(k);
                            congruent.extend(args.map(|(l, r)| (at, *l, *r)));
                        }
                    }
                }
            }
            congruent.sort_by_key(|(at, ..)| *at);
            merges.extend(congruent.into_iter().map(|(_, l, r)| (l, r)));
            let mut merged = false;
            for (l, r) in merges {
                merged |= self.merge(&l, &r);
            }
            if merged {
                self.rewrite();
                changed = true;
            }

            if self.exhausted || !changed {
                fixpoint = !changed;
                break;
            }
        }
        if !fixpoint || self.refused || self.exhausted {
            self.count_exhausted();
        }
    }

    /// Check whether the conjunctive `pattern` (with `frozen` variables
    /// fixed and all other variables existential) maps homomorphically
    /// into the chased facts. An exhausted chase entails nothing.
    pub fn entails(&mut self, pattern: &[Atom], frozen: &BTreeSet<Var>) -> bool {
        let lits: Vec<Literal> = pattern.iter().cloned().map(Literal::Pos).collect();
        // Pre-bind frozen variables to their merged terms; an unmerged one
        // to itself, so that it matches only itself.
        let mut seed = Subst::new();
        for v in frozen {
            seed.bind_exact(*v, self.merged.apply_term(&Term::Var(*v)));
        }
        let found = !self.matches(&lits, &seed).is_empty();
        if self.exhausted {
            self.count_exhausted();
        }
        found
    }

    /// Number of facts currently derived.
    pub fn fact_count(&self) -> usize {
        self.known.len()
    }
}

/// Decide whether removing `pattern` (a group of positive atoms) from a
/// query body is sound given the remaining `kept` body, the dependencies
/// and the query's comparison context.
pub fn group_removal_sound(
    kept: &[Literal],
    pattern: &[Atom],
    projection_vars: &BTreeSet<Var>,
    ctx: &ChaseContext,
    solver: &ConstraintSet,
) -> bool {
    // Frozen variables: those shared with the kept body or projected.
    let mut kept_vars: BTreeSet<Var> = projection_vars.clone();
    kept_vars.extend(kept.iter().flat_map(Literal::iter_vars));
    let pattern_vars: BTreeSet<Var> = pattern.iter().flat_map(|a| a.vars().cloned()).collect();
    let frozen: BTreeSet<Var> = pattern_vars.intersection(&kept_vars).cloned().collect();
    let _span = obs::span!("step3.chase");
    let mut chase = Chase::new(kept, ctx, solver);
    chase.run();
    chase.entails(pattern, &frozen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Comparison;

    fn v(n: &str) -> Term {
        Term::var(n)
    }

    fn empty_solver() -> ConstraintSet {
        ConstraintSet::new()
    }

    /// OID-identification IC: student(X, N) <- takes(X, Y).
    fn oid_ident_ic() -> Constraint {
        Constraint::new(
            ConstraintHead::Atom(Atom::new("student", vec![v("X"), v("N")])),
            vec![Literal::pos("takes", vec![v("X"), v("Y")])],
        )
    }

    #[test]
    fn tgd_derives_implied_atom() {
        let ctx = ChaseContext::from_constraints(&[oid_ident_ic()], vec![], BTreeMap::new());
        let solver = empty_solver();
        let kept = vec![Literal::pos("takes", vec![v("S"), v("Sec")])];
        let mut chase = Chase::new(&kept, &ctx, &solver);
        chase.run();
        // student(S, _) must be derivable with S frozen.
        let frozen: BTreeSet<Var> = [Var::new("S")].into_iter().collect();
        assert!(chase.entails(
            &[Atom::new("student", vec![v("S"), v("Anything")])],
            &frozen
        ));
        // But not with an arbitrary frozen first argument.
        let frozen2: BTreeSet<Var> = [Var::new("T")].into_iter().collect();
        assert!(!chase.entails(&[Atom::new("student", vec![v("T"), v("A")])], &frozen2));
    }

    #[test]
    fn a_trigger_whose_head_holds_derives_nothing() {
        // takes(S, Sec) matches the tgd's body, but student(S, Name)
        // already witnesses its head: no student(S, null) is derived.
        let ctx = ChaseContext::from_constraints(&[oid_ident_ic()], vec![], BTreeMap::new());
        let solver = empty_solver();
        let kept = vec![
            Literal::pos("takes", vec![v("S"), v("Sec")]),
            Literal::pos("student", vec![v("S"), v("Name")]),
        ];
        let mut chase = Chase::new(&kept, &ctx, &solver);
        chase.run();
        assert_eq!(chase.fact_count(), 2);
        assert_eq!(chase.nulls, 0);
    }

    #[test]
    fn removal_of_implied_class_atom_is_sound() {
        // Query: takes(S, Sec), student(S, N) with N unused elsewhere —
        // removing student is sound under the OID-identification IC.
        let ctx = ChaseContext::from_constraints(&[oid_ident_ic()], vec![], BTreeMap::new());
        let solver = empty_solver();
        let kept = vec![Literal::pos("takes", vec![v("S"), v("Sec")])];
        assert!(group_removal_sound(
            &kept,
            &[Atom::new("student", vec![v("S"), v("N")])],
            &BTreeSet::new(),
            &ctx,
            &solver,
        ));
        // If N is projected it is frozen, and the null-valued witness no
        // longer suffices.
        let proj: BTreeSet<Var> = [Var::new("N")].into_iter().collect();
        assert!(!group_removal_sound(
            &kept,
            &[Atom::new("student", vec![v("S"), v("N")])],
            &proj,
            &ctx,
            &solver,
        ));
    }

    #[test]
    fn egd_merges_via_key_constraint() {
        // IC7 shape: X1 = X2 <- faculty(X1, N1), faculty(X2, N2), N1 = N2.
        let ic7 = Constraint::named(
            "IC7",
            ConstraintHead::Cmp(Comparison::eq(v("X1"), v("X2"))),
            vec![
                Literal::pos("faculty", vec![v("X1"), v("N1")]),
                Literal::pos("faculty", vec![v("X2"), v("N2")]),
                Literal::cmp(v("N1"), CmpOp::Eq, v("N2")),
            ],
        );
        let ctx = ChaseContext::from_constraints(&[ic7], vec![], BTreeMap::new());
        // Query context: Name1 = Name2 holds.
        let solver = ConstraintSet::from_comparisons(&[Comparison::eq(
            Term::var("Name1"),
            Term::var("Name2"),
        )]);
        let kept = vec![
            Literal::pos("faculty", vec![v("Z"), v("Name1")]),
            Literal::pos("faculty", vec![v("W"), v("Name2")]),
        ];
        let mut chase = Chase::new(&kept, &ctx, &solver);
        chase.run();
        // Z and W must be merged.
        assert_eq!(
            chase.merged().apply_term(&v("Z")),
            chase.merged().apply_term(&v("W"))
        );
    }

    #[test]
    fn view_reverse_direction_creates_witness_path() {
        // asr(X, W) <- takes(X, Y), has_ta(Y, W)
        let view = Rule::new(
            Atom::new("asr", vec![v("X"), v("W")]),
            vec![
                Literal::pos("takes", vec![v("X"), v("Y")]),
                Literal::pos("has_ta", vec![v("Y"), v("W")]),
            ],
        );
        let ctx = ChaseContext::from_constraints(&[], vec![view], BTreeMap::new());
        let solver = empty_solver();
        let kept = vec![Literal::pos("asr", vec![v("S"), v("T")])];
        let mut chase = Chase::new(&kept, &ctx, &solver);
        chase.run();
        // The witness chain takes(S, ~n), has_ta(~n, T) must exist.
        let frozen: BTreeSet<Var> = [Var::new("S"), Var::new("T")].into_iter().collect();
        assert!(chase.entails(
            &[
                Atom::new("takes", vec![v("S"), v("Mid")]),
                Atom::new("has_ta", vec![v("Mid"), v("T")]),
            ],
            &frozen
        ));
    }

    #[test]
    fn application4_q_fold_is_sound() {
        // The full Application 4 "Q" case: replacing the 4-hop chain by
        // asr(X, W) with W projected is sound.
        let view = Rule::new(
            Atom::new("asr", vec![v("X"), v("W")]),
            vec![
                Literal::pos("takes", vec![v("X"), v("Y")]),
                Literal::pos("is_section_of", vec![v("Y"), v("Z")]),
                Literal::pos("has_sections", vec![v("Z"), v("V")]),
                Literal::pos("has_ta", vec![v("V"), v("W")]),
            ],
        );
        let ctx = ChaseContext::from_constraints(&[], vec![view], BTreeMap::new());
        let solver = empty_solver();
        let kept = vec![
            Literal::pos("student", vec![v("X"), v("Name")]),
            Literal::pos("asr", vec![v("X"), v("W")]),
        ];
        let pattern = [
            Atom::new("takes", vec![v("X"), v("Y")]),
            Atom::new("is_section_of", vec![v("Y"), v("Z")]),
            Atom::new("has_sections", vec![v("Z"), v("V")]),
            Atom::new("has_ta", vec![v("V"), v("W")]),
        ];
        let proj: BTreeSet<Var> = [Var::new("W")].into_iter().collect();
        assert!(group_removal_sound(&kept, &pattern, &proj, &ctx, &solver,));
    }

    #[test]
    fn application4_q1_fold_needs_one_to_one() {
        // The Q1 case: V is projected, has_ta(V, W) is kept; removing the
        // 3-atom prefix is sound ONLY with the one-to-one egd on has_ta.
        let view = Rule::new(
            Atom::new("asr", vec![v("X"), v("W")]),
            vec![
                Literal::pos("takes", vec![v("X"), v("Y")]),
                Literal::pos("is_section_of", vec![v("Y"), v("Z")]),
                Literal::pos("has_sections", vec![v("Z"), v("V")]),
                Literal::pos("has_ta", vec![v("V"), v("W")]),
            ],
        );
        // One-to-one: has_ta(V1, W) ∧ has_ta(V2, W) ⇒ V1 = V2.
        let one_to_one = Constraint::new(
            ConstraintHead::Cmp(Comparison::eq(v("V1"), v("V2"))),
            vec![
                Literal::pos("has_ta", vec![v("V1"), v("W")]),
                Literal::pos("has_ta", vec![v("V2"), v("W")]),
            ],
        );
        let solver = empty_solver();
        let kept = vec![
            Literal::pos("student", vec![v("X"), v("Name")]),
            Literal::pos("asr", vec![v("X"), v("W")]),
            Literal::pos("has_ta", vec![v("V"), v("W")]),
        ];
        let pattern = [
            Atom::new("takes", vec![v("X"), v("Y")]),
            Atom::new("is_section_of", vec![v("Y"), v("Z")]),
            Atom::new("has_sections", vec![v("Z"), v("V")]),
        ];
        let proj: BTreeSet<Var> = [Var::new("V")].into_iter().collect();

        // Without the one-to-one constraint: unsound, fold rejected.
        let ctx_no = ChaseContext::from_constraints(&[], vec![view.clone()], BTreeMap::new());
        assert!(!group_removal_sound(
            &kept, &pattern, &proj, &ctx_no, &solver,
        ));

        // With it: the chase merges the witness TA with the query's V and
        // the fold becomes sound — exactly the paper's argument.
        let ctx_yes = ChaseContext::from_constraints(&[one_to_one], vec![view], BTreeMap::new());
        assert!(group_removal_sound(
            &kept, &pattern, &proj, &ctx_yes, &solver,
        ));
    }

    #[test]
    fn oid_functional_congruence_merges_attributes() {
        // With Z = W established by an egd, faculty(Z, Name1) and
        // faculty(W, Name2) must get Name1 merged with Name2 via
        // OID-functionality.
        let eq_egd = Constraint::new(
            ConstraintHead::Cmp(Comparison::eq(v("A"), v("B"))),
            vec![Literal::pos("pin", vec![v("A"), v("B")])],
        );
        let mut fd = BTreeMap::new();
        fd.insert(PredSym::new("faculty"), 1);
        let ctx = ChaseContext {
            egds: vec![eq_egd],
            functional: fd,
            ..Default::default()
        };
        let solver = empty_solver();
        let kept = vec![
            Literal::pos("faculty", vec![v("Z"), v("Name1")]),
            Literal::pos("faculty", vec![v("W"), v("Name2")]),
            Literal::pos("pin", vec![v("Z"), v("W")]),
        ];
        let mut chase = Chase::new(&kept, &ctx, &solver);
        chase.run();
        assert_eq!(
            chase.merged().apply_term(&v("Z")),
            chase.merged().apply_term(&v("W"))
        );
        assert_eq!(
            chase.merged().apply_term(&v("Name1")),
            chase.merged().apply_term(&v("Name2"))
        );
    }

    #[test]
    fn budget_bounds_termination() {
        // A pathological transitive tgd must terminate under budget.
        let t1 = Constraint::new(
            ConstraintHead::Atom(Atom::new("p", vec![v("Y"), v("Z")])),
            vec![Literal::pos("p", vec![v("X"), v("Y")])],
        );
        let ctx = ChaseContext::from_constraints(&[t1], vec![], BTreeMap::new());
        let solver = empty_solver();
        let kept = vec![Literal::pos("p", vec![v("A"), v("B")])];
        let mut chase = Chase::new(&kept, &ctx, &solver);
        // Read this thread's own bumps off a request trace: other tests
        // in the binary chase concurrently.
        obs::trace_begin("chase-test".into());
        {
            let _span = obs::span!("test.chase");
            chase.run();
        }
        let trace = obs::trace_end().expect("trace was begun on this thread");
        assert!(chase.fact_count() <= MAX_FACTS);
        let counted = [("chase.budget_exhausted", 1), ("chase.steps", chase.steps)];
        assert_eq!(trace.events[0].counters, counted);
    }

    #[test]
    fn cmp_in_tgd_body_consults_query_solver() {
        // tgd: adult(X) <- person(X, A), A >= 18 — fires only when the
        // query's own constraints imply the bound.
        let tgd = Constraint::new(
            ConstraintHead::Atom(Atom::new("adult", vec![v("X")])),
            vec![
                Literal::pos("person", vec![v("X"), v("A")]),
                Literal::cmp(v("A"), CmpOp::Ge, Term::int(18)),
            ],
        );
        let ctx = ChaseContext::from_constraints(&[tgd], vec![], BTreeMap::new());
        let kept = vec![Literal::pos("person", vec![v("P"), v("Age")])];
        let frozen: BTreeSet<Var> = [Var::new("P")].into_iter().collect();

        let strong = ConstraintSet::from_comparisons(&[Comparison::new(
            Term::var("Age"),
            CmpOp::Gt,
            Term::int(20),
        )]);
        let mut c1 = Chase::new(&kept, &ctx, &strong);
        c1.run();
        assert!(c1.entails(&[Atom::new("adult", vec![v("P")])], &frozen));

        let weak = ConstraintSet::from_comparisons(&[Comparison::new(
            Term::var("Age"),
            CmpOp::Gt,
            Term::int(10),
        )]);
        let mut c2 = Chase::new(&kept, &ctx, &weak);
        c2.run();
        assert!(!c2.entails(&[Atom::new("adult", vec![v("P")])], &frozen));
    }
}
