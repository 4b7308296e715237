//! A bounded chase for deciding literal-removal soundness.
//!
//! Removing a positive literal from a conjunctive query only enlarges its
//! answer set, so `Q ≡ Q \ {a}` holds exactly when `Q \ {a} ⊆ Q`, i.e.
//! when the remaining body, *under the integrity constraints*, implies the
//! removed conjunct. We decide this with the classical chase:
//!
//! 1. Freeze the remaining body: its variables become labelled constants.
//! 2. Chase the frozen facts with the tuple-generating dependencies
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
//! The chase is bounded (rounds, facts, nulls), so the check is sound but
//! not complete: "not derivable within the budget" simply means the
//! optimizer keeps the literal.

use crate::atom::{Atom, CmpOp, Literal, PredSym};
use crate::clause::{Constraint, ConstraintHead, Rule};
use crate::solver::ConstraintSet;
use crate::term::{Const, Term, Var};
use sqo_obs as obs;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// A term in the chase universe.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CTerm {
    /// A frozen query variable (behaves as a distinct constant, but keeps
    /// its identity so comparisons can consult the query's solver).
    Frozen(Var),
    /// A labelled null introduced for an existential variable.
    Null(usize),
    /// An ordinary constant.
    Const(Const),
}

impl std::fmt::Display for CTerm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CTerm::Frozen(v) => write!(f, "'{v}"),
            CTerm::Null(n) => write!(f, "~{n}"),
            CTerm::Const(c) => write!(f, "{c}"),
        }
    }
}

/// A chase fact: a predicate applied to chase terms.
pub type CFact = (PredSym, Vec<CTerm>);

/// Maximum fixpoint rounds of one chase.
const MAX_ROUNDS: usize = 6;
/// Maximum number of facts one chase holds.
const MAX_FACTS: usize = 400;
/// Maximum number of fresh nulls one chase introduces.
const MAX_NULLS: usize = 64;

/// The dependencies the chase runs with.
#[derive(Debug, Clone, Default)]
pub struct ChaseContext {
    /// Tuple-generating dependencies: ICs whose head is a positive atom.
    pub tgds: Vec<Constraint>,
    /// Equality-generating dependencies: ICs whose head is `X = Y`.
    pub egds: Vec<Constraint>,
    /// View definitions (e.g. access support relations); used in the
    /// reverse direction — a view fact implies a witness body.
    pub views: Vec<Rule>,
    /// Functional-dependency map: `pred → k` means the first `k`
    /// arguments determine the remaining ones (classes and structures:
    /// `k = 1`; methods `m(OID, args…, V)`: `k = arity − 1`).
    pub functional: BTreeMap<PredSym, usize>,
}

impl ChaseContext {
    /// Partition a constraint list into tgds/egds (others are ignored by
    /// the chase — denials and range ICs are the solver's business).
    pub fn from_constraints(
        constraints: &[Constraint],
        views: Vec<Rule>,
        functional: BTreeMap<PredSym, usize>,
    ) -> Self {
        let mut tgds = Vec::new();
        let mut egds = Vec::new();
        for ic in constraints {
            match &ic.head {
                ConstraintHead::Atom(_) => tgds.push(ic.clone()),
                ConstraintHead::Cmp(c) if c.op == CmpOp::Eq => egds.push(ic.clone()),
                _ => {}
            }
        }
        ChaseContext {
            tgds,
            egds,
            views,
            functional,
        }
    }
}

/// The chase state: facts plus a canonicalization map over chase terms
/// (for equality-generating dependencies).
pub struct Chase<'a> {
    ctx: &'a ChaseContext,
    /// The query's comparison context, used to evaluate comparison
    /// literals over frozen terms.
    solver: &'a ConstraintSet,
    facts: HashSet<CFact>,
    /// Per-predicate index over `facts` (kept in sync).
    by_pred: BTreeMap<PredSym, Vec<Vec<CTerm>>>,
    /// Canonical representative for merged terms.
    canon: BTreeMap<CTerm, CTerm>,
    next_null: usize,
    /// Firing keys to avoid re-firing the same dependency on the same
    /// binding (oblivious-chase dedup).
    fired: HashSet<String>,
    /// Whether the null or fact budget refused something the
    /// dependencies asked for.
    refused: bool,
}

impl<'a> Chase<'a> {
    /// Create a chase over the frozen body of a query.
    pub fn new(body: &[Literal], ctx: &'a ChaseContext, solver: &'a ConstraintSet) -> Self {
        let mut chase = Chase {
            ctx,
            solver,
            facts: HashSet::new(),
            by_pred: BTreeMap::new(),
            canon: BTreeMap::new(),
            next_null: 0,
            fired: HashSet::new(),
            refused: false,
        };
        for l in body {
            if let Literal::Pos(a) = l {
                chase.insert_fact(a.pred, a.args.iter().map(freeze).collect());
            }
        }
        chase
    }

    fn insert_fact(&mut self, pred: PredSym, args: Vec<CTerm>) -> bool {
        if self.facts.insert((pred, args.clone())) {
            self.by_pred.entry(pred).or_default().push(args);
            true
        } else {
            false
        }
    }

    /// The canonical representative of a chase term.
    pub fn rep(&self, t: &CTerm) -> CTerm {
        let mut cur = t.clone();
        let mut hops = 0;
        while let Some(next) = self.canon.get(&cur) {
            if *next == cur || hops > self.canon.len() {
                break;
            }
            cur = next.clone();
            hops += 1;
        }
        cur
    }

    /// Merge two chase terms (egd firing). Prefers constants, then frozen
    /// variables, as representatives. Merging two distinct constants is
    /// skipped (the query would be unsatisfiable; the solver reports that
    /// separately).
    fn merge(&mut self, a: &CTerm, b: &CTerm) -> bool {
        let (ra, rb) = (self.rep(a), self.rep(b));
        if ra == rb {
            return false;
        }
        let (keep, drop) = match (&ra, &rb) {
            (CTerm::Const(_), CTerm::Const(_)) => return false,
            (CTerm::Const(_), _) => (ra.clone(), rb.clone()),
            (_, CTerm::Const(_)) => (rb.clone(), ra.clone()),
            (CTerm::Frozen(_), _) => (ra.clone(), rb.clone()),
            (_, CTerm::Frozen(_)) => (rb.clone(), ra.clone()),
            _ => (ra.clone(), rb.clone()),
        };
        self.canon.insert(drop, keep);
        // Rewrite facts to canonical form (both the set and the index).
        let rewritten: HashSet<CFact> = self
            .facts
            .iter()
            .map(|(p, args)| (*p, args.iter().map(|t| self.rep(t)).collect()))
            .collect();
        self.by_pred.clear();
        for (p, args) in &rewritten {
            self.by_pred.entry(*p).or_default().push(args.clone());
        }
        self.facts = rewritten;
        true
    }

    /// Insert a fact a dependency derived, unless the fact budget is
    /// spent.
    fn derive_fact(&mut self, pred: PredSym, args: Vec<CTerm>) -> bool {
        if self.facts.len() < MAX_FACTS {
            return self.insert_fact(pred, args);
        }
        self.refused |= !self.facts.contains(&(pred, args));
        false
    }

    fn fresh_null(&mut self) -> Option<CTerm> {
        if self.next_null >= MAX_NULLS {
            self.refused = true;
            return None;
        }
        let n = self.next_null;
        self.next_null += 1;
        Some(CTerm::Null(n))
    }

    /// Evaluate a comparison over chase terms, consulting the query solver
    /// for frozen variables. Conservative: unknown ⇒ false.
    fn eval_cmp(&self, lhs: &CTerm, op: CmpOp, rhs: &CTerm) -> bool {
        let (l, r) = (self.rep(lhs), self.rep(rhs));
        if l == r {
            return matches!(op, CmpOp::Eq | CmpOp::Le | CmpOp::Ge);
        }
        let to_term = |t: &CTerm| -> Option<Term> {
            match t {
                CTerm::Frozen(v) => Some(Term::Var(*v)),
                CTerm::Const(c) => Some(Term::Const(*c)),
                CTerm::Null(_) => None,
            }
        };
        match (to_term(&l), to_term(&r)) {
            (Some(a), Some(b)) => self.solver.implies(&crate::atom::Comparison::new(a, op, b)),
            _ => false,
        }
    }

    /// Find all bindings of `body` (a conjunction with plain `Var`s) into
    /// the current facts, extending `seed`. Negative literals are not
    /// supported inside chase dependencies and fail the match.
    fn match_body(
        &self,
        body: &[Literal],
        seed: &BTreeMap<Var, CTerm>,
    ) -> Vec<BTreeMap<Var, CTerm>> {
        let mut db: Vec<&Atom> = Vec::new();
        let mut cmps = Vec::new();
        for l in body {
            match l {
                Literal::Pos(a) => db.push(a),
                Literal::Cmp(c) => cmps.push(c),
                Literal::Neg(_) => return Vec::new(),
            }
        }
        let mut bindings: Vec<BTreeMap<Var, CTerm>> = vec![seed.clone()];
        let empty_rel: Vec<Vec<CTerm>> = Vec::new();
        for atom in db {
            let candidates = self.by_pred.get(&atom.pred).unwrap_or(&empty_rel);
            let mut next: Vec<BTreeMap<Var, CTerm>> = Vec::new();
            for b in &bindings {
                for args in candidates {
                    if args.len() != atom.args.len() {
                        continue;
                    }
                    let mut b2 = b.clone();
                    let mut ok = true;
                    for (pat, val) in atom.args.iter().zip(args) {
                        match pat {
                            Term::Const(c) => {
                                if self.rep(val) != CTerm::Const(*c) {
                                    ok = false;
                                    break;
                                }
                            }
                            Term::Var(v) => match b2.get(v) {
                                Some(bound) => {
                                    if self.rep(bound) != self.rep(val) {
                                        ok = false;
                                        break;
                                    }
                                }
                                None => {
                                    b2.insert(*v, self.rep(val));
                                }
                            },
                        }
                    }
                    if ok {
                        next.push(b2);
                    }
                }
            }
            bindings = next;
            if bindings.is_empty() {
                return bindings;
            }
        }
        bindings.retain(|b| {
            cmps.iter()
                .all(|c| match (instantiate(&c.lhs, b), instantiate(&c.rhs, b)) {
                    (Some(l), Some(r)) => self.eval_cmp(&l, c.op, &r),
                    _ => false,
                })
        });
        bindings
    }

    /// Run the chase to fixpoint (or budget exhaustion, which bumps
    /// `chase.budget_exhausted` once).
    pub fn run(&mut self) {
        let empty = BTreeMap::new();
        let mut fixpoint = false;
        for _round in 0..MAX_ROUNDS {
            let mut changed = false;

            // 1. tgds: body ⇒ head atom (existential head vars get nulls).
            for (ti, tgd) in self.ctx.tgds.iter().enumerate() {
                let ConstraintHead::Atom(head) = &tgd.head else {
                    continue;
                };
                let head = head.clone();
                for binding in self.match_body(&tgd.body, &empty) {
                    let key = format!("t{ti}:{binding:?}");
                    if !self.fired.insert(key) {
                        continue;
                    }
                    let mut b = binding.clone();
                    let mut args = Vec::with_capacity(head.args.len());
                    let mut ok = true;
                    for t in &head.args {
                        match t {
                            Term::Const(c) => args.push(CTerm::Const(*c)),
                            Term::Var(v) => {
                                if let Some(val) = b.get(v) {
                                    args.push(val.clone());
                                } else if let Some(null) = self.fresh_null() {
                                    b.insert(*v, null.clone());
                                    args.push(null);
                                } else {
                                    ok = false;
                                    break;
                                }
                            }
                        }
                    }
                    if ok {
                        changed |= self.derive_fact(head.pred, args);
                    }
                }
            }

            // 2. views in reverse: a view-head fact implies its body with
            //    shared fresh nulls for body-only variables.
            for (vi, view) in self.ctx.views.iter().enumerate() {
                let head_lit = [Literal::Pos(view.head.clone())];
                let view_body = view.body.clone();
                for binding in self.match_body(&head_lit, &empty) {
                    let key = format!("v{vi}:{binding:?}");
                    if !self.fired.insert(key) {
                        continue;
                    }
                    let mut b = binding.clone();
                    let mut new_facts = Vec::new();
                    let mut ok = true;
                    for l in &view_body {
                        let Literal::Pos(a) = l else { continue };
                        let mut args = Vec::with_capacity(a.args.len());
                        for t in &a.args {
                            match t {
                                Term::Const(c) => args.push(CTerm::Const(*c)),
                                Term::Var(v) => {
                                    if let Some(val) = b.get(v) {
                                        args.push(val.clone());
                                    } else if let Some(null) = self.fresh_null() {
                                        b.insert(*v, null.clone());
                                        args.push(null);
                                    } else {
                                        ok = false;
                                        break;
                                    }
                                }
                            }
                        }
                        if !ok {
                            break;
                        }
                        new_facts.push((a.pred, args));
                    }
                    if ok {
                        for (p, args) in new_facts {
                            changed |= self.derive_fact(p, args);
                        }
                    }
                }
            }

            // 3. egds: body ⇒ X = Y merges.
            let mut merges: Vec<(CTerm, CTerm)> = Vec::new();
            for egd in &self.ctx.egds {
                let ConstraintHead::Cmp(c) = &egd.head else {
                    continue;
                };
                for binding in self.match_body(&egd.body, &empty) {
                    if let (Some(l), Some(r)) =
                        (instantiate(&c.lhs, &binding), instantiate(&c.rhs, &binding))
                    {
                        merges.push((l, r));
                    }
                }
            }
            // 4. Functional congruence: if the determinant prefix of two
            //    facts of the same relation agrees, the remaining
            //    arguments merge (classes/structures: OID determines all
            //    attributes; methods: OID + arguments determine Value).
            let snapshot: Vec<CFact> = self.facts.iter().cloned().collect();
            for (i, (p1, a1)) in snapshot.iter().enumerate() {
                let Some(&k) = self.ctx.functional.get(p1) else {
                    continue;
                };
                if a1.len() < k {
                    continue;
                }
                for (p2, a2) in snapshot.iter().skip(i + 1) {
                    if p1 != p2 || a1.len() != a2.len() {
                        continue;
                    }
                    let prefix_eq = a1[..k]
                        .iter()
                        .zip(&a2[..k])
                        .all(|(x, y)| self.rep(x) == self.rep(y));
                    if prefix_eq {
                        for (x, y) in a1.iter().zip(a2).skip(k) {
                            merges.push((x.clone(), y.clone()));
                        }
                    }
                }
            }
            for (l, r) in merges {
                changed |= self.merge(&l, &r);
            }

            if !changed {
                fixpoint = true;
                break;
            }
        }
        if !fixpoint || self.refused {
            obs::bump(obs::Counter::ChaseExhausted);
        }
    }

    /// Check whether the conjunctive `pattern` (with `frozen` variables
    /// fixed and all other variables existential) maps homomorphically
    /// into the chased facts.
    pub fn entails(&self, pattern: &[Atom], frozen: &BTreeSet<Var>) -> bool {
        let lits: Vec<Literal> = pattern.iter().map(|a| Literal::Pos(a.clone())).collect();
        // Pre-bind frozen variables to their frozen chase terms.
        let seed: BTreeMap<Var, CTerm> = frozen
            .iter()
            .map(|v| (*v, self.rep(&CTerm::Frozen(*v))))
            .collect();
        !self.match_body(&lits, &seed).is_empty()
    }

    /// Number of facts currently derived.
    pub fn fact_count(&self) -> usize {
        self.facts.len()
    }
}

fn freeze(t: &Term) -> CTerm {
    match t {
        Term::Var(v) => CTerm::Frozen(*v),
        Term::Const(c) => CTerm::Const(*c),
    }
}

fn instantiate(t: &Term, b: &BTreeMap<Var, CTerm>) -> Option<CTerm> {
    match t {
        Term::Const(c) => Some(CTerm::Const(*c)),
        Term::Var(v) => b.get(v).cloned(),
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
            chase.rep(&CTerm::Frozen(Var::new("Z"))),
            chase.rep(&CTerm::Frozen(Var::new("W")))
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
            chase.rep(&CTerm::Frozen(Var::new("Z"))),
            chase.rep(&CTerm::Frozen(Var::new("W")))
        );
        assert_eq!(
            chase.rep(&CTerm::Frozen(Var::new("Name1"))),
            chase.rep(&CTerm::Frozen(Var::new("Name2")))
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
        assert_eq!(trace.events[0].counters, [("chase.budget_exhausted", 1)]);
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
