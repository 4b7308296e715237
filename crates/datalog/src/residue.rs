//! Semantic compilation: attaching residues to relations.
//!
//! Following the residue method (Section 2 of the paper; Chakravarthy,
//! Grant & Minker 1990), each integrity constraint `H ← B1, …, Bn` is
//! compiled, *before any query arrives*, into residues by partial
//! subsumption: for each positive database literal `Bi`, the fragment
//!
//! ```text
//!   anchor:  Bi
//!   rest:    B1, …, Bi-1, Bi+1, …, Bn
//!   head:    H
//! ```
//!
//! is attached to `Bi`'s relation. At query time, a residue anchored at a
//! relation occurring in the query applies if its `rest` also maps into
//! the query; its (instantiated) head is then a formula true of every
//! answer, usable to add or remove literals, or to detect a contradiction.
//! Each constraint is renamed into the [`crate::subst::APART`] namespace
//! before it is split, so its residues are kept apart from every query's
//! variables here, once, and never renamed at query time.
//!
//! The compiler also performs the paper's IC-derivation steps
//! (Application 2, the IC4 + IC5 ⇒ IC6 ⇒ IC6′ chain):
//!
//! * **Body strengthening**: given an inclusion constraint
//!   `c1(…) ← c2(…)` (subclass hierarchy) and any IC with `c2` in its
//!   body, a derived IC adds the implied `c1` atom to the body
//!   (IC4 + IC5 ⇒ IC6).
//! * **Contrapositives**: from `H ← B1,…,Bn` derive
//!   `¬Bi ← B1,…,Bi-1,Bi+1,…,Bn, ¬H` whenever the remaining body still
//!   contains a positive database literal to anchor at (IC6 ⇒ IC6′).

use crate::atom::{Atom, Literal, PredSym};
use crate::clause::{Constraint, ConstraintHead};
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::subst::apart;
use crate::unify::mgu;
use sqo_obs as obs;

/// A compiled integrity-constraint fragment attached to a relation.
///
/// Its variables are in the [`crate::subst::APART`] namespace, renamed
/// once when the constraint is compiled, so matching it against any
/// query needs no renaming: a matched variable is replaced by the query's
/// term, and an unmatched (foreign) one is discarded or freshened into an
/// `NV*` query name before it reaches a candidate.
#[derive(Debug, Clone)]
pub struct Residue {
    /// Compile-order ordinal of this residue within its [`ResidueSet`];
    /// the stable half of the provenance id (see [`Residue::provenance_id`]).
    pub id: u32,
    /// Index of the originating constraint in [`ResidueSet::constraints`].
    pub ic_index: usize,
    /// Name of the originating constraint, if any (e.g. `"IC7"`).
    pub ic_name: Option<String>,
    /// The body literal this residue is anchored at (the relation it is
    /// "attached to" in the paper's terminology).
    pub anchor: Atom,
    /// The remaining body literals that must also map into a query for the
    /// residue to apply.
    pub rest: Vec<Literal>,
    /// The residue head: what becomes true of every query answer.
    pub head: ConstraintHead,
}

impl Residue {
    /// Stable provenance id of the form `r<ordinal>@<anchor-pred>`, e.g.
    /// `r3@faculty`. The ordinal is the compile-order position of the
    /// residue in its [`ResidueSet`], so ids are deterministic for a given
    /// schema + IC set and let `explain()` output name the exact compiled
    /// fragment that drove a rewrite.
    pub fn provenance_id(&self) -> String {
        format!("r{}@{}", self.id, self.anchor.pred)
    }

    /// Whether a matching substitution can ever bind `v`: only variables
    /// occurring in the anchor or in a positive/negative `rest` literal
    /// are bound by body matching (comparison literals are checked, never
    /// matched, so they bind nothing).
    fn bindable(&self, v: &crate::term::Var) -> bool {
        self.anchor.vars().any(|w| w == v)
            || self.rest.iter().any(|l| match l {
                Literal::Pos(a) | Literal::Neg(a) => a.vars().any(|w| w == v),
                Literal::Cmp(_) => false,
            })
    }

    /// Exactness prefilter: `true` when applying this residue can never
    /// contribute a candidate or a contradiction to *any* query, so the
    /// application can be skipped wholesale (the OBDA notion of an
    /// exactly-covered assertion — the residue head carries no
    /// information the query's own atoms could absorb).
    ///
    /// The classification is purely syntactic, so skipping is provably
    /// equivalent to running the per-application checks:
    ///
    /// * A comparison head with a variable no body literal can bind keeps
    ///   that variable foreign under every matching substitution, so the
    ///   foreign-variable check discards every instantiation.
    /// * A negated-atom head none of whose variables are bindable is
    ///   never anchored to the query, so the anchoring check discards
    ///   every instantiation (a ground negated head included).
    ///
    /// Denial heads (contradiction signals), atom heads, and every other
    /// comparison head are kept.
    pub fn exact_skippable(&self) -> bool {
        match &self.head {
            ConstraintHead::None | ConstraintHead::Atom(_) => false,
            ConstraintHead::Cmp(c) => c.vars().any(|v| !self.bindable(v)),
            ConstraintHead::NegAtom(a) => a.vars().all(|v| !self.bindable(v)),
        }
    }
}

/// Options controlling semantic compilation.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Derive strengthened ICs through inclusion constraints
    /// (IC4 + IC5 ⇒ IC6).
    pub derive_strengthened: bool,
    /// Derive contrapositive ICs (IC6 ⇒ IC6′), enabling scope reduction.
    pub derive_contrapositives: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            derive_strengthened: true,
            derive_contrapositives: true,
        }
    }
}

/// The result of semantic compilation: all (original and derived)
/// constraints, and their residues indexed by anchor relation.
#[derive(Debug, Clone, Default)]
pub struct ResidueSet {
    /// Original constraints followed by derived ones.
    pub constraints: Vec<Constraint>,
    /// How many of `constraints` were written: the derived ones start
    /// here.
    written: usize,
    by_pred: FxHashMap<PredSym, Vec<Residue>>,
    residue_count: usize,
}

impl ResidueSet {
    /// Compile a set of integrity constraints with default options.
    pub fn compile(constraints: Vec<Constraint>) -> Self {
        Self::compile_with(constraints, &CompileOptions::default())
    }

    /// Compile a set of integrity constraints.
    pub fn compile_with(mut constraints: Vec<Constraint>, opts: &CompileOptions) -> Self {
        let _span = obs::span!("step1.residue_compile");
        let written = constraints.len();
        if opts.derive_strengthened {
            // Saturate inclusion constraints transitively first, so a
            // two-hop hierarchy (faculty ⊆ employee ⊆ person) still
            // produces the one-hop inclusion the strengthening step needs.
            let closed = saturate_inclusions(&constraints);
            constraints.extend(closed);
            let derived = derive_strengthened(&constraints);
            constraints.extend(derived);
        }
        if opts.derive_contrapositives {
            let derived = derive_contrapositives(&constraints);
            constraints.extend(derived);
        }
        let mut by_pred: FxHashMap<PredSym, Vec<Residue>> =
            FxHashMap::with_capacity_and_hasher(constraints.len(), Default::default());
        let mut residue_count = 0;
        for (idx, ic) in constraints.iter().enumerate() {
            let ic = apart(&ic.vars()).apply_constraint(ic);
            for (i, lit) in ic.body.iter().enumerate() {
                let Literal::Pos(anchor) = lit else { continue };
                let mut rest: Vec<Literal> = Vec::with_capacity(ic.body.len() - 1);
                rest.extend(
                    ic.body
                        .iter()
                        .enumerate()
                        .filter(|(j, _)| *j != i)
                        .map(|(_, l)| l.clone()),
                );
                by_pred.entry(anchor.pred).or_default().push(Residue {
                    id: residue_count as u32,
                    ic_index: idx,
                    ic_name: ic.name.clone(),
                    anchor: anchor.clone(),
                    rest,
                    head: ic.head.clone(),
                });
                residue_count += 1;
            }
        }
        obs::add(obs::Counter::ResiduesAttached, residue_count as u64);
        ResidueSet {
            constraints,
            written,
            by_pred,
            residue_count,
        }
    }

    /// The constraints as written, without the derived ones: the chase's
    /// dependencies, which derive what the strengthened and
    /// contrapositive forms say from the constraints they came from.
    pub fn written(&self) -> &[Constraint] {
        &self.constraints[..self.written]
    }

    /// Residues attached to the given relation.
    pub fn residues_for(&self, pred: &PredSym) -> &[Residue] {
        self.by_pred.get(pred).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Total number of residues across all relations.
    pub fn len(&self) -> usize {
        self.residue_count
    }

    /// Whether no residues were produced.
    pub fn is_empty(&self) -> bool {
        self.residue_count == 0
    }

    /// Iterate over all residues.
    pub fn iter(&self) -> impl Iterator<Item = &Residue> {
        self.by_pred.values().flatten()
    }
}

/// An inclusion constraint is `c1(args) ← c2(args')` with a single positive
/// body literal and an atom head (e.g. the subclass-hierarchy ICs of
/// Section 4.2).
fn as_inclusion(ic: &Constraint) -> Option<(&Atom, &Atom)> {
    let ConstraintHead::Atom(head) = &ic.head else {
        return None;
    };
    let [Literal::Pos(body)] = ic.body.as_slice() else {
        return None;
    };
    Some((head, body))
}

/// Transitively compose inclusion constraints: from `a(…) ← b(…)` and
/// `b(…) ← c(…)` derive `a(…) ← c(…)` (bounded fixpoint).
///
/// Inclusions are indexed by head predicate, so each composition round
/// pairs an upper inclusion only with the inclusions that can actually
/// feed its body, instead of scanning the full cross product.
fn saturate_inclusions(constraints: &[Constraint]) -> Vec<Constraint> {
    let mut all: Vec<Constraint> = constraints
        .iter()
        .filter(|c| as_inclusion(c).is_some())
        .cloned()
        .collect();
    // head pred → indices into `all`, and the (head, body) pred pairs
    // already present (for O(1) known-checks).
    let mut by_head: FxHashMap<PredSym, Vec<usize>> = FxHashMap::default();
    let mut known: FxHashSet<(PredSym, PredSym)> = FxHashSet::default();
    for (i, c) in all.iter().enumerate() {
        let (h, b) = as_inclusion(c).expect("filtered to inclusions");
        by_head.entry(h.pred).or_default().push(i);
        known.insert((h.pred, b.pred));
    }
    let mut derived: Vec<Constraint> = Vec::new();
    for _round in 0..constraints.len() {
        let mut new_ics: Vec<Constraint> = Vec::new();
        for ui in 0..all.len() {
            let upper = &all[ui];
            let Some((_u_head, u_body)) = as_inclusion(upper) else {
                continue;
            };
            let Some(lowers) = by_head.get(&u_body.pred) else {
                continue;
            };
            for &li in lowers {
                let lower = &all[li];
                let Some((l_head, _)) = as_inclusion(lower) else {
                    continue;
                };
                // Standardize the upper IC apart and unify its body with
                // the lower IC's head.
                let used = lower.vars();
                let upper_fresh = crate::subst::standardize_apart(upper, &used);
                let Some((u_head_f, u_body_f)) = as_inclusion(&upper_fresh) else {
                    continue;
                };
                let Some(theta) = mgu(u_body_f, l_head) else {
                    continue;
                };
                let new_head = theta.apply_atom(u_head_f);
                let new_body = theta.apply_body(&lower.body);
                // Skip trivial or already-known inclusions.
                if new_body
                    .iter()
                    .any(|l| matches!(l, Literal::Pos(a) if a.pred == new_head.pred))
                {
                    continue;
                }
                let candidate = Constraint {
                    name: match (&upper.name, &lower.name) {
                        (Some(a), Some(b)) => Some(format!("{a}∘{b}")),
                        _ => None,
                    },
                    head: ConstraintHead::Atom(new_head),
                    body: new_body,
                };
                let key = inclusion_key(&candidate).expect("candidate is an inclusion");
                if known.insert(key) {
                    new_ics.push(candidate);
                }
            }
        }
        if new_ics.is_empty() {
            break;
        }
        for c in &new_ics {
            let (h, _) = as_inclusion(c).expect("derived inclusions");
            by_head.entry(h.pred).or_default().push(all.len());
            all.push(c.clone());
        }
        derived.extend(new_ics);
    }
    derived
}

fn inclusion_key(c: &Constraint) -> Option<(PredSym, PredSym)> {
    as_inclusion(c).map(|(h, b)| (h.pred, b.pred))
}

/// Derive strengthened constraints: for each IC containing a positive body
/// atom `b` unifiable with an inclusion IC's body, add the inclusion's
/// (instantiated) head atom to the body. This reproduces the paper's
/// IC4 + IC5 ⇒ IC6 step: `Age ≥ 30 ← faculty(..)` becomes
/// `Age ≥ 30 ← faculty(..), person(..)`.
fn derive_strengthened(constraints: &[Constraint]) -> Vec<Constraint> {
    // Index inclusion ICs by their body predicate so each target body
    // literal only visits the inclusions that can strengthen it. The
    // emitted order (inclusion position, then body-literal index) is
    // observable downstream, so candidates carry a sort key.
    let mut inclusions_by_body: FxHashMap<PredSym, Vec<(usize, &Constraint)>> =
        FxHashMap::default();
    for (n, inc) in constraints.iter().enumerate() {
        if let Some((_, inc_body)) = as_inclusion(inc) {
            inclusions_by_body
                .entry(inc_body.pred)
                .or_default()
                .push((n, inc));
        }
    }
    let mut out = Vec::new();
    for ic in constraints {
        // Skip inclusion ICs themselves: strengthening them yields noise.
        if as_inclusion(ic).is_some() {
            continue;
        }
        let mut local: Vec<((usize, usize), Constraint)> = Vec::new();
        for (i, lit) in ic.body.iter().enumerate() {
            let Literal::Pos(b) = lit else { continue };
            let Some(incs) = inclusions_by_body.get(&b.pred) else {
                continue;
            };
            for &(n, inc) in incs {
                // Standardize the inclusion IC apart from the target IC.
                let used = ic.vars();
                let inc_fresh = crate::subst::standardize_apart(inc, &used);
                let Some((inc_head_f, inc_body_f)) = as_inclusion(&inc_fresh) else {
                    continue;
                };
                let Some(theta) = mgu(inc_body_f, b) else {
                    continue;
                };
                let new_atom = theta.apply_atom(inc_head_f);
                // Skip if the body already contains the implied atom.
                if ic
                    .body
                    .iter()
                    .any(|l| matches!(l, Literal::Pos(a) if *a == new_atom))
                {
                    continue;
                }
                let mut body = ic.body.clone();
                body.insert(i + 1, Literal::Pos(new_atom));
                let name = match (&ic.name, &inc.name) {
                    (Some(a), Some(b)) => Some(format!("{a}+{b}")),
                    _ => None,
                };
                local.push((
                    (n, i),
                    Constraint {
                        name,
                        head: ic.head.clone(),
                        body,
                    },
                ));
            }
        }
        local.sort_by_key(|(k, _)| *k);
        out.extend(local.into_iter().map(|(_, c)| c));
    }
    dedup_constraints(out)
}

/// Derive contrapositives: `H ← B` yields `¬Bi ← (B \ Bi), ¬H` for each
/// positive `Bi`, provided the remaining body retains a positive database
/// literal to anchor the resulting residue (and to keep it safe).
fn derive_contrapositives(constraints: &[Constraint]) -> Vec<Constraint> {
    let mut out = Vec::new();
    for ic in constraints {
        // The negated head becomes a body literal; denials contribute
        // nothing extra here (their residues already signal contradiction).
        let neg_head: Option<Literal> = match &ic.head {
            ConstraintHead::None => None,
            ConstraintHead::Atom(a) => Some(Literal::Neg(a.clone())),
            ConstraintHead::NegAtom(a) => Some(Literal::Pos(a.clone())),
            // Order-comparison heads only: negating an equality head (key
            // and functionality ICs) yields disequality-guarded residues
            // that are never usefully applicable — the equality form is
            // already exploited directly (join elimination) and as an egd.
            ConstraintHead::Cmp(c) if c.op != crate::atom::CmpOp::Eq => {
                Some(Literal::Cmp(c.negate()))
            }
            ConstraintHead::Cmp(_) => None,
        };
        let Some(neg_head) = neg_head else { continue };
        for (i, lit) in ic.body.iter().enumerate() {
            let Literal::Pos(b) = lit else { continue };
            let rest: Vec<Literal> = ic
                .body
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, l)| l.clone())
                .collect();
            // Anchorability: the remaining body must still contain a
            // positive database literal.
            if !rest.iter().any(Literal::is_positive) {
                continue;
            }
            let mut body = rest;
            body.push(neg_head.clone());
            out.push(Constraint {
                name: ic.name.as_ref().map(|n| format!("{n}'")),
                head: ConstraintHead::NegAtom(b.clone()),
                body,
            });
        }
    }
    dedup_constraints(out)
}

/// One token of a constraint's structural dedup key. The key is exact
/// (not a hash): two constraints share a key iff they have the same
/// head and body up to comparison orientation — the same equivalence
/// the old rendered-string key expressed, without the string building.
#[derive(PartialEq, Eq, Hash)]
enum KeyTok {
    Tag(u8),
    Pred(PredSym),
    T(crate::term::Term),
    Op(crate::atom::CmpOp),
}

fn key_atom(out: &mut Vec<KeyTok>, tag: u8, a: &Atom) {
    out.push(KeyTok::Tag(tag));
    out.push(KeyTok::Pred(a.pred));
    out.extend(a.args.iter().map(|t| KeyTok::T(*t)));
}

fn key_cmp(out: &mut Vec<KeyTok>, tag: u8, c: &crate::atom::Comparison) {
    let c = c.canonical();
    out.push(KeyTok::Tag(tag));
    out.push(KeyTok::Op(c.op));
    out.push(KeyTok::T(c.lhs));
    out.push(KeyTok::T(c.rhs));
}

fn constraint_key(ic: &Constraint) -> Vec<KeyTok> {
    let mut out = Vec::new();
    match &ic.head {
        ConstraintHead::None => out.push(KeyTok::Tag(0)),
        ConstraintHead::Atom(a) => key_atom(&mut out, 1, a),
        ConstraintHead::NegAtom(a) => key_atom(&mut out, 2, a),
        // The head comparison keeps its orientation, as the rendered
        // key did.
        ConstraintHead::Cmp(c) => {
            out.push(KeyTok::Tag(3));
            out.push(KeyTok::Op(c.op));
            out.push(KeyTok::T(c.lhs));
            out.push(KeyTok::T(c.rhs));
        }
    }
    for l in &ic.body {
        match l {
            Literal::Pos(a) => key_atom(&mut out, 4, a),
            Literal::Neg(a) => key_atom(&mut out, 5, a),
            Literal::Cmp(c) => key_cmp(&mut out, 6, c),
        }
    }
    out
}

fn dedup_constraints(ics: Vec<Constraint>) -> Vec<Constraint> {
    let mut seen: FxHashSet<Vec<KeyTok>> = FxHashSet::default();
    let mut out = Vec::new();
    for ic in ics {
        if seen.insert(constraint_key(&ic)) {
            out.push(ic);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::{CmpOp, Comparison};
    use crate::term::Term;

    fn ic1() -> Constraint {
        // IC1: Salary > 40000 <- faculty(OID, Salary)
        Constraint::named(
            "IC1",
            ConstraintHead::Cmp(Comparison::new(
                Term::var("Salary"),
                CmpOp::Gt,
                Term::int(40000),
            )),
            vec![Literal::pos(
                "faculty",
                vec![Term::var("OID"), Term::var("Salary")],
            )],
        )
    }

    fn ic4() -> Constraint {
        // IC4: Age >= 30 <- faculty(X, Name, Age)
        Constraint::named(
            "IC4",
            ConstraintHead::Cmp(Comparison::new(Term::var("Age"), CmpOp::Ge, Term::int(30))),
            vec![Literal::pos(
                "faculty",
                vec![Term::var("X"), Term::var("Name"), Term::var("Age")],
            )],
        )
    }

    fn ic5() -> Constraint {
        // IC5: person(X, Name, Age) <- faculty(X, Name, Age)
        Constraint::named(
            "IC5",
            ConstraintHead::Atom(Atom::new(
                "person",
                vec![Term::var("X"), Term::var("Name"), Term::var("Age")],
            )),
            vec![Literal::pos(
                "faculty",
                vec![Term::var("X"), Term::var("Name"), Term::var("Age")],
            )],
        )
    }

    #[test]
    fn single_body_literal_residue() {
        let rs = ResidueSet::compile_with(
            vec![ic1()],
            &CompileOptions {
                derive_strengthened: false,
                derive_contrapositives: false,
            },
        );
        let rs_fac = rs.residues_for(&PredSym::new("faculty"));
        assert_eq!(rs_fac.len(), 1);
        assert!(rs_fac[0].rest.is_empty());
        // The residue is IC1 renamed into the apart namespace.
        let apart = |name: &str| Term::var(format!("{}{name}", crate::subst::APART));
        assert_eq!(
            rs_fac[0].anchor,
            Atom::new("faculty", vec![apart("OID"), apart("Salary")])
        );
        assert_eq!(
            rs_fac[0].head,
            ConstraintHead::Cmp(Comparison::new(
                apart("Salary"),
                CmpOp::Gt,
                Term::int(40000)
            ))
        );
        // The constraint itself keeps its written names.
        assert_eq!(rs.constraints, [ic1()]);
        assert_eq!(rs.residues_for(&PredSym::new("student")).len(), 0);
    }

    #[test]
    fn residue_per_body_literal() {
        // IC with two database literals yields a residue at each.
        let ic = Constraint::new(
            ConstraintHead::Cmp(Comparison::new(Term::var("A"), CmpOp::Lt, Term::var("B"))),
            vec![
                Literal::pos("p", vec![Term::var("X"), Term::var("A")]),
                Literal::pos("q", vec![Term::var("X"), Term::var("B")]),
            ],
        );
        let rs = ResidueSet::compile_with(
            vec![ic],
            &CompileOptions {
                derive_strengthened: false,
                derive_contrapositives: false,
            },
        );
        assert_eq!(rs.residues_for(&PredSym::new("p")).len(), 1);
        assert_eq!(rs.residues_for(&PredSym::new("q")).len(), 1);
        assert_eq!(rs.residues_for(&PredSym::new("p"))[0].rest.len(), 1);
        assert_eq!(rs.len(), 2);
    }

    #[test]
    fn ic4_ic5_derives_ic6_and_ic6_prime() {
        let rs = ResidueSet::compile(vec![ic4(), ic5()]);
        // IC6: Age >= 30 <- faculty(..), person(..)
        let ic6 = rs.constraints.iter().find(|c| {
            matches!(&c.head, ConstraintHead::Cmp(_))
                && c.body.len() == 2
                && c.body
                    .iter()
                    .any(|l| l.pred().map(|p| p.name()) == Some("person"))
        });
        assert!(
            ic6.is_some(),
            "IC6 should be derived: {:#?}",
            rs.constraints
        );
        // IC6': not faculty(..) <- person(..), Age < 30 — i.e. a residue
        // anchored at person with a NegAtom(faculty) head.
        let person_residues = rs.residues_for(&PredSym::new("person"));
        let scope = person_residues
            .iter()
            .find(|r| matches!(&r.head, ConstraintHead::NegAtom(a) if a.pred.name() == "faculty"));
        assert!(
            scope.is_some(),
            "IC6' residue at person: {person_residues:#?}"
        );
        let scope = scope.unwrap();
        // Its remaining body must contain the negated range comparison.
        assert!(scope
            .rest
            .iter()
            .any(|l| matches!(l, Literal::Cmp(c) if c.op == CmpOp::Lt)));
    }

    #[test]
    fn contrapositive_requires_anchor() {
        // Single-literal IC1 has no contrapositive (removing faculty leaves
        // nothing to anchor at).
        let rs = ResidueSet::compile(vec![ic1()]);
        assert!(rs
            .constraints
            .iter()
            .all(|c| !matches!(&c.head, ConstraintHead::NegAtom(_))));
    }

    #[test]
    fn denial_residue_has_empty_head() {
        let ic = Constraint::new(
            ConstraintHead::None,
            vec![
                Literal::pos("p", vec![Term::var("X")]),
                Literal::pos("q", vec![Term::var("X")]),
            ],
        );
        let rs = ResidueSet::compile(vec![ic]);
        let rp = rs.residues_for(&PredSym::new("p"));
        assert_eq!(rp.len(), 1);
        assert_eq!(rp[0].head, ConstraintHead::None);
    }

    #[test]
    fn derived_sets_are_deduplicated() {
        // Compiling the same IC twice should not duplicate derived ICs.
        let rs = ResidueSet::compile(vec![ic4(), ic4(), ic5()]);
        let neg_count = rs
            .constraints
            .iter()
            .filter(|c| matches!(&c.head, ConstraintHead::NegAtom(_)))
            .count();
        // Only the faculty-anchored contrapositive of derived IC6 family.
        assert!(neg_count >= 1);
        let keys: Vec<String> = rs.constraints.iter().map(|c| c.to_string()).collect();
        let mut dedup = keys.clone();
        dedup.sort();
        dedup.dedup();
        // Duplicates may exist between the two identical originals, but
        // derived constraints must be unique.
        let derived: Vec<_> = keys.iter().skip(3).collect();
        let mut d2 = derived.clone();
        d2.sort();
        d2.dedup();
        assert_eq!(derived.len(), d2.len());
    }
}
