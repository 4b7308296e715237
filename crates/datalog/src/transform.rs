//! Query-time application of residues: Step 3 of the paper's pipeline.
//!
//! Given a query and the compiled [`crate::residue::ResidueSet`],
//! this module enumerates the *atomic semantic transformations* justified
//! by the integrity constraints:
//!
//! * **Contradiction** — a denial residue matches, or a residue head
//!   conflicts with the query's comparison constraints (Example 1,
//!   Application 1);
//! * **AddCmp** — a comparison head is attached (restriction introduction;
//!   also the key-equality `Z = W` of Application 3);
//! * **AddAtom** — an atom head is attached (join introduction: IC9 and
//!   the forward direction of an access-support-relation definition,
//!   Application 4);
//! * **AddNegAtom** — a negated-atom head is attached (access scope
//!   reduction via IC6′, Application 2);
//! * **RemoveCmp** — a comparison implied by the rest of the query is
//!   dropped (the `Name1 = Name2` of Application 3);
//! * **RemoveAtoms** — a group of positive atoms implied by the rest of
//!   the query (validated by the bounded chase) is dropped (join
//!   elimination; the ASR fold of Application 4).

use crate::atom::{Atom, Comparison, Literal, PredSym};
use crate::chase::{group_removal_sound, ChaseContext};
use crate::clause::{Constraint, ConstraintHead, Query, Rule};
use crate::fxhash::{FxHashMap, FxHasher};
use crate::residue::ResidueSet;
use crate::solver::{ConstraintSet, Sat};
use crate::subst::Subst;
use crate::subsume::{match_body_onto, match_db_staged, Target};
use crate::term::{Term, Var};
use crate::unify::match_atoms;
use sqo_obs as obs;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::sync::{Arc, RwLock};

/// An atomic semantic transformation of a query.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Append a comparison literal to the body.
    AddCmp(Comparison),
    /// Append a positive atom to the body (join introduction).
    AddAtom(Atom),
    /// Append a negated atom to the body (scope reduction).
    AddNegAtom(Atom),
    /// Remove a comparison literal implied by the remaining body.
    RemoveCmp(Comparison),
    /// Remove a group of positive atoms implied by the remaining body.
    /// Groups arise from view folds (Application 4); single-atom removal
    /// is the common case.
    RemoveAtoms(Vec<Atom>),
}

impl Op {
    /// The transformation kind as a stable provenance label (the paper's
    /// terminology for each atomic rewrite).
    pub fn kind(&self) -> &'static str {
        match self {
            Op::AddCmp(c) if c.op == crate::atom::CmpOp::Eq => "key-equality",
            Op::AddCmp(_) => "restriction-introduction",
            Op::AddAtom(_) => "join-introduction",
            Op::AddNegAtom(_) => "scope-reduction",
            Op::RemoveCmp(_) => "comparison-removal",
            Op::RemoveAtoms(atoms) if atoms.len() > 1 => "view-fold",
            Op::RemoveAtoms(_) => "join-elimination",
        }
    }
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Op::AddCmp(c) => write!(f, "add {c}"),
            Op::AddAtom(a) => write!(f, "add {a}"),
            Op::AddNegAtom(a) => write!(f, "add not {a}"),
            Op::RemoveCmp(c) => write!(f, "remove {c}"),
            Op::RemoveAtoms(atoms) => {
                f.write_str("remove ")?;
                for (i, a) in atoms.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{a}")?;
                }
                Ok(())
            }
        }
    }
}

/// One transformation step with its provenance: a candidate of
/// [`analyse`], and, once the search admits it, a step of a variant's
/// derivation.
#[derive(Debug, Clone)]
pub struct Step {
    /// The transformation.
    pub op: Op,
    /// Name of the justifying integrity constraint or view, if any.
    pub ic_name: Option<Arc<str>>,
    /// Provenance id of the compiled residue that drove the step, if one
    /// did (see [`crate::residue::Residue::provenance_id`]).
    pub residue: Option<Arc<str>>,
    /// Human-readable explanation for reports.
    pub note: Arc<str>,
}

impl Step {
    /// The step as a provenance record: (transformation kind, residue id,
    /// source IC, detail).
    pub fn provenance(&self) -> obs::ProvenanceStep {
        obs::ProvenanceStep {
            kind: self.op.kind(),
            residue: self.residue.as_deref().map(str::to_owned),
            ic: self.ic_name.as_deref().map(str::to_owned),
            detail: self.note.to_string(),
        }
    }
}

impl std::fmt::Display for Step {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.ic_name {
            Some(n) => write!(f, "{} [{n}]", self.op),
            None => write!(f, "{}", self.op),
        }
    }
}

/// The result of analysing a query against the compiled constraints.
#[derive(Debug, Clone)]
pub enum Analysis {
    /// The query can never produce answers; it need not be evaluated.
    Contradiction {
        /// Justifying constraint name, if known.
        ic_name: Option<Arc<str>>,
        /// Human-readable explanation.
        note: Arc<str>,
    },
    /// The applicable transformations (possibly empty).
    Candidates(Vec<Step>),
}

/// Everything the transformer needs besides the query itself.
///
/// A context is built once per compiled knowledge base and replaced
/// wholesale when the constraints change, so what it memoizes (see
/// [`analyse`]) needs no invalidation: it dies with the context.
pub struct TransformContext {
    /// Compiled residues. Fixed for the context's lifetime: the structure
    /// memo below is derived from them, so new constraints mean a new
    /// context ([`TransformContext::new`]), never an assignment here.
    pub residues: ResidueSet,
    /// Chase dependencies: the written constraints, and the views and
    /// functional dependencies, which join introduction, the view folds
    /// and the query's solver read from here too.
    pub chase: ChaseContext,
    /// Residue matches per query structure, shared by every search on
    /// this context.
    structures: StructureMemo,
}

impl TransformContext {
    /// Build a context from compiled residues, views and OID-functional
    /// relations. The chase runs with the constraints as written
    /// ([`ResidueSet::written`]): a derived constraint says what the
    /// chase derives from the ones it came from, and matching its longer
    /// body only costs steps. The residues keep every constraint.
    pub fn new(
        residues: ResidueSet,
        views: Vec<Rule>,
        functional: BTreeMap<PredSym, usize>,
    ) -> Self {
        let chase = ChaseContext::from_constraints(residues.written(), views, functional);
        TransformContext {
            residues,
            chase,
            structures: StructureMemo::default(),
        }
    }

    /// A context with no semantic knowledge at all.
    pub fn empty() -> Self {
        TransformContext::new(ResidueSet::default(), Vec::new(), BTreeMap::new())
    }
}

/// Build the query's comparison context: its own comparison literals plus
/// equalities derived by OID-functional congruence (two atoms of an
/// OID-functional relation with entailed-equal OIDs have pairwise equal
/// attributes — the paper's IC8).
pub fn query_solver(q: &Query, functional: &BTreeMap<PredSym, usize>) -> ConstraintSet {
    body_solver(q.body.iter(), functional)
}

/// [`query_solver`] of a body given literal by literal, so a caller can
/// leave one out without copying the rest.
fn body_solver<'a>(
    body: impl Iterator<Item = &'a Literal> + Clone,
    functional: &BTreeMap<PredSym, usize>,
) -> ConstraintSet {
    let mut solver = ConstraintSet::new();
    for l in body.clone() {
        if let Literal::Cmp(c) = l {
            solver.assert_cmp(c);
        }
    }
    // Congruence fixpoint.
    let atoms: Vec<&Atom> = body
        .filter_map(|l| match l {
            Literal::Pos(a) => Some(a),
            _ => None,
        })
        .collect();
    loop {
        let mut new_eqs: Vec<Comparison> = Vec::new();
        for (i, a) in atoms.iter().enumerate() {
            let Some(&k) = functional.get(&a.pred) else {
                continue;
            };
            if a.args.len() < k {
                continue;
            }
            for b in atoms.iter().skip(i + 1) {
                if a.pred != b.pred || a.args.len() != b.args.len() {
                    continue;
                }
                let prefix_eq = a.args[..k]
                    .iter()
                    .zip(&b.args[..k])
                    .all(|(x, y)| x == y || solver.entails_equal(x, y));
                if prefix_eq {
                    for (x, y) in a.args.iter().zip(&b.args).skip(k) {
                        if x != y {
                            let eq = Comparison::eq(*x, *y);
                            if !solver.implies(&eq) {
                                new_eqs.push(eq);
                            }
                        }
                    }
                }
            }
        }
        if new_eqs.is_empty() {
            break;
        }
        for eq in new_eqs {
            solver.assert_cmp(&eq);
        }
    }
    solver
}

/// The solver-dependent tail of [`analyse`]: comparison removal,
/// chase-validated atom removal, and view folds. These phases only *add*
/// candidates — none of them can surface a contradiction — so the helper
/// has no early return.
fn tail_candidates(
    q: &Query,
    qvars: &BTreeSet<Var>,
    ctx: &TransformContext,
    solver: &ConstraintSet,
    candidates: &mut Vec<Step>,
) {
    // Comparison removal: a comparison implied by the rest of the body.
    for (i, l) in q.body.iter().enumerate() {
        let Literal::Cmp(c) = l else { continue };
        let rest = q.body.iter().enumerate().filter(|(j, _)| *j != i);
        let rest_solver = body_solver(rest.map(|(_, l)| l), &ctx.chase.functional);
        if rest_solver.implies(c) {
            push_candidate(
                candidates,
                Step {
                    note: format!("`{c}` is implied by the rest of the query").into(),
                    op: Op::RemoveCmp(*c),
                    ic_name: None,
                    residue: None,
                },
            );
        }
    }

    // Single-atom removal validated by the chase.
    let projected = q.projection.iter().filter_map(Term::as_var);
    let proj_vars: BTreeSet<Var> = projected.cloned().collect();
    // Prefilter: an atom can only be derivable by the chase if its
    // predicate is the head of some tgd, occurs in a view body (reverse
    // view firing), or appears more than once in the query (congruence /
    // egd merging can expose duplicates).
    let derivable_pred = |pred: &PredSym| {
        let heads = |t: &Constraint| matches!(&t.head, ConstraintHead::Atom(h) if h.pred == *pred);
        let in_body = |v: &Rule| v.body.iter().any(|l| l.pred() == Some(pred));
        ctx.chase.tgds.iter().any(heads) || ctx.chase.views.iter().any(in_body)
    };
    for (i, l) in q.body.iter().enumerate() {
        let Literal::Pos(a) = l else { continue };
        let duplicated = q.positive_atoms().filter(|b| b.pred == a.pred).count() > 1;
        if !duplicated && !derivable_pred(&a.pred) {
            continue;
        }
        let mut kept = q.body.clone();
        kept.remove(i);
        // Removal must keep the query safe.
        let candidate_query = Query::new(q.name.clone(), q.projection.clone(), kept.clone());
        if !candidate_query.is_safe() {
            continue;
        }
        if group_removal_sound(
            &kept,
            std::slice::from_ref(a),
            &proj_vars,
            &ctx.chase,
            solver,
        ) {
            push_candidate(
                candidates,
                Step {
                    note: format!("join elimination: `{a}` is implied by the rest of the query")
                        .into(),
                    op: Op::RemoveAtoms(vec![a.clone()]),
                    ic_name: None,
                    residue: None,
                },
            );
        }
    }

    // View folds (access support relations), over the chase's copies of
    // the views, which are renamed apart, onto one target of the query.
    let target = Target::of(&q.body);
    for view in &ctx.chase.views {
        for cand in fold_view_candidates(q, qvars, view, &target, solver, ctx, &proj_vars) {
            push_candidate(candidates, cand);
        }
    }
}

/// Structural identity of a query for the residue-application phase:
/// its positive atoms in body order, negative atoms in body order, and
/// variable set. Two queries with the same structure differ only in
/// their comparison literals, which residue application consumes solely
/// through the per-query [`ConstraintSet`] — so everything *except* the
/// solver-dependent checks is computed once per structure and replayed
/// for every query that shares it.
#[derive(Debug)]
struct StructKey {
    pos: Vec<Atom>,
    neg: Vec<Atom>,
    qvars: BTreeSet<Var>,
}

fn negative_atoms(q: &Query) -> impl Iterator<Item = &Atom> {
    q.body.iter().filter_map(|l| match l {
        Literal::Neg(a) => Some(a),
        _ => None,
    })
}

impl StructKey {
    /// The owned key of `q`'s structure (cloned only when a structure is
    /// built; lookups go through [`StructKey::hash_of`] and
    /// [`StructKey::matches`] on the borrowed query).
    fn of(q: &Query, qvars: &BTreeSet<Var>) -> StructKey {
        StructKey {
            pos: q.positive_atoms().cloned().collect(),
            neg: negative_atoms(q).cloned().collect(),
            qvars: qvars.clone(),
        }
    }

    fn hash_of(q: &Query, qvars: &BTreeSet<Var>) -> u64 {
        let mut h = FxHasher::default();
        for a in q.positive_atoms() {
            a.hash(&mut h);
        }
        // Keeps `p(X), not r(X)` and `p(X), r(X)` apart.
        h.write_u8(0xff);
        for a in negative_atoms(q) {
            a.hash(&mut h);
        }
        qvars.hash(&mut h);
        h.finish()
    }

    fn matches(&self, q: &Query, qvars: &BTreeSet<Var>) -> bool {
        self.pos.iter().eq(q.positive_atoms())
            && self.neg.iter().eq(negative_atoms(q))
            && self.qvars == *qvars
    }
}

/// What to do with one matched residue-head instantiation, precomputed
/// at structure-cache build time. Solver-independent checks (foreign
/// comparison variables, negated-head anchoring, head freshening, note
/// rendering) are resolved here; solver-dependent checks replay per
/// query in [`analyse`]. Notes are rendered once, here, and shared by
/// every candidate and step that cites them.
#[derive(Debug)]
enum HeadAction {
    /// Denial head: the match alone proves a contradiction.
    Denial { note: Arc<str> },
    /// Structurally discarded head (foreign comparison variable or
    /// unanchored negated head): counts as an application, adds nothing.
    Discard,
    /// Comparison head to test and attach against the node's solver.
    Cmp {
        c: Comparison,
        contra_note: Arc<str>,
        note: Arc<str>,
    },
    /// Atom head (join introduction); `raw` is the pre-freshening
    /// instantiation the subsumption check runs against.
    Atom {
        raw: Atom,
        freshened: Atom,
        note: Arc<str>,
    },
    /// Negated-atom head (scope reduction); `raw` drives the
    /// negation-dedup check, `freshened` the clash check and the op.
    NegAtom {
        raw: Atom,
        freshened: Atom,
        contra_note: Arc<str>,
        note: Arc<str>,
    },
}

/// One staged match of a residue against a structure: its gate — the
/// deferred (instantiated) body comparisons a query's solver must imply,
/// as an index into [`Structure::gates`] — and the precomputed head
/// action.
#[derive(Debug)]
struct ThetaEntry {
    gate: usize,
    action: HeadAction,
}

/// All staged matches of one residue application (anchor body position ×
/// residue), with shared provenance.
#[derive(Debug)]
struct AppEntry {
    ic_name: Option<Arc<str>>,
    residue_id: Arc<str>,
    matches: Vec<ThetaEntry>,
}

/// The residue-application phase of one query structure: every staged
/// residue match and what its head would do, none of it dependent on a
/// query's comparison literals.
#[derive(Debug)]
struct Structure {
    key: StructKey,
    /// The distinct gates of the staged matches. Matches share them — a
    /// range IC's derived scope reductions all wait on its one threshold,
    /// and every ungated match on the empty gate — so a node decides each
    /// once.
    gates: Vec<Vec<Comparison>>,
    apps: Vec<AppEntry>,
}

/// Most structures a context retains. One structure at 32 range ICs is
/// about 50 KB (133 staged matches with their rendered notes) and a
/// query shape contributes a handful, so the cap bounds the memo to a
/// few MB; past it each newcomer displaces an arbitrary resident.
const STRUCTURE_MEMO_CAP: usize = 128;

/// The context-lifetime memo of [`Structure`]s, keyed by
/// [`StructKey::hash_of`] (a lookup verifies the key, so two structures
/// that collide merely displace each other). Sound to share between
/// every search on the context because a structure depends only on the
/// query's atoms and variables and on the compiled residues, which never
/// change under a live context. Readers hold the read lock for one
/// probe; a structure is built outside any lock (two racing builders
/// both build, one copy is kept).
#[derive(Debug, Default)]
struct StructureMemo {
    map: RwLock<FxHashMap<u64, Arc<Structure>>>,
}

impl TransformContext {
    /// The memoized [`Structure`] of `q`, built on first sight.
    fn structure_of(&self, q: &Query, qvars: &BTreeSet<Var>) -> Arc<Structure> {
        let hash = StructKey::hash_of(q, qvars);
        let find = |map: &FxHashMap<u64, Arc<Structure>>| {
            map.get(&hash).filter(|s| s.key.matches(q, qvars)).cloned()
        };
        let memo = &self.structures.map;
        if let Some(found) = find(&memo.read().expect("structure memo poisoned")) {
            return found;
        }
        let built = Arc::new(build_structure(q, qvars, self));
        let mut map = memo.write().expect("structure memo poisoned");
        if let Some(raced) = find(&map) {
            return raced;
        }
        let evicted = if map.len() >= STRUCTURE_MEMO_CAP && !map.contains_key(&hash) {
            let victim = *map.keys().next().expect("a full memo has an entry");
            map.remove(&victim)
        } else {
            None
        };
        let collided = map.insert(hash, Arc::clone(&built));
        // Displaced structures are freed after the lock is released.
        drop(map);
        drop((evicted, collided));
        built
    }
}

/// Build the residue-application phase for one structure: every residue
/// anchored on a positive atom, matched against the query's atoms, with
/// the solver-dependent checks left for [`analyse`]. The build-time
/// counters (exactness skips, prefilter hits/misses, subsumption
/// stagings, unification attempts) are bumped here, once per build — so
/// once per context for a structure the memo retains, not once per
/// search.
fn build_structure(q: &Query, qvars: &BTreeSet<Var>, ctx: &TransformContext) -> Structure {
    let target = Target::of(&q.body);
    let mut apps: Vec<AppEntry> = Vec::new();
    let mut gate_ids: FxHashMap<Vec<Comparison>, usize> = FxHashMap::default();
    for anchor_target in q.positive_atoms() {
        for residue in ctx.residues.residues_for(&anchor_target.pred) {
            // Exactness prefilter: applications that provably cannot
            // contribute for *any* query are dropped wholesale (see
            // [`crate::residue::Residue::exact_skippable`]).
            if residue.exact_skippable() {
                obs::bump(obs::Counter::SearchExactSkipped);
                continue;
            }
            if residue.anchor.args.len() != anchor_target.args.len()
                || !target.covers(&residue.rest)
            {
                obs::bump(obs::Counter::PrefilterMisses);
                continue;
            }
            obs::bump(obs::Counter::PrefilterHits);
            let mut seed = Subst::new();
            if !match_atoms(&residue.anchor, anchor_target, &mut seed) {
                continue;
            }
            let staged = match_db_staged(&residue.rest, &target, &seed);
            staged.charge();
            if staged.matches.is_empty() {
                continue;
            }
            let mut matches: Vec<ThetaEntry> = Vec::with_capacity(staged.matches.len());
            for m in staged.matches {
                let action = match m.theta.apply_head(&residue.head) {
                    ConstraintHead::None => HeadAction::Denial {
                        note: format!(
                            "denial constraint{} fully matches the query",
                            name_suffix(&residue.ic_name)
                        )
                        .into(),
                    },
                    ConstraintHead::Cmp(c) => {
                        if c.vars().any(|v| !qvars.contains(v)) {
                            HeadAction::Discard
                        } else {
                            HeadAction::Cmp {
                                contra_note: format!(
                                    "residue head `{c}`{} contradicts the query",
                                    name_suffix(&residue.ic_name)
                                )
                                .into(),
                                note: format!("restriction `{c}` attached by residue").into(),
                                c,
                            }
                        }
                    }
                    ConstraintHead::Atom(a) => {
                        let freshened = freshen_foreign_vars(&a, qvars);
                        HeadAction::Atom {
                            note: format!("join introduction: `{freshened}` implied by the query")
                                .into(),
                            raw: a,
                            freshened,
                        }
                    }
                    ConstraintHead::NegAtom(a) => {
                        if !a.vars().any(|v| qvars.contains(v)) {
                            HeadAction::Discard
                        } else {
                            let freshened = freshen_foreign_vars(&a, qvars);
                            HeadAction::NegAtom {
                                contra_note: format!(
                                    "residue head `not {freshened}`{} contradicts a required atom",
                                    name_suffix(&residue.ic_name)
                                )
                                .into(),
                                note: format!(
                                    "scope reduction: answers cannot lie in `{}`",
                                    freshened.pred
                                )
                                .into(),
                                raw: a,
                                freshened,
                            }
                        }
                    }
                };
                let fresh = gate_ids.len();
                matches.push(ThetaEntry {
                    gate: *gate_ids.entry(m.deferred).or_insert(fresh),
                    action,
                });
            }
            apps.push(AppEntry {
                ic_name: residue.ic_name.as_deref().map(Arc::from),
                residue_id: residue.provenance_id().into(),
                matches,
            });
        }
    }
    let mut gates = vec![Vec::new(); gate_ids.len()];
    for (gate, id) in gate_ids {
        gates[id] = gate;
    }
    Structure {
        key: StructKey::of(q, qvars),
        gates,
        apps,
    }
}

/// Analyse the query: detect contradictions and, on request, enumerate
/// candidate transformations. The residue-application phase is served
/// from the context's structure memo.
///
/// With `enumerate` set, staged residue matches replay in body order ×
/// residue order, a match counts as applied once the node's solver
/// implies its deferred comparisons, and a head is tested in the order
/// implied → contradiction → candidate. Testing implied first cannot
/// hide a contradiction: an implied comparison (`unsat(solver ∧ ¬c)`)
/// cannot make a solver the closure found satisfiable turn
/// unsatisfiable, because both judgements compose through the same
/// complete order/constant closure. A comparison the query already
/// contains is implied — the node's solver asserted it, and a
/// satisfiable set implies each of its members — so it needs no test of
/// its own.
///
/// Without `enumerate` the call is the *contradiction probe* alone: the
/// own-solver check, the deferred-comparison gates and every head test
/// that can return [`Analysis::Contradiction`] run as above, but no
/// candidate [`Step`] is materialised and the solver-rebuilding tail
/// (comparison removal, chase-validated atom removal, view folds — none of
/// which can surface a contradiction) is skipped; a satisfiable query yields an
/// empty candidate list. The search asks for this once no child of the
/// node could be admitted any more.
///
/// Structure-level work (prefilter, unification, subsumption staging) is
/// counted when a structure is built, not once per node.
pub fn analyse(q: &Query, ctx: &TransformContext, enumerate: bool) -> Analysis {
    let solver = query_solver(q, &ctx.chase.functional);
    if solver.check() == Sat::Unsatisfiable {
        return Analysis::Contradiction {
            ic_name: None,
            note: "the query's own comparison literals are inconsistent".into(),
        };
    }
    let qvars = q.vars();
    let structure = ctx.structure_of(q, &qvars);

    let mut candidates: Vec<Step> = Vec::new();
    // Matches applied at this node, counted here and added to
    // `residue.applied` once — by a refutation, its own match included, or
    // at the end of the replay.
    let mut applied = 0u64;
    // Whether the solver implies each gate, decided on first use.
    let mut open: Vec<Option<bool>> = vec![None; structure.gates.len()];
    for app in &structure.apps {
        let mut propose = |op: Op, note: &Arc<str>| {
            if enumerate {
                push_candidate(
                    &mut candidates,
                    Step {
                        op,
                        note: Arc::clone(note),
                        ic_name: app.ic_name.clone(),
                        residue: Some(Arc::clone(&app.residue_id)),
                    },
                );
            }
        };
        let contradiction = |note: &Arc<str>, applied: u64| {
            obs::add(obs::Counter::ResiduesApplied, applied);
            Analysis::Contradiction {
                ic_name: app.ic_name.clone(),
                note: Arc::clone(note),
            }
        };
        for m in &app.matches {
            let gate = &structure.gates[m.gate];
            if !*open[m.gate].get_or_insert_with(|| gate.iter().all(|c| solver.implies(c))) {
                continue;
            }
            applied += 1;
            match &m.action {
                HeadAction::Denial { note } => return contradiction(note, applied),
                HeadAction::Discard => {}
                HeadAction::Cmp {
                    c,
                    contra_note,
                    note,
                } => {
                    if solver.implies(c) {
                        continue;
                    }
                    if solver.sat_with(c) == Sat::Unsatisfiable {
                        return contradiction(contra_note, applied);
                    }
                    propose(Op::AddCmp(*c), note);
                }
                HeadAction::Atom {
                    raw,
                    freshened,
                    note,
                } => {
                    if enumerate && !atom_subsumed_in_query(raw, q, &qvars, &solver) {
                        propose(Op::AddAtom(freshened.clone()), note);
                    }
                }
                HeadAction::NegAtom {
                    raw,
                    freshened,
                    contra_note,
                    note,
                } => {
                    if negative_atoms(q).any(|b| negation_covers(b, raw, q, &qvars)) {
                        continue;
                    }
                    if atom_subsumed_in_query(freshened, q, &qvars, &solver) {
                        return contradiction(contra_note, applied);
                    }
                    if enumerate {
                        propose(Op::AddNegAtom(freshened.clone()), note);
                    }
                }
            }
        }
    }

    obs::add(obs::Counter::ResiduesApplied, applied);

    if enumerate {
        tail_candidates(q, &qvars, ctx, &solver, &mut candidates);
    }

    Analysis::Candidates(candidates)
}

/// Enumerate view-related candidates for one view definition.
///
/// Two phases: if the view head is not yet in the query but the view body
/// matches, propose introducing the head atom (sound: the definition acts
/// as the IC `head ← body`). If the head *is* present, propose removing
/// the largest chase-validated subset of the matched body literals — the
/// actual fold.
fn fold_view_candidates(
    q: &Query,
    qvars: &BTreeSet<Var>,
    view: &Rule,
    target: &Target<&Atom>,
    solver: &ConstraintSet,
    ctx: &TransformContext,
    proj_vars: &BTreeSet<Var>,
) -> Vec<Step> {
    let mut out = Vec::new();
    for theta in match_body_onto(&view.body, target, solver, &Subst::new()) {
        let head_inst = theta.apply_atom(&view.head);
        if head_inst.vars().any(|v| !qvars.contains(v)) {
            // The view head must be fully determined by the match.
            continue;
        }
        if !q.positive_atoms().any(|b| *b == head_inst) {
            out.push(Step {
                note: format!(
                    "introduce access support relation `{}` for the matched path",
                    view.head.pred
                )
                .into(),
                op: Op::AddAtom(head_inst),
                ic_name: Some(format!("view {}", view.head.pred).into()),
                residue: None,
            });
            continue;
        }
        let positive = view.body.iter().filter(|l| l.is_positive());
        let matched: Vec<Atom> = positive
            .filter_map(|l| Some(theta.apply_atom(l.atom()?)))
            .collect();
        // Fold phase: try removing all matched literals, then all except
        // those mentioning projected variables (the paper's Q1 case keeps
        // has_ta(V, W) because V is projected).
        let attempts: [Vec<Atom>; 2] = [
            matched.clone(),
            matched
                .iter()
                .filter(|a| !a.vars().any(|v| proj_vars.contains(v)))
                .cloned()
                .collect(),
        ];
        for removal in attempts {
            if removal.is_empty() {
                continue;
            }
            let mut kept: Vec<Literal> = Vec::new();
            let mut to_remove = removal.clone();
            for l in &q.body {
                if let Literal::Pos(a) = l {
                    if let Some(pos) = to_remove.iter().position(|r| r == a) {
                        to_remove.remove(pos);
                        continue;
                    }
                }
                kept.push(l.clone());
            }
            if !to_remove.is_empty() {
                continue;
            }
            let folded = Query::new(q.name.clone(), q.projection.clone(), kept.clone());
            if !folded.is_safe() {
                continue;
            }
            if group_removal_sound(&kept, &removal, proj_vars, &ctx.chase, solver) {
                out.push(Step {
                    note: format!(
                        "fold path expression into access support relation `{}`",
                        view.head.pred
                    )
                    .into(),
                    op: Op::RemoveAtoms(removal),
                    ic_name: Some(format!("view {}", view.head.pred).into()),
                    residue: None,
                });
                break; // largest sound removal found for this match
            }
        }
    }
    out
}

/// Apply a transformation, returning the new query. Additions are
/// appended at the end of the body, matching the paper's presentation.
pub fn apply(q: &Query, op: &Op) -> Query {
    let mut body = q.body.clone();
    match op {
        Op::AddCmp(c) => body.push(Literal::Cmp(*c)),
        Op::AddAtom(a) => body.push(Literal::Pos(a.clone())),
        Op::AddNegAtom(a) => body.push(Literal::Neg(a.clone())),
        Op::RemoveCmp(c) => {
            if let Some(pos) = body
                .iter()
                .position(|l| matches!(l, Literal::Cmp(d) if d.same_as(c)))
            {
                body.remove(pos);
            }
        }
        Op::RemoveAtoms(atoms) => {
            for a in atoms {
                if let Some(pos) = body
                    .iter()
                    .position(|l| matches!(l, Literal::Pos(b) if b == a))
                {
                    body.remove(pos);
                }
            }
        }
    }
    Query::new(q.name.clone(), q.projection.clone(), body)
}

fn push_candidate(cands: &mut Vec<Step>, c: Step) {
    if !cands.iter().any(|e| e.op == c.op) {
        cands.push(c);
    }
}

fn name_suffix(name: &Option<String>) -> String {
    match name {
        Some(n) => format!(" ({n})"),
        None => String::new(),
    }
}

/// Whether a term is a variable belonging to the given set.
fn var_in(t: &Term, vars: &BTreeSet<Var>) -> bool {
    matches!(t, Term::Var(v) if vars.contains(v))
}

/// Whether the query's negated atom `b` already says what the negated
/// residue head `cand` would: `cand` is `b` with each of `b`'s
/// negation-local variables — those the query has nowhere else — put
/// consistently, at every one of its occurrences, for one term foreign
/// to the query. A renaming of those variables is one such case, so a
/// head added once under fresh names is not added again.
fn negation_covers(b: &Atom, cand: &Atom, q: &Query, qvars: &BTreeSet<Var>) -> bool {
    let mut put = Subst::new();
    b.pred == cand.pred
        && b.args.len() == cand.args.len()
        && b.args.iter().zip(&cand.args).all(|(x, y)| {
            if x == y {
                return true;
            }
            let Term::Var(v) = x else { return false };
            if var_in(y, qvars) || !local_to(v, b, q) {
                return false;
            }
            match put.lookup(v) {
                Some(t) => t == y,
                None => put.bind(*v, *y),
            }
        })
}

/// Whether every occurrence of `v` in the query (projection and body) is
/// inside the atom `b`.
fn local_to(v: &Var, b: &Atom, q: &Query) -> bool {
    let term = Term::Var(*v);
    let mut count = q.projection.iter().filter(|p| **p == term).count();
    for l in &q.body {
        count += l.iter_vars().filter(|w| *w == v).count();
    }
    count == b.args.iter().filter(|a| **a == term).count()
}

/// Whether `a` maps into a positive atom of the query: at each position
/// the query's term equals `a`'s or the solver entails it equal. A
/// variable foreign to the query binds to the query term at its first
/// position, and stands for that term at every later one. A
/// join-introduction head that maps in is already in the query; a
/// scope-reduction head `not a` that maps in refutes an atom the query
/// requires.
fn atom_subsumed_in_query(
    a: &Atom,
    q: &Query,
    qvars: &BTreeSet<Var>,
    solver: &ConstraintSet,
) -> bool {
    q.positive_atoms().any(|b| {
        let mut foreign = Subst::new();
        b.pred == a.pred
            && b.args.len() == a.args.len()
            && b.args.iter().zip(&a.args).all(|(x, y)| {
                let y = match y.as_var() {
                    Some(v) if !qvars.contains(v) => match foreign.lookup(v) {
                        Some(t) => *t,
                        None => return foreign.bind(*v, *x),
                    },
                    _ => *y,
                };
                *x == y || solver.entails_equal(x, &y)
            })
    })
}

/// Replace residue-local variables in an added atom with fresh query
/// variables (existential witnesses), numbered to avoid clashes.
fn freshen_foreign_vars(a: &Atom, qvars: &BTreeSet<Var>) -> Atom {
    let mut counter = 0usize;
    let mut s = Subst::new();
    for v in a.vars() {
        if !qvars.contains(v) && s.lookup(v).is_none() {
            loop {
                counter += 1;
                let fresh = Var::new(format!("NV{counter}"));
                if !qvars.contains(&fresh) {
                    s.bind(*v, Term::Var(fresh));
                    break;
                }
            }
        }
    }
    s.apply_atom(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::CmpOp;
    use crate::residue::ResidueSet;

    fn v(n: &str) -> Term {
        Term::var(n)
    }

    /// Example 1 of the paper: residue `Age > 30` at faculty contradicts
    /// `Age < 18` in the query.
    #[test]
    fn example1_contradiction() {
        let ic = Constraint::named(
            "IC",
            ConstraintHead::Cmp(Comparison::new(v("Age"), CmpOp::Gt, Term::int(30))),
            vec![Literal::pos("faculty", vec![v("Sec"), v("Fac"), v("Age")])],
        );
        let ctx = TransformContext::new(ResidueSet::compile(vec![ic]), vec![], BTreeMap::new());
        let q = Query::new(
            "q",
            vec![v("Name")],
            vec![
                Literal::pos("student", vec![v("St"), v("Name")]),
                Literal::pos("takes_section", vec![v("St"), v("Sec")]),
                Literal::pos("faculty", vec![v("Sec"), v("Fac"), v("Age")]),
                Literal::cmp(v("Age"), CmpOp::Lt, Term::int(18)),
            ],
        );
        match analyse(&q, &ctx, true) {
            Analysis::Contradiction { ic_name, .. } => {
                assert_eq!(ic_name.as_deref(), Some("IC"));
            }
            other => panic!("expected contradiction, got {other:?}"),
        }
    }

    /// Restriction introduction: the same residue *adds* `Age > 30` when
    /// the query has no conflicting bound.
    #[test]
    fn restriction_introduction() {
        let ic = Constraint::named(
            "IC",
            ConstraintHead::Cmp(Comparison::new(v("Age"), CmpOp::Gt, Term::int(30))),
            vec![Literal::pos("faculty", vec![v("S"), v("F"), v("Age")])],
        );
        let ctx = TransformContext::new(ResidueSet::compile(vec![ic]), vec![], BTreeMap::new());
        let q = Query::new(
            "q",
            vec![v("F")],
            vec![Literal::pos("faculty", vec![v("Sec"), v("F"), v("A")])],
        );
        let Analysis::Candidates(cands) = analyse(&q, &ctx, true) else {
            panic!("no contradiction expected");
        };
        assert!(cands.iter().any(|c| matches!(
            &c.op,
            Op::AddCmp(cmp) if cmp.to_string() == "A > 30"
        )));
    }

    /// Application 2: scope reduction adds `not faculty(...)`.
    #[test]
    fn application2_scope_reduction() {
        let ic4 = Constraint::named(
            "IC4",
            ConstraintHead::Cmp(Comparison::new(v("Age"), CmpOp::Ge, Term::int(30))),
            vec![Literal::pos("faculty", vec![v("X"), v("Name"), v("Age")])],
        );
        let ic5 = Constraint::named(
            "IC5",
            ConstraintHead::Atom(Atom::new("person", vec![v("X"), v("Name"), v("Age")])),
            vec![Literal::pos("faculty", vec![v("X"), v("Name"), v("Age")])],
        );
        let ctx =
            TransformContext::new(ResidueSet::compile(vec![ic4, ic5]), vec![], BTreeMap::new());
        let q = Query::new(
            "q",
            vec![v("Name")],
            vec![
                Literal::pos("person", vec![v("X"), v("Name"), v("Age")]),
                Literal::cmp(v("Age"), CmpOp::Lt, Term::int(30)),
            ],
        );
        let Analysis::Candidates(cands) = analyse(&q, &ctx, true) else {
            panic!("no contradiction expected");
        };
        let scope = cands
            .iter()
            .find(|c| matches!(&c.op, Op::AddNegAtom(a) if a.pred.name() == "faculty"));
        assert!(scope.is_some(), "candidates: {cands:#?}");
        // Applying it yields the paper's optimized query.
        let q2 = apply(&q, &scope.unwrap().op);
        assert_eq!(
            q2.to_string(),
            "q(Name) <- person(X, Name, Age), Age < 30, not faculty(X, Name, Age)"
        );
    }

    /// Scope reduction also fires with a strictly stronger query bound
    /// (footnote 4: `Age < 20` in the query, `Age < 30` in the IC).
    #[test]
    fn scope_reduction_with_stronger_bound() {
        let ic4 = Constraint::named(
            "IC4",
            ConstraintHead::Cmp(Comparison::new(v("Age"), CmpOp::Ge, Term::int(30))),
            vec![Literal::pos("faculty", vec![v("X"), v("N"), v("Age")])],
        );
        let ic5 = Constraint::named(
            "IC5",
            ConstraintHead::Atom(Atom::new("person", vec![v("X"), v("N"), v("Age")])),
            vec![Literal::pos("faculty", vec![v("X"), v("N"), v("Age")])],
        );
        let ctx =
            TransformContext::new(ResidueSet::compile(vec![ic4, ic5]), vec![], BTreeMap::new());
        let q = Query::new(
            "q",
            vec![v("Name")],
            vec![
                Literal::pos("person", vec![v("X"), v("Name"), v("Age")]),
                Literal::cmp(v("Age"), CmpOp::Lt, Term::int(20)),
            ],
        );
        let Analysis::Candidates(cands) = analyse(&q, &ctx, true) else {
            panic!("no contradiction expected");
        };
        assert!(cands
            .iter()
            .any(|c| matches!(&c.op, Op::AddNegAtom(a) if a.pred.name() == "faculty")));
    }

    /// Application 3: the key constraint adds `Z = W`; afterwards
    /// `Name1 = Name2` becomes removable.
    #[test]
    fn application3_key_join_reduction() {
        let ic7 = Constraint::named(
            "IC7",
            ConstraintHead::Cmp(Comparison::eq(v("X1"), v("X2"))),
            vec![
                Literal::pos("faculty", vec![v("X1"), v("N1")]),
                Literal::pos("faculty", vec![v("X2"), v("N2")]),
                Literal::cmp(v("N1"), CmpOp::Eq, v("N2")),
            ],
        );
        let mut fd = BTreeMap::new();
        fd.insert(PredSym::new("faculty"), 1);
        let ctx = TransformContext::new(ResidueSet::compile(vec![ic7]), vec![], fd);
        let q = Query::new(
            "q",
            vec![v("Sid"), v("Id")],
            vec![
                Literal::pos("student", vec![v("S"), v("Sid")]),
                Literal::pos("faculty", vec![v("Z"), v("Name1")]),
                Literal::pos("ta", vec![v("T"), v("Id")]),
                Literal::pos("faculty", vec![v("W"), v("Name2")]),
                Literal::cmp(v("Name1"), CmpOp::Eq, v("Name2")),
            ],
        );
        let Analysis::Candidates(cands) = analyse(&q, &ctx, true) else {
            panic!("no contradiction expected");
        };
        let add_eq = cands.iter().find(|c| {
            matches!(&c.op, Op::AddCmp(cmp) if cmp.op == CmpOp::Eq
                && cmp.same_as(&Comparison::eq(v("Z"), v("W"))))
        });
        assert!(add_eq.is_some(), "candidates: {cands:#?}");
        // After adding Z = W, Name1 = Name2 becomes removable.
        let q2 = apply(&q, &add_eq.unwrap().op);
        let Analysis::Candidates(cands2) = analyse(&q2, &ctx, true) else {
            panic!("no contradiction expected");
        };
        assert!(
            cands2.iter().any(|c| matches!(
                &c.op,
                Op::RemoveCmp(cmp) if cmp.same_as(&Comparison::eq(v("Name1"), v("Name2")))
            )),
            "candidates after Z = W: {cands2:#?}"
        );
    }

    /// Join introduction via IC9 (Application 4, Q1).
    #[test]
    fn application4_join_introduction() {
        let ic9 = Constraint::named(
            "IC9",
            ConstraintHead::Atom(Atom::new("has_ta", vec![v("V"), v("W")])),
            vec![
                Literal::pos("takes", vec![v("X"), v("Y")]),
                Literal::pos("is_section_of", vec![v("Y"), v("Z")]),
                Literal::pos("has_sections", vec![v("Z"), v("V")]),
            ],
        );
        let ctx = TransformContext::new(ResidueSet::compile(vec![ic9]), vec![], BTreeMap::new());
        let q = Query::new(
            "q1",
            vec![v("V")],
            vec![
                Literal::pos("student", vec![v("X"), v("Name")]),
                Literal::pos("takes", vec![v("X"), v("Y")]),
                Literal::pos("is_section_of", vec![v("Y"), v("Z")]),
                Literal::pos("has_sections", vec![v("Z"), v("V")]),
                Literal::cmp(v("Name"), CmpOp::Eq, Term::str("johnson")),
            ],
        );
        let Analysis::Candidates(cands) = analyse(&q, &ctx, true) else {
            panic!("no contradiction expected");
        };
        let intro = cands
            .iter()
            .find(|c| matches!(&c.op, Op::AddAtom(a) if a.pred.name() == "has_ta"));
        assert!(intro.is_some(), "candidates: {cands:#?}");
        // The introduced atom binds V and a fresh witness variable.
        if let Op::AddAtom(a) = &intro.unwrap().op {
            assert_eq!(a.args[0], v("V"));
            assert!(matches!(&a.args[1], Term::Var(w) if w.name().starts_with("NV")));
        }
    }

    /// View introduction then fold (Application 4, Q).
    #[test]
    fn application4_view_fold() {
        let view = Rule::new(
            Atom::new("asr", vec![v("X"), v("W")]),
            vec![
                Literal::pos("takes", vec![v("X"), v("Y")]),
                Literal::pos("is_section_of", vec![v("Y"), v("Z")]),
                Literal::pos("has_sections", vec![v("Z"), v("V")]),
                Literal::pos("has_ta", vec![v("V"), v("W")]),
            ],
        );
        let ctx = TransformContext::new(ResidueSet::compile(vec![]), vec![view], BTreeMap::new());
        let q = Query::new(
            "q",
            vec![v("W")],
            vec![
                Literal::pos("student", vec![v("X"), v("Name")]),
                Literal::pos("takes", vec![v("X"), v("Y")]),
                Literal::pos("is_section_of", vec![v("Y"), v("Z")]),
                Literal::pos("has_sections", vec![v("Z"), v("V")]),
                Literal::pos("has_ta", vec![v("V"), v("W")]),
                Literal::cmp(v("Name"), CmpOp::Eq, Term::str("james")),
            ],
        );
        // Phase 1: the ASR atom is proposed.
        let Analysis::Candidates(cands) = analyse(&q, &ctx, true) else {
            panic!("no contradiction expected");
        };
        let intro = cands
            .iter()
            .find(|c| matches!(&c.op, Op::AddAtom(a) if a.pred.name() == "asr"))
            .expect("asr introduction");
        let q2 = apply(&q, &intro.op);
        // Phase 2: the whole chain is foldable away.
        let Analysis::Candidates(cands2) = analyse(&q2, &ctx, true) else {
            panic!("no contradiction expected");
        };
        let fold = cands2
            .iter()
            .find(|c| matches!(&c.op, Op::RemoveAtoms(atoms) if atoms.len() == 4))
            .expect("4-atom fold");
        let q3 = apply(&q2, &fold.op);
        assert_eq!(
            q3.to_string(),
            "q(W) <- student(X, Name), Name = \"james\", asr(X, W)"
        );
    }

    /// Applying a NegAtom residue against a query that positively
    /// requires the atom reports a contradiction.
    #[test]
    fn neg_head_against_required_atom_contradicts() {
        let ic4 = Constraint::named(
            "IC4",
            ConstraintHead::Cmp(Comparison::new(v("Age"), CmpOp::Ge, Term::int(30))),
            vec![Literal::pos("faculty", vec![v("X"), v("Age")])],
        );
        let ic5 = Constraint::named(
            "IC5",
            ConstraintHead::Atom(Atom::new("person", vec![v("X"), v("Age")])),
            vec![Literal::pos("faculty", vec![v("X"), v("Age")])],
        );
        let ctx =
            TransformContext::new(ResidueSet::compile(vec![ic4, ic5]), vec![], BTreeMap::new());
        // Query requires BOTH person and faculty on the same OID with
        // Age < 30 — contradictory.
        let q = Query::new(
            "q",
            vec![v("X")],
            vec![
                Literal::pos("person", vec![v("X"), v("Age")]),
                Literal::pos("faculty", vec![v("X"), v("Age")]),
                Literal::cmp(v("Age"), CmpOp::Lt, Term::int(30)),
            ],
        );
        match analyse(&q, &ctx, true) {
            Analysis::Contradiction { .. } => {}
            Analysis::Candidates(c) => panic!("expected contradiction, got {c:#?}"),
        }
    }

    /// A constant in a negated residue head clashes with a query term
    /// only where the query's solver entails the two equal. Under
    /// `Z >= 30 <- p(X, 1), q(X, Z)`, the head `not p(A, 1)` refutes
    /// `p(A, C)` when the query says `C = 1`, and is a scope reduction
    /// when it does not.
    #[test]
    fn a_negated_head_constant_clashes_only_where_the_solver_entails_it() {
        let ic = Constraint::named(
            "T",
            ConstraintHead::Cmp(Comparison::new(v("Z"), CmpOp::Ge, Term::int(30))),
            vec![
                Literal::pos("p", vec![v("X"), Term::int(1)]),
                Literal::pos("q", vec![v("X"), v("Z")]),
            ],
        );
        let ctx = TransformContext::new(ResidueSet::compile(vec![ic]), vec![], BTreeMap::new());
        let query = |pinned: bool| {
            let mut body = vec![
                Literal::pos("q", vec![v("A"), v("Z")]),
                Literal::pos("p", vec![v("A"), v("C")]),
                Literal::cmp(v("Z"), CmpOp::Lt, Term::int(20)),
            ];
            if pinned {
                body.push(Literal::cmp(v("C"), CmpOp::Eq, Term::int(1)));
            }
            Query::new("r", vec![v("A")], body)
        };
        match analyse(&query(true), &ctx, true) {
            Analysis::Contradiction { ic_name, .. } => assert_eq!(ic_name.as_deref(), Some("T'")),
            Analysis::Candidates(c) => panic!("expected contradiction, got {c:#?}"),
        }
        let Analysis::Candidates(cands) = analyse(&query(false), &ctx, true) else {
            panic!("`p(A, C)` without `C = 1` is no contradiction");
        };
        let scope = Op::AddNegAtom(Atom::new("p", vec![v("A"), Term::int(1)]));
        assert!(cands.iter().any(|c| c.op == scope), "{cands:#?}");
    }

    /// `residue.applied` is added once per node but counts what one bump
    /// per match counted: every match whose deferred comparisons hold, up
    /// to and including the one that refutes the query.
    #[test]
    fn a_refutation_mid_replay_counts_the_matches_applied_so_far() {
        let ics = [10, 20, 30]
            .iter()
            .map(|k| {
                Constraint::named(
                    format!("R{k}"),
                    ConstraintHead::Cmp(Comparison::new(v("A"), CmpOp::Ge, Term::int(*k))),
                    vec![Literal::pos("faculty", vec![v("X"), v("A")])],
                )
            })
            .collect();
        let ctx = TransformContext::new(ResidueSet::compile(ics), vec![], BTreeMap::new());
        let applied_by = |bound: Comparison, enumerate: bool| {
            let q = Query::new(
                "q",
                vec![v("X")],
                vec![
                    Literal::pos("faculty", vec![v("X"), v("Age")]),
                    Literal::Cmp(bound),
                ],
            );
            let scope = obs::Scope::enter();
            let analysis = analyse(&q, &ctx, enumerate);
            let applied = scope.finish().counter(obs::Counter::ResiduesApplied);
            (analysis, applied)
        };
        for enumerate in [true, false] {
            // `Age < 15`: R10 attaches, R20 refutes, R30 is never reached.
            let (refuted, applied) = applied_by(
                Comparison::new(v("Age"), CmpOp::Lt, Term::int(15)),
                enumerate,
            );
            assert!(
                matches!(&refuted, Analysis::Contradiction { ic_name, .. }
                    if ic_name.as_deref() == Some("R20")),
                "{refuted:?}"
            );
            assert_eq!(applied, 2);
            let (open, applied) = applied_by(
                Comparison::new(v("Age"), CmpOp::Gt, Term::int(50)),
                enumerate,
            );
            assert!(matches!(open, Analysis::Candidates(_)));
            assert_eq!(applied, 3);
        }
    }

    #[test]
    fn apply_remove_cmp_matches_either_orientation() {
        let q = Query::new(
            "q",
            vec![],
            vec![
                Literal::pos("p", vec![v("X"), v("Y")]),
                Literal::cmp(v("X"), CmpOp::Eq, v("Y")),
            ],
        );
        let q2 = apply(&q, &Op::RemoveCmp(Comparison::eq(v("Y"), v("X"))));
        assert_eq!(q2.body.len(), 1);
    }

    #[test]
    fn inherently_contradictory_query_detected() {
        let ctx = TransformContext::empty();
        let q = Query::new(
            "q",
            vec![],
            vec![
                Literal::pos("p", vec![v("X")]),
                Literal::cmp(v("X"), CmpOp::Lt, Term::int(0)),
                Literal::cmp(v("X"), CmpOp::Gt, Term::int(1)),
            ],
        );
        assert!(matches!(
            analyse(&q, &ctx, true),
            Analysis::Contradiction { .. }
        ));
    }

    #[test]
    fn no_candidates_without_knowledge() {
        let ctx = TransformContext::empty();
        let q = Query::new("q", vec![v("X")], vec![Literal::pos("p", vec![v("X")])]);
        let Analysis::Candidates(cands) = analyse(&q, &ctx, true) else {
            panic!("satisfiable");
        };
        assert!(cands.is_empty(), "{cands:#?}");
    }

    /// More distinct structures than [`STRUCTURE_MEMO_CAP`]: the memo
    /// stops at the cap, and a search whose structure is resident or was
    /// displaced finds what the structure's first search found.
    #[test]
    fn structure_memo_is_capped_and_outcomes_do_not_depend_on_it() {
        use crate::search::{optimize, SearchConfig};
        let shapes = STRUCTURE_MEMO_CAP + 40;
        let ics = (0..shapes)
            .map(|i| {
                Constraint::named(
                    format!("R{i}"),
                    ConstraintHead::Cmp(Comparison::new(v("A"), CmpOp::Gt, Term::int(i as i64))),
                    vec![Literal::pos(format!("p{i}").as_str(), vec![v("X"), v("A")])],
                )
            })
            .collect();
        let ctx = TransformContext::new(ResidueSet::compile(ics), vec![], BTreeMap::new());
        let memo_len = || ctx.structures.map.read().unwrap().len();
        // Round 0 builds every structure; round 1 meets a memo in which
        // some of them survived and the rest were displaced.
        let mut first_round: Vec<String> = Vec::new();
        for round in 0..2 {
            for i in 0..shapes {
                let q = Query::new(
                    "q",
                    vec![v("X")],
                    vec![Literal::pos(format!("p{i}").as_str(), vec![v("X"), v("A")])],
                );
                let out = optimize(&q, &ctx, &SearchConfig::default());
                assert_eq!(out.variants().len(), 2, "p{i}: original + `A > {i}`");
                let rendered = format!("{out:?}");
                if round == 0 {
                    first_round.push(rendered);
                } else {
                    assert_eq!(rendered, first_round[i], "p{i}");
                }
                assert!(memo_len() <= STRUCTURE_MEMO_CAP);
            }
            assert_eq!(memo_len(), STRUCTURE_MEMO_CAP);
        }
    }
}
