//! Clauses: rules, integrity constraints and queries.

use crate::atom::{Atom, CmpOp, Comparison, Literal, PredSym};
use crate::term::{Const, Term, Var, R64};
use std::collections::BTreeSet;
use std::fmt;

/// One token of a query's canonical rendering ([`Query::canonical_form`],
/// [`Query::canonical_template`]). The derived order is part of both
/// identities: literals are sorted by their token sequences, so blanks
/// sort before numbered variables, atoms (`Pos`, then `Neg`) before
/// comparisons (`Op`) — which lets the atoms pin the variable numbering
/// before any duplicate-shape comparison is reached — and every operand
/// kind before the constants. The derived `Hash` digests the variant
/// index, so reordering the variants changes every template hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub(crate) enum CanonTok {
    /// A variable, while literals are sorted by shape.
    Blank,
    /// A lifted constant, before (`ParamBlank`) and after (`Param`)
    /// parameter numbers are assigned.
    ParamBlank,
    Param(usize),
    /// A variable, numbered by first occurrence.
    V(usize),
    Pos(u32),
    Neg(u32),
    Op(CmpOp),
    CInt(i64),
    CReal(R64),
    CStr(u32),
    CBool(bool),
    COid(u64),
    /// How many tokens the part that follows has: the projection, then
    /// each body literal. Only a finished form holds it.
    Len(usize),
}

impl CanonTok {
    fn of(c: &Const) -> CanonTok {
        match c {
            Const::Int(v) => CanonTok::CInt(*v),
            Const::Real(r) => CanonTok::CReal(*r),
            Const::Str(s) => CanonTok::CStr(s.id()),
            Const::Bool(b) => CanonTok::CBool(*b),
            Const::Oid(o) => CanonTok::COid(*o),
        }
    }
}

/// The canonical token sequence of a query: rename- and body-order-
/// invariant, and exactly the data [`Query::canonical_hash`] digests, so
/// equal forms always have equal hashes. One flat vector: the
/// projection's length and tokens, then each sorted body literal's
/// length and tokens. Built by [`Query::canonical_form`]; the plan cache
/// compares these to confirm a template inside its hash bucket.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CanonicalForm(Vec<CanonTok>);

impl CanonicalForm {
    /// The 64-bit digest of this form ([`Query::canonical_hash`]).
    pub fn hash64(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut h = DefaultHasher::new();
        self.0.hash(&mut h);
        h.finish()
    }
}

/// Buffers [`Query::canonical_walk`] reuses from one query to the next.
#[derive(Debug, Default)]
pub(crate) struct CanonScratch {
    /// Every body literal's tokens, one after another: blanked while the
    /// literals are sorted by shape, numbered after.
    toks: Vec<CanonTok>,
    /// Where each literal's tokens sit in `toks`.
    spans: Vec<std::ops::Range<usize>>,
    /// Literal indices, in sorted order.
    order: Vec<usize>,
    /// The variables, numbered by position.
    vars: Vec<Var>,
    /// The lifted constants, in parameter order.
    params: Vec<Const>,
    /// Where each lifted constant sits in the body.
    slots: Vec<ParamSlot>,
    /// The form.
    form: Vec<CanonTok>,
}

/// A Datalog rule (or view definition) `head :- body`.
///
/// Access support relations (Section 5, Application 4) are represented as
/// rules defining a view predicate over a path of relationship predicates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// The head atom.
    pub head: Atom,
    /// The body literals (conjunction).
    pub body: Vec<Literal>,
}

impl Rule {
    /// Create a rule.
    pub fn new(head: Atom, body: Vec<Literal>) -> Self {
        Rule { head, body }
    }

    /// All variables of the rule (head and body), deduplicated and ordered.
    pub fn vars(&self) -> BTreeSet<&Var> {
        let mut out: BTreeSet<&Var> = self.head.vars().collect();
        for l in &self.body {
            out.extend(l.vars());
        }
        out
    }

    /// Check range-restriction safety: every head variable and every
    /// comparison variable must occur in some positive body literal; a
    /// variable of a negative literal must be bound too, unless it occurs
    /// *only* inside that one literal (it is then existential under the
    /// negation and evaluated as a partially-bound anti-join).
    pub fn is_safe(&self) -> bool {
        range_restricted(&self.head.args, &self.body)
    }
}

/// The safety check behind [`Rule::is_safe`] and [`Query::is_safe`], over
/// the head's terms and the body as they stand.
fn range_restricted(head: &[Term], body: &[Literal]) -> bool {
    fn bind(bound: &mut Vec<Var>, v: &Var) -> bool {
        let new = !bound.contains(v);
        if new {
            bound.push(*v);
        }
        new
    }
    // Bound: the variables of positive literals, and — transitively —
    // those an `=` comparison equates to a constant or a bound variable.
    let mut bound: Vec<Var> = Vec::new();
    for l in body.iter().filter(|l| l.is_positive()) {
        for v in l.iter_vars() {
            bind(&mut bound, v);
        }
    }
    let mut changed = true;
    while changed {
        changed = false;
        for l in body {
            let Literal::Cmp(c) = l else { continue };
            if c.op != CmpOp::Eq {
                continue;
            }
            if let (Term::Var(v), t) | (t, Term::Var(v)) = (&c.lhs, &c.rhs) {
                let other_bound = match t {
                    Term::Const(_) => true,
                    Term::Var(w) => bound.contains(w),
                };
                if other_bound && bind(&mut bound, v) {
                    changed = true;
                }
            }
        }
    }
    let head_vars = || head.iter().filter_map(Term::as_var);
    // Whether `v` occurs anywhere but in body literal `own`.
    let occurs_outside = |v: &Var, own: usize| {
        head_vars().any(|h| h == v)
            || body
                .iter()
                .enumerate()
                .any(|(j, l)| j != own && l.iter_vars().any(|w| w == v))
    };
    head_vars().all(|v| bound.contains(v))
        && body.iter().enumerate().all(|(i, l)| match l {
            Literal::Pos(_) => true,
            Literal::Cmp(c) => c.vars().all(|v| bound.contains(v)),
            Literal::Neg(a) => a.vars().all(|v| bound.contains(v) || !occurs_outside(v, i)),
        })
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} <- ", self.head)?;
        write_body(f, &self.body)
    }
}

fn write_body(f: &mut fmt::Formatter<'_>, body: &[Literal]) -> fmt::Result {
    for (i, l) in body.iter().enumerate() {
        if i > 0 {
            f.write_str(", ")?;
        }
        write!(f, "{l}")?;
    }
    Ok(())
}

/// The head of an integrity constraint.
///
/// The paper's constraints (Section 4.2 and Section 5) take four shapes:
/// a denial (empty head), a positive database atom (subclass hierarchy,
/// inverse relationships, OID identification), a negative atom (derived
/// scope-reduction constraints such as IC6'), or an evaluable comparison
/// (range constraints like IC1, key/one-to-one equality constraints like
/// IC7).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstraintHead {
    /// Empty head: the body is inconsistent (a denial).
    None,
    /// A positive database atom implied by the body.
    Atom(Atom),
    /// A negated database atom implied by the body.
    NegAtom(Atom),
    /// An evaluable comparison implied by the body.
    Cmp(Comparison),
}

impl ConstraintHead {
    /// Variables occurring in the head.
    pub fn vars(&self) -> Vec<&Var> {
        match self {
            ConstraintHead::None => Vec::new(),
            ConstraintHead::Atom(a) | ConstraintHead::NegAtom(a) => a.vars().collect(),
            ConstraintHead::Cmp(c) => c.vars().collect(),
        }
    }
}

impl fmt::Display for ConstraintHead {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintHead::None => Ok(()),
            ConstraintHead::Atom(a) => a.fmt(f),
            ConstraintHead::NegAtom(a) => write!(f, "not {a}"),
            ConstraintHead::Cmp(c) => c.fmt(f),
        }
    }
}

/// An integrity constraint `Head <- Body`.
///
/// Variables appearing only in the head are existentially quantified
/// (footnote 1 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Constraint {
    /// Optional name (e.g. `IC7`), used in provenance reporting.
    pub name: Option<String>,
    /// The constraint head.
    pub head: ConstraintHead,
    /// The body literals.
    pub body: Vec<Literal>,
}

impl Constraint {
    /// Create an unnamed constraint.
    pub fn new(head: ConstraintHead, body: Vec<Literal>) -> Self {
        Constraint {
            name: None,
            head,
            body,
        }
    }

    /// Create a named constraint.
    pub fn named(name: impl Into<String>, head: ConstraintHead, body: Vec<Literal>) -> Self {
        Constraint {
            name: Some(name.into()),
            head,
            body,
        }
    }

    /// All variables of the constraint, deduplicated and ordered.
    pub fn vars(&self) -> BTreeSet<Var> {
        let mut out: BTreeSet<Var> = self.head.vars().into_iter().cloned().collect();
        for l in &self.body {
            out.extend(l.vars().into_iter().cloned());
        }
        out
    }

    /// Database predicates mentioned positively in the body.
    pub fn body_preds(&self) -> Vec<&PredSym> {
        self.body.iter().filter_map(Literal::pred).collect()
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(n) = &self.name {
            write!(f, "{n}: ")?;
        }
        match &self.head {
            ConstraintHead::None => f.write_str("<- ")?,
            h => write!(f, "{h} <- ")?,
        }
        write_body(f, &self.body)
    }
}

/// Where a lifted parameter constant sits in the original query body.
///
/// `lit` indexes into [`Query::body`]; `rhs` records which side of that
/// comparison held the constant, so [`Query::with_params`] can substitute
/// a new constant back without re-deriving the canonical form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParamSlot {
    /// Index of the comparison literal in the query body.
    pub lit: usize,
    /// `true` when the constant is the right-hand operand.
    pub rhs: bool,
}

/// A parameter-normalized canonical fingerprint of a query.
///
/// Produced by [`Query::canonical_template`]: comparison constants that
/// face a variable (`Age < 30`) are lifted into numbered parameters, so
/// `Age < 30` and `Age < 40` share a `hash` while differing only in
/// `params`. A semantic-plan cache keys on `hash` and re-checks the
/// residue-applicability conditions against the bound `params`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalTemplate {
    /// Fingerprint of the query with lifted constants replaced by
    /// parameter numbers. Equal for queries identical up to lifted
    /// constants (and variable renaming; body reordering is absorbed
    /// up to duplicate shapes, as in [`Query::canonical_hash`]).
    pub hash: u64,
    /// The token sequence `hash` digests: equal exactly for queries in
    /// one template family, where equal hashes only make it likely.
    pub form: CanonicalForm,
    /// The lifted constants, in parameter order.
    pub params: Vec<crate::term::Const>,
    /// Where each parameter lives in the original body (parallel to
    /// `params`).
    pub slots: Vec<ParamSlot>,
    /// Query variables in canonical first-occurrence order: two queries
    /// with equal `hash` correspond under `var_order[k] ↦ var_order[k]`.
    pub var_order: Vec<Var>,
}

/// A conjunctive query `q(Projection) <- Body`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// The name of the query predicate (`Q` in the paper; stored
    /// lower-cased by the parser).
    pub name: String,
    /// The projected terms.
    pub projection: Vec<Term>,
    /// The body literals.
    pub body: Vec<Literal>,
}

impl Query {
    /// Create a query.
    pub fn new(name: impl Into<String>, projection: Vec<Term>, body: Vec<Literal>) -> Self {
        Query {
            name: name.into(),
            projection,
            body,
        }
    }

    /// All variables of the query, deduplicated and ordered.
    pub fn vars(&self) -> BTreeSet<Var> {
        // Inserted one at a time: `collect` would sort every occurrence,
        // repeats included, at about twice the string comparisons.
        let mut out = BTreeSet::new();
        let proj = self.projection.iter().filter_map(Term::as_var);
        out.extend(proj.chain(self.body.iter().flat_map(Literal::iter_vars)));
        out
    }

    /// The positive database atoms of the body, in order.
    pub fn positive_atoms(&self) -> impl Iterator<Item = &Atom> {
        self.body.iter().filter_map(|l| match l {
            Literal::Pos(a) => Some(a),
            _ => None,
        })
    }

    /// Whether the query body contains the given literal.
    pub fn contains(&self, lit: &Literal) -> bool {
        self.body.iter().any(|l| match (l, lit) {
            (Literal::Cmp(a), Literal::Cmp(b)) => a.same_as(b),
            _ => l == lit,
        })
    }

    /// Safety check, [`Rule::is_safe`] with the projection as the head.
    pub fn is_safe(&self) -> bool {
        range_restricted(&self.projection, &self.body)
    }

    /// A structural fingerprint of the query's canonical token form
    /// ([`Query::canonical_form`]). Alpha-equivalent queries (equal up
    /// to variable renaming and body reordering) hash identically;
    /// distinct queries collide with ~2⁻⁶⁴ probability. The Step-3
    /// search dedups on the form itself
    /// ([`crate::subsume::SubsumptionIndex`]).
    pub fn canonical_hash(&self) -> u64 {
        self.canonical_form().hash64()
    }

    /// The exact canonical token sequence that [`Query::canonical_hash`]
    /// digests: body literals are sorted by a rename-independent shape,
    /// variables are renamed by first occurrence, and the renamed
    /// literals are sorted again. Atoms sort before comparisons, so the
    /// atoms pin the renaming and duplicate-shape comparisons
    /// (`A < 616, B < 616`) canonicalize identically in either order.
    pub fn canonical_form(&self) -> CanonicalForm {
        let mut scratch = CanonScratch::default();
        self.canonical_walk(false, &mut scratch);
        CanonicalForm(scratch.form)
    }

    /// [`Query::canonical_form`]'s tokens, rendered into `scratch`, whose
    /// buffers the next query reuses.
    pub(crate) fn canonical_tokens<'s>(&self, scratch: &'s mut CanonScratch) -> &'s [CanonTok] {
        self.canonical_walk(false, scratch);
        &scratch.form
    }

    /// The parameter-normalized variant of [`Query::canonical_hash`]:
    /// every comparison between a variable and a constant contributes a
    /// numbered parameter token instead of the constant itself, oriented
    /// variable-left so the constant's value cannot change the literal's
    /// canonical orientation. Ground comparisons, variable–variable
    /// comparisons, and constants inside database atoms are *not* lifted
    /// — they are part of the template shape, so a query with nothing to
    /// lift has `hash == canonical_hash()`.
    ///
    /// Two queries with equal template hashes correspond literal-for-
    /// literal under the variable map `var_order[k] ↦ var_order[k]` and
    /// the parameter map `params[i] ↦ params[i]`.
    pub fn canonical_template(&self) -> CanonicalTemplate {
        let mut scratch = CanonScratch::default();
        self.canonical_walk(true, &mut scratch);
        let form = CanonicalForm(scratch.form);
        CanonicalTemplate {
            hash: form.hash64(),
            form,
            params: scratch.params,
            slots: scratch.slots,
            var_order: scratch.vars,
        }
    }

    /// The one canonical walk behind [`Query::canonical_form`] and
    /// [`Query::canonical_template`]: sort the body literals by their
    /// shape (variables blanked), number the variables by first
    /// occurrence over projection then sorted body, render and sort
    /// again. With `lift`, a comparison between a variable and a constant
    /// is oriented variable-left — so the constant's value cannot change
    /// its orientation — and the constant becomes a numbered parameter;
    /// ground and variable–variable comparisons and constants inside
    /// atoms stay part of the shape either way. Leaves in `scratch` the
    /// form, the variables as numbered, and the lifted constants in
    /// parameter order with where each sits in the body (none unless
    /// `lift`).
    fn canonical_walk(&self, lift: bool, scratch: &mut CanonScratch) {
        use CanonTok::{Blank, Len, Neg, Op, Param, ParamBlank, Pos, V};
        // Appends one literal's tokens to `out`: `term` renders an
        // operand, `param` the constant of a lifted comparison (told
        // whether it was the right-hand operand).
        fn render(
            l: &Literal,
            lift: bool,
            out: &mut Vec<CanonTok>,
            mut term: impl FnMut(&Term) -> CanonTok,
            mut param: impl FnMut(Const, bool) -> CanonTok,
        ) {
            let (head, args) = match l {
                Literal::Pos(a) => (Pos(a.pred.0.id()), &a.args),
                Literal::Neg(a) => (Neg(a.pred.0.id()), &a.args),
                Literal::Cmp(c) => {
                    let toks = match (lift, &c.lhs, &c.rhs) {
                        (true, v @ Term::Var(_), Term::Const(k)) => {
                            [Op(c.op), term(v), param(*k, true)]
                        }
                        (true, Term::Const(k), v @ Term::Var(_)) => {
                            [Op(c.op.flip()), term(v), param(*k, false)]
                        }
                        _ => {
                            let c = c.canonical();
                            [Op(c.op), term(&c.lhs), term(&c.rhs)]
                        }
                    };
                    out.extend(toks);
                    return;
                }
            };
            out.push(head);
            out.extend(args.iter().map(term));
        }
        let CanonScratch {
            toks,
            spans,
            order,
            vars,
            params,
            slots,
            form,
        } = scratch;
        // Pass 1: sort body *indices* (so parameter slots can point back
        // into the original body) stably by shape.
        let blank = |t: &Term| match t {
            Term::Var(_) => Blank,
            Term::Const(c) => CanonTok::of(c),
        };
        toks.clear();
        spans.clear();
        for l in &self.body {
            let start = toks.len();
            render(l, lift, toks, blank, |_, _| ParamBlank);
            spans.push(start..toks.len());
        }
        order.clear();
        order.extend(0..self.body.len());
        order.sort_by(|&a, &b| toks[spans[a].clone()].cmp(&toks[spans[b].clone()]));

        // Pass 2: number the variables by first occurrence — a handful
        // per query, so a scan finds a number — over the projection,
        // then the shape-sorted body, rendered into `toks` again.
        vars.clear();
        params.clear();
        slots.clear();
        let mut number = |t: &Term| match t {
            Term::Var(v) => V(vars.iter().position(|w| w == v).unwrap_or_else(|| {
                vars.push(*v);
                vars.len() - 1
            })),
            Term::Const(c) => CanonTok::of(c),
        };
        form.clear();
        form.push(Len(self.projection.len()));
        form.extend(self.projection.iter().map(&mut number));
        toks.clear();
        spans.clear();
        for &lit in order.iter() {
            let start = toks.len();
            render(&self.body[lit], lift, toks, &mut number, |k, rhs| {
                params.push(k);
                slots.push(ParamSlot { lit, rhs });
                Param(params.len() - 1)
            });
            spans.push(start..toks.len());
        }

        // Pass 3: sort the rendered literals and lay them out.
        order.clear();
        order.extend(0..spans.len());
        order.sort_unstable_by(|&a, &b| toks[spans[a].clone()].cmp(&toks[spans[b].clone()]));
        for &i in order.iter() {
            let lit = &toks[spans[i].clone()];
            form.push(Len(lit.len()));
            form.extend_from_slice(lit);
        }
    }

    /// Substitute constants back into the parameter slots of this query,
    /// producing the member of the template family bound to `params`.
    /// Slots and params must be parallel (as produced by
    /// [`Query::canonical_template`]); excess entries on either side are
    /// ignored.
    pub fn with_params(&self, slots: &[ParamSlot], params: &[crate::term::Const]) -> Query {
        let mut q = self.clone();
        for (slot, k) in slots.iter().zip(params) {
            if let Some(Literal::Cmp(c)) = q.body.get_mut(slot.lit) {
                if slot.rhs {
                    c.rhs = Term::Const(*k);
                } else {
                    c.lhs = Term::Const(*k);
                }
            }
        }
        q
    }
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, t) in self.projection.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            t.fmt(f)?;
        }
        f.write_str(") <- ")?;
        write_body(f, &self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::CmpOp;

    fn sample_query() -> Query {
        Query::new(
            "q",
            vec![Term::var("Name")],
            vec![
                Literal::pos(
                    "person",
                    vec![Term::var("X"), Term::var("Name"), Term::var("Age")],
                ),
                Literal::cmp(Term::var("Age"), CmpOp::Lt, Term::int(30)),
            ],
        )
    }

    #[test]
    fn query_display_matches_paper_style() {
        assert_eq!(
            sample_query().to_string(),
            "q(Name) <- person(X, Name, Age), Age < 30"
        );
    }

    #[test]
    fn safety_detects_unbound_head_var() {
        let q = Query::new(
            "q",
            vec![Term::var("Z")],
            vec![Literal::pos("p", vec![Term::var("X")])],
        );
        assert!(!q.is_safe());
        assert!(sample_query().is_safe());
    }

    #[test]
    fn safety_accepts_equality_grounding() {
        // Z is bound transitively through equalities to a constant.
        let q = Query::new(
            "q",
            vec![Term::var("Z")],
            vec![
                Literal::pos("p", vec![Term::var("X")]),
                Literal::cmp(Term::var("Y"), CmpOp::Eq, Term::int(3)),
                Literal::cmp(Term::var("Z"), CmpOp::Eq, Term::var("Y")),
            ],
        );
        assert!(q.is_safe());
    }

    #[test]
    fn negation_safety_rules() {
        // A negation-local variable is existential under the negation and
        // allowed (partially-bound anti-join).
        let q = Query::new(
            "q",
            vec![],
            vec![
                Literal::pos("p", vec![Term::var("X")]),
                Literal::neg("r", vec![Term::var("Y")]),
            ],
        );
        assert!(q.is_safe());
        let q2 = Query::new(
            "q",
            vec![],
            vec![
                Literal::pos("p", vec![Term::var("X")]),
                Literal::neg("r", vec![Term::var("X")]),
            ],
        );
        assert!(q2.is_safe());
        // But a variable shared between a negative literal and the
        // projection (and nowhere positive) is unsafe.
        let q3 = Query::new(
            "q",
            vec![Term::var("Y")],
            vec![
                Literal::pos("p", vec![Term::var("X")]),
                Literal::neg("r", vec![Term::var("Y")]),
            ],
        );
        assert!(!q3.is_safe());
        // And a variable shared between two negative literals only is
        // unsafe as well.
        let q4 = Query::new(
            "q",
            vec![],
            vec![
                Literal::pos("p", vec![Term::var("X")]),
                Literal::neg("r", vec![Term::var("Y")]),
                Literal::neg("s", vec![Term::var("Y")]),
            ],
        );
        assert!(!q4.is_safe());
    }

    #[test]
    fn canonical_hash_is_rename_and_order_invariant() {
        let q1 = sample_query();
        // Renamed variables.
        let q2 = Query::new(
            "q",
            vec![Term::var("N")],
            vec![
                Literal::pos(
                    "person",
                    vec![Term::var("A"), Term::var("N"), Term::var("G")],
                ),
                Literal::cmp(Term::var("G"), CmpOp::Lt, Term::int(30)),
            ],
        );
        assert_eq!(q1.canonical_hash(), q2.canonical_hash());
        // Reordered body + flipped comparison orientation.
        let q3 = Query::new(
            "q",
            vec![Term::var("Name")],
            vec![
                Literal::cmp(Term::int(30), CmpOp::Gt, Term::var("Age")),
                Literal::pos(
                    "person",
                    vec![Term::var("X"), Term::var("Name"), Term::var("Age")],
                ),
            ],
        );
        assert_eq!(q1.canonical_hash(), q3.canonical_hash());
    }

    #[test]
    fn canonical_hash_separates_distinct_queries() {
        let q1 = sample_query();
        let q2 = Query::new(
            "q",
            vec![Term::var("Name")],
            vec![
                Literal::pos(
                    "person",
                    vec![Term::var("X"), Term::var("Name"), Term::var("Age")],
                ),
                Literal::cmp(Term::var("Age"), CmpOp::Lt, Term::int(31)),
            ],
        );
        assert_ne!(q1.canonical_hash(), q2.canonical_hash());
        // Negation is distinguished from a positive literal.
        let q3 = Query::new(
            "q",
            vec![],
            vec![
                Literal::pos("p", vec![Term::var("X")]),
                Literal::neg("r", vec![Term::var("X")]),
            ],
        );
        let q4 = Query::new(
            "q",
            vec![],
            vec![
                Literal::pos("p", vec![Term::var("X")]),
                Literal::pos("r", vec![Term::var("X")]),
            ],
        );
        assert_ne!(q3.canonical_hash(), q4.canonical_hash());
    }

    #[test]
    fn constraint_display() {
        let ic = Constraint::named(
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
        );
        assert_eq!(
            ic.to_string(),
            "IC1: Salary > 40000 <- faculty(OID, Salary)"
        );
    }

    #[test]
    fn denial_display() {
        let ic = Constraint::new(
            ConstraintHead::None,
            vec![Literal::pos("p", vec![Term::var("X")])],
        );
        assert_eq!(ic.to_string(), "<- p(X)");
    }

    #[test]
    fn rule_safety() {
        let r = Rule::new(
            Atom::new("asr", vec![Term::var("X"), Term::var("W")]),
            vec![
                Literal::pos("takes", vec![Term::var("X"), Term::var("Y")]),
                Literal::pos("has_ta", vec![Term::var("Y"), Term::var("W")]),
            ],
        );
        assert!(r.is_safe());
        let bad = Rule::new(
            Atom::new("v", vec![Term::var("Z")]),
            vec![Literal::pos("p", vec![Term::var("X")])],
        );
        assert!(!bad.is_safe());
    }

    #[test]
    fn template_lifts_comparison_constants() {
        use crate::term::Const;
        let q30 = sample_query();
        let q40 = Query::new(
            "q",
            vec![Term::var("Name")],
            vec![
                Literal::pos(
                    "person",
                    vec![Term::var("X"), Term::var("Name"), Term::var("Age")],
                ),
                Literal::cmp(Term::var("Age"), CmpOp::Lt, Term::int(40)),
            ],
        );
        assert_ne!(q30.canonical_hash(), q40.canonical_hash());
        let t30 = q30.canonical_template();
        let t40 = q40.canonical_template();
        assert_eq!(t30.hash, t40.hash);
        assert_eq!(t30.params, vec![Const::Int(30)]);
        assert_eq!(t40.params, vec![Const::Int(40)]);
        assert_eq!(t30.slots, t40.slots);
    }

    #[test]
    fn template_is_orientation_invariant() {
        // `30 > Age` and `Age < 30` are the same template member; the
        // flipped orientation must not change hash or lifted constant.
        let q = sample_query();
        let flipped = Query::new(
            "q",
            vec![Term::var("Name")],
            vec![
                Literal::pos(
                    "person",
                    vec![Term::var("X"), Term::var("Name"), Term::var("Age")],
                ),
                Literal::cmp(Term::int(30), CmpOp::Gt, Term::var("Age")),
            ],
        );
        let t1 = q.canonical_template();
        let t2 = flipped.canonical_template();
        assert_eq!(t1.hash, t2.hash);
        assert_eq!(t1.params, t2.params);
        // The slot remembers which side the constant was actually on.
        assert!(t1.slots[0].rhs);
        assert!(!t2.slots[0].rhs);
    }

    #[test]
    fn template_keeps_ground_and_var_var_comparisons() {
        // A ground comparison is part of the shape, not a parameter.
        let g1 = Query::new(
            "q",
            vec![],
            vec![
                Literal::pos("p", vec![Term::var("X")]),
                Literal::cmp(Term::int(1), CmpOp::Eq, Term::int(2)),
            ],
        );
        let g2 = Query::new(
            "q",
            vec![],
            vec![
                Literal::pos("p", vec![Term::var("X")]),
                Literal::cmp(Term::int(1), CmpOp::Eq, Term::int(3)),
            ],
        );
        assert_ne!(g1.canonical_template().hash, g2.canonical_template().hash);
        assert!(g1.canonical_template().params.is_empty());
        // A var-var comparison is likewise not lifted.
        let vv = Query::new(
            "q",
            vec![],
            vec![
                Literal::pos("p", vec![Term::var("X"), Term::var("Y")]),
                Literal::cmp(Term::var("X"), CmpOp::Lt, Term::var("Y")),
            ],
        );
        assert!(vv.canonical_template().params.is_empty());
    }

    #[test]
    fn template_distinguishes_atom_constants() {
        // Constants inside database atoms are not parameters: different
        // atom constants are different templates.
        let a1 = Query::new(
            "q",
            vec![],
            vec![Literal::pos("p", vec![Term::var("X"), Term::int(1)])],
        );
        let a2 = Query::new(
            "q",
            vec![],
            vec![Literal::pos("p", vec![Term::var("X"), Term::int(2)])],
        );
        assert_ne!(a1.canonical_template().hash, a2.canonical_template().hash);
    }

    #[test]
    fn with_params_round_trips() {
        use crate::term::Const;
        let q = sample_query();
        let t = q.canonical_template();
        // Substituting a template's own params back is the identity.
        assert_eq!(q.with_params(&t.slots, &t.params), q);
        // Substituting fresh constants reproduces the sibling query's
        // canonical hash.
        let q40 = q.with_params(&t.slots, &[Const::Int(40)]);
        let expected = Query::new(
            "q",
            vec![Term::var("Name")],
            vec![
                Literal::pos(
                    "person",
                    vec![Term::var("X"), Term::var("Name"), Term::var("Age")],
                ),
                Literal::cmp(Term::var("Age"), CmpOp::Lt, Term::int(40)),
            ],
        );
        assert_eq!(q40.canonical_hash(), expected.canonical_hash());
        assert_eq!(q40.canonical_template().hash, t.hash);
    }

    #[test]
    fn template_var_order_aligns_equal_hashes() {
        // Template-equal queries written with different variable names
        // correspond under var_order position.
        let a = sample_query();
        let b = Query::new(
            "q",
            vec![Term::var("N")],
            vec![
                Literal::pos(
                    "person",
                    vec![Term::var("P"), Term::var("N"), Term::var("G")],
                ),
                Literal::cmp(Term::var("G"), CmpOp::Lt, Term::int(99)),
            ],
        );
        let ta = a.canonical_template();
        let tb = b.canonical_template();
        assert_eq!(ta.hash, tb.hash);
        assert_eq!(ta.var_order.len(), tb.var_order.len());
        // Renaming a's query along var_order → var_order and rebinding
        // params yields b's canonical hash.
        let renamed = Query {
            name: a.name.clone(),
            projection: a
                .projection
                .iter()
                .map(|t| remap(t, &ta.var_order, &tb.var_order))
                .collect(),
            body: a
                .body
                .iter()
                .map(|l| remap_lit(l, &ta.var_order, &tb.var_order))
                .collect(),
        };
        let renamed = renamed.with_params(&renamed.canonical_template().slots, &tb.params);
        assert_eq!(renamed.canonical_hash(), b.canonical_hash());
    }

    fn remap(t: &Term, from: &[Var], to: &[Var]) -> Term {
        match t {
            Term::Var(v) => {
                let i = from.iter().position(|w| w == v).expect("var in order");
                Term::Var(to[i])
            }
            c => *c,
        }
    }

    fn remap_lit(l: &Literal, from: &[Var], to: &[Var]) -> Literal {
        match l {
            Literal::Pos(a) => Literal::Pos(Atom::new(
                a.pred,
                a.args.iter().map(|t| remap(t, from, to)).collect(),
            )),
            Literal::Neg(a) => Literal::Neg(Atom::new(
                a.pred,
                a.args.iter().map(|t| remap(t, from, to)).collect(),
            )),
            Literal::Cmp(c) => Literal::Cmp(Comparison::new(
                remap(&c.lhs, from, to),
                c.op,
                remap(&c.rhs, from, to),
            )),
        }
    }

    #[test]
    fn query_contains_uses_canonical_cmp() {
        let q = sample_query();
        assert!(q.contains(&Literal::cmp(Term::var("Age"), CmpOp::Lt, Term::int(30))));
        assert!(q.contains(&Literal::cmp(Term::int(30), CmpOp::Gt, Term::var("Age"))));
        assert!(!q.contains(&Literal::cmp(Term::var("Age"), CmpOp::Gt, Term::int(30))));
    }
}
