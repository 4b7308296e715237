//! Query answering: conjunctive queries (with negation and comparison
//! built-ins) evaluated against an [`EdbDatabase`].
//!
//! A body is compiled once per call: [`execution_order`] orders it
//! greedily (most-bound literal first), every variable gets a dense slot,
//! and every atom argument becomes a check or a bind. The body is then
//! joined hop by hop, one atom a step. A binding is a fixed-width row of
//! constants; each step walks its candidates in place (index postings, a
//! range-probe result, or the whole relation), *matches* a tuple against
//! the checks first and allocates a row only for a match.
//! [`choose_access_path`] picks each atom's one access path from the
//! declared indexes and the number of input bindings. Both functions are
//! public because the cost model prices exactly the steps the evaluator
//! runs. [`EvalStats`] counts the work done so benchmarks can report
//! *logical* cost (tuples examined, bindings produced) alongside
//! wall-clock time.

use crate::atom::{Atom, CmpOp, Comparison, Literal, PredSym};
use crate::clause::Query;
use crate::error::{DatalogError, Result};
use crate::fxhash::FxHashMap;
use crate::program::{EdbDatabase, RangeBound, Relation};
use crate::term::{Const, Term, Var};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Work counters for one evaluation.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Tuples examined while scanning or probing relations.
    pub tuples_examined: u64,
    /// Intermediate bindings produced by joins.
    pub bindings_produced: u64,
    /// Anti-join (negation) probes.
    pub negation_probes: u64,
    /// Bindings flowing *into* positive-atom join steps (the sum of input
    /// cardinalities across every `join_atom` call).
    pub join_input_tuples: u64,
    /// Bindings flowing *out of* positive-atom join steps (the sum of
    /// output cardinalities; the join's selectivity is output/input).
    pub join_output_tuples: u64,
    /// Probes against declared (persistent) hash indexes.
    pub index_probes: u64,
    /// Range probes against declared ordered indexes.
    pub range_probes: u64,
    /// Full relation passes: explicit scans plus each build of an
    /// ephemeral (per-evaluation) join index.
    pub scans: u64,
    /// Tuples examined per predicate — the object-database cost model
    /// distinguishes class-relation access (object fetches) from
    /// relationship traversal and extent probes.
    pub per_pred: crate::fxhash::FxHashMap<PredSym, u64>,
}

impl EvalStats {
    /// Merge another stats record into this one.
    pub fn merge(&mut self, other: &EvalStats) {
        self.tuples_examined += other.tuples_examined;
        self.bindings_produced += other.bindings_produced;
        self.negation_probes += other.negation_probes;
        self.join_input_tuples += other.join_input_tuples;
        self.join_output_tuples += other.join_output_tuples;
        self.index_probes += other.index_probes;
        self.range_probes += other.range_probes;
        self.scans += other.scans;
        for (k, v) in &other.per_pred {
            *self.per_pred.entry(*k).or_insert(0) += v;
        }
    }

    /// Tuples examined for one predicate.
    pub fn examined(&self, pred: &str) -> u64 {
        self.per_pred.get(&PredSym::new(pred)).copied().unwrap_or(0)
    }
}

/// The physical access paths of one evaluation.
///
/// The default is the full access-path repertoire; [`EvalOptions::scan_only`]
/// reproduces the pre-index engine (ephemeral join indexes and scans only),
/// which the differential tests and the `*_seed` bench rows use as the
/// reference executor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalOptions {
    /// Scans and ephemeral join indexes only: no declared hash/ordered
    /// index probes.
    pub scan_only: bool,
}

impl EvalOptions {
    /// The pre-index engine.
    pub fn scan_only() -> Self {
        EvalOptions { scan_only: true }
    }
}

/// Range constraints harvested from a body's comparison literals:
/// variable → (lower bound, upper bound), each side optional.
pub type RangeMap = HashMap<Var, (Option<RangeBound>, Option<RangeBound>)>;

/// Collect per-variable range bounds from `Var op Const` comparison
/// literals (`<`, `<=`, `>`, `>=`, either operand order); the tightest
/// bound on each side wins, and of two equal-valued bounds the exclusive
/// one. A variable compared with two constants [`Const::order`] cannot
/// relate (a number and a string) gets no range at all: one of its
/// comparisons errors on every row that reaches it, and a range probe
/// would change which rows do. The harvested bounds only *pre-filter*
/// index probes — every comparison literal still runs. Public so the cost
/// model prices range probes against the same bounds the executor will
/// use.
pub fn collect_ranges(body: &[Literal]) -> RangeMap {
    let mut out = RangeMap::new();
    let mut unranged: Vec<Var> = Vec::new();
    for l in body {
        let Literal::Cmp(c) = l else { continue };
        let (v, k, op) = match (&c.lhs, &c.rhs) {
            (Term::Var(v), Term::Const(k)) => (*v, *k, c.op),
            (Term::Const(k), Term::Var(v)) => (*v, *k, c.op.flip()),
            _ => continue,
        };
        let tighter = match op {
            CmpOp::Lt | CmpOp::Le => Ordering::Less,
            CmpOp::Gt | CmpOp::Ge => Ordering::Greater,
            CmpOp::Eq | CmpOp::Ne => continue,
        };
        if unranged.contains(&v) {
            continue;
        }
        let (lo, hi) = out.entry(v).or_default();
        if [&*lo, &*hi]
            .into_iter()
            .flatten()
            .any(|(held, _)| k.order(held).is_none())
        {
            out.remove(&v);
            unranged.push(v);
            continue;
        }
        let slot = if tighter == Ordering::Less { hi } else { lo };
        let cand = (k, matches!(op, CmpOp::Le | CmpOp::Ge));
        let replace = match slot {
            None => true,
            Some((held, inclusive)) => match k.order(held) {
                Some(Ordering::Equal) => *inclusive && !cand.1,
                ord => ord == Some(tighter),
            },
        };
        if replace {
            *slot = Some(cand);
        }
    }
    out
}

/// One body literal in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderedLiteral<'a> {
    /// The literal.
    pub literal: &'a Literal,
    /// Whether every variable of the literal is bound once it has run.
    /// False only for the unsafe tail: negations and comparisons that
    /// never become fully bound run last, in body order, and bind nothing
    /// (a negation's unbound positions are existential; a comparison's
    /// are an error).
    pub binds: bool,
}

/// The order in which the evaluator runs a body — and the order the cost
/// model prices, which is why it is public: greedy, most-bound positive
/// literal first (ties: body order), with negations and comparisons run
/// as soon as they are fully bound. An equality with a ground or bound
/// side runs at once and *binds* its other side (equality propagation),
/// so `N = "ann"` ahead of `student(X, N)` turns the atom into a probe on
/// `N` rather than a full enumeration.
pub fn execution_order(body: &[Literal]) -> Vec<OrderedLiteral<'_>> {
    // Each pending literal with its occurrences of bound variables and of
    // unbound ones (duplicates counted), kept up to date as steps bind.
    let mut remaining: Vec<(&Literal, usize, usize)> =
        body.iter().map(|l| (l, 0, l.iter_vars().count())).collect();
    let mut bound: Vec<Var> = Vec::new();
    let mut ordered = Vec::with_capacity(body.len());
    while !remaining.is_empty() {
        let ready = remaining.iter().position(|&(l, shared, unbound)| match l {
            Literal::Pos(_) => false,
            Literal::Cmp(c) if c.op == CmpOp::Eq => {
                shared > 0 || c.lhs.is_ground() || c.rhs.is_ground()
            }
            _ => unbound == 0,
        });
        let next = ready.or_else(|| {
            remaining
                .iter()
                .enumerate()
                .filter(|(_, (l, ..))| l.is_positive())
                .max_by_key(|&(i, &(_, shared, _))| (shared, usize::MAX - i))
                .map(|(i, _)| i)
        });
        // With neither, only unbound negations/comparisons remain.
        let (literal, ..) = remaining.remove(next.unwrap_or(0));
        if next.is_some() {
            let already = bound.len();
            for v in literal.iter_vars() {
                if !bound.contains(v) {
                    bound.push(*v);
                }
            }
            let newly = &bound[already..];
            for (l, shared, unbound) in &mut remaining {
                let n = l.iter_vars().filter(|v| newly.contains(v)).count();
                *shared += n;
                *unbound -= n;
            }
        }
        ordered.push(OrderedLiteral {
            literal,
            binds: next.is_some(),
        });
    }
    ordered
}

/// The physical access path of one atom step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPath {
    /// Probe the declared hash index on this bound column, once per
    /// input binding.
    HashProbe(usize),
    /// One range probe of the declared ordered index on this unbound
    /// column, bounded by the body's comparison constants; every input
    /// binding walks the same result.
    RangeProbe(usize),
    /// Build an ephemeral hash index on the bound columns (one full
    /// pass), then probe it once per input binding.
    Build,
    /// Enumerate the whole relation once per input binding, filtering on
    /// the bound columns if there are any.
    Scan,
}

/// Input bindings up to which an unindexed bound column is answered by
/// one filtered scan per binding rather than by building an ephemeral
/// index. Measured (release build, 8 400 tuples of arity 5, one bound
/// column; EXPERIMENTS.md has the table): a filtered scan costs 60–75 µs
/// per binding; the build costs 125 µs when the column holds 60 distinct
/// values and 670 µs when every value is distinct (one postings vector
/// per key), and a probe next to nothing. Scan and build meet at 2
/// bindings in the first case and at 12 in the second; at 4 the worse
/// choice stays within about 2× of the better in both.
const SCAN_OR_BUILD_BREAK_EVEN: usize = 4;

/// Pick the access path for `atom` over `rel`, given the columns bound on
/// entry (constants and already-bound variables) and the number of input
/// bindings. The two probes compete on the candidates each hands one
/// binding: a declared hash index over a bound column, its exact postings
/// when the argument is a constant and `len / distinct` when it is a
/// variable; a range probe on an unbound column constrained by body
/// comparisons, the in-range count. The fewer wins: `rank = "professor"`
/// over two ranks loses to a salary range of twenty rows. A tie goes to
/// the hash probe, and between two hash indexes to the higher column. A
/// hash index that hands a binding one row at most — an OID, a key — is
/// taken without counting any range, which would cost more than the row
/// it could save. A range probe with no hash index to
/// beat must still touch fewer tuples over every binding than one full
/// pass; then, by input cardinality, a scan per binding or an ephemeral
/// index. Public so the cost model prices the path the executor will take.
pub fn choose_access_path(
    rel: &Relation,
    atom: &Atom,
    bound_cols: &[usize],
    ranges: &RangeMap,
    n_bindings: usize,
    opts: &EvalOptions,
) -> AccessPath {
    if !opts.scan_only {
        let hash = bound_cols
            .iter()
            .filter(|&&col| rel.has_hash_index(col))
            .map(|&col| {
                let candidates = match &atom.args[col] {
                    Term::Const(key) => rel.hash_probe(col, key).map_or(0, <[u32]>::len) as f64,
                    Term::Var(_) => rel.len() as f64 / rel.distinct(col).max(1) as f64,
                };
                (candidates, col)
            })
            .min_by(|a, b| a.0.total_cmp(&b.0).then(b.1.cmp(&a.1)));
        if let Some((_, col)) = hash.filter(|&(candidates, _)| candidates <= 1.0) {
            return AccessPath::HashProbe(col);
        }
        // The comparison literal itself still runs later, so the probe
        // only has to be a sound pre-filter.
        let range = atom
            .args
            .iter()
            .enumerate()
            .filter_map(|(col, t)| {
                let Term::Var(v) = t else { return None };
                if bound_cols.contains(&col) {
                    return None;
                }
                let (lo, hi) = ranges.get(v)?;
                Some((rel.range_count(col, lo.as_ref(), hi.as_ref())?, col))
            })
            .min();
        match (hash, range) {
            (Some((h, _)), Some((k, col))) if (k as f64) < h => return AccessPath::RangeProbe(col),
            (Some((_, col)), _) => return AccessPath::HashProbe(col),
            (None, Some((k, col)))
                if bound_cols.is_empty() || k.saturating_mul(n_bindings) <= rel.len().max(1) =>
            {
                return AccessPath::RangeProbe(col)
            }
            _ => {}
        }
    }
    if bound_cols.is_empty() || n_bindings <= SCAN_OR_BUILD_BREAK_EVEN {
        AccessPath::Scan
    } else {
        AccessPath::Build
    }
}

/// An ephemeral (per-evaluation) hash index over the bound columns of one
/// relation: key → ids of the rows carrying it.
enum EphemeralIndex {
    /// One bound column, keyed by the value itself: no key allocation.
    One(FxHashMap<Const, Vec<u32>>),
    /// Several bound columns; a key is allocated per distinct value
    /// combination, not per tuple.
    Many(FxHashMap<Vec<Const>, Vec<u32>>),
}

impl EphemeralIndex {
    fn build(rel: &Relation, cols: &[usize]) -> Self {
        if let [col] = cols {
            let mut m: FxHashMap<Const, Vec<u32>> = FxHashMap::default();
            for (i, t) in rel.rows().enumerate() {
                m.entry(t[*col]).or_default().push(i as u32);
            }
            return EphemeralIndex::One(m);
        }
        let mut m: FxHashMap<Vec<Const>, Vec<u32>> = FxHashMap::default();
        let mut key = Vec::with_capacity(cols.len());
        for (i, t) in rel.rows().enumerate() {
            key.clear();
            key.extend(cols.iter().map(|&c| t[c]));
            match m.get_mut(key.as_slice()) {
                Some(postings) => postings.push(i as u32),
                None => {
                    m.insert(key.clone(), vec![i as u32]);
                }
            }
        }
        EphemeralIndex::Many(m)
    }

    fn probe(&self, key: &[Const]) -> &[u32] {
        match self {
            EphemeralIndex::One(m) => m.get(&key[0]),
            EphemeralIndex::Many(m) => m.get(key),
        }
        .map_or(&[], Vec::as_slice)
    }
}

/// The ephemeral indexes of one body evaluation, by (predicate, bound
/// columns). Each build is a full relation pass, counted in
/// [`EvalStats::scans`].
#[derive(Default)]
struct IndexCache {
    built: Vec<(PredSym, Vec<usize>, EphemeralIndex)>,
}

impl IndexCache {
    fn index(&mut self, rel: &Relation, pred: PredSym, cols: &[usize]) -> &EphemeralIndex {
        let at = self
            .built
            .iter()
            .position(|(p, c, _)| *p == pred && c == cols)
            .unwrap_or_else(|| {
                self.built
                    .push((pred, cols.to_vec(), EphemeralIndex::build(rel, cols)));
                self.built.len() - 1
            });
        &self.built[at].2
    }
}

/// Placeholder in a row for a slot no step has bound yet; never read.
const UNBOUND: Const = Const::Bool(false);

/// A set of bindings: one fixed-width row of constants per binding, one
/// slot per variable, stored back to back.
struct Rows {
    width: usize,
    len: usize,
    data: Vec<Const>,
}

impl Rows {
    fn new(width: usize) -> Self {
        Rows {
            width,
            len: 0,
            data: Vec::new(),
        }
    }

    /// The single empty binding every evaluation starts from.
    fn unit(width: usize) -> Self {
        Rows {
            width,
            len: 1,
            data: vec![UNBOUND; width],
        }
    }

    fn iter(&self) -> impl Iterator<Item = &[Const]> {
        (0..self.len).map(|i| &self.data[i * self.width..(i + 1) * self.width])
    }

    /// Append a copy of `row`, returned for the caller to fill its new
    /// slots.
    fn push(&mut self, row: &[Const]) -> &mut [Const] {
        let at = self.data.len();
        self.data.extend_from_slice(row);
        self.len += 1;
        &mut self.data[at..]
    }

    /// Keep the rows `keep` accepts, in order, compacting in place.
    fn retain(&mut self, mut keep: impl FnMut(&[Const]) -> Result<bool>) -> Result<()> {
        let w = self.width;
        let mut kept = 0;
        for i in 0..self.len {
            if keep(&self.data[i * w..(i + 1) * w])? {
                self.data.copy_within(i * w..(i + 1) * w, kept * w);
                kept += 1;
            }
        }
        self.len = kept;
        self.data.truncate(kept * w);
        Ok(())
    }
}

/// Where a bound term's value comes from.
#[derive(Clone, Copy)]
enum Src {
    Const(Const),
    Slot(usize),
}

impl Src {
    fn get(self, row: &[Const]) -> Const {
        match self {
            Src::Const(c) => c,
            Src::Slot(s) => row[s],
        }
    }
}

/// What one atom argument does with the tuple column it faces. A tuple is
/// *matched* against the checks first; only a match allocates a row, whose
/// `BindSlot` columns are then copied in.
#[derive(Clone, Copy)]
enum ArgOp {
    /// The column must equal this constant.
    CheckConst(Const),
    /// The column must equal the row's value for an already-bound variable.
    CheckSlot(usize),
    /// First occurrence of an unbound variable: the column's value goes
    /// into this slot.
    BindSlot(usize),
    /// Repeated occurrence of a variable first seen at this earlier
    /// column of the same atom.
    CheckEarlierArg(usize),
    /// Unbound position of a negated atom: existential, matches anything.
    Any,
}

impl ArgOp {
    /// The value a bound (`CheckConst`/`CheckSlot`) argument carries.
    fn bound_value(self, row: &[Const]) -> Const {
        match self {
            ArgOp::CheckConst(c) => c,
            ArgOp::CheckSlot(s) => row[s],
            _ => unreachable!("probe keys come from bound columns"),
        }
    }
}

#[inline]
fn matches(ops: &[ArgOp], row: &[Const], tuple: &[Const]) -> bool {
    ops.iter().zip(tuple).all(|(op, c)| match *op {
        ArgOp::CheckConst(k) => k == *c,
        ArgOp::CheckSlot(s) => row[s] == *c,
        ArgOp::CheckEarlierArg(j) => tuple[j] == *c,
        ArgOp::BindSlot(_) | ArgOp::Any => true,
    })
}

/// An atom with the op each argument performs.
struct AtomOps<'a> {
    atom: &'a Atom,
    ops: Vec<ArgOp>,
}

/// One compiled execution step.
enum Step<'a> {
    /// Join a positive atom, extending each row.
    Join(AtomOps<'a>),
    /// Drop the rows some tuple of a negated atom matches.
    AntiJoin(AtomOps<'a>),
    /// Equality with exactly one bound side: copy it into the other
    /// side's slot (the physical analogue of using the equality as a join
    /// condition, e.g. the `Z = W` OID comparison of Application 3).
    Bind { from: Src, slot: usize },
    /// Fully bound comparison.
    Filter(&'a Comparison, Src, Src),
    /// A comparison over this never-bound variable: an error as soon as
    /// a row reaches it.
    Unsafe(&'a Comparison, Var),
}

fn slot_of(slots: &[Var], v: &Var) -> Option<usize> {
    slots.iter().position(|s| s == v)
}

/// The op for a term that is not a repeat within its atom: check a
/// constant or bound variable, bind (and allot the next slot to) a new one.
fn term_op(slots: &mut Vec<Var>, t: &Term) -> ArgOp {
    match t {
        Term::Const(c) => ArgOp::CheckConst(*c),
        Term::Var(v) => match slot_of(slots, v) {
            Some(s) => ArgOp::CheckSlot(s),
            None => {
                slots.push(*v);
                ArgOp::BindSlot(slots.len() - 1)
            }
        },
    }
}

/// The ops of one atom's arguments. A negated atom (`bind` false) binds
/// nothing: its unbound positions are existential.
fn atom_ops<'a>(slots: &mut Vec<Var>, atom: &'a Atom, bind: bool) -> AtomOps<'a> {
    let bound = slots.len();
    let mut ops = Vec::with_capacity(atom.args.len());
    for (i, t) in atom.args.iter().enumerate() {
        let unbound = matches!(t, Term::Var(v) if slot_of(&slots[..bound], v).is_none());
        ops.push(match atom.args[..i].iter().position(|u| u == t) {
            Some(j) if unbound => ArgOp::CheckEarlierArg(j),
            _ if unbound && !bind => ArgOp::Any,
            _ => term_op(slots, t),
        });
    }
    AtomOps { atom, ops }
}

fn src(slots: &[Var], t: &Term) -> Option<Src> {
    match t {
        Term::Const(c) => Some(Src::Const(*c)),
        Term::Var(v) => slot_of(slots, v).map(Src::Slot),
    }
}

/// Compile a body for one evaluation: order it, give every variable a
/// dense slot in binding order, and turn every term into the check or
/// bind it performs. Returns the steps and the slot → variable table.
fn compile(body: &[Literal]) -> (Vec<Step<'_>>, Vec<Var>) {
    let mut slots: Vec<Var> = Vec::new();
    let steps = execution_order(body)
        .into_iter()
        .map(|ordered| match ordered.literal {
            Literal::Pos(a) => Step::Join(atom_ops(&mut slots, a, true)),
            Literal::Neg(a) => Step::AntiJoin(atom_ops(&mut slots, a, false)),
            Literal::Cmp(c) => {
                let sides = (src(&slots, &c.lhs), src(&slots, &c.rhs));
                let unbound = c.vars().find(|v| slot_of(&slots, v).is_none()).copied();
                match (sides, unbound) {
                    ((Some(l), Some(r)), _) => Step::Filter(c, l, r),
                    ((Some(from), None) | (None, Some(from)), Some(v)) if c.op == CmpOp::Eq => {
                        slots.push(v);
                        Step::Bind {
                            from,
                            slot: slots.len() - 1,
                        }
                    }
                    (_, Some(v)) => Step::Unsafe(c, v),
                    (_, None) => unreachable!("a side without a source is an unbound variable"),
                }
            }
        })
        .collect();
    (steps, slots)
}

/// What every step of one body evaluation reads.
struct Ctx<'a> {
    db: &'a EdbDatabase,
    opts: &'a EvalOptions,
    ranges: RangeMap,
}

fn check_arity(rel: &Relation, atom: &Atom) -> Result<()> {
    match rel.arity() {
        Some(expected) if expected != atom.arity() => Err(DatalogError::ArityMismatch {
            predicate: atom.pred.name().to_string(),
            expected,
            found: atom.arity(),
        }),
        _ => Ok(()),
    }
}

/// Add `n` examined tuples of `pred`: once per join step, not per tuple.
fn count_examined(stats: &mut EvalStats, pred: PredSym, n: u64) {
    if n > 0 {
        stats.tuples_examined += n;
        *stats.per_pred.entry(pred).or_insert(0) += n;
    }
}

/// The access path of one atom step, opened over its relation: yields each
/// row's candidate row ids in place.
enum Probe<'a> {
    Hash(usize),
    /// The one range-probe result every row walks.
    Positions(Vec<u32>),
    Index(&'a EphemeralIndex, Vec<usize>),
    Scan,
}

/// Candidate row ids for one row.
enum Candidates<'a> {
    Postings(std::slice::Iter<'a, u32>),
    All(std::ops::Range<u32>),
}

impl Iterator for Candidates<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match self {
            Candidates::Postings(it) => it.next().copied(),
            Candidates::All(range) => range.next(),
        }
    }
}

impl<'a> Probe<'a> {
    /// Choose and open the access path for `n_rows` input rows, counting
    /// the probes and passes it will make.
    fn open(
        ctx: &Ctx<'_>,
        idx: &'a mut IndexCache,
        stats: &mut EvalStats,
        rel: &Relation,
        step: &AtomOps<'_>,
        ranges: &RangeMap,
        n_rows: usize,
    ) -> Probe<'a> {
        let AtomOps { atom, ops } = step;
        let bound_cols: Vec<usize> = (0..ops.len())
            .filter(|&c| matches!(ops[c], ArgOp::CheckConst(_) | ArgOp::CheckSlot(_)))
            .collect();
        match choose_access_path(rel, atom, &bound_cols, ranges, n_rows, ctx.opts) {
            AccessPath::HashProbe(col) => {
                stats.index_probes += n_rows as u64;
                Probe::Hash(col)
            }
            AccessPath::RangeProbe(col) => {
                stats.range_probes += 1;
                let Term::Var(v) = &atom.args[col] else {
                    unreachable!("range probes are chosen on variable columns")
                };
                let (lo, hi) = &ranges[v];
                Probe::Positions(
                    rel.range_probe(col, lo.as_ref(), hi.as_ref())
                        .expect("range_count answered for the same bounds"),
                )
            }
            AccessPath::Build => Probe::Index(idx.index(rel, atom.pred, &bound_cols), bound_cols),
            AccessPath::Scan => {
                stats.scans += n_rows as u64;
                Probe::Scan
            }
        }
    }

    /// `key` is scratch space for the ephemeral index's probe key.
    fn candidates<'r>(
        &'r self,
        rel: &'r Relation,
        ops: &[ArgOp],
        row: &[Const],
        key: &mut Vec<Const>,
    ) -> Candidates<'r> {
        let postings: &[u32] = match self {
            Probe::Hash(col) => rel
                .hash_probe(*col, &ops[*col].bound_value(row))
                .expect("path chosen on a declared index"),
            Probe::Positions(positions) => positions,
            Probe::Index(index, cols) => {
                key.clear();
                key.extend(cols.iter().map(|&c| ops[c].bound_value(row)));
                index.probe(key)
            }
            Probe::Scan => return Candidates::All(0..rel.len() as u32),
        };
        Candidates::Postings(postings.iter())
    }
}

/// Join a positive atom against the database, extending each row.
fn join(
    ctx: &Ctx<'_>,
    idx: &mut IndexCache,
    stats: &mut EvalStats,
    step: &AtomOps<'_>,
    rows: &Rows,
) -> Result<Rows> {
    let AtomOps { atom, ops } = step;
    let mut out = Rows::new(rows.width);
    let Some(rel) = ctx.db.relation(&atom.pred) else {
        // Unknown relation: empty (declared use); mirrors an empty extent.
        return Ok(out);
    };
    check_arity(rel, atom)?;
    stats.join_input_tuples += rows.len as u64;
    let probe = Probe::open(ctx, idx, stats, rel, step, &ctx.ranges, rows.len);
    if let Probe::Positions(positions) = &probe {
        out.data.reserve(positions.len() * rows.width);
    }
    let mut examined = 0u64;
    let mut key = Vec::new();
    for row in rows.iter() {
        for ti in probe.candidates(rel, ops, row, &mut key) {
            examined += 1;
            let tuple = rel.tuple_at(ti);
            if matches(ops, row, tuple) {
                let new = out.push(row);
                for (op, c) in ops.iter().zip(tuple) {
                    if let ArgOp::BindSlot(s) = *op {
                        new[s] = *c;
                    }
                }
            }
        }
    }
    count_examined(stats, atom.pred, examined);
    stats.bindings_produced += out.len as u64;
    stats.join_output_tuples += out.len as u64;
    Ok(out)
}

/// Partially-bound anti-join: a row survives unless some tuple matches
/// all bound positions; unbound positions are existential under the
/// negation, and repeated unbound variables inside the literal must still
/// match each other. Same access paths as a positive join, except that a
/// range bound on an existential position must not pre-filter.
fn anti_join(
    ctx: &Ctx<'_>,
    idx: &mut IndexCache,
    stats: &mut EvalStats,
    step: &AtomOps<'_>,
    rows: &mut Rows,
) -> Result<()> {
    let AtomOps { atom, ops } = step;
    stats.negation_probes += rows.len as u64;
    let Some(rel) = ctx.db.relation(&atom.pred) else {
        return Ok(());
    };
    check_arity(rel, atom)?;
    let no_ranges = RangeMap::new();
    let probe = Probe::open(ctx, idx, stats, rel, step, &no_ranges, rows.len);
    let mut examined = 0u64;
    let mut key = Vec::new();
    rows.retain(|row| {
        let present = probe.candidates(rel, ops, row, &mut key).any(|ti| {
            examined += 1;
            matches(ops, row, rel.tuple_at(ti))
        });
        Ok(!present)
    })?;
    count_examined(stats, atom.pred, examined);
    Ok(())
}

fn compare(c: &Comparison, l: Const, r: Const) -> Result<bool> {
    match c.op {
        CmpOp::Eq => Ok(l == r),
        CmpOp::Ne => Ok(l != r),
        op => match l.order(&r) {
            Some(ord) => Ok(op.test(ord)),
            None => Err(DatalogError::Incomparable {
                lhs: l.to_string(),
                rhs: r.to_string(),
            }),
        },
    }
}

/// The complete bindings of a body: rows plus the slot each variable got.
struct Bindings {
    rows: Rows,
    slots: Vec<Var>,
}

impl Bindings {
    /// Project every row onto `q`'s projection, into a relation: set
    /// semantics, answers in the order of their first row. An unsafe
    /// variable — one the body never bound — is an error only when there
    /// is a row to project, as an unsafe clause with no bindings has no
    /// answers either way.
    fn project(&self, q: &Query) -> Result<Relation> {
        let mut answers = Relation::with_arity(q.projection.len());
        if self.rows.len == 0 {
            return Ok(answers);
        }
        let srcs = q
            .projection
            .iter()
            .map(|t| {
                src(&self.slots, t).ok_or_else(|| DatalogError::UnsafeVariable {
                    clause: q.to_string(),
                    variable: t.as_var().expect("constants resolve").name().to_string(),
                })
            })
            .collect::<Result<Vec<Src>>>()?;
        answers.reserve(self.rows.len);
        let mut answer = Vec::with_capacity(srcs.len());
        for row in self.rows.iter() {
            answer.clear();
            answer.extend(srcs.iter().map(|s| s.get(row)));
            answers.insert(&answer)?;
        }
        Ok(answers)
    }
}

/// Evaluate a body against the database, returning all complete bindings.
fn eval_body(
    db: &EdbDatabase,
    body: &[Literal],
    opts: &EvalOptions,
    stats: &mut EvalStats,
) -> Result<Bindings> {
    let (steps, slots) = compile(body);
    let ctx = Ctx {
        db,
        opts,
        ranges: collect_ranges(body),
    };
    let mut idx = IndexCache::default();
    let mut rows = Rows::unit(slots.len());
    for step in &steps {
        match step {
            Step::Join(step) => rows = join(&ctx, &mut idx, stats, step, &rows)?,
            Step::AntiJoin(step) => anti_join(&ctx, &mut idx, stats, step, &mut rows)?,
            Step::Bind { from, slot } => {
                for row in rows.data.chunks_exact_mut(rows.width) {
                    row[*slot] = from.get(row);
                }
            }
            Step::Filter(c, l, r) => rows.retain(|row| compare(c, l.get(row), r.get(row)))?,
            Step::Unsafe(c, v) => {
                return Err(DatalogError::UnsafeVariable {
                    clause: c.to_string(),
                    variable: v.name().to_string(),
                })
            }
        }
        if rows.len == 0 {
            break;
        }
    }
    stats.scans += idx.built.len() as u64;
    Ok(Bindings { rows, slots })
}

/// Answer a conjunctive query with the default (index-enabled) options;
/// returns the answers — a relation of the projection's arity, each
/// answer once, in the order of its first derivation — and evaluation
/// statistics.
pub fn answer_query(db: &EdbDatabase, q: &Query) -> Result<(Relation, EvalStats)> {
    answer_query_with(db, q, &EvalOptions::default())
}

/// Answer a conjunctive query under explicit physical options —
/// [`EvalOptions::scan_only`] is the reference executor for differential
/// testing and seed-equivalent benchmarking.
pub fn answer_query_with(
    db: &EdbDatabase,
    q: &Query,
    opts: &EvalOptions,
) -> Result<(Relation, EvalStats)> {
    let _span = sqo_obs::span!("eval.answer_query");
    let mut stats = EvalStats::default();
    let answers = eval_body(db, &q.body, opts, &mut stats)?.project(q)?;
    Ok((answers, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_program, parse_query, Statement};

    fn answers(rel: &Relation) -> Vec<Vec<Const>> {
        rel.rows().map(<[Const]>::to_vec).collect()
    }

    fn db_from(src: &str) -> EdbDatabase {
        let mut db = EdbDatabase::new();
        for s in parse_program(src).unwrap() {
            match s {
                Statement::Fact(f) => {
                    db.insert_fact(&f).unwrap();
                }
                other => panic!("expected facts only: {other:?}"),
            }
        }
        db
    }

    #[test]
    fn simple_selection() {
        let db = db_from(r#"person(#1, "ann", 25). person(#2, "bob", 40). person(#3, "kim", 28)."#);
        let q = parse_query("Q(Name) <- person(X, Name, Age), Age < 30").unwrap();
        let (rows, stats) = answer_query(&db, &q).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.contains(&[Const::Str("ann".into())]));
        assert!(rows.contains(&[Const::Str("kim".into())]));
        assert!(stats.tuples_examined >= 3);
    }

    #[test]
    fn join_through_shared_variable() {
        let db = db_from(
            r#"student(#1, "s1"). student(#2, "s2").
               takes(#1, #10). takes(#2, #11).
               taught_by(#10, #20). taught_by(#11, #21).
               faculty(#20, "prof_a"). faculty(#21, "prof_b")."#,
        );
        let q = parse_query(
            "Q(SN, FN) <- student(S, SN), takes(S, Sec), taught_by(Sec, F), faculty(F, FN)",
        )
        .unwrap();
        let (rows, _) = answer_query(&db, &q).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.contains(&[Const::Str("s1".into()), Const::Str("prof_a".into())]));
    }

    #[test]
    fn negation_as_anti_join() {
        let db = db_from(r#"person(#1, 25). person(#2, 45). faculty(#2, 45)."#);
        let q = parse_query("Q(X) <- person(X, A), not faculty(X, A)").unwrap();
        let (rows, stats) = answer_query(&db, &q).unwrap();
        assert_eq!(answers(&rows), vec![vec![Const::Oid(1)]]);
        assert_eq!(stats.negation_probes, 2);
    }

    #[test]
    fn partially_bound_negation_is_existential() {
        // not faculty(X, B) with B unbound means "no faculty tuple with
        // this X at all".
        let db = db_from("person(#1, 25). person(#2, 45). faculty(#2, 99).");
        let q = parse_query("Q(X) <- person(X, A), not faculty(X, B)").unwrap();
        let (rows, _) = answer_query(&db, &q).unwrap();
        assert_eq!(answers(&rows), vec![vec![Const::Oid(1)]]);
    }

    #[test]
    fn repeated_unbound_negation_vars_must_agree() {
        // not r(X, B, B): only tuples whose 2nd and 3rd columns agree
        // count as matches.
        let db = db_from("p(#1). p(#2). r(#1, 5, 6). r(#2, 5, 5).");
        let q = parse_query("Q(X) <- p(X), not r(X, B, B)").unwrap();
        let (rows, _) = answer_query(&db, &q).unwrap();
        assert_eq!(answers(&rows), vec![vec![Const::Oid(1)]]);
    }

    #[test]
    fn constants_in_query_atoms() {
        let db = db_from(r#"student(#1, "john"). student(#2, "mary")."#);
        let q = parse_query(r#"Q(X) <- student(X, "john")"#).unwrap();
        let (rows, _) = answer_query(&db, &q).unwrap();
        assert_eq!(answers(&rows), vec![vec![Const::Oid(1)]]);
    }

    #[test]
    fn empty_relation_yields_no_answers() {
        let db = EdbDatabase::new();
        let q = parse_query("Q(X) <- nothing(X)").unwrap();
        let (rows, _) = answer_query(&db, &q).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn ground_query_projection() {
        let db = db_from("p(1).");
        let q = parse_query("Q(X, 99) <- p(X)").unwrap();
        let (rows, _) = answer_query(&db, &q).unwrap();
        assert_eq!(answers(&rows), vec![vec![Const::Int(1), Const::Int(99)]]);
    }

    #[test]
    fn arity_mismatch_detected_at_eval() {
        let db = db_from("p(1, 2).");
        let q = parse_query("Q(X) <- p(X)").unwrap();
        assert!(matches!(
            answer_query(&db, &q),
            Err(DatalogError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn incomparable_comparison_errors() {
        let db = db_from(r#"p("a")."#);
        let q = parse_query("Q(X) <- p(X), X < 3").unwrap();
        assert!(matches!(
            answer_query(&db, &q),
            Err(DatalogError::Incomparable { .. })
        ));
    }

    #[test]
    fn mixed_numeric_comparison() {
        let db = db_from("p(1). p(2). p(3).");
        let q = parse_query("Q(X) <- p(X), X <= 2.5").unwrap();
        let (rows, _) = answer_query(&db, &q).unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn of_two_equal_bounds_the_exclusive_one_is_kept() {
        for body in [
            "Q(X) <- p(X), X <= 25, X < 25, X >= 3, X > 3",
            "Q(X) <- p(X), X < 25, X <= 25, X > 3, X >= 3",
            "Q(X) <- p(X), 25 >= X, 25 > X, 3 <= X, 3 < X",
        ] {
            let q = parse_query(body).unwrap();
            let ranges = collect_ranges(&q.body);
            let want = (Some((Const::Int(3), false)), Some((Const::Int(25), false)));
            assert_eq!(ranges[&Var::new("X")], want, "{body}");
        }
        // Equal values of two kinds: the exclusive one still wins.
        let q = parse_query("Q(X) <- p(X), X <= 25, X < 25.0").unwrap();
        let (_, hi) = collect_ranges(&q.body)[&Var::new("X")];
        assert_eq!(hi, Some((Const::from(25.0), false)));
    }

    /// A variable also compared with a string gets no range, so no (here
    /// empty) probe decides which rows reach the string: the rows `X < 4`
    /// keeps do, and it errors as the scan does.
    #[test]
    fn a_variable_compared_with_a_number_and_a_string_gets_no_range() {
        let mut db = db_from("p(1). p(2). p(3). p(4). p(5). p(6). p(7). p(8).");
        db.declare_ordered_index(PredSym::new("p"), 0);
        let q = parse_query(r#"Q(X) <- p(X), X < 4, X < "a", X > 6"#).unwrap();
        assert!(collect_ranges(&q.body).is_empty());
        for opts in [EvalOptions::default(), EvalOptions::scan_only()] {
            assert!(matches!(
                answer_query_with(&db, &q, &opts),
                Err(DatalogError::Incomparable { .. })
            ));
        }
    }

    /// Past 2^53 `f64` no longer holds every integer: the ordered index
    /// keeps the `Int`s on either side of the `Real` between them apart,
    /// and the probe answers exactly what the scan does.
    #[test]
    fn a_range_probe_past_2_pow_53_answers_what_the_scan_does() {
        let big = 1_i64 << 53;
        let rows = [
            Const::from(big as f64),
            Const::Int(big - 1),
            Const::Int(big),
            Const::Int(big + 1),
        ];
        let mut db = EdbDatabase::new();
        db.declare_ordered_index(PredSym::new("p"), 0);
        for r in rows {
            db.insert(PredSym::new("p"), &[r]).unwrap();
        }
        for body in [
            format!("Q(X) <- p(X), X <= {big}"),
            format!("Q(X) <- p(X), X <= {big}, X < {}", big + 1),
            format!("Q(X) <- p(X), X <= {big}.0, X <= {big}"),
        ] {
            let q = parse_query(&body).unwrap();
            let (got, stats) = answer_query(&db, &q).unwrap();
            assert_eq!(stats.range_probes, 1, "{body}");
            let mut got = answers(&got);
            let mut want = answers(
                &answer_query_with(&db, &q, &EvalOptions::scan_only())
                    .unwrap()
                    .0,
            );
            got.sort();
            want.sort();
            assert_eq!(got, want, "{body}");
        }
    }

    #[test]
    fn greedy_order_starts_with_selective_constant() {
        // A large relation joined with a constant-selected small one: the
        // reorder should probe with bound values, keeping tuples_examined
        // near the selective path, not |big| * |small|.
        let mut src = String::new();
        for i in 0..100 {
            src.push_str(&format!("big({i}, {}). ", i % 7));
        }
        src.push_str("small(3).");
        let db = db_from(&src);
        let q = parse_query("Q(X) <- big(X, Y), small(Y)").unwrap();
        let (rows, stats) = answer_query(&db, &q).unwrap();
        assert!(!rows.is_empty());
        assert!(stats.tuples_examined < 100 * 2);
    }
}
