//! Differential test of the evaluator against an independent oracle.
//!
//! `indexed_differential.rs` compares the engine under two option sets —
//! both run the same compiled pipeline, so a bug in the shared ordering,
//! slot compilation or matching would go unseen. Here the reference is a
//! brute-force nested-loop evaluator written against plain tuple vectors:
//! no reordering, no indexes, no slots, bindings in a map.
//!
//! The seeded generator covers constants inside atoms, a variable repeated
//! inside one atom, ground and half-bound equalities, negation with
//! existential positions and repeated unbound variables, mixed `Int`/`Real`
//! comparisons including the `Incomparable` error, empty and undeclared
//! relations, unsafe variables and arity mismatches. It runs under both
//! feature configurations.

use sqo_datalog::eval::{answer_query_with, EvalOptions};
use sqo_datalog::program::EdbDatabase;
use sqo_datalog::{
    Atom, CmpOp, Comparison, Const, DatalogError, Literal, PredSym, Query, Term, Var, R64,
};
use std::collections::{BTreeMap, BTreeSet};

// ---------------------------------------------------------------- oracle

type Binding = BTreeMap<Var, Const>;
type Tables = BTreeMap<&'static str, Vec<Vec<Const>>>;

#[derive(Default, Debug)]
struct Oracle {
    rows: BTreeSet<Vec<Const>>,
    /// Some binding that every other literal accepts compares operands
    /// that have no order.
    incomparable: bool,
    /// Some such binding leaves a comparison or projected variable unbound.
    unbound: bool,
}

fn resolve(t: &Term, b: &Binding) -> Option<Const> {
    match t {
        Term::Const(c) => Some(*c),
        Term::Var(v) => b.get(v).copied(),
    }
}

/// `b` extended so that `atom` equals `tuple`, if it can be.
fn unify(atom: &Atom, tuple: &[Const], b: &Binding) -> Option<Binding> {
    let mut b = b.clone();
    for (t, c) in atom.args.iter().zip(tuple) {
        match t {
            Term::Const(k) if k != c => return None,
            Term::Var(v) if *b.entry(*v).or_insert(*c) != *c => return None,
            _ => {}
        }
    }
    Some(b)
}

fn brute_force(tables: &Tables, q: &Query) -> Oracle {
    let tuples = |a: &Atom| tables.get(a.pred.name()).map_or(&[][..], Vec::as_slice);
    let mut bindings = vec![Binding::new()];
    for l in &q.body {
        if let Literal::Pos(a) = l {
            let extend = |b: &Binding| -> Vec<Binding> {
                tuples(a).iter().filter_map(|t| unify(a, t, b)).collect()
            };
            bindings = bindings.iter().flat_map(extend).collect();
        }
    }
    let mut out = Oracle::default();
    'binding: for mut b in bindings {
        // An equality with one resolvable side defines the other.
        while let Some((v, c)) = q.body.iter().find_map(|l| match l {
            Literal::Cmp(c) if c.op == CmpOp::Eq => match (&c.lhs, &c.rhs) {
                (Term::Var(v), t) | (t, Term::Var(v)) if !b.contains_key(v) => {
                    resolve(t, &b).map(|c| (*v, c))
                }
                _ => None,
            },
            _ => None,
        }) {
            b.insert(v, c);
        }
        let (mut incomparable, mut unbound) = (false, false);
        for l in &q.body {
            match l {
                Literal::Pos(_) => {}
                // Variables the binding leaves open are existential.
                Literal::Neg(a) if tuples(a).iter().any(|t| unify(a, t, &b).is_some()) => {
                    continue 'binding
                }
                Literal::Neg(_) => {}
                Literal::Cmp(c) => match (resolve(&c.lhs, &b), resolve(&c.rhs, &b)) {
                    (Some(l), Some(r)) => {
                        let holds = match c.op {
                            CmpOp::Eq => Some(l == r),
                            CmpOp::Ne => Some(l != r),
                            op => l.order(&r).map(|o| op.test(o)),
                        };
                        match holds {
                            Some(true) => {}
                            Some(false) => continue 'binding,
                            None => incomparable = true,
                        }
                    }
                    _ => unbound = true,
                },
            }
        }
        let row: Option<Vec<Const>> = q.projection.iter().map(|t| resolve(t, &b)).collect();
        out.incomparable |= incomparable;
        out.unbound |= unbound || (!incomparable && row.is_none());
        if let (false, false, Some(row)) = (incomparable, unbound, row) {
            out.rows.insert(row);
        }
    }
    out
}

// ------------------------------------------------------------- generator

/// Minimal deterministic PRNG (Numerical Recipes LCG).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % bound.max(1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len() as u64) as usize]
    }
}

/// What a column holds. `Num` mixes ints with reals that are never whole,
/// so `Int`/`Real` meet in order comparisons but never in an equality
/// (where binding-by-copy and numeric equality would part ways).
#[derive(Clone, Copy, PartialEq)]
enum Col {
    Int,
    Num,
    Str,
    /// Ints and strings: an order comparison fails on some rows only.
    Mixed,
    Oid,
}

const PREDS: [(&str, &[Col]); 6] = [
    ("p", &[Col::Int, Col::Int]),
    ("q", &[Col::Int, Col::Num]),
    ("r", &[Col::Int, Col::Str, Col::Int]),
    ("s", &[Col::Mixed, Col::Int]),
    ("o", &[Col::Oid, Col::Oid]),
    // Declared, never populated.
    ("e", &[Col::Int]),
];
/// In queries only: no such relation.
const UNDECLARED: (&str, &[Col]) = ("u", &[Col::Int, Col::Int]);
const VARS: [&str; 5] = ["X", "Y", "Z", "W", "V"];
const ORDER_OPS: [CmpOp; 4] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

fn value(rng: &mut Lcg, col: Col) -> Const {
    match col {
        Col::Int => Const::Int(rng.below(4) as i64),
        Col::Num if rng.chance(50) => Const::Real(R64::new(rng.below(4) as f64 + 0.5)),
        Col::Num => Const::Int(rng.below(4) as i64),
        Col::Str => Const::Str(rng.pick(&["a", "b", "c"]).into()),
        Col::Mixed if rng.chance(15) => value(rng, Col::Str),
        Col::Mixed => value(rng, Col::Int),
        Col::Oid => Const::Oid(rng.below(4)),
    }
}

struct Case {
    db: EdbDatabase,
    tables: Tables,
    query: Query,
    /// An order comparison may meet operands of different types.
    type_mixing: bool,
    /// Some atom's arity differs from its relation's.
    arity_mismatch: bool,
}

fn atom(rng: &mut Lcg, vars: &mut Vec<(Term, Col)>, fresh: Option<&str>) -> Atom {
    // Mostly the populated relations; sometimes the empty or missing one.
    let (name, cols) = match rng.below(100) {
        0..=3 => UNDECLARED,
        4..=7 => PREDS[5],
        _ => rng.pick(&PREDS[..5]),
    };
    let mut locals = 0;
    let args = cols
        .iter()
        .map(|&col| match fresh {
            // A negation-local variable, maybe repeating the previous one.
            Some(prefix) if rng.chance(35) => {
                locals += usize::from(locals == 0 || rng.chance(60));
                Term::var(format!("{prefix}{locals}"))
            }
            _ if rng.chance(12) => Term::Const(value(rng, col)),
            _ => {
                // Mostly a variable whose other columns can hold the same
                // kind of value, so that joins have answers.
                let fits = |v: &Term| {
                    let kind = |c: Col| match c {
                        Col::Int | Col::Num | Col::Mixed => 0,
                        Col::Str => 1,
                        Col::Oid => 2,
                    };
                    vars.iter().all(|(t, c)| t != v || kind(*c) == kind(col))
                };
                let tries: Vec<Term> = (0..4).map(|_| Term::var(rng.pick(&VARS))).collect();
                let v = *tries.iter().find(|v| fits(v)).unwrap_or(&tries[0]);
                if fresh.is_none() && !vars.iter().any(|(t, _)| *t == v) {
                    vars.push((v, col));
                }
                v
            }
        })
        .collect();
    Atom::new(name, args)
}

/// Whether some order comparison can meet operands without an order:
/// the kinds of value (number, string, OID) each of its sides can take,
/// through any column its variable joins on and any equality it is in,
/// are not one orderable kind.
fn may_mix_types(body: &[Literal]) -> bool {
    const OID: u8 = 4;
    let kind = |c: &Const| match c {
        Const::Int(_) | Const::Real(_) => 1,
        Const::Str(_) => 2,
        _ => OID,
    };
    let mut kinds: BTreeMap<Var, u8> = BTreeMap::new();
    for l in body {
        let Literal::Pos(a) = l else { continue };
        let cols = PREDS
            .iter()
            .chain([&UNDECLARED])
            .find(|(n, _)| *n == a.pred.name());
        for (t, col) in a.args.iter().zip(cols.expect("a known predicate").1) {
            if let Term::Var(v) = t {
                *kinds.entry(*v).or_default() |= match col {
                    Col::Int | Col::Num => 1,
                    Col::Str => 2,
                    Col::Mixed => 3,
                    Col::Oid => OID,
                };
            }
        }
    }
    let of = |kinds: &BTreeMap<Var, u8>, t: &Term| match t {
        Term::Const(c) => kind(c),
        Term::Var(v) => kinds.get(v).copied().unwrap_or(0),
    };
    let cmps = || {
        body.iter().filter_map(|l| match l {
            Literal::Cmp(c) => Some(c),
            _ => None,
        })
    };
    // Twice: an equality can pass on what another one passed to it.
    for c in cmps().chain(cmps()).filter(|c| c.op == CmpOp::Eq) {
        let both = of(&kinds, &c.lhs) | of(&kinds, &c.rhs);
        for v in c.vars() {
            *kinds.entry(*v).or_default() |= both;
        }
    }
    cmps().any(|c| {
        let both = of(&kinds, &c.lhs) | of(&kinds, &c.rhs);
        !matches!(c.op, CmpOp::Eq | CmpOp::Ne) && (both.count_ones() > 1 || both == OID)
    })
}

fn case(seed: u64) -> Case {
    let mut rng = Lcg(seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(7));
    let mut db = EdbDatabase::new();
    let mut tables = Tables::new();
    for (name, cols) in PREDS {
        let pred = PredSym::new(name);
        db.declare(pred, cols.len());
        let rows = tables.entry(name).or_default();
        for _ in 0..if name == "e" { 0 } else { 4 + rng.below(14) } {
            let tuple: Vec<Const> = cols.iter().map(|&c| value(&mut rng, c)).collect();
            if db.insert(pred, &tuple).unwrap() {
                rows.push(tuple);
            }
        }
        for col in 0..cols.len() {
            if rng.chance(45) {
                db.declare_hash_index(pred, col);
            }
            if rng.chance(45) {
                db.declare_ordered_index(pred, col);
            }
        }
    }

    // Variables with a value once the body has run, with their column type.
    let mut vars: Vec<(Term, Col)> = Vec::new();
    let mut body: Vec<Literal> = Vec::new();
    for _ in 0..1 + rng.below(3) {
        body.push(Literal::Pos(atom(&mut rng, &mut vars, None)));
    }
    // Equalities: ground (`E1 = 3`, or on a joined variable) and
    // half-bound (`E2 = X`); the new variable may be projected or compared.
    if rng.chance(30) {
        let col = rng.pick(&[Col::Int, Col::Str]);
        let v = if vars.is_empty() || rng.chance(50) {
            vars.push((Term::var("E1"), col));
            Term::var("E1")
        } else {
            rng.pick(&vars).0
        };
        body.push(Literal::Cmp(Comparison::eq(
            v,
            Term::Const(value(&mut rng, col)),
        )));
    }
    if !vars.is_empty() && rng.chance(25) {
        let (from, col) = rng.pick(&vars);
        let e2 = Term::var("E2");
        let (lhs, rhs) = if rng.chance(50) {
            (e2, from)
        } else {
            (from, e2)
        };
        body.push(Literal::Cmp(Comparison::eq(lhs, rhs)));
        vars.push((e2, col));
    }
    for _ in 0..rng.below(2) + rng.below(2) {
        if vars.is_empty() {
            break;
        }
        let (v, col) = rng.pick(&vars);
        let mixed = rng.chance(8);
        let against = match col {
            Col::Int | Col::Num if mixed => Col::Str,
            Col::Int | Col::Num => Col::Num,
            Col::Str if mixed => Col::Int,
            other => other,
        };
        // OIDs have no order at all: mostly (in)equality on them.
        let op = if rng.chance(if col == Col::Oid { 10 } else { 70 }) {
            rng.pick(&ORDER_OPS)
        } else {
            rng.pick(&[CmpOp::Eq, CmpOp::Ne])
        };
        // No `Int = Real`: see `Col`.
        let against = if op == CmpOp::Eq && against == Col::Num {
            Col::Int
        } else {
            against
        };
        let k = Term::Const(value(&mut rng, against));
        let (lhs, rhs) = if rng.chance(80) { (v, k) } else { (k, v) };
        body.push(Literal::Cmp(Comparison::new(lhs, op, rhs)));
    }
    if rng.chance(40) {
        let local = rng.chance(50).then_some("N");
        let neg = atom(&mut rng, &mut vars.clone(), local);
        // Joined variables only, besides the negation's own.
        let known = |t: &Term| match t {
            Term::Var(v) => v.name().starts_with('N') || vars.iter().any(|(k, _)| k == t),
            Term::Const(_) => true,
        };
        if neg.args.iter().all(known) {
            let at = rng.below(body.len() as u64 + 1) as usize;
            body.insert(at, Literal::Neg(neg));
        }
    }
    let mut projection: Vec<Term> = vars
        .iter()
        .map(|(t, _)| *t)
        .filter(|_| rng.chance(60))
        .collect();
    if projection.is_empty() || rng.chance(10) {
        projection.push(Term::int(7));
    }
    // Unsafe: a variable nothing binds, compared or projected. (Not
    // compared next to an existential negation: the two run last, in body
    // order, so which fires first is the body's choice, not the oracle's.)
    if rng.chance(6) {
        let ghost = Term::var("G");
        let existential = |l: &Literal| matches!(l, Literal::Neg(a) if a.vars().any(|v| v.name().starts_with('N')));
        if rng.chance(50) && !body.iter().any(existential) {
            body.push(Literal::cmp(ghost, CmpOp::Lt, Term::int(3)));
        } else {
            projection.push(ghost);
        }
    }
    let mut arity_mismatch = false;
    if rng.chance(9) {
        let at = rng.below(body.len() as u64) as usize;
        if let Literal::Pos(a) | Literal::Neg(a) = &mut body[at] {
            if a.pred.name() != UNDECLARED.0 {
                if a.args.len() > 1 && rng.chance(50) {
                    a.args.pop();
                } else {
                    a.args.push(Term::int(1));
                }
                arity_mismatch = true;
            }
        }
    }
    // Shuffle: the evaluator's order must not depend on the body's.
    for i in (1..body.len()).rev() {
        body.swap(i, rng.below(i as u64 + 1) as usize);
    }
    Case {
        db,
        tables,
        type_mixing: may_mix_types(&body),
        query: Query::new("d", projection, body),
        arity_mismatch,
    }
}

// ------------------------------------------------------------------ test

#[test]
fn engine_matches_brute_force_oracle() {
    let (mut nonempty, mut incomparable, mut unbound, mut arity) = (0, 0, 0, 0);
    for seed in 0u64..800 {
        let c = case(seed);
        let oracle = brute_force(&c.tables, &c.query);
        for opts in [EvalOptions::default(), EvalOptions::scan_only()] {
            let got = answer_query_with(&c.db, &c.query, &opts)
                .map(|(rows, _)| rows.rows().map(<[Const]>::to_vec).collect::<BTreeSet<_>>());
            let ctx = format!(
                "seed {seed} {opts:?}\n  query {}\n  got {got:?}\n  oracle {oracle:?}",
                c.query
            );
            if c.arity_mismatch {
                // Raised when a binding reaches the atom; with none, the
                // answer is empty.
                match &got {
                    Err(DatalogError::ArityMismatch { .. }) => arity += 1,
                    Ok(rows) => assert!(rows.is_empty(), "{ctx}"),
                    Err(_) => assert!(c.type_mixing || oracle.unbound, "{ctx}"),
                }
                continue;
            }
            match &got {
                Ok(rows) => {
                    assert!(!oracle.incomparable && !oracle.unbound, "{ctx}");
                    assert_eq!(rows, &oracle.rows, "{ctx}");
                    nonempty += usize::from(!rows.is_empty());
                }
                // A comparison runs as soon as its variables are bound,
                // so it may also fail on a binding a later literal drops.
                Err(DatalogError::Incomparable { .. }) => {
                    assert!(c.type_mixing, "{ctx}");
                    incomparable += 1;
                }
                Err(DatalogError::UnsafeVariable { .. }) => {
                    assert!(oracle.unbound, "{ctx}");
                    unbound += 1;
                }
                Err(other) => panic!("unexpected {other}: {ctx}"),
            }
            if oracle.incomparable {
                assert!(
                    matches!(got, Err(DatalogError::Incomparable { .. })),
                    "{ctx}"
                );
            } else if oracle.unbound {
                assert!(
                    matches!(
                        got,
                        Err(DatalogError::UnsafeVariable { .. } | DatalogError::Incomparable { .. })
                    ),
                    "{ctx}"
                );
            }
        }
    }
    // Both option sets run every case: the counts are doubled.
    let counts = format!(
        "non-empty {nonempty}, incomparable {incomparable}, unbound {unbound}, arity {arity}"
    );
    assert!(
        nonempty >= 500 && incomparable >= 40 && unbound >= 20 && arity >= 20,
        "the generator lost coverage: {counts}"
    );
}
