//! Property-based differential test for the indexed executor.
//!
//! Each generated case builds a random EDB (mixed int/string/oid
//! columns), declares a random assortment of hash and ordered indexes,
//! and evaluates a random conjunctive query — positive atoms, optional
//! negation, optional comparison literals — under both
//! [`EvalOptions::default`] (declared-index probes) and
//! [`EvalOptions::scan_only`] (the pre-index engine). The two executors
//! must agree exactly: identical sorted answer sets on success, and
//! identical error status on failure (an index probe must never paper
//! over an incomparable-operand error that the scan would raise).
//!
//! Cases are driven by a seeded LCG so every run — including the
//! `--no-default-features` CI leg — replays the same 150+ cases
//! deterministically; a failure prints its seed for replay.

use sqo_datalog::eval::{answer_query_with, EvalOptions};
use sqo_datalog::program::EdbDatabase;
use sqo_datalog::{Atom, CmpOp, Comparison, Const, Literal, PredSym, Query, Term};

const VARS: [&str; 4] = ["X", "Y", "Z", "W"];
const PREDS: [(&str, usize); 3] = [("p", 2), ("q", 2), ("r", 3)];
const CMP_OPS: [CmpOp; 6] = [
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
    CmpOp::Eq,
    CmpOp::Ne,
];

/// Minimal deterministic PRNG (Numerical Recipes LCG) — no external
/// dependency, stable across platforms and feature sets.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }
}

/// A random constant over a mixed domain: ints dominate (so range
/// probes fire), with strings and OIDs mixed in to stress the
/// type-homogeneity guards and incomparable-operand error paths.
fn rand_const(rng: &mut Lcg) -> Const {
    match rng.below(7) {
        0..=3 => Const::Int(rng.below(6) as i64),
        4 | 5 => Const::Str(["a", "b", "c"][rng.below(3) as usize].into()),
        _ => Const::Oid(rng.below(4)),
    }
}

fn rand_atom(rng: &mut Lcg) -> Atom {
    let (name, arity) = PREDS[rng.below(PREDS.len() as u64) as usize];
    let args = (0..arity)
        .map(|_| {
            if rng.chance(80) {
                Term::var(VARS[rng.below(VARS.len() as u64) as usize])
            } else {
                Term::Const(rand_const(rng))
            }
        })
        .collect();
    Atom::new(name, args)
}

/// Build a random EDB with random index declarations, then a *safe*
/// random query (negation and comparisons restricted to positively
/// bound variables).
fn rand_case(rng: &mut Lcg) -> (EdbDatabase, Query) {
    let mut db = EdbDatabase::new();
    for (name, arity) in PREDS {
        let pred = PredSym::new(name);
        db.declare(pred, arity);
        for _ in 0..rng.below(14) {
            let tuple: Vec<Const> = (0..arity).map(|_| rand_const(rng)).collect();
            db.insert(pred, &tuple).unwrap();
        }
        for col in 0..arity {
            if rng.chance(50) {
                db.declare_hash_index(pred, col);
            }
            if rng.chance(50) {
                db.declare_ordered_index(pred, col);
            }
        }
    }

    let pos: Vec<Atom> = (0..1 + rng.below(3)).map(|_| rand_atom(rng)).collect();

    // Positively bound variables, in first-occurrence order.
    let mut bound: Vec<Term> = Vec::new();
    for a in &pos {
        for t in &a.args {
            if matches!(t, Term::Var(_)) && !bound.contains(t) {
                bound.push(*t);
            }
        }
    }
    if bound.is_empty() {
        // Fully ground body; project a constant to keep the query safe.
        bound.push(Term::int(0));
    }

    let mut body: Vec<Literal> = pos.into_iter().map(Literal::Pos).collect();
    if rng.chance(40) {
        let n = rand_atom(rng);
        // Safety: every variable of a negated atom must occur positively.
        if n.args
            .iter()
            .all(|t| !matches!(t, Term::Var(_)) || bound.contains(t))
        {
            body.push(Literal::Neg(n));
        }
    }
    for _ in 0..rng.below(3) {
        let v = Term::var(VARS[rng.below(VARS.len() as u64) as usize]);
        if bound.contains(&v) {
            let op = CMP_OPS[rng.below(CMP_OPS.len() as u64) as usize];
            body.push(Literal::Cmp(Comparison::new(
                v,
                op,
                Term::Const(rand_const(rng)),
            )));
        }
    }

    (db, Query::new("d", bound, body))
}

fn run(db: &EdbDatabase, q: &Query, opts: &EvalOptions) -> Result<Vec<Vec<Const>>, String> {
    match answer_query_with(db, q, opts) {
        Ok((answers, _)) => {
            let mut rows: Vec<Vec<Const>> = answers.rows().map(<[Const]>::to_vec).collect();
            rows.sort();
            Ok(rows)
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Indexed and scan-only execution agree on every random case:
/// identical sorted answer sets, or errors on both sides.
#[test]
fn indexed_matches_scan_only_on_random_cases() {
    let mut nonempty = 0usize;
    let mut errored = 0usize;
    for seed in 0u64..200 {
        let mut rng = Lcg(seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1));
        let (db, q) = rand_case(&mut rng);
        let indexed = run(&db, &q, &EvalOptions::default());
        let scan = run(&db, &q, &EvalOptions::scan_only());
        match (&indexed, &scan) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a, b, "seed {seed}: answer sets differ for [{q}]");
                if !a.is_empty() {
                    nonempty += 1;
                }
            }
            (Err(_), Err(_)) => errored += 1,
            _ => panic!(
                "seed {seed}: error-status divergence for [{q}]: indexed={indexed:?} scan={scan:?}"
            ),
        }
    }
    // The generator must actually exercise both interesting regimes.
    assert!(
        nonempty >= 20,
        "only {nonempty} non-empty cases — generator too weak"
    );
    assert!(errored >= 1, "no incomparable-operand cases generated");
}

/// Deterministic 3-hop path differential: a path query over a dense
/// binary relation, with hash indexes on both endpoints, so every hop
/// after the first is a declared-index probe.
#[test]
fn three_hop_path_matches_scan_only() {
    let mut db = EdbDatabase::new();
    let e = PredSym::new("e");
    db.declare(e, 2);
    for i in 0u64..40 {
        for j in 0u64..40 {
            if (i * 7 + j * 3) % 11 == 0 {
                db.insert(e, &[Const::Oid(i), Const::Oid(j)]).unwrap();
            }
        }
    }
    db.declare_hash_index(e, 0);
    db.declare_hash_index(e, 1);

    let (x, y, z, w) = (
        Term::var("X"),
        Term::var("Y"),
        Term::var("Z"),
        Term::var("W"),
    );
    let q = Query::new(
        "chain",
        vec![x, w],
        vec![
            Literal::Pos(Atom::new("e", vec![x, y])),
            Literal::Pos(Atom::new("e", vec![y, z])),
            Literal::Pos(Atom::new("e", vec![z, w])),
        ],
    );
    let (indexed, stats) = answer_query_with(&db, &q, &EvalOptions::default()).unwrap();
    let (scan, _) = answer_query_with(&db, &q, &EvalOptions::scan_only()).unwrap();
    let mut indexed: Vec<&[Const]> = indexed.rows().collect();
    let mut scan: Vec<&[Const]> = scan.rows().collect();
    indexed.sort();
    scan.sort();
    assert!(!indexed.is_empty());
    assert_eq!(indexed, scan);
    assert!(stats.index_probes > 0, "{stats:?}");
}
