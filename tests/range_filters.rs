//! A range probe bounded by a body's comparisons must answer exactly what
//! the scan-only executor answers, which runs every comparison on every
//! row: the same sorted answers, and an error exactly when the scan
//! errors.
//!
//! The bodies are one atom over an ordered-indexed `Int` column and one
//! to three comparisons on it — `<`, `<=`, `>`, `>=`, either operand
//! order — against constants from a small pool, so that equal values
//! with both inclusivities, `Int`s against `Real`s of the same value
//! (2^53 among them, where `f64` stops holding every integer), and one
//! incomparable string all come up. A second base mixes `Int`s and
//! `Real`s in the indexed column itself, ordered-indexed in one relation
//! and hash-indexed in another, and every way of asking for one value
//! there — a `=` filter either side of the atom, a closed range, the
//! constant in the atom — answers the same. Cases are driven by a seeded
//! LCG; a failure prints its seed.

use semantic_sqo::datalog::eval::{answer_query_with, EvalOptions};
use semantic_sqo::datalog::parser::parse_query;
use semantic_sqo::datalog::program::{EdbDatabase, Relation};
use semantic_sqo::datalog::{Atom, CmpOp, Comparison, Const, Literal, PredSym, Query, Term};
use semantic_sqo::objdb::{execute, execute_with, ExecOptions, ObjectDb, Value};
use semantic_sqo::odl::fixtures::university_schema;
use std::cmp::Ordering;

const OPS: [CmpOp; 4] = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];

/// 2^53: the first integer past which `f64` skips integers.
const BIG: i64 = 1 << 53;

/// Numerical Recipes LCG: deterministic, no dependency.
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
        self.next() % bound
    }
}

/// `p(I, V)`: 40 rows, `V` in `0..13` with repeats, an ordered index on
/// `V` and a hash index on `I`.
fn base() -> EdbDatabase {
    let p = PredSym::new("p");
    let mut db = EdbDatabase::new();
    db.declare(p, 2);
    for i in 0..40 {
        db.insert(p, &[Const::Int(i), Const::Int(i * 7 % 13)])
            .unwrap();
    }
    db.declare_ordered_index(p, 1);
    db.declare_hash_index(p, 0);
    db
}

/// `p(I, V)` and `h(I, V)`: 36 rows each, `V` cycling through `Int`s
/// and `Real`s of one value — 3 and 3.0, 2^53 and 2^53.0 — with 4 and
/// 2^53 + 1 between and beside them; an ordered index on `p`'s `V`, a
/// hash index on `h`'s.
fn mixed_base() -> EdbDatabase {
    let values = [
        Const::Int(3),
        Const::from(3.0),
        Const::Int(4),
        Const::Int(BIG),
        Const::from(BIG as f64),
        Const::Int(BIG + 1),
    ];
    let mut db = EdbDatabase::new();
    for pred in ["p", "h"] {
        let pred = PredSym::new(pred);
        db.declare(pred, 2);
        for i in 0..36 {
            db.insert(pred, &[Const::Int(i), values[i as usize % values.len()]])
                .unwrap();
        }
    }
    db.declare_ordered_index(PredSym::new("p"), 1);
    db.declare_hash_index(PredSym::new("h"), 1);
    db
}

/// A bounding constant: `Int`s and `Real`s sharing values, so bounds tie;
/// small, or (`big`) around 2^53, where `f64` has no 2^53 + 1 and its
/// next real is 2^53 + 2.
fn constant(rng: &mut Lcg, big: bool) -> Const {
    match (rng.below(5), big) {
        (0..=2, false) => Const::Int([4, 8][rng.below(2) as usize]),
        (_, false) => Const::from([4.0, 8.0, 8.5][rng.below(3) as usize]),
        (0..=2, true) => Const::Int([BIG - 1, BIG, BIG + 1][rng.below(3) as usize]),
        (_, true) => Const::from([BIG - 1, BIG, BIG + 2][rng.below(3) as usize] as f64),
    }
}

/// A comparison as `V op k`, whichever way it is written.
fn as_upper_or_lower(c: &Comparison) -> (Const, CmpOp) {
    match (&c.lhs, &c.rhs) {
        (Term::Var(_), Term::Const(k)) => (*k, c.op),
        (Term::Const(k), Term::Var(_)) => (*k, c.op.flip()),
        _ => unreachable!("the generator writes `V op k` or `k op V`"),
    }
}

fn random_query(rng: &mut Lcg, pred: &str) -> Query {
    let (i, v) = (Term::var("I"), Term::var("V"));
    let mut body = vec![Literal::Pos(Atom::new(pred, vec![i, v]))];
    let mut has_str = false;
    // One body in four bounds around 2^53.
    let big = rng.below(4) == 0;
    for _ in 0..1 + rng.below(3) {
        // At most one string a body: incomparable with the column.
        let k = if !has_str && rng.below(6) == 0 {
            has_str = true;
            Const::Str("a".into())
        } else {
            constant(rng, big)
        };
        let op = OPS[rng.below(4) as usize];
        let c = if rng.below(2) == 0 {
            Comparison::new(v, op, Term::Const(k))
        } else {
            Comparison::new(Term::Const(k), op.flip(), v)
        };
        body.push(Literal::Cmp(c));
    }
    if rng.below(3) == 0 {
        body.rotate_left(1); // comparisons first, the atom last
    }
    let projection = match rng.below(3) {
        0 => vec![i],
        1 => vec![v],
        _ => vec![i, v],
    };
    Query::new("q", projection, body)
}

fn sorted(
    db: &EdbDatabase,
    q: &Query,
    opts: &EvalOptions,
) -> Result<(Vec<Vec<Const>>, u64), String> {
    let (answers, stats) = answer_query_with(db, q, opts).map_err(|e| e.to_string())?;
    let mut rows: Vec<Vec<Const>> = answers.rows().map(<[Const]>::to_vec).collect();
    rows.sort();
    Ok((rows, stats.range_probes))
}

/// Two comparisons bounding the same side with equal values, one
/// inclusive and one not (`V < 6`, `V <= 6.0`).
fn has_equal_bounds_of_both_inclusivities(q: &Query) -> bool {
    let bounds: Vec<(Const, CmpOp)> = q
        .body
        .iter()
        .filter_map(|l| match l {
            Literal::Cmp(c) => Some(as_upper_or_lower(c)),
            _ => None,
        })
        .collect();
    let upper = |op: CmpOp| matches!(op, CmpOp::Lt | CmpOp::Le);
    let inclusive = |op: CmpOp| matches!(op, CmpOp::Le | CmpOp::Ge);
    bounds.iter().enumerate().any(|(n, (a, op_a))| {
        bounds[n + 1..].iter().any(|(b, op_b)| {
            upper(*op_a) == upper(*op_b)
                && inclusive(*op_a) != inclusive(*op_b)
                && a.order(b) == Some(Ordering::Equal)
        })
    })
}

/// Counts of the regimes [`differential`] reached.
#[derive(Default)]
struct Reached {
    probed: usize,
    errored: usize,
    tied: usize,
    nonempty: usize,
}

/// Indexed and scan-only answers of `seeds` random bodies over `pred`
/// agree, or both error.
fn differential(db: &EdbDatabase, pred: &str, seeds: std::ops::Range<u64>) -> Reached {
    let mut reached = Reached::default();
    for seed in seeds {
        let mut rng = Lcg(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(7));
        let q = random_query(&mut rng, pred);
        let indexed = sorted(db, &q, &EvalOptions::default());
        let scan = sorted(db, &q, &EvalOptions::scan_only());
        match (&indexed, &scan) {
            (Ok((got, range_probes)), Ok((want, _))) => {
                assert_eq!(got, want, "seed {seed}: [{q}]");
                reached.probed += usize::from(*range_probes > 0);
                reached.nonempty += usize::from(!got.is_empty());
                reached.tied += usize::from(has_equal_bounds_of_both_inclusivities(&q));
            }
            (Err(_), Err(_)) => reached.errored += 1,
            _ => panic!("seed {seed}: [{q}]: indexed {indexed:?}, scan {scan:?}"),
        }
    }
    reached
}

#[test]
fn range_probed_bodies_answer_what_the_scan_answers() {
    let Reached {
        probed,
        errored,
        tied,
        nonempty,
    } = differential(&base(), "p", 0..600);
    // The generator reaches every regime the range bounds have to get right.
    assert!(probed >= 300, "only {probed} range-probed cases");
    assert!(nonempty >= 200, "only {nonempty} non-empty cases");
    assert!(tied >= 40, "only {tied} cases with tied bounds");
    assert!(errored >= 100, "only {errored} incomparable cases");

    // Over a column mixing `Int`s and `Real`s, ordered- or hash-indexed.
    let mixed = mixed_base();
    let ordered = differential(&mixed, "p", 0..300);
    let hashed = differential(&mixed, "h", 300..600);
    assert!(
        ordered.probed >= 150,
        "only {} range-probed cases",
        ordered.probed
    );
    assert_eq!(hashed.probed, 0, "`h` has no ordered index");
    for reached in [&ordered, &hashed] {
        assert!(
            reached.nonempty >= 100,
            "only {} non-empty cases",
            reached.nonempty
        );
    }
}

/// One value asked for every way there is — `V = k`, `k = V` before the
/// atom, `V >= k, V <= k`, the constant in the atom — over the ordered-
/// and the hash-indexed mixed column, indexed and scan-only: one answer
/// set, the rows holding that value whichever kind it was stored as.
#[test]
fn every_way_of_asking_for_a_value_answers_the_same() {
    let db = mixed_base();
    // Each value with the number of rows holding it: 3 and 3.0 are one
    // value, stored both ways; so are 2^53 and 2^53.0; 2^53 + 1 is not.
    let values = [
        (Const::Int(3), 12),
        (Const::from(3.0), 12),
        (Const::Int(4), 6),
        (Const::from(4.5), 0),
        (Const::Int(BIG - 1), 0),
        (Const::Int(BIG), 12),
        (Const::from(BIG as f64), 12),
        (Const::Int(BIG + 1), 6),
        (Const::from((BIG + 2) as f64), 0),
    ];
    for pred in ["p", "h"] {
        for (k, held) in values {
            let (i, v, k_) = (Term::var("I"), Term::var("V"), Term::Const(k));
            let atom = |arg| Literal::Pos(Atom::new(pred, vec![i, arg]));
            let cmp = |l, op, r| Literal::Cmp(Comparison::new(l, op, r));
            let bodies = [
                vec![atom(v), cmp(v, CmpOp::Eq, k_)],
                vec![cmp(k_, CmpOp::Eq, v), atom(v)],
                vec![atom(v), cmp(v, CmpOp::Ge, k_), cmp(v, CmpOp::Le, k_)],
                vec![atom(k_)],
            ];
            let mut first = None;
            for body in bodies {
                let q = Query::new("q", vec![i], body);
                let (got, _) = sorted(&db, &q, &EvalOptions::default()).unwrap();
                let (scan, _) = sorted(&db, &q, &EvalOptions::scan_only()).unwrap();
                assert_eq!(got, scan, "{pred}, {k}: [{q}]");
                assert_eq!(got.len(), held, "{pred}, {k}: [{q}]");
                assert_eq!(
                    first.get_or_insert_with(|| got.clone()),
                    &got,
                    "{pred}, {k}: [{q}]"
                );
            }
        }
    }
}

/// Answers come back in the order of their first derivation, each once:
/// by age on the range probe, by creation on the scan.
#[test]
fn execute_keeps_the_first_occurrence_order() {
    let mut db = ObjectDb::new(university_schema());
    for (name, age) in [
        ("ann", 30),
        ("bob", 20),
        ("ann", 25),
        ("cy", 22),
        ("bob", 40),
    ] {
        db.create(
            "Person",
            vec![("name", name.into()), ("age", Value::Int(age))],
        )
        .unwrap();
    }
    let q = parse_query("Q(N) <- person(X, N, A, Ad), A < 35").unwrap();
    let names = |(answers, _): (Relation, _)| {
        answers
            .rows()
            .map(|row| row[0].to_string())
            .collect::<Vec<_>>()
    };
    let (answers, cost) = execute(&db, &q).unwrap();
    assert_eq!(cost.range_probes, 1, "{cost}");
    assert_eq!(names((answers, cost)), [r#""bob""#, r#""cy""#, r#""ann""#]);
    let scan = execute_with(&db, &q, ExecOptions::scan_only()).unwrap();
    assert_eq!(names(scan), [r#""ann""#, r#""bob""#, r#""cy""#]);
}
