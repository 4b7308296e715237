//! Randomized semantic-equivalence properties of the canonical form and
//! of standardize-apart, feeding the differential fuzz harness's core
//! assumption: **`canonical_hash` agreement implies answer-set
//! equality**. The Step-3 search dedups variants on `canonical_hash`, so
//! if two alpha-variant queries ever hashed equal while answering
//! differently, the search could silently drop a semantically distinct
//! candidate — or the plan cache could retarget a wrong template.
//!
//! The suite generates 200 query pairs per property from a seeded PRNG
//! (deterministic, no time dependence): alpha-variants (variable
//! permutation + body shuffle) must agree on form, hash and answers;
//! independently generated pairs must answer identically *whenever*
//! their hashes agree; standardizing a constraint apart from a query's
//! variable set must never capture a query variable; and every compiled
//! residue variable must be in the apart namespace.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sqo_datalog::eval::answer_query;
use sqo_datalog::parser::parse_constraint;
use sqo_datalog::program::EdbDatabase;
use sqo_datalog::residue::ResidueSet;
use sqo_datalog::subst::{standardize_apart, APART};
use sqo_datalog::{
    Atom, CmpOp, Comparison, Const, ConstraintHead, Literal, PredSym, Query, Term, Var,
};
use std::collections::BTreeSet;

const PAIRS: usize = 200;
const VAR_NAMES: [&str; 5] = ["V0", "V1", "V2", "V3", "V4"];

/// A fixed EDB: p/2, q/2, r/3 over a small integer domain, dense enough
/// that random conjunctive joins usually have non-empty answers.
fn random_edb(rng: &mut StdRng) -> EdbDatabase {
    let mut db = EdbDatabase::new();
    let specs: [(&str, usize); 3] = [("p", 2), ("q", 2), ("r", 3)];
    for (name, arity) in specs {
        let pred = PredSym::new(name);
        db.declare(pred, arity);
        let tuples = 8 + rng.gen_range(0usize..8);
        for _ in 0..tuples {
            let t: Vec<Const> = (0..arity)
                .map(|_| Const::Int(rng.gen_range(0i64..4)))
                .collect();
            let _ = db.insert(pred, &t);
        }
    }
    db
}

fn random_term(rng: &mut StdRng) -> Term {
    if rng.gen_bool(0.75) {
        Term::var(VAR_NAMES[rng.gen_range(0usize..VAR_NAMES.len())])
    } else {
        Term::int(rng.gen_range(0i64..4))
    }
}

/// A random safe conjunctive query over the EDB relations, with an
/// optional comparison on a body variable.
fn random_query(rng: &mut StdRng) -> Query {
    let n_atoms = rng.gen_range(1usize..4);
    let mut body: Vec<Literal> = Vec::new();
    for _ in 0..n_atoms {
        let (name, arity) = [("p", 2usize), ("q", 2), ("r", 3)][rng.gen_range(0usize..3)];
        let args: Vec<Term> = (0..arity).map(|_| random_term(rng)).collect();
        body.push(Literal::Pos(Atom::new(name, args)));
    }
    let body_vars: Vec<Var> = {
        let mut vs = BTreeSet::new();
        for l in &body {
            if let Literal::Pos(a) = l {
                for t in &a.args {
                    if let Term::Var(v) = t {
                        vs.insert(*v);
                    }
                }
            }
        }
        vs.into_iter().collect()
    };
    if body_vars.is_empty() {
        // All-constant body: still a valid boolean-style query; project
        // a constant to keep it safe.
        return Query::new("q", vec![Term::int(0)], body);
    }
    if rng.gen_bool(0.5) {
        let v = body_vars[rng.gen_range(0usize..body_vars.len())];
        let op = [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][rng.gen_range(0usize..4)];
        body.push(Literal::Cmp(Comparison::new(
            Term::Var(v),
            op,
            Term::int(rng.gen_range(0i64..4)),
        )));
    }
    let n_proj = rng.gen_range(1usize..3.min(body_vars.len()) + 1);
    let mut proj_vars = body_vars.clone();
    // Deterministic shuffle by repeated removal.
    let mut projection = Vec::new();
    for _ in 0..n_proj {
        projection.push(Term::Var(
            proj_vars.remove(rng.gen_range(0usize..proj_vars.len())),
        ));
    }
    Query::new("q", projection, body)
}

fn rename_term(t: &Term, map: &dyn Fn(&Var) -> Var) -> Term {
    match t {
        Term::Var(v) => Term::Var(map(v)),
        c => *c,
    }
}

/// An alpha-variant: every variable renamed through a permutation of a
/// fresh namespace, and the body literals rotated.
fn alpha_variant(rng: &mut StdRng, q: &Query) -> Query {
    let vars: Vec<Var> = q.vars().into_iter().collect();
    let mut targets: Vec<String> = (0..vars.len()).map(|i| format!("W{i}")).collect();
    for i in (1..targets.len()).rev() {
        targets.swap(i, rng.gen_range(0usize..i + 1));
    }
    let map = move |v: &Var| -> Var {
        let idx = vars.iter().position(|x| x == v).expect("var in query");
        Var::new(targets[idx].clone())
    };
    let rename_lit = |l: &Literal| match l {
        Literal::Pos(a) => Literal::Pos(Atom::new(
            a.pred,
            a.args.iter().map(|t| rename_term(t, &map)).collect(),
        )),
        Literal::Neg(a) => Literal::Neg(Atom::new(
            a.pred,
            a.args.iter().map(|t| rename_term(t, &map)).collect(),
        )),
        Literal::Cmp(c) => Literal::Cmp(Comparison::new(
            rename_term(&c.lhs, &map),
            c.op,
            rename_term(&c.rhs, &map),
        )),
    };
    let mut body: Vec<Literal> = q.body.iter().map(rename_lit).collect();
    if body.len() > 1 {
        let rot = rng.gen_range(0usize..body.len());
        body.rotate_left(rot);
    }
    Query::new(
        q.name.as_str(),
        q.projection.iter().map(|t| rename_term(t, &map)).collect(),
        body,
    )
}

fn answers(db: &EdbDatabase, q: &Query) -> Vec<Vec<Const>> {
    let (answers, _) = answer_query(db, q).expect("query evaluates");
    let mut rows: Vec<Vec<Const>> = answers.rows().map(<[Const]>::to_vec).collect();
    rows.sort();
    rows
}

/// Whether all body literals have distinct variable-blanked shapes. The
/// canonical form is alpha/reorder-invariant only in this case (duplicate
/// shapes can tie-break differently, which merely weakens dedup — it can
/// never merge semantically distinct queries).
fn shapes_distinct(q: &Query) -> bool {
    let blank = |t: &Term| match t {
        Term::Var(_) => "_".to_string(),
        Term::Const(c) => c.to_string(),
    };
    let mut shapes: Vec<String> = q
        .body
        .iter()
        .map(|l| match l {
            Literal::Pos(a) | Literal::Neg(a) => format!(
                "{}({})",
                a.pred,
                a.args.iter().map(&blank).collect::<Vec<_>>().join(",")
            ),
            Literal::Cmp(c) => {
                let c = c.canonical();
                format!("{}{}{}", blank(&c.lhs), c.op, blank(&c.rhs))
            }
        })
        .collect();
    let n = shapes.len();
    shapes.sort();
    shapes.dedup();
    shapes.len() == n
}

#[test]
fn alpha_variants_hash_equal_and_answer_equal() {
    let mut rng = StdRng::seed_from_u64(0xA11A);
    let db = random_edb(&mut rng);
    let mut hash_checked = 0usize;
    for i in 0..PAIRS {
        let q = random_query(&mut rng);
        let v = alpha_variant(&mut rng, &q);
        // Alpha-variants are semantically identical unconditionally.
        assert_eq!(
            answers(&db, &q),
            answers(&db, &v),
            "pair {i}: alpha-variants must answer identically\n  q: {q}\n  v: {v}"
        );
        // The canonical form is rename/reorder-invariant when body shapes
        // are distinct (documented caveat: duplicate shapes may tie-break
        // differently, costing only dedup precision, never soundness).
        if shapes_distinct(&q) {
            hash_checked += 1;
            assert_eq!(
                q.canonical_hash(),
                v.canonical_hash(),
                "pair {i}: alpha-variants must hash identically\n  q: {q}\n  v: {v}"
            );
        }
        // Either way, hash agreement must imply answer equality (checked
        // above), and the hash is the digest of the form: the two agree
        // on every pair.
        assert_eq!(
            q.canonical_form() == v.canonical_form(),
            q.canonical_hash() == v.canonical_hash(),
            "pair {i}: canonical_form and canonical_hash disagree\n  q: {q}\n  v: {v}"
        );
    }
    assert!(
        hash_checked > PAIRS / 2,
        "shape-distinct cases too rare ({hash_checked}/{PAIRS}) to pin the invariant"
    );
}

#[test]
fn hash_agreement_implies_answer_equality() {
    let mut rng = StdRng::seed_from_u64(0xB22B);
    let db = random_edb(&mut rng);
    let mut agreements = 0usize;
    for i in 0..PAIRS {
        let a = random_query(&mut rng);
        let b = random_query(&mut rng);
        if a.canonical_hash() != b.canonical_hash() {
            continue;
        }
        agreements += 1;
        assert_eq!(
            answers(&db, &a),
            answers(&db, &b),
            "pair {i}: hash-equal queries answered differently\n  a: {a}\n  b: {b}"
        );
    }
    // Independent draws rarely collide; make sure the property was at
    // least exercised through the alpha path too.
    let q = random_query(&mut rng);
    let v = alpha_variant(&mut rng, &q);
    assert_eq!(q.canonical_hash(), v.canonical_hash());
    assert_eq!(answers(&db, &q), answers(&db, &v));
    // `agreements` may well be zero — that is itself evidence the hash
    // separates distinct shapes; nothing to assert beyond no panic.
    let _ = agreements;
}

/// Random range ICs over the same relations, as standardize-apart
/// subjects.
fn random_constraint_src(rng: &mut StdRng, n: usize) -> String {
    let (name, arity) = [("p", 2usize), ("q", 2), ("r", 3)][rng.gen_range(0usize..3)];
    let args: Vec<String> = (0..arity)
        .map(|j| VAR_NAMES[j % VAR_NAMES.len()].to_string())
        .collect();
    let head_var = &args[rng.gen_range(0usize..args.len())];
    let op = ["<", "<=", ">", ">="][rng.gen_range(0usize..4)];
    let k = rng.gen_range(0i64..10);
    format!(
        "ic T{n}: {head_var} {op} {k} <- {name}({}).",
        args.join(", ")
    )
}

#[test]
fn standardize_apart_never_captures_query_vars() {
    let mut rng = StdRng::seed_from_u64(0xC33C);
    for n in 0..PAIRS {
        let ic = parse_constraint(&random_constraint_src(&mut rng, n)).expect("valid ic");
        // A used set that deliberately overlaps the constraint's own
        // variables plus some extras.
        let mut used: BTreeSet<Var> = ic.vars().into_iter().collect();
        for i in 0..rng.gen_range(0usize..4) {
            used.insert(Var::new(format!("U{i}")));
            used.insert(Var::new(format!("{}_1", VAR_NAMES[i % VAR_NAMES.len()])));
        }
        let apart = standardize_apart(&ic, &used);
        for v in apart.vars() {
            assert!(
                !used.contains(&v),
                "constraint {n}: standardize_apart captured {v}\n  ic: {ic}\n  out: {apart}"
            );
        }

        // Every compiled residue variable is in the apart namespace, so
        // none is a query's.
        let rs = ResidueSet::compile(vec![ic.clone()]);
        for r in rs.iter() {
            let head: Vec<&Var> = match &r.head {
                ConstraintHead::None => Vec::new(),
                ConstraintHead::Atom(a) | ConstraintHead::NegAtom(a) => a.vars().collect(),
                ConstraintHead::Cmp(c) => c.vars().collect(),
            };
            let rest = r.rest.iter().flat_map(Literal::iter_vars);
            for v in r.anchor.vars().chain(rest).chain(head) {
                assert!(
                    v.name().starts_with(APART) && !used.contains(v),
                    "constraint {n}: residue variable {v:?} is not apart from {used:?}"
                );
            }
        }
    }
}
