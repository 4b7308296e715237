//! Model test of [`Relation`]: random interleavings of inserts (with
//! duplicates and wrong arities), index declarations (before and after
//! the load) and probes, against a naive `Vec<Vec<Const>>`.
//!
//! The model knows nothing of arenas, row tables or postings: membership
//! is a linear search, a hash probe a filtered pass under `Const`'s
//! derived equality, a range probe a filtered pass under the evaluator's
//! numeric-aware [`Const::order`], stably sorted by value — and it
//! declines (`None`) exactly when scan-and-filter could raise
//! `Incomparable`: a column that holds another kind of value than the
//! bounds, OID bounds, or bounds of two kinds.

use sqo_datalog::program::{RangeBound, Relation};
use sqo_datalog::{Const, DatalogError, R64};
use std::cmp::Ordering;
use std::collections::BTreeSet;

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
}

/// What a column draws its values from. Domains are small, so inserts
/// repeat tuples and keys.
#[derive(Clone, Copy)]
enum Col {
    Int,
    /// Ints and reals, whole reals included: `Int(3)` and `Real(3.0)` are
    /// two hash keys and one ordered key.
    Num,
    Str,
    Oid,
    /// Numbers and strings: every range probe must decline.
    Mixed,
}

fn value(rng: &mut Lcg, col: Col) -> Const {
    let int = |rng: &mut Lcg| Const::Int(rng.below(9) as i64 - 2);
    let text = |rng: &mut Lcg| Const::Str(["a", "b", "c", "d"][rng.below(4) as usize].into());
    match col {
        Col::Int => int(rng),
        Col::Num if rng.chance(50) => Const::Real(R64::new(rng.below(14) as f64 / 2.0 - 2.0)),
        Col::Num => int(rng),
        Col::Str => text(rng),
        Col::Oid => Const::Oid(rng.below(6)),
        Col::Mixed if rng.chance(50) => text(rng),
        Col::Mixed => int(rng),
    }
}

fn rank(c: &Const) -> u8 {
    match c {
        Const::Int(_) | Const::Real(_) => 0,
        Const::Str(_) => 1,
        Const::Bool(_) => 2,
        Const::Oid(_) => 3,
    }
}

#[derive(Default)]
struct Model {
    arity: Option<usize>,
    tuples: Vec<Vec<Const>>,
    hash_cols: BTreeSet<usize>,
    ordered_cols: BTreeSet<usize>,
}

impl Model {
    /// `None`: the arity is wrong.
    fn insert(&mut self, t: &[Const]) -> Option<bool> {
        if *self.arity.get_or_insert(t.len()) != t.len() {
            return None;
        }
        let new = !self.tuples.iter().any(|u| u == t);
        if new {
            self.tuples.push(t.to_vec());
        }
        Some(new)
    }

    fn hash_probe(&self, col: usize, key: &Const) -> Option<Vec<u32>> {
        self.hash_cols.contains(&col).then(|| {
            let rows = 0..self.tuples.len();
            rows.filter(|&i| self.tuples[i].get(col) == Some(key))
                .map(|i| i as u32)
                .collect()
        })
    }

    fn range_probe(
        &self,
        col: usize,
        lo: Option<&RangeBound>,
        hi: Option<&RangeBound>,
    ) -> Option<Vec<u32>> {
        if !self.ordered_cols.contains(&col) {
            return None;
        }
        let kind = rank(&lo.or(hi)?.0);
        let one_kind = [lo, hi].iter().flatten().all(|(c, _)| rank(c) == kind)
            && self
                .tuples
                .iter()
                .filter_map(|t| t.get(col))
                .all(|c| rank(c) == kind);
        if kind == 3 || !one_kind {
            return None;
        }
        let within = |c: &Const| {
            let above = lo.is_none_or(|(l, inclusive)| match c.order(l).unwrap() {
                Ordering::Greater => true,
                Ordering::Equal => *inclusive,
                Ordering::Less => false,
            });
            let below = hi.is_none_or(|(h, inclusive)| match c.order(h).unwrap() {
                Ordering::Less => true,
                Ordering::Equal => *inclusive,
                Ordering::Greater => false,
            });
            above && below
        };
        let mut rows: Vec<u32> = (0..self.tuples.len())
            .filter(|&i| self.tuples[i].get(col).is_some_and(within))
            .map(|i| i as u32)
            .collect();
        // Key order, insertion order within a key.
        rows.sort_by(|&a, &b| {
            let key = |i: u32| &self.tuples[i as usize][col];
            key(a).order(key(b)).unwrap()
        });
        Some(rows)
    }
}

fn bound(rng: &mut Lcg, col: Col) -> Option<RangeBound> {
    rng.chance(75).then(|| (value(rng, col), rng.chance(50)))
}

/// Everything the relation can be asked, against the model.
fn check(rel: &Relation, model: &Model, cols: &[Col], rng: &mut Lcg, seed: u64) {
    assert_eq!(rel.arity(), model.arity, "seed {seed}");
    assert_eq!(rel.len(), model.tuples.len(), "seed {seed}");
    assert_eq!(rel.is_empty(), model.tuples.is_empty(), "seed {seed}");
    let rows: Vec<&[Const]> = rel.rows().collect();
    assert_eq!(rows, model.tuples, "seed {seed}: rows in insertion order");
    for (i, t) in model.tuples.iter().enumerate() {
        assert!(rel.contains(t), "seed {seed}: {t:?}");
        assert_eq!(rel.tuple_at(i as u32), t, "seed {seed}");
        if let Some((_, shorter)) = t.split_last() {
            assert!(
                !rel.contains(shorter),
                "seed {seed}: a probe of another arity"
            );
        }
    }
    // One column past the arity: declared there, an index stays empty.
    for col in 0..=cols.len() {
        assert_eq!(rel.has_hash_index(col), model.hash_cols.contains(&col));
        assert_eq!(
            rel.has_ordered_index(col),
            model.ordered_cols.contains(&col)
        );
        let kind = cols.get(col).copied().unwrap_or(Col::Int);
        let mut keys: Vec<Const> = model
            .tuples
            .iter()
            .filter_map(|t| t.get(col).copied())
            .collect();
        keys.push(Const::Int(1_000)); // absent
        for key in &keys {
            let got = rel.hash_probe(col, key).map(<[u32]>::to_vec);
            assert_eq!(got, model.hash_probe(col, key), "seed {seed}: {col} {key}");
        }
        if model.hash_cols.contains(&col) {
            keys.pop();
            let distinct: BTreeSet<Const> = keys.into_iter().collect();
            assert_eq!(rel.index_distinct(col), Some(distinct.len()), "seed {seed}");
        }
        for _ in 0..6 {
            // Mostly the column's own kind; sometimes any kind at all.
            let of = |rng: &mut Lcg| {
                if rng.chance(85) {
                    kind
                } else {
                    [Col::Int, Col::Num, Col::Str, Col::Oid][rng.below(4) as usize]
                }
            };
            let (lo_kind, hi_kind) = (of(rng), of(rng));
            let (lo, hi) = (bound(rng, lo_kind), bound(rng, hi_kind));
            let want = model.range_probe(col, lo.as_ref(), hi.as_ref());
            let what = format!("seed {seed}: column {col}, {lo:?}..{hi:?}");
            assert_eq!(
                rel.range_count(col, lo.as_ref(), hi.as_ref()),
                want.as_ref().map(Vec::len),
                "{what}"
            );
            assert_eq!(
                rel.range_probe(col, lo.as_ref(), hi.as_ref()),
                want,
                "{what}"
            );
        }
    }
}

fn run(seed: u64) {
    let mut rng = Lcg(seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(11));
    let arity = [0, 1, 1, 2, 2, 3][rng.below(6) as usize];
    let kinds = [Col::Int, Col::Num, Col::Num, Col::Str, Col::Oid, Col::Mixed];
    let cols: Vec<Col> = (0..arity).map(|_| kinds[rng.below(6) as usize]).collect();
    let mut rel = if rng.chance(50) {
        Relation::with_arity(arity)
    } else {
        Relation::default()
    };
    let mut model = Model::default();
    if rel.arity().is_some() {
        model.arity = Some(arity);
    }
    let ops = 20 + rng.below(200);
    for _ in 0..ops {
        match rng.below(100) {
            0..=4 => {
                let col = rng.below(arity as u64 + 1) as usize;
                rel.declare_hash_index(col);
                model.hash_cols.insert(col);
            }
            5..=9 => {
                let col = rng.below(arity as u64 + 1) as usize;
                rel.declare_ordered_index(col);
                model.ordered_cols.insert(col);
            }
            10..=11 => rel.reserve(rng.below(300) as usize),
            12..=14 => {
                let t = vec![Const::Int(0); arity + 1];
                let got = rel.insert(&t);
                match model.insert(&t) {
                    None => assert!(
                        matches!(got, Err(DatalogError::ArityMismatch { expected, found, .. })
                            if expected == model.arity.unwrap() && found == arity + 1),
                        "seed {seed}: {got:?}"
                    ),
                    // An undeclared relation takes its arity from the
                    // first tuple, whatever the columns were meant to be.
                    Some(new) => {
                        assert_eq!(got, Ok(new), "seed {seed}");
                        return check(&rel, &model, &[Col::Int; 4][..=arity], &mut rng, seed);
                    }
                }
            }
            15..=19 => check(&rel, &model, &cols, &mut rng, seed),
            _ => {
                let t: Vec<Const> = cols.iter().map(|&c| value(&mut rng, c)).collect();
                let present = model.tuples.contains(&t);
                assert_eq!(rel.contains(&t), present, "seed {seed}: {t:?}");
                assert_eq!(rel.insert(&t), Ok(!present), "seed {seed}: {t:?}");
                assert_eq!(model.insert(&t), Some(!present));
            }
        }
    }
    check(&rel, &model, &cols, &mut rng, seed);
}

#[test]
fn relation_agrees_with_the_naive_model() {
    for seed in 0..600 {
        run(seed);
    }
}

/// The row table re-slots as it grows and indexes back-fill from the
/// arena: a load far past every initial capacity, declared half way.
#[test]
fn a_long_load_keeps_every_row_findable() {
    let mut rng = Lcg(5);
    let mut rel = Relation::default();
    let mut model = Model {
        arity: Some(2),
        ..Model::default()
    };
    let mut seen = BTreeSet::new();
    for i in 0..20_000u64 {
        if i == 9_000 {
            rel.declare_hash_index(0);
            rel.declare_ordered_index(1);
            model.hash_cols.insert(0);
            model.ordered_cols.insert(1);
        }
        let t = [Const::Oid(i / 3), value(&mut rng, Col::Num)];
        let new = seen.insert(t);
        assert_eq!(rel.contains(&t), !new);
        assert_eq!(rel.insert(&t), Ok(new));
        if new {
            model.tuples.push(t.to_vec());
        }
    }
    assert!(model.tuples.len() > 10_000);
    assert_eq!(rel.rows().collect::<Vec<_>>(), model.tuples);
    for key in [0, 1, 2_999, 6_666, 7_000] {
        let key = Const::Oid(key);
        let got = rel.hash_probe(0, &key).map(<[u32]>::to_vec);
        assert_eq!(got, model.hash_probe(0, &key));
    }
    for _ in 0..20 {
        let (lo, hi) = (bound(&mut rng, Col::Num), bound(&mut rng, Col::Num));
        let want = model.range_probe(1, lo.as_ref(), hi.as_ref());
        assert_eq!(rel.range_probe(1, lo.as_ref(), hi.as_ref()), want);
    }
}
