//! Model test of [`Relation`]: random interleavings of inserts (with
//! duplicates and wrong arities), index declarations (before and after
//! the load) and probes, against a naive `Vec<Vec<Const>>`.
//!
//! An index is built by the first probe of its column and maintained by
//! the inserts after it, so *when* a column is first probed decides which
//! code fills its index. The model has no such moment: declared before
//! the load, after it, or probed half way through, cloned before or after,
//! first probed by four threads at once — the answers must be the model's.
//!
//! The model knows nothing of arenas, row tables or postings: membership
//! is a linear search, a hash probe a filtered pass under `Const`'s
//! equality, a range probe a filtered pass under the evaluator's
//! [`Const::order`], stably sorted by value — and it
//! declines (`None`) exactly when scan-and-filter could raise
//! `Incomparable`: a column that holds another kind of value than the
//! bounds, OID bounds, or bounds of two kinds.

use sqo_datalog::program::{EdbDatabase, RangeBound, Relation};
use sqo_datalog::{Const, DatalogError, PredSym, R64};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Barrier};

/// A pinned EDB is read — and its indexes first built — from whichever
/// thread runs the request.
const _: fn() = || {
    fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<EdbDatabase>();
};

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
    /// one value, so one tuple and one key, hashed or ordered.
    Num,
    Str,
    Oid,
    Bool,
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
        Col::Bool => Const::Bool(rng.chance(50)),
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

#[derive(Clone, Default)]
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

    /// Every key of `col` with what [`Model::hash_probe`] answers for it,
    /// in one pass.
    fn postings(&self, col: usize) -> BTreeMap<Const, Vec<u32>> {
        let mut by_key: BTreeMap<Const, Vec<u32>> = BTreeMap::new();
        for (i, t) in self.tuples.iter().enumerate() {
            by_key.entry(t[col]).or_default().push(i as u32);
        }
        by_key
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
            assert_eq!(rel.distinct(col), distinct.len(), "seed {seed}");
        }
        for _ in 0..6 {
            // Mostly the column's own kind; sometimes any kind at all.
            let of = |rng: &mut Lcg| {
                if rng.chance(85) {
                    kind
                } else {
                    [Col::Int, Col::Num, Col::Str, Col::Oid, Col::Bool][rng.below(5) as usize]
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
    let kinds = [
        Col::Int,
        Col::Num,
        Col::Num,
        Col::Str,
        Col::Oid,
        Col::Bool,
        Col::Mixed,
    ];
    let cols: Vec<Col> = (0..arity).map(|_| kinds[rng.below(7) as usize]).collect();
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

/// The row table re-slots as it grows and the first probe builds an index
/// from the arena: a load far past every initial capacity, declared half
/// way and probed at the end.
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

/// Column 0 of a long load: keys no earlier row has (so far unique), keys
/// some earlier row has (a second row promotes a key to a group, later
/// ones grow it) and four heavy hitters, in one kind of value per load.
/// Whole reals have bit patterns that differ in their top bits only.
fn long_key(rng: &mut Lcg, kind: usize, i: u64) -> Const {
    let n = match rng.below(10) {
        0..=2 => rng.below(4),
        3..=5 => 1_000 + rng.below(i + 1),
        _ => 1_000 + i,
    };
    match kind {
        0 => Const::Int(n as i64 - 1_500),
        1 => Const::Real(R64::new(n as f64 * 1024.0)),
        2 => Const::Real(R64::new(n as f64 / 7.0)),
        3 => Const::Str(format!("key{n}").as_str().into()),
        4 => Const::Oid(n),
        _ => Const::Bool(n % 2 == 0),
    }
}

/// One load into three relations that differ only in when column 0 is
/// first probed: never before the end (declared before the load), never
/// before the end (declared after it), and before the first insert — so
/// that every promotion and every growth of its table happens under
/// `insert`, and is checked key by key right where it happens.
#[test]
fn an_index_answers_alike_whenever_it_was_first_probed() {
    const ROWS: u64 = 12_000;
    let absent = [
        Const::Int(-9),
        Const::Real(R64::new(0.5)),
        Const::Str("absent".into()),
        Const::Oid(5),
        Const::Bool(true),
    ];
    for kind in 0..6 {
        let mut rng = Lcg(kind as u64 + 77);
        let mut declared_before = Relation::default();
        declared_before.declare_hash_index(0);
        declared_before.declare_ordered_index(1);
        let mut declared_after = Relation::default();
        let mut probed_first = declared_before.clone();
        assert_eq!(probed_first.hash_probe(0, &absent[0]), Some(&[][..]));
        let from_zero = (Const::Int(0), true);
        assert_eq!(probed_first.range_count(1, Some(&from_zero), None), Some(0));
        let mut model = Model {
            arity: Some(2),
            ..Model::default()
        };
        let (mut distinct, mut promotions, mut checkpoints) = (BTreeSet::new(), 0, 0);
        for i in 0..ROWS {
            let t = [long_key(&mut rng, kind, i), Const::Int(i as i64)];
            for rel in [&mut declared_before, &mut declared_after, &mut probed_first] {
                assert_eq!(rel.insert(&t), Ok(true));
            }
            model.tuples.push(t.to_vec());
            let rows = probed_first.hash_probe(0, &t[0]).unwrap();
            assert_eq!(rows.last(), Some(&(i as u32)), "kind {kind}, row {i}");
            promotions += usize::from(rows.len() == 2);
            // A table of 2^k slots takes its 2^(k-1)-th key and grows for
            // the next: look at every key on both sides of every growth.
            let keys = distinct.len() + 1;
            if distinct.insert(t[0]) && (keys.is_power_of_two() || (keys - 1).is_power_of_two()) {
                checkpoints += 1;
                let expected = model.postings(0);
                assert_eq!(probed_first.distinct(0), expected.len());
                for (key, rows) in &expected {
                    let got = probed_first.hash_probe(0, key);
                    assert_eq!(got, Some(&rows[..]), "kind {kind}, {key} at row {i}");
                }
            }
        }
        declared_after.declare_hash_index(0);
        declared_after.declare_ordered_index(1);
        model.hash_cols.insert(0);
        model.ordered_cols.insert(1);
        if kind < 5 {
            assert!(distinct.len() > 4_096, "kind {kind}: {}", distinct.len());
            assert!(promotions > 1_000, "kind {kind}: {promotions}");
            assert!(checkpoints >= 24, "kind {kind}: {checkpoints}");
        } else {
            assert_eq!((distinct.len(), promotions), (2, 2));
        }

        let expected = model.postings(0);
        for rel in [&declared_before, &declared_after, &probed_first] {
            assert_eq!(rel.distinct(0), expected.len(), "kind {kind}");
            for (key, rows) in &expected {
                assert_eq!(
                    rel.hash_probe(0, key),
                    Some(&rows[..]),
                    "kind {kind}: {key}"
                );
                assert!(rows.windows(2).all(|w| w[0] < w[1]));
            }
            for key in absent.iter().filter(|key| !expected.contains_key(key)) {
                assert_eq!(rel.hash_probe(0, key), Some(&[][..]), "kind {kind}: {key}");
            }
            for _ in 0..5 {
                let at = |rng: &mut Lcg| (Const::Int(rng.below(ROWS) as i64), rng.chance(50));
                let (lo, hi) = (at(&mut rng), at(&mut rng));
                let want = model.range_probe(1, Some(&lo), Some(&hi));
                assert_eq!(rel.range_probe(1, Some(&lo), Some(&hi)), want);
                assert_eq!(
                    rel.range_count(1, Some(&lo), None),
                    model.range_probe(1, Some(&lo), None).map(|rows| rows.len())
                );
            }
        }
    }
}

/// A clone taken before the first probe builds its own index when asked;
/// one taken after carries a copy. Either way neither side sees what the
/// other inserts afterwards.
#[test]
fn a_clone_is_independent_of_its_source_before_and_after_the_first_probe() {
    let key = |k: i64| Const::Int(k % 5);
    let mut source = Relation::default();
    source.declare_hash_index(0);
    source.declare_ordered_index(1);
    let mut model = Model {
        arity: Some(2),
        hash_cols: [0].into(),
        ordered_cols: [1].into(),
        ..Model::default()
    };
    for i in 0..40 {
        source.insert(&[key(i), Const::Int(i)]).unwrap();
        model.tuples.push(vec![key(i), Const::Int(i)]);
    }
    let agrees = |rel: &Relation, model: &Model| {
        for k in -1..6 {
            let got = rel.hash_probe(0, &Const::Int(k)).map(<[u32]>::to_vec);
            assert_eq!(got, model.hash_probe(0, &Const::Int(k)));
            let hi = (Const::Int(k * 9), true);
            let want = model.range_probe(1, None, Some(&hi));
            assert_eq!(rel.range_probe(1, None, Some(&hi)), want);
        }
        assert_eq!(rel.distinct(0), model.postings(0).len());
    };
    let unprobed = source.clone();
    agrees(&source, &model);
    let probed = source.clone();
    // Each of the three goes its own way from here.
    let mut sides: Vec<(Relation, Model)> = [unprobed, probed, source]
        .into_iter()
        .map(|rel| (rel, model.clone()))
        .collect();
    for round in 0..3 {
        for (n, (rel, side)) in sides.iter_mut().enumerate() {
            for i in 0..10 {
                let t = [
                    key(i + n as i64),
                    Const::Int(100 * (n as i64 + 1) + 10 * round + i),
                ];
                assert_eq!(rel.insert(&t), Ok(true));
                side.tuples.push(t.to_vec());
            }
        }
        for (rel, side) in &sides {
            agrees(rel, side);
        }
    }
}

/// The first probe of a column may come from several threads at once: one
/// of them builds the index, all of them read it.
#[test]
fn threads_racing_for_the_first_probe_read_one_index() {
    const THREADS: usize = 4;
    let pred = PredSym::new("edge");
    for round in 0..20 {
        let mut db = EdbDatabase::new();
        db.declare_hash_index(pred, 0);
        db.declare_ordered_index(pred, 1);
        for i in 0..2_000i64 {
            db.insert(pred, &[Const::Int(i % 100), Const::Int(i)])
                .unwrap();
        }
        let db = Arc::new(db);
        let start = Barrier::new(THREADS);
        let key = Const::Int(round);
        let lo = (Const::Int(1_990), true);
        let seen: Vec<(usize, Vec<u32>, Option<Vec<u32>>)> = std::thread::scope(|s| {
            let probes: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        let rel = db.relation(&pred).unwrap();
                        start.wait();
                        let rows = rel.hash_probe(0, &key).unwrap();
                        let range = rel.range_probe(1, Some(&lo), None);
                        (rows.as_ptr() as usize, rows.to_vec(), range)
                    })
                })
                .collect();
            probes.into_iter().map(|p| p.join().unwrap()).collect()
        });
        let rows: Vec<u32> = (0..20).map(|n| (round + 100 * n) as u32).collect();
        let range: Vec<u32> = (1_990..2_000).collect();
        for (at, got, got_range) in &seen {
            assert_eq!(*at, seen[0].0, "one index, one slice");
            assert_eq!((got, got_range), (&rows, &Some(range.clone())));
        }
    }
}
