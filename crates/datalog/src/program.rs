//! Extensional databases: stored relations and their secondary indexes.

use crate::atom::{Atom, PredSym};
use crate::error::{DatalogError, Result};
use crate::fxhash::{fold, FxHashSet, FxHasher};
use crate::term::Const;
use std::cmp::Ordering;
use std::collections::hash_map::RandomState;
use std::collections::BTreeMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::mem::size_of;
use std::ops::Bound;
use std::sync::{Arc, OnceLock};

/// The rows carrying one key of an ordered index, ascending. Most keys of
/// a near-unique column are one inline row id: no `Vec` header and no
/// heap block per key.
#[derive(Debug, Clone)]
enum Postings {
    One(u32),
    Many(Vec<u32>),
}

impl Postings {
    fn push(&mut self, row: u32) {
        match self {
            Postings::One(first) => *self = Postings::Many(new_group(*first, row)),
            Postings::Many(rows) => rows.push(row),
        }
    }

    fn as_slice(&self) -> &[u32] {
        match self {
            Postings::One(row) => std::slice::from_ref(row),
            Postings::Many(rows) => rows,
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Postings::One(_) => 0,
            Postings::Many(rows) => rows.capacity() * size_of::<u32>(),
        }
    }
}

/// The rows of a key that a second row has just joined. Room for four: the
/// allocator's smallest block anyway, and one regrowth fewer for every key
/// that gets there.
fn new_group(first: u32, second: u32) -> Vec<u32> {
    let mut rows = Vec::with_capacity(4);
    rows.extend([first, second]);
    rows
}

/// An unused slot of a relation's row table or of a hash index; never a
/// row id, and never a tagged group id.
const EMPTY: u32 = u32::MAX;

/// Tag of a hash-index slot whose key several rows carry: the other 31
/// bits then name a group, not a row.
const MANY: u32 = 1 << 31;

/// The most rows a relation holds. Row ids leave bit 31 to the [`MANY`]
/// tag; [`EMPTY`] is the tag over the largest 31-bit number, which is
/// therefore no group id — a group has two rows at least.
const MAX_ROWS: usize = (MANY - 1) as usize;

/// One slot of a [`HashIndex`].
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// [`EMPTY`], the one row carrying the key, or `MANY | group id`.
    entry: u32,
    /// The low half of the key's hash. Its low bits say where the key's
    /// probe run starts, at any table size, so growth never re-reads a
    /// key; the rest spares a probe most comparisons against the arena.
    bits: u32,
}

const EMPTY_SLOT: Slot = Slot {
    entry: EMPTY,
    bits: 0,
};

/// A hash secondary index over one column: key value → ids of the rows
/// carrying it. It stores no key — a key is read from the arena row a slot
/// names, through the `key_of` every method takes — and compares keys by
/// `Const`'s equality, the same equality the join verification loop
/// applies, so a probe returns exactly the rows a scan-and-compare would
/// keep (`Int(3)` and `Real(3.0)` are one key).
///
/// An open-addressing table, linear probing, empty or a power of two at
/// most half full. A unique key costs its 8-byte slot; a key of several
/// rows points at a group. The hasher is keyed per index: column values
/// are client-supplied.
#[derive(Debug, Clone, Default)]
struct HashIndex {
    hasher: RandomState,
    slots: Vec<Slot>,
    /// Rows of the keys carried by more than one row, ascending.
    groups: Vec<Vec<u32>>,
    /// Distinct keys: the occupied slots.
    keys: usize,
}

impl HashIndex {
    fn bits_of(&self, key: &Const) -> u32 {
        self.hasher.hash_one(key) as u32
    }

    /// The slot holding `key` (`Ok`), or the empty slot it would take
    /// (`Err`). The table must not be empty.
    fn find_slot(
        &self,
        key: &Const,
        bits: u32,
        key_of: impl Fn(u32) -> Const,
    ) -> std::result::Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut at = bits as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot.entry == EMPTY {
                return Err(at);
            }
            if slot.bits == bits {
                let row = match slot.entry & MANY {
                    0 => slot.entry,
                    _ => self.groups[(slot.entry & !MANY) as usize][0],
                };
                if key_of(row) == *key {
                    return Ok(at);
                }
            }
            at = (at + 1) & mask;
        }
    }

    /// Ids of the rows carrying `key`, ascending.
    fn rows(&self, key: &Const, key_of: impl Fn(u32) -> Const) -> &[u32] {
        if self.slots.is_empty() {
            return &[];
        }
        let Ok(at) = self.find_slot(key, self.bits_of(key), key_of) else {
            return &[];
        };
        let entry = &self.slots[at].entry;
        match entry & MANY {
            0 => std::slice::from_ref(entry),
            _ => &self.groups[(entry & !MANY) as usize],
        }
    }

    /// Add `row`, whose id is above every row's already in the index.
    fn add(&mut self, row: u32, key_of: impl Fn(u32) -> Const) {
        self.resize_slots(self.keys + 1);
        let key = key_of(row);
        let bits = self.bits_of(&key);
        match self.find_slot(&key, bits, key_of) {
            Err(at) => {
                self.slots[at] = Slot { entry: row, bits };
                self.keys += 1;
            }
            Ok(at) => {
                let entry = self.slots[at].entry;
                if entry & MANY == 0 {
                    // Groups are at most half the rows: the id fits.
                    self.slots[at].entry = MANY | self.groups.len() as u32;
                    self.groups.push(new_group(entry, row));
                } else {
                    self.groups[(entry & !MANY) as usize].push(row);
                }
            }
        }
    }

    /// Size the table for `keys` keys, re-slotting the present ones by
    /// their stored hash bits: the arena is not read.
    fn resize_slots(&mut self, keys: usize) {
        let slots = (keys * 2).next_power_of_two().max(8);
        if slots <= self.slots.len() {
            return;
        }
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; slots]);
        // Stored keys are distinct: each takes the first free slot of its
        // probe run, no comparing.
        for slot in old.into_iter().filter(|s| s.entry != EMPTY) {
            let mut at = slot.bits as usize & (slots - 1);
            while self.slots[at].entry != EMPTY {
                at = (at + 1) & (slots - 1);
            }
            self.slots[at] = slot;
        }
    }

    fn heap_bytes(&self) -> usize {
        self.slots.capacity() * size_of::<Slot>()
            + self.groups.capacity() * size_of::<Vec<u32>>()
            + self
                .groups
                .iter()
                .map(|rows| rows.capacity() * size_of::<u32>())
                .sum::<usize>()
    }
}

/// An ordered secondary index over one column: keys in `Const`'s order,
/// the comparison filter's, so a range probe visits the rows it keeps.
#[derive(Debug, Clone, Default)]
struct OrderedIndex {
    postings: BTreeMap<Const, Postings>,
}

impl OrderedIndex {
    fn add(&mut self, key: Const, row: u32) {
        self.postings
            .entry(key)
            .and_modify(|p| p.push(row))
            .or_insert(Postings::One(row));
    }

    /// Whether every key is [comparable](Const::comparable) with `probe`,
    /// so that a range probe is scan-plus-filter, *including* the filter's
    /// incomparability errors. Kinds are contiguous in the order: the two
    /// end keys decide.
    fn homogeneous_for(&self, probe: &Const) -> bool {
        match (
            self.postings.keys().next(),
            self.postings.keys().next_back(),
        ) {
            (Some(min), Some(max)) => probe.comparable(min) && probe.comparable(max),
            _ => probe.comparable(probe), // empty index: any orderable kind
        }
    }

    /// An estimate — `BTreeMap` does not report its allocation: entries
    /// at the two-thirds node fill random insertion settles at, plus the
    /// multi-row postings.
    fn heap_bytes(&self) -> usize {
        self.postings.len() * size_of::<(Const, Postings)>() * 3 / 2
            + self
                .postings
                .values()
                .map(Postings::heap_bytes)
                .sum::<usize>()
    }
}

/// One end of a range probe: the bounding constant and whether the bound
/// is inclusive.
pub type RangeBound = (Const, bool);

fn to_bound(b: Option<&RangeBound>) -> Bound<Const> {
    match b {
        None => Bound::Unbounded,
        Some((c, true)) => Bound::Included(*c),
        Some((c, false)) => Bound::Excluded(*c),
    }
}

/// The id the next row of a relation holding `len` rows gets.
fn next_row_id(len: usize) -> Result<u32> {
    if len < MAX_ROWS {
        Ok(len as u32)
    } else {
        Err(DatalogError::RelationFull { limit: MAX_ROWS })
    }
}

/// A row's hash, [folded](fold) so that rows differing in a few low bits
/// (consecutive interned strings, say) land on distinct top bits, which
/// pick the home slot.
fn hash_row(row: &[Const]) -> u64 {
    let mut h = FxHasher::default();
    for c in row {
        c.hash(&mut h);
    }
    fold(h.finish())
}

/// A stored relation: a deduplicated bag of constant tuples, plus any
/// declared secondary indexes.
///
/// Every tuple is stored once, in `cells`: row `i` is the `arity` cells
/// from `i * arity`, in insertion order. Membership and the indexes refer
/// to rows by that id.
///
/// Declaring an index records its column and nothing else. The first
/// probe of the column builds the index from the arena — under `&self`,
/// once, whichever thread gets there first — and [`Relation::insert`]
/// maintains the indexes that exist: one nobody probes costs nothing.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    arity: Option<usize>,
    cells: Vec<Const>,
    len: usize,
    /// Membership: an open-addressing table of row ids, linear probing
    /// from the top bits of the row's hash. Empty, or a power of two at
    /// most half full.
    slots: Vec<u32>,
    hash_indexes: BTreeMap<usize, OnceLock<HashIndex>>,
    ordered_indexes: BTreeMap<usize, OnceLock<OrderedIndex>>,
    /// Per column of the arity, its distinct values once
    /// [`Relation::distinct`] has counted them; `insert` clears them.
    counts: OnceLock<Box<[OnceLock<usize>]>>,
}

impl Relation {
    /// Create an empty relation with known arity.
    pub fn with_arity(arity: usize) -> Self {
        Relation {
            arity: Some(arity),
            ..Default::default()
        }
    }

    /// The relation's arity, if any tuple has been inserted or the arity
    /// was declared.
    pub fn arity(&self) -> Option<usize> {
        self.arity
    }

    /// Where `tuple`'s probe run starts: the top bits of its hash. The
    /// table must not be empty.
    fn home_slot(&self, tuple: &[Const]) -> usize {
        (hash_row(tuple) >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The slot holding `tuple`'s row (`Ok`), or the empty slot its row
    /// would take (`Err`). The table must not be empty.
    fn find_slot(&self, tuple: &[Const]) -> std::result::Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut at = self.home_slot(tuple);
        loop {
            match self.slots[at] {
                EMPTY => return Err(at),
                row if self.tuple_at(row) == tuple => return Ok(at),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Size the row table for `rows` rows, re-slotting the present ones.
    fn resize_slots(&mut self, rows: usize) {
        let slots = (rows * 2).next_power_of_two().max(8);
        if slots <= self.slots.len() {
            return;
        }
        self.slots = vec![EMPTY; slots];
        // Stored rows are distinct: each takes the first free slot of its
        // probe run, no comparing.
        for row in 0..self.len as u32 {
            let mut at = self.home_slot(self.tuple_at(row));
            while self.slots[at] != EMPTY {
                at = (at + 1) & (slots - 1);
            }
            self.slots[at] = row;
        }
    }

    /// Make room for `additional` more rows, so that loading them neither
    /// regrows the arena nor re-slots the row table. The arena is sized
    /// only once the arity is known.
    pub fn reserve(&mut self, additional: usize) {
        self.cells
            .reserve(additional * self.arity.unwrap_or_default());
        self.resize_slots(self.len + additional);
    }

    /// Insert a tuple; returns `true` if it was new.
    pub fn insert(&mut self, tuple: &[Const]) -> Result<bool> {
        match self.arity {
            Some(a) if a != tuple.len() => {
                return Err(DatalogError::ArityMismatch {
                    predicate: "<relation>".into(),
                    expected: a,
                    found: tuple.len(),
                })
            }
            None => self.arity = Some(tuple.len()),
            _ => {}
        }
        self.resize_slots(self.len + 1);
        let Err(slot) = self.find_slot(tuple) else {
            return Ok(false);
        };
        let row = next_row_id(self.len)?;
        self.slots[slot] = row;
        self.cells.extend_from_slice(tuple);
        self.len += 1;
        // The indexes some probe has built. One declared on a column past
        // the arity has no key to add.
        let (cells, arity) = (&self.cells, tuple.len());
        for (&col, built) in self.hash_indexes.range_mut(..arity) {
            if let Some(idx) = built.get_mut() {
                idx.add(row, |r| cells[r as usize * arity + col]);
            }
        }
        for (&col, built) in self.ordered_indexes.range_mut(..arity) {
            if let Some(idx) = built.get_mut() {
                idx.add(tuple[col], row);
            }
        }
        self.counts.take();
        Ok(true)
    }

    /// Declare a hash secondary index on column `col`: from here on
    /// [`Relation::has_hash_index`] holds and the column can be probed.
    pub fn declare_hash_index(&mut self, col: usize) {
        self.hash_indexes.entry(col).or_default();
    }

    /// Declare an ordered (range) secondary index on column `col`.
    pub fn declare_ordered_index(&mut self, col: usize) {
        self.ordered_indexes.entry(col).or_default();
    }

    /// Build an index over column `col` of the rows present, `add`ing
    /// them in id order: what the first probe of a declared column pays.
    fn build_index<I: Default>(&self, col: usize, add: impl Fn(&mut I, u32)) -> I {
        let _span = sqo_obs::span!("edb.index_build");
        sqo_obs::bump(sqo_obs::Counter::EdbIndexBuilds);
        let mut idx = I::default();
        if col < self.arity.unwrap_or_default() {
            for row in 0..self.len as u32 {
                add(&mut idx, row);
            }
        }
        idx
    }

    fn key_at(&self, row: u32, col: usize) -> Const {
        self.tuple_at(row)[col]
    }

    /// The hash index declared on `col`, built if this is its first use.
    fn hash_index(&self, col: usize) -> Option<&HashIndex> {
        let built = self.hash_indexes.get(&col)?;
        Some(built.get_or_init(|| {
            self.build_index(col, |idx: &mut HashIndex, row| {
                idx.add(row, |r| self.key_at(r, col))
            })
        }))
    }

    /// The ordered index declared on `col`, built if this is its first use.
    fn ordered_index(&self, col: usize) -> Option<&OrderedIndex> {
        let built = self.ordered_indexes.get(&col)?;
        Some(built.get_or_init(|| {
            self.build_index(col, |idx: &mut OrderedIndex, row| {
                idx.add(self.key_at(row, col), row)
            })
        }))
    }

    /// Whether a hash index is declared on `col`.
    pub fn has_hash_index(&self, col: usize) -> bool {
        self.hash_indexes.contains_key(&col)
    }

    /// Whether an ordered index is declared on `col`.
    pub fn has_ordered_index(&self, col: usize) -> bool {
        self.ordered_indexes.contains_key(&col)
    }

    /// Columns with a declared hash index.
    pub fn hash_indexed_columns(&self) -> impl Iterator<Item = usize> + '_ {
        self.hash_indexes.keys().copied()
    }

    /// Columns with a declared ordered index.
    pub fn ordered_indexed_columns(&self) -> impl Iterator<Item = usize> + '_ {
        self.ordered_indexes.keys().copied()
    }

    /// Equality probe against the hash index on `col`: ids, ascending, of
    /// the rows whose `col` equals `key`. `None` when no hash index is
    /// declared.
    pub fn hash_probe(&self, col: usize, key: &Const) -> Option<&[u32]> {
        let idx = self.hash_index(col)?;
        Some(idx.rows(key, |row| self.key_at(row, col)))
    }

    /// Distinct values in column `col`: the cost model's join
    /// selectivity. A hash-declared column reads its index's key count,
    /// building the index if this is its first use (pricing a bound
    /// hashed column goes on to probe it anyway). Any other column is
    /// counted in one pass, which builds nothing, and the count is kept
    /// until the next insert.
    pub fn distinct(&self, col: usize) -> usize {
        if let Some(idx) = self.hash_index(col) {
            return idx.keys;
        }
        let count = || {
            let values: FxHashSet<Const> =
                self.rows().filter_map(|t| t.get(col).copied()).collect();
            values.len()
        };
        let arity = self.arity.unwrap_or_default();
        let counts = self
            .counts
            .get_or_init(|| (0..arity).map(|_| OnceLock::new()).collect());
        match counts.get(col) {
            Some(kept) => *kept.get_or_init(count),
            None => count(),
        }
    }

    /// Shared precondition + traversal for range probes. `None` means the
    /// probe is not answerable from an index (no index, or the column is
    /// not type-homogeneous with the probe constants); `Some` iterates the
    /// matching postings lists (possibly none, e.g. contradictory bounds).
    fn range_postings(
        &self,
        col: usize,
        lo: Option<&RangeBound>,
        hi: Option<&RangeBound>,
    ) -> Option<impl Iterator<Item = &[u32]>> {
        let idx = self.ordered_index(col)?;
        let probe = lo.or(hi).map(|(c, _)| c)?;
        if !idx.homogeneous_for(probe) {
            return None;
        }
        // An inverted or empty interval yields no tuples; `BTreeMap::range`
        // would panic on it, so detect it here.
        let empty = match (lo, hi) {
            (Some((l, li)), Some((h, hi_inc))) => {
                if !l.comparable(h) {
                    return None;
                }
                match l.cmp(h) {
                    Ordering::Greater => true,
                    Ordering::Equal => !(*li && *hi_inc),
                    Ordering::Less => false,
                }
            }
            _ => false,
        };
        let range = if empty {
            None
        } else {
            Some(idx.postings.range((to_bound(lo), to_bound(hi))))
        };
        Some(range.into_iter().flatten().map(|(_, p)| p.as_slice()))
    }

    /// Range probe against the ordered index on `col`: ids of the rows
    /// whose `col` lies within `[lo, hi]` (each bound optional, inclusive
    /// per its flag), in key order and ascending within a key. Returns
    /// `None` — meaning "fall back to a scan" — when no ordered index is
    /// declared *or* the column holds values of another kind than the
    /// probe constants, so scan-and-filter error semantics
    /// (incomparable operands) are preserved.
    pub fn range_probe(
        &self,
        col: usize,
        lo: Option<&RangeBound>,
        hi: Option<&RangeBound>,
    ) -> Option<Vec<u32>> {
        let postings = self.range_postings(col, lo, hi)?;
        let mut out = Vec::new();
        for p in postings {
            out.extend_from_slice(p);
        }
        Some(out)
    }

    /// Number of tuples a [`Relation::range_probe`] with the same bounds
    /// would return, without materializing the row ids.
    pub fn range_count(
        &self,
        col: usize,
        lo: Option<&RangeBound>,
        hi: Option<&RangeBound>,
    ) -> Option<usize> {
        Some(self.range_postings(col, lo, hi)?.map(<[u32]>::len).sum())
    }

    /// The tuple of row `row` (an id as returned by the probe methods).
    #[inline]
    pub fn tuple_at(&self, row: u32) -> &[Const] {
        let arity = self.arity.unwrap_or_default();
        let at = row as usize * arity;
        &self.cells[at..at + arity]
    }

    /// Whether the tuple is present. A tuple of another arity never is.
    pub fn contains(&self, tuple: &[Const]) -> bool {
        self.arity == Some(tuple.len()) && self.len > 0 && self.find_slot(tuple).is_ok()
    }

    /// All tuples, in insertion order: row ids `0..len()`.
    pub fn rows(&self) -> impl ExactSizeIterator<Item = &[Const]> {
        (0..self.len as u32).map(|row| self.tuple_at(row))
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the relation is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Heap bytes held: the arena, the row table and the indexes built
    /// so far, by allocated capacity (ordered indexes by estimate).
    pub fn heap_bytes(&self) -> usize {
        self.cells.capacity() * size_of::<Const>()
            + self.slots.capacity() * size_of::<u32>()
            + self
                .hash_indexes
                .values()
                .filter_map(OnceLock::get)
                .map(HashIndex::heap_bytes)
                .sum::<usize>()
            + self
                .ordered_indexes
                .values()
                .filter_map(OnceLock::get)
                .map(OrderedIndex::heap_bytes)
                .sum::<usize>()
    }
}

/// A database of stored relations (the EDB).
///
/// Each relation sits behind its own `Arc`: cloning a database clones
/// pointers, and a mutator copies only the relation it writes, and only
/// while another database shares it (`Arc::make_mut`). So a copy can
/// replace some relations and share the rest, with whatever indexes have
/// been built on them.
#[derive(Debug, Clone, Default)]
pub struct EdbDatabase {
    relations: crate::fxhash::FxHashMap<PredSym, Arc<Relation>>,
}

impl EdbDatabase {
    /// Create an empty database.
    pub fn new() -> Self {
        EdbDatabase::default()
    }

    /// Insert a ground atom as a fact.
    pub fn insert_fact(&mut self, atom: &Atom) -> Result<bool> {
        if !atom.is_ground() {
            return Err(DatalogError::NonGroundFact {
                fact: atom.to_string(),
            });
        }
        let tuple: Vec<Const> = atom
            .args
            .iter()
            .map(|t| *t.as_const().expect("ground"))
            .collect();
        self.insert(atom.pred, &tuple)
    }

    /// The relation `pred` for writing, created empty if absent.
    fn relation_mut(&mut self, pred: PredSym) -> &mut Relation {
        Arc::make_mut(self.relations.entry(pred).or_default())
    }

    /// Insert a tuple into the named relation.
    pub fn insert(&mut self, pred: PredSym, tuple: &[Const]) -> Result<bool> {
        self.relation_mut(pred).insert(tuple).map_err(|e| match e {
            DatalogError::ArityMismatch {
                expected, found, ..
            } => DatalogError::ArityMismatch {
                predicate: pred.name().to_string(),
                expected,
                found,
            },
            other => other,
        })
    }

    /// Make room for `additional` more tuples of `pred` (creating the
    /// relation if absent); see [`Relation::reserve`].
    pub fn reserve(&mut self, pred: PredSym, additional: usize) {
        self.relation_mut(pred).reserve(additional);
    }

    /// Declare an (empty) relation with a fixed arity.
    pub fn declare(&mut self, pred: PredSym, arity: usize) {
        self.relations
            .entry(pred)
            .or_insert_with(|| Arc::new(Relation::with_arity(arity)));
    }

    /// Declare a hash secondary index on `pred`'s column `col` (creating
    /// the relation if absent); see [`Relation::declare_hash_index`].
    pub fn declare_hash_index(&mut self, pred: PredSym, col: usize) {
        self.relation_mut(pred).declare_hash_index(col);
    }

    /// Declare an ordered (range) secondary index on `pred`'s column
    /// `col` (creating the relation if absent).
    pub fn declare_ordered_index(&mut self, pred: PredSym, col: usize) {
        self.relation_mut(pred).declare_ordered_index(col);
    }

    /// Make `rel` the relation `pred`, in place of any earlier one.
    pub fn put(&mut self, pred: PredSym, rel: Relation) {
        self.relations.insert(pred, Arc::new(rel));
    }

    /// Drop the relation `pred`; its rows are freed unless another
    /// database shares them.
    pub fn remove(&mut self, pred: &PredSym) {
        self.relations.remove(pred);
    }

    /// Look up a relation.
    pub fn relation(&self, pred: &PredSym) -> Option<&Relation> {
        self.relations.get(pred).map(Arc::as_ref)
    }

    /// Iterate over (predicate, relation) pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&PredSym, &Relation)> {
        self.relations.iter().map(|(p, r)| (p, r.as_ref()))
    }

    /// Total number of tuples across all relations.
    pub fn total_tuples(&self) -> usize {
        self.relations.values().map(|r| r.len()).sum()
    }

    /// Heap bytes held by all relations; see [`Relation::heap_bytes`].
    pub fn heap_bytes(&self) -> usize {
        self.relations.values().map(|r| r.heap_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::intern::Sym;
    use crate::parser::parse_fact;
    use crate::term::Term;

    #[test]
    fn relation_dedup_and_order() {
        let mut r = Relation::default();
        assert!(r.insert(&[Const::Int(1)]).unwrap());
        assert!(!r.insert(&[Const::Int(1)]).unwrap());
        assert!(r.insert(&[Const::Int(2)]).unwrap());
        assert_eq!(r.len(), 2);
        assert!(r.contains(&[Const::Int(1)]));
        assert_eq!(r.arity(), Some(1));
    }

    /// Cloning an EDB clones pointers: a write to the clone copies only
    /// the relation it writes, and the original never sees it.
    #[test]
    fn a_clone_shares_each_relation_until_it_is_written() {
        let (p, q) = (PredSym::new("p"), PredSym::new("q"));
        let mut a = EdbDatabase::new();
        a.insert(p, &[Const::Int(1)]).unwrap();
        a.insert(q, &[Const::Int(2)]).unwrap();
        let mut b = a.clone();
        let shared = |a: &EdbDatabase, b: &EdbDatabase, pred| {
            std::ptr::eq(a.relation(&pred).unwrap(), b.relation(&pred).unwrap())
        };
        assert!(shared(&a, &b, p) && shared(&a, &b, q));
        b.insert(p, &[Const::Int(3)]).unwrap();
        assert!(!shared(&a, &b, p) && shared(&a, &b, q));
        assert_eq!(
            (a.relation(&p).unwrap().len(), b.relation(&p).unwrap().len()),
            (1, 2)
        );
        b.remove(&q);
        b.put(p, Relation::with_arity(1));
        assert!(b.relation(&q).is_none() && b.relation(&p).unwrap().is_empty());
        assert_eq!(a.total_tuples(), 2);
    }

    #[test]
    fn arity_mismatch_rejected() {
        let mut db = EdbDatabase::new();
        db.insert(PredSym::new("p"), &[Const::Int(1)]).unwrap();
        let err = db
            .insert(PredSym::new("p"), &[Const::Int(1), Const::Int(2)])
            .unwrap_err();
        assert!(matches!(err, DatalogError::ArityMismatch { predicate, .. } if predicate == "p"));
    }

    #[test]
    fn insert_fact_requires_ground() {
        let mut db = EdbDatabase::new();
        let ok = parse_fact("p(1, \"a\")").unwrap();
        assert!(db.insert_fact(&ok).unwrap());
        let bad = Atom::new("p", vec![Term::var("X")]);
        assert!(db.insert_fact(&bad).is_err());
    }

    #[test]
    fn hash_index_backfills_and_maintains_incrementally() {
        let mut r = Relation::default();
        r.insert(&[Const::Int(1), Const::Str("a".into())]).unwrap();
        r.insert(&[Const::Int(2), Const::Str("b".into())]).unwrap();
        // Declared after the fact, and declaring builds nothing: the
        // first probe does, from the tuples present.
        r.declare_hash_index(1);
        assert!(r.has_hash_index(1));
        assert!(r.hash_indexes[&1].get().is_none());
        assert_eq!(r.hash_probe(1, &Const::Str("a".into())), Some(&[0][..]));
        // Incremental maintenance on subsequent inserts.
        r.insert(&[Const::Int(3), Const::Str("a".into())]).unwrap();
        assert_eq!(r.hash_probe(1, &Const::Str("a".into())), Some(&[0, 2][..]));
        assert_eq!(r.hash_probe(1, &Const::Str("zzz".into())), Some(&[][..]));
        assert_eq!(r.hash_probe(0, &Const::Int(1)), None, "no index on col 0");
        assert_eq!(r.distinct(1), 2);
    }

    #[test]
    fn distinct_counts_an_unhashed_column_once_per_change() {
        let mut r = Relation::with_arity(2);
        r.declare_ordered_index(1);
        for (a, b) in [(1, 10), (2, 10), (3, 20)] {
            r.insert(&[Const::Int(a), Const::Int(b)]).unwrap();
        }
        assert_eq!(r.distinct(1), 2);
        assert_eq!(r.counts.get().unwrap()[1].get(), Some(&2));
        assert!(
            r.ordered_indexes[&1].get().is_none(),
            "counting builds no index"
        );
        r.insert(&[Const::Int(4), Const::Real(30.0.into())])
            .unwrap();
        assert!(r.counts.get().is_none(), "an insert clears the counts");
        assert_eq!(r.distinct(1), 3);
        // `Int(10) == Real(10.0)`: one value, as the indexes count it.
        r.insert(&[Const::Int(5), Const::Real(10.0.into())])
            .unwrap();
        assert_eq!(r.distinct(1), 3);
    }

    #[test]
    fn ordered_index_range_probe_is_numeric_aware() {
        let mut r = Relation::default();
        r.declare_ordered_index(0);
        for v in [
            Const::Int(5),
            Const::Real(crate::term::R64::new(2.5)),
            Const::Int(10),
            Const::Real(crate::term::R64::new(7.0)),
        ] {
            r.insert(&[v]).unwrap();
        }
        // 2.5 < x <= 7.0 → {5, 7.0}; Int/Real interleave numerically.
        let lo = (Const::Real(crate::term::R64::new(2.5)), false);
        let hi = (Const::Int(7), true);
        let mut hits = r.range_probe(0, Some(&lo), Some(&hi)).unwrap();
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 3]);
        assert_eq!(r.range_count(0, Some(&lo), Some(&hi)), Some(2));
        // Open-ended probe.
        assert_eq!(
            r.range_count(0, Some(&(Const::Int(6), true)), None),
            Some(2)
        );
        // Inverted interval: empty, not a panic.
        assert_eq!(
            r.range_count(
                0,
                Some(&(Const::Int(9), true)),
                Some(&(Const::Int(3), true))
            ),
            Some(0)
        );
    }

    #[test]
    fn range_probe_declines_on_mixed_type_columns() {
        let mut r = Relation::default();
        r.declare_ordered_index(0);
        r.insert(&[Const::Int(1)]).unwrap();
        r.insert(&[Const::Str("x".into())]).unwrap();
        // A scan would raise an incomparability error on the string row;
        // the probe must decline rather than silently skip it.
        assert_eq!(r.range_probe(0, Some(&(Const::Int(0), true)), None), None);
        // A type-homogeneous column accepts the probe.
        let mut ok = Relation::default();
        ok.declare_ordered_index(0);
        ok.insert(&[Const::Str("a".into())]).unwrap();
        ok.insert(&[Const::Str("c".into())]).unwrap();
        assert_eq!(
            ok.range_count(0, Some(&(Const::Str("b".into()), true)), None),
            Some(1)
        );
    }

    #[test]
    fn arity_zero_relation_holds_one_fact() {
        let mut r = Relation::with_arity(0);
        assert!(!r.contains(&[]));
        assert!(r.insert(&[]).unwrap());
        assert!(!r.insert(&[]).unwrap());
        assert_eq!(r.len(), 1);
        assert!(r.contains(&[]));
        assert_eq!(r.rows().collect::<Vec<_>>(), [&[] as &[Const]]);
        assert_eq!(r.tuple_at(0), &[] as &[Const]);
    }

    #[test]
    fn contains_with_wrong_arity_is_false() {
        let mut r = Relation::default();
        assert!(!r.contains(&[Const::Int(1)]), "no arity yet");
        r.insert(&[Const::Int(1), Const::Int(2)]).unwrap();
        assert!(!r.contains(&[Const::Int(1)]));
        assert!(!r.contains(&[Const::Int(1), Const::Int(2), Const::Int(3)]));
        assert!(!r.contains(&[]));
        assert!(r.contains(&[Const::Int(1), Const::Int(2)]));
    }

    #[test]
    fn index_on_a_column_past_the_arity_is_ignored() {
        let mut r = Relation::default();
        r.declare_hash_index(5);
        r.declare_ordered_index(5);
        r.insert(&[Const::Int(1), Const::Int(2)]).unwrap();
        assert_eq!(r.hash_probe(5, &Const::Int(1)), Some(&[][..]));
        assert_eq!(r.distinct(5), 0);
        assert_eq!(
            r.range_count(5, Some(&(Const::Int(0), true)), None),
            Some(0)
        );
    }

    #[test]
    fn declaring_before_and_after_the_load_gives_the_same_postings() {
        let tuples: Vec<[Const; 2]> = (0..200)
            .map(|i| [Const::Int(i % 7), Const::Int(i)])
            .collect();
        let mut before = Relation::default();
        before.declare_hash_index(0);
        before.declare_ordered_index(0);
        let mut after = Relation::default();
        for t in tuples.iter().chain(&tuples[..50]) {
            before.insert(t).unwrap();
            after.insert(t).unwrap();
        }
        after.declare_hash_index(0);
        after.declare_ordered_index(0);
        assert_eq!(before.len(), 200);
        for k in -1..8 {
            let k = Const::Int(k);
            assert_eq!(before.hash_probe(0, &k), after.hash_probe(0, &k));
            let hi = (k, true);
            assert_eq!(
                before.range_probe(0, None, Some(&hi)),
                after.range_probe(0, None, Some(&hi))
            );
        }
        // Ascending within a key, whichever way the index was filled.
        let fives = before.hash_probe(0, &Const::Int(5)).unwrap();
        assert!(fives.windows(2).all(|w| w[0] < w[1]));
        assert!(fives
            .iter()
            .all(|&row| before.tuple_at(row)[0] == Const::Int(5)));
    }

    #[test]
    fn row_ids_stop_below_the_many_tag() {
        assert_eq!(MAX_ROWS, (1 << 31) - 1);
        assert_eq!(next_row_id(0), Ok(0));
        let last = next_row_id(MAX_ROWS - 1).unwrap();
        assert_eq!(last as usize, MAX_ROWS - 1);
        // The last row id carries no tag, and no group id — there are at
        // most half as many groups as rows — reads as the empty marker.
        assert_eq!(last & MANY, 0);
        assert_ne!(MANY | (MAX_ROWS / 2) as u32, EMPTY);
        let full = DatalogError::RelationFull { limit: MAX_ROWS };
        assert_eq!(next_row_id(MAX_ROWS), Err(full.clone()));
        assert_eq!(next_row_id(MAX_ROWS + 1), Err(full.clone()));
        assert_eq!(next_row_id(u32::MAX as usize), Err(full.clone()));
        assert_eq!(next_row_id(usize::MAX), Err(full));
    }

    #[test]
    fn reserve_changes_capacity_not_content() {
        let mut r = Relation::default();
        r.declare_hash_index(0);
        r.insert(&[Const::Int(1), Const::Int(2)]).unwrap();
        assert_eq!(r.hash_probe(0, &Const::Int(1)), Some(&[0][..]));
        r.reserve(1000);
        let index_bytes = |r: &Relation| r.hash_indexes[&0].get().unwrap().heap_bytes();
        let outside_index = |r: &Relation| r.heap_bytes() - index_bytes(r);
        let held = outside_index(&r);
        let index_held = index_bytes(&r);
        for i in 2..1000 {
            r.insert(&[Const::Int(i), Const::Int(i)]).unwrap();
        }
        assert!(r.contains(&[Const::Int(1), Const::Int(2)]));
        assert_eq!(r.hash_probe(0, &Const::Int(999)), Some(&[998][..]));
        assert_eq!(outside_index(&r), held, "arena and row table sized once");
        assert!(index_bytes(&r) > index_held, "the built index is counted");
    }

    /// Answers projected onto a string column are consecutively interned
    /// symbols, whose hashes differ in a few bits: the row table must
    /// still spread them, so finding a row takes about one probe.
    #[test]
    fn consecutive_symbols_spread_over_the_row_table() {
        let mut r = Relation::with_arity(1);
        r.reserve(4096);
        for i in 0..4096 {
            r.insert(&[Const::Str(Sym::intern(&format!("spread-{i}")))])
                .unwrap();
        }
        let mask = r.slots.len() - 1;
        let probes: usize = (0..r.slots.len())
            .filter(|&at| r.slots[at] != EMPTY)
            .map(|at| ((at.wrapping_sub(r.home_slot(r.tuple_at(r.slots[at])))) & mask) + 1)
            .sum();
        let mean = probes as f64 / r.len() as f64;
        assert!(mean <= 2.0, "{mean:.2} probes to find a row");
    }

    #[test]
    fn round_reals_spread_over_the_row_table() {
        // The bit patterns of round floats share their low bits, which a
        // multiply-rotate hash passes on to its own low bits: slots picked
        // from those would make this one probe run (minutes, not
        // milliseconds).
        let mut r = Relation::default();
        for i in 0..200_000 {
            r.insert(&[Const::Real((i as f64 * 1024.0).into())])
                .unwrap();
        }
        assert_eq!(r.len(), 200_000);
        assert!(r.contains(&[Const::Real(2048.0.into())]));
    }
}
