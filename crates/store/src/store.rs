//! The sharded, durable, snapshot-isolated store.
//!
//! State is partitioned into `N` shards by OID hash; each shard is an
//! independently lockable `RwLock<Arc<ShardData>>` with its own
//! append-only WAL file, so writers to different shards never serialize
//! on a common lock. Readers pin **copy-on-write views**: a
//! [`StoreView`] clones the per-shard `Arc`s under brief read locks and
//! stays valid — at its generation — for as long as it lives, while
//! writers proceed via [`Arc::make_mut`] (which clones a shard's state
//! only when a pinned view still references it).
//!
//! Durability = per-shard WAL (written ahead of the in-memory mutation)
//! plus periodic compact snapshots; recovery = load the latest snapshot,
//! then replay every WAL record with a generation beyond the snapshot
//! cut, dropping torn tails. See the crate docs for the exact formats.

use crate::error::{Result, StoreError};
use crate::snapshot::{read_snapshot, write_snapshot, SnapshotData};
use crate::wal::{read_wal, truncate_to, Wal};
use crate::{StoreOp, StoreValue};
use sqo_obs::{add, Counter};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// A stored object: its most specific class (or structure) name and its
/// attribute map.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StoredObject {
    /// Most specific class or structure name.
    pub class: String,
    /// Attribute values by name.
    pub attrs: BTreeMap<String, StoreValue>,
}

/// One directed relationship pair, stamped with the store generation at
/// which it was inserted so global insertion order can be reconstructed
/// across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkEntry {
    /// Store generation at insertion (globally unique, monotone).
    pub seq: u64,
    /// Source OID.
    pub from: u64,
    /// Target OID.
    pub to: u64,
}

/// An access-support-relation definition, recorded with its original
/// definition-site arguments so the object layer can re-register the
/// view after recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsrRecord {
    /// View name as passed at the definition site.
    pub name: String,
    /// Root class of the path.
    pub class: String,
    /// Relationship member names along the path.
    pub path: Vec<String>,
}

/// The state of one shard. Cloned copy-on-write when a pinned view
/// still references it.
#[derive(Debug, Clone, Default)]
pub struct ShardData {
    /// Objects owned by this shard, keyed by OID.
    pub objects: HashMap<u64, StoredObject>,
    /// Relationship pairs whose *source* OID hashes to this shard,
    /// keyed by predicate name.
    pub links: HashMap<String, Vec<LinkEntry>>,
    /// Generation of the last mutation applied to this shard.
    pub generation: u64,
}

struct Shard {
    data: RwLock<Arc<ShardData>>,
    wal: Mutex<Option<Wal>>,
}

/// What a recovery pass found on disk.
#[derive(Debug, Clone, Default)]
pub struct RecoverReport {
    /// Whether a snapshot file was loaded.
    pub had_snapshot: bool,
    /// WAL records replayed on top of the snapshot.
    pub wal_records_replayed: usize,
    /// Torn-tail bytes dropped across all WAL files.
    pub dropped_bytes: u64,
    /// Wall-clock nanoseconds the recovery took.
    pub recover_ns: u64,
}

/// What a persist (snapshot) pass wrote.
#[derive(Debug, Clone, Copy)]
pub struct PersistReport {
    /// Snapshot bytes written.
    pub snapshot_bytes: u64,
    /// Store generation at the snapshot cut.
    pub generation: u64,
}

/// The durable, sharded object store.
pub struct ShardedStore {
    shards: Vec<Shard>,
    next_oid: AtomicU64,
    generation: AtomicU64,
    asrs: Mutex<Vec<AsrRecord>>,
    dir: Option<PathBuf>,
    recover: RecoverReport,
}

impl std::fmt::Debug for ShardedStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedStore")
            .field("shards", &self.shards.len())
            .field("generation", &self.generation())
            .field("dir", &self.dir)
            .finish()
    }
}

/// Shard index owning an OID: a multiplicative hash of the OID modulo
/// the shard count (sequential OIDs spread across shards).
fn shard_index(oid: u64, n: usize) -> usize {
    ((oid.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) % n as u64) as usize
}

fn wal_path(dir: &Path, i: usize) -> PathBuf {
    dir.join(format!("wal-{i}.log"))
}

fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.bin")
}

impl ShardedStore {
    /// A purely in-memory store (no WAL, no snapshots): sharding and
    /// views without durability.
    pub fn in_memory(n_shards: usize) -> ShardedStore {
        Self::build(n_shards.max(1), None).expect("in-memory store cannot fail")
    }

    /// Open a store directory, creating it if absent and recovering
    /// (snapshot + WAL tail) if not. A corrupt snapshot is a hard
    /// [`StoreError::Corrupt`]; torn WAL tails are dropped cleanly.
    pub fn open(dir: &Path, n_shards: usize) -> Result<ShardedStore> {
        std::fs::create_dir_all(dir)?;
        Self::build(n_shards.max(1), Some(dir.to_path_buf()))
    }

    fn build(n_shards: usize, dir: Option<PathBuf>) -> Result<ShardedStore> {
        let start = Instant::now();
        let mut shard_data: Vec<ShardData> = (0..n_shards).map(|_| ShardData::default()).collect();
        let mut report = RecoverReport::default();
        let mut generation = 0u64;
        let mut next_oid = 1u64;
        let mut asrs = Vec::new();

        if let Some(dir) = &dir {
            // 1. Latest snapshot. The on-disk shard count may differ
            //    from ours: shard assignment is a pure function of the
            //    OID, so state is redistributed on load.
            if let Some(snap) = read_snapshot(&snapshot_path(dir))? {
                report.had_snapshot = true;
                generation = snap.generation;
                next_oid = snap.next_oid;
                asrs = snap.asrs;
                for old in snap.shards {
                    for (oid, obj) in old.objects {
                        shard_data[shard_index(oid, n_shards)]
                            .objects
                            .insert(oid, obj);
                    }
                    for (pred, entries) in old.links {
                        for e in entries {
                            shard_data[shard_index(e.from, n_shards)]
                                .links
                                .entry(pred.clone())
                                .or_default()
                                .push(e);
                        }
                    }
                }
                // Re-establish per-pred seq order after redistribution.
                for sd in shard_data.iter_mut() {
                    for entries in sd.links.values_mut() {
                        entries.sort_by_key(|e| e.seq);
                    }
                    sd.generation = snap.generation;
                }
            }

            // 2. Replay every WAL record beyond the snapshot cut, in
            //    generation order (records for one OID always share a
            //    file, but a changed shard count can split them).
            let mut records: Vec<(u64, StoreOp)> = Vec::new();
            let mut wal_files: Vec<PathBuf> = std::fs::read_dir(dir)?
                .filter_map(|e| e.ok().map(|e| e.path()))
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("wal-") && n.ends_with(".log"))
                })
                .collect();
            wal_files.sort();
            for path in &wal_files {
                let replay = read_wal(path)?;
                report.dropped_bytes += replay.dropped_bytes;
                if replay.dropped_bytes > 0 {
                    truncate_to(path, replay.valid_len)?;
                }
                for (gen, op_bytes) in replay.records {
                    if gen <= generation && report.had_snapshot {
                        continue; // already folded into the snapshot
                    }
                    records.push((gen, StoreOp::decode(&op_bytes)?));
                }
            }
            records.sort_by_key(|(gen, _)| *gen);
            report.wal_records_replayed = records.len();
            let replay_one =
                |shard_data: &mut Vec<ShardData>, op: &StoreOp, gen: u64| -> Result<()> {
                    let idx = shard_index(op.shard_key().expect("shard-local op"), n_shards);
                    apply_to_shard(&mut shard_data[idx], op, gen)?;
                    shard_data[idx].generation = shard_data[idx].generation.max(gen);
                    Ok(())
                };
            for (gen, op) in records {
                match &op {
                    StoreOp::DefineAsr { name, class, path } => asrs.push(AsrRecord {
                        name: name.clone(),
                        class: class.clone(),
                        path: path.clone(),
                    }),
                    // A batch frame carries its base generation; its
                    // components were assigned base..base+n.
                    StoreOp::Batch { ops } => {
                        for (i, comp) in ops.iter().enumerate() {
                            let g = gen + i as u64;
                            replay_one(&mut shard_data, comp, g)?;
                            if let StoreOp::PutObject { oid, .. } = comp {
                                next_oid = next_oid.max(oid + 1);
                            }
                            generation = generation.max(g);
                        }
                    }
                    _ => replay_one(&mut shard_data, &op, gen)?,
                }
                if let StoreOp::PutObject { oid, .. } = &op {
                    next_oid = next_oid.max(oid + 1);
                }
                generation = generation.max(gen);
            }
        }

        let shards = shard_data
            .into_iter()
            .enumerate()
            .map(|(i, data)| {
                let wal = match &dir {
                    Some(dir) => Some(Wal::open(&wal_path(dir, i))?),
                    None => None,
                };
                Ok(Shard {
                    data: RwLock::new(Arc::new(data)),
                    wal: Mutex::new(wal),
                })
            })
            .collect::<Result<Vec<_>>>()?;

        report.recover_ns = start.elapsed().as_nanos() as u64;
        if dir.is_some() {
            add(Counter::StoreRecoverNs, report.recover_ns);
            sqo_obs::record_hist("store.recover", report.recover_ns);
        }
        Ok(ShardedStore {
            shards,
            next_oid: AtomicU64::new(next_oid),
            generation: AtomicU64::new(generation),
            asrs: Mutex::new(asrs),
            dir,
            recover: report,
        })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// What the opening recovery pass found.
    pub fn recover_report(&self) -> &RecoverReport {
        &self.recover
    }

    /// Current global generation (bumped once per applied mutation).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Generation of the last write to the shard owning `oid` — writes
    /// to other shards leave it untouched.
    pub fn shard_generation(&self, oid: u64) -> u64 {
        let shard = &self.shards[shard_index(oid, self.shards.len())];
        shard.data.read().expect("shard lock").generation
    }

    /// Allocate a fresh OID.
    pub fn alloc_oid(&self) -> u64 {
        self.next_oid.fetch_add(1, Ordering::SeqCst)
    }

    /// Raise the OID allocator watermark (used when bulk-importing
    /// state with pre-assigned OIDs).
    pub fn bump_next_oid(&self, next: u64) {
        self.next_oid.fetch_max(next, Ordering::SeqCst);
    }

    /// Apply one mutation: validate it against the owning shard, append
    /// it to that shard's WAL, then mutate the shard copy-on-write.
    /// Returns the generation assigned to the mutation (the last
    /// component's for a [`StoreOp::Batch`]). Only the owning shard is
    /// locked (a batch locks every shard its components touch).
    pub fn apply(&self, op: &StoreOp) -> Result<u64> {
        if let StoreOp::Batch { ops } = op {
            return self.apply_batch(op, ops);
        }
        let idx = op.shard_key().map(|k| shard_index(k, self.shards.len()));
        let shard = &self.shards[idx.unwrap_or(0)];
        let wait = Instant::now();
        let mut data = shard.data.write().expect("shard lock");
        add(
            Counter::StoreShardLockWaitNs,
            wait.elapsed().as_nanos() as u64,
        );
        // Validate against the locked shard *before* the WAL append: an
        // op that cannot apply must never be durably logged, or every
        // future recovery would replay the same failure and the store
        // could no longer open.
        if !matches!(op, StoreOp::DefineAsr { .. }) {
            precheck_ops(std::slice::from_ref(op), |oid| {
                data.objects.contains_key(&oid)
            })?;
        }
        let gen = self.generation.fetch_add(1, Ordering::SeqCst) + 1;
        if let Some(wal) = shard.wal.lock().expect("wal lock").as_mut() {
            wal.append(gen, &op.encode())?;
        }
        match op {
            StoreOp::DefineAsr { name, class, path } => {
                self.asrs.lock().expect("asr lock").push(AsrRecord {
                    name: name.clone(),
                    class: class.clone(),
                    path: path.clone(),
                });
            }
            _ => {
                let state = Arc::make_mut(&mut data);
                apply_to_shard(state, op, gen)?;
                state.generation = gen;
            }
        }
        if let StoreOp::PutObject { oid, .. } = op {
            self.bump_next_oid(oid + 1);
        }
        Ok(gen)
    }

    /// Apply a compound mutation atomically: the whole batch is framed
    /// as **one** WAL record (on the first component's shard) and
    /// applied under the write locks of every shard it touches, so a
    /// crash persists either the whole batch or none of it — never a
    /// forward link without its inverse.
    fn apply_batch(&self, batch: &StoreOp, ops: &[StoreOp]) -> Result<u64> {
        let n_shards = self.shards.len();
        if ops.is_empty() {
            return Err(StoreError::Invalid {
                detail: "empty batch".into(),
            });
        }
        let mut indices = Vec::with_capacity(ops.len());
        for op in ops {
            match op.shard_key() {
                Some(k) if !matches!(op, StoreOp::Batch { .. }) => {
                    indices.push(shard_index(k, n_shards));
                }
                _ => {
                    return Err(StoreError::Invalid {
                        detail: "batch component must be a shard-local op".into(),
                    })
                }
            }
        }
        // Lock involved shards in ascending index order — the same
        // order `persist` uses — so batches and snapshots never
        // deadlock against each other.
        let mut locked: Vec<usize> = indices.clone();
        locked.sort_unstable();
        locked.dedup();
        let wait = Instant::now();
        let mut guards: BTreeMap<usize, std::sync::RwLockWriteGuard<'_, Arc<ShardData>>> = locked
            .iter()
            .map(|&i| (i, self.shards[i].data.write().expect("shard lock")))
            .collect();
        add(
            Counter::StoreShardLockWaitNs,
            wait.elapsed().as_nanos() as u64,
        );
        // Validate the whole batch before anything reaches a WAL
        // (sequencing within the batch honored via an overlay).
        precheck_ops(ops, |oid| {
            guards[&shard_index(oid, n_shards)]
                .objects
                .contains_key(&oid)
        })?;
        // One generation per component; the frame is stamped with the
        // base so recovery can re-derive each component's generation.
        let base = self
            .generation
            .fetch_add(ops.len() as u64, Ordering::SeqCst)
            + 1;
        if let Some(wal) = self.shards[indices[0]]
            .wal
            .lock()
            .expect("wal lock")
            .as_mut()
        {
            wal.append(base, &batch.encode())?;
        }
        for (i, op) in ops.iter().enumerate() {
            let gen = base + i as u64;
            let guard = guards.get_mut(&indices[i]).expect("shard locked above");
            let state = Arc::make_mut(&mut *guard);
            apply_to_shard(state, op, gen)?;
            state.generation = gen;
            if let StoreOp::PutObject { oid, .. } = op {
                self.bump_next_oid(oid + 1);
            }
        }
        Ok(base + ops.len() as u64 - 1)
    }

    /// Pin a read view. Cheap: clones one `Arc` per shard under brief
    /// read locks. The view stays valid at its generation for as long
    /// as it lives; writers proceed copy-on-write.
    pub fn view(&self) -> StoreView {
        let wait = Instant::now();
        let guards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.data.read().expect("shard lock"))
            .collect();
        add(
            Counter::StoreShardLockWaitNs,
            wait.elapsed().as_nanos() as u64,
        );
        let shards: Vec<Arc<ShardData>> = guards.iter().map(|g| Arc::clone(g)).collect();
        // Capture the OID watermark and ASR set while the shard guards
        // are still held: no writer can be mid-apply, so the view is a
        // consistent cut of shard state, allocator, and definitions.
        let next_oid = self.next_oid.load(Ordering::SeqCst);
        let view_asrs = self.asrs.lock().expect("asr lock").clone();
        drop(guards);
        StoreView {
            generation: shards.iter().map(|s| s.generation).max().unwrap_or(0),
            next_oid,
            asrs: view_asrs,
            shards,
        }
    }

    /// Force a compact snapshot: block writers on every shard, write
    /// the versioned snapshot atomically, fsync, then truncate every
    /// WAL file. No-op (zero bytes) for in-memory stores.
    pub fn persist(&self) -> Result<PersistReport> {
        let Some(dir) = &self.dir else {
            return Ok(PersistReport {
                snapshot_bytes: 0,
                generation: self.generation(),
            });
        };
        // Hold every shard's write lock for the cut so the snapshot is
        // a point-in-time image and no record can land in a WAL after
        // the cut but before its truncation.
        let guards: Vec<_> = self
            .shards
            .iter()
            .map(|s| s.data.write().expect("shard lock"))
            .collect();
        let data = SnapshotData {
            generation: self.generation(),
            next_oid: self.next_oid.load(Ordering::SeqCst),
            shards: guards.iter().map(|g| (***g).clone()).collect(),
            asrs: self.asrs.lock().expect("asr lock").clone(),
        };
        let bytes = write_snapshot(&snapshot_path(dir), &data)?;
        for shard in &self.shards {
            if let Some(wal) = shard.wal.lock().expect("wal lock").as_mut() {
                wal.truncate()?;
            }
        }
        // Remove WAL files from a previous run with more shards: their
        // records are all at or below the snapshot generation now.
        for entry in std::fs::read_dir(dir)?.filter_map(|e| e.ok()) {
            let path = entry.path();
            let stale = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_prefix("wal-"))
                .and_then(|n| n.strip_suffix(".log"))
                .and_then(|n| n.parse::<usize>().ok())
                .is_some_and(|i| i >= self.shards.len());
            if stale {
                std::fs::remove_file(&path)?;
            }
        }
        drop(guards);
        add(Counter::StoreSnapshotBytes, bytes);
        Ok(PersistReport {
            snapshot_bytes: bytes,
            generation: data.generation,
        })
    }

    /// Flush every WAL file to stable storage.
    pub fn sync(&self) -> Result<()> {
        for shard in &self.shards {
            if let Some(wal) = shard.wal.lock().expect("wal lock").as_ref() {
                wal.sync()?;
            }
        }
        Ok(())
    }

    /// Total live objects across all shards.
    pub fn object_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.data.read().expect("shard lock").objects.len())
            .sum()
    }
}

/// Validate shard-local ops against current object existence *before*
/// anything reaches a WAL, mirroring exactly the failure modes of
/// [`apply_to_shard`]. Within a sequence the overlay honors ordering: a
/// `PutObject` earlier in a batch satisfies a later `SetAttr`, a
/// `RemoveObject` invalidates later references.
fn precheck_ops(ops: &[StoreOp], exists: impl Fn(u64) -> bool) -> Result<()> {
    let mut overlay: HashMap<u64, bool> = HashMap::new();
    let alive = |oid: u64, overlay: &HashMap<u64, bool>| {
        overlay.get(&oid).copied().unwrap_or_else(|| exists(oid))
    };
    for op in ops {
        match op {
            StoreOp::PutObject { oid, .. } => {
                overlay.insert(*oid, true);
            }
            StoreOp::SetAttr { oid, .. } => {
                if !alive(*oid, &overlay) {
                    return Err(StoreError::Invalid {
                        detail: format!("SetAttr on unknown OID {oid}"),
                    });
                }
            }
            StoreOp::RemoveObject { oid } => {
                if !alive(*oid, &overlay) {
                    return Err(StoreError::Invalid {
                        detail: format!("RemoveObject on unknown OID {oid}"),
                    });
                }
                overlay.insert(*oid, false);
            }
            StoreOp::Link { .. } | StoreOp::Unlink { .. } => {}
            StoreOp::DefineAsr { .. } | StoreOp::Batch { .. } => {
                return Err(StoreError::Invalid {
                    detail: "precheck expects shard-local ops".into(),
                })
            }
        }
    }
    Ok(())
}

/// Apply a shard-local op to a shard's state. `gen` stamps new link
/// entries so cross-shard insertion order is reconstructible.
fn apply_to_shard(state: &mut ShardData, op: &StoreOp, gen: u64) -> Result<()> {
    match op {
        StoreOp::PutObject { oid, class, attrs } => {
            state.objects.insert(
                *oid,
                StoredObject {
                    class: class.clone(),
                    attrs: attrs.iter().cloned().collect(),
                },
            );
        }
        StoreOp::SetAttr { oid, attr, value } => {
            let obj = state
                .objects
                .get_mut(oid)
                .ok_or_else(|| StoreError::Invalid {
                    detail: format!("SetAttr on unknown OID {oid}"),
                })?;
            obj.attrs.insert(attr.clone(), value.clone());
        }
        StoreOp::Link { pred, from, to } => {
            state
                .links
                .entry(pred.clone())
                .or_default()
                .push(LinkEntry {
                    seq: gen,
                    from: *from,
                    to: *to,
                });
        }
        StoreOp::Unlink { pred, from, to } => {
            if let Some(entries) = state.links.get_mut(pred) {
                entries.retain(|e| !(e.from == *from && e.to == *to));
            }
        }
        StoreOp::RemoveObject { oid } => {
            state
                .objects
                .remove(oid)
                .ok_or_else(|| StoreError::Invalid {
                    detail: format!("RemoveObject on unknown OID {oid}"),
                })?;
        }
        StoreOp::DefineAsr { .. } | StoreOp::Batch { .. } => {
            return Err(StoreError::Invalid {
                detail: "op is not shard-local".into(),
            })
        }
    }
    Ok(())
}

/// A pinned, immutable view of the whole store at one generation.
/// Holding it is cheap (`Arc`s); it never blocks writers.
#[derive(Debug, Clone)]
pub struct StoreView {
    shards: Vec<Arc<ShardData>>,
    generation: u64,
    next_oid: u64,
    asrs: Vec<AsrRecord>,
}

impl StoreView {
    /// The generation this view is pinned at.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The OID allocator watermark at pin time.
    pub fn next_oid(&self) -> u64 {
        self.next_oid
    }

    /// ASR definitions at pin time.
    pub fn asrs(&self) -> &[AsrRecord] {
        &self.asrs
    }

    /// Look up an object.
    pub fn object(&self, oid: u64) -> Option<&StoredObject> {
        self.shards[shard_index(oid, self.shards.len())]
            .objects
            .get(&oid)
    }

    /// Total live objects.
    pub fn object_count(&self) -> usize {
        self.shards.iter().map(|s| s.objects.len()).sum()
    }

    /// All objects sorted by OID (OIDs allocate monotonically, so this
    /// is creation order).
    pub fn objects_sorted(&self) -> Vec<(u64, &StoredObject)> {
        let mut out: Vec<(u64, &StoredObject)> = self
            .shards
            .iter()
            .flat_map(|s| s.objects.iter().map(|(oid, obj)| (*oid, obj)))
            .collect();
        out.sort_unstable_by_key(|(oid, _)| *oid);
        out
    }

    /// All relationship pairs grouped by predicate, each predicate's
    /// pairs in global insertion order (reassembled across shards via
    /// the per-entry generation stamp).
    pub fn links_by_pred(&self) -> BTreeMap<String, Vec<(u64, u64)>> {
        let mut merged: BTreeMap<String, Vec<LinkEntry>> = BTreeMap::new();
        for shard in &self.shards {
            for (pred, entries) in &shard.links {
                merged
                    .entry(pred.clone())
                    .or_default()
                    .extend(entries.iter().copied());
            }
        }
        merged
            .into_iter()
            .map(|(pred, mut entries)| {
                entries.sort_by_key(|e| e.seq);
                (pred, entries.into_iter().map(|e| (e.from, e.to)).collect())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir;

    fn put(oid: u64, class: &str, age: i64) -> StoreOp {
        StoreOp::PutObject {
            oid,
            class: class.into(),
            attrs: vec![("age".into(), StoreValue::Int(age))],
        }
    }

    #[test]
    fn apply_and_view_round_trip_in_memory() {
        let store = ShardedStore::in_memory(4);
        for oid in 1..=20 {
            store.apply(&put(oid, "Person", oid as i64)).unwrap();
        }
        store
            .apply(&StoreOp::Link {
                pred: "knows".into(),
                from: 1,
                to: 2,
            })
            .unwrap();
        let view = store.view();
        assert_eq!(view.object_count(), 20);
        assert_eq!(view.object(7).unwrap().attrs["age"], StoreValue::Int(7));
        let oids: Vec<u64> = view.objects_sorted().iter().map(|(o, _)| *o).collect();
        assert_eq!(oids, (1..=20).collect::<Vec<_>>());
        assert_eq!(view.links_by_pred()["knows"], vec![(1, 2)]);
        assert_eq!(view.generation(), store.generation());
    }

    #[test]
    fn pinned_view_is_isolated_from_later_writes() {
        let store = ShardedStore::in_memory(4);
        store.apply(&put(1, "Person", 30)).unwrap();
        let pinned = store.view();
        let g = pinned.generation();
        // Writers advance the store to G+k...
        for oid in 2..=50 {
            store.apply(&put(oid, "Person", 99)).unwrap();
        }
        store
            .apply(&StoreOp::SetAttr {
                oid: 1,
                attr: "age".into(),
                value: StoreValue::Int(31),
            })
            .unwrap();
        // ...but the pinned view still answers at generation G.
        assert_eq!(pinned.generation(), g);
        assert_eq!(pinned.object_count(), 1);
        assert_eq!(pinned.object(1).unwrap().attrs["age"], StoreValue::Int(30));
        // A fresh view sees everything.
        let now = store.view();
        assert_eq!(now.object_count(), 50);
        assert_eq!(now.object(1).unwrap().attrs["age"], StoreValue::Int(31));
        assert!(now.generation() > g);
    }

    #[test]
    fn writes_bump_only_the_owning_shard_generation() {
        let store = ShardedStore::in_memory(8);
        // Find two OIDs living on different shards.
        let (a, b) = {
            let mut found = (1u64, 2u64);
            for b in 2..100 {
                if shard_index(b, 8) != shard_index(1, 8) {
                    found = (1, b);
                    break;
                }
            }
            found
        };
        store.apply(&put(a, "Person", 1)).unwrap();
        store.apply(&put(b, "Person", 2)).unwrap();
        let gen_a = store.shard_generation(a);
        let gen_b = store.shard_generation(b);
        store
            .apply(&StoreOp::SetAttr {
                oid: a,
                attr: "age".into(),
                value: StoreValue::Int(10),
            })
            .unwrap();
        assert!(store.shard_generation(a) > gen_a, "written shard bumps");
        assert_eq!(
            store.shard_generation(b),
            gen_b,
            "untouched shard keeps its generation"
        );
    }

    #[test]
    fn durable_round_trip_wal_only() {
        let dir = test_dir("store_wal_only");
        {
            let store = ShardedStore::open(&dir, 4).unwrap();
            for oid in 1..=10 {
                store.apply(&put(oid, "Person", oid as i64)).unwrap();
            }
            store
                .apply(&StoreOp::Link {
                    pred: "knows".into(),
                    from: 3,
                    to: 4,
                })
                .unwrap();
            store.apply(&StoreOp::RemoveObject { oid: 10 }).unwrap();
            // No persist: recovery must come entirely from the WAL.
        }
        let store = ShardedStore::open(&dir, 4).unwrap();
        assert!(!store.recover_report().had_snapshot);
        assert_eq!(store.recover_report().wal_records_replayed, 12);
        let view = store.view();
        assert_eq!(view.object_count(), 9);
        assert_eq!(view.links_by_pred()["knows"], vec![(3, 4)]);
        assert_eq!(store.alloc_oid(), 11);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_round_trip_snapshot_plus_wal_tail() {
        let dir = test_dir("store_snap_tail");
        let gen_before;
        {
            let store = ShardedStore::open(&dir, 4).unwrap();
            for oid in 1..=5 {
                store.apply(&put(oid, "Person", oid as i64)).unwrap();
            }
            let report = store.persist().unwrap();
            assert!(report.snapshot_bytes > 0);
            // Tail writes after the snapshot live only in the WAL.
            store.apply(&put(6, "Person", 6)).unwrap();
            store
                .apply(&StoreOp::SetAttr {
                    oid: 2,
                    attr: "age".into(),
                    value: StoreValue::Int(99),
                })
                .unwrap();
            gen_before = store.generation();
        }
        let store = ShardedStore::open(&dir, 4).unwrap();
        assert!(store.recover_report().had_snapshot);
        assert_eq!(store.recover_report().wal_records_replayed, 2);
        assert_eq!(store.generation(), gen_before);
        let view = store.view();
        assert_eq!(view.object_count(), 6);
        assert_eq!(view.object(2).unwrap().attrs["age"], StoreValue::Int(99));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reshard_on_reopen_preserves_state() {
        let dir = test_dir("store_reshard");
        {
            let store = ShardedStore::open(&dir, 8).unwrap();
            for oid in 1..=30 {
                store.apply(&put(oid, "Person", oid as i64)).unwrap();
                if oid > 1 {
                    store
                        .apply(&StoreOp::Link {
                            pred: "next".into(),
                            from: oid - 1,
                            to: oid,
                        })
                        .unwrap();
                }
            }
            store.persist().unwrap();
        }
        // Reopen with a different shard count: pure-function-of-OID
        // assignment means state just redistributes.
        let store = ShardedStore::open(&dir, 3).unwrap();
        let view = store.view();
        assert_eq!(view.object_count(), 30);
        let pairs = &view.links_by_pred()["next"];
        assert_eq!(pairs.len(), 29);
        assert_eq!(pairs[0], (1, 2));
        assert_eq!(pairs[28], (29, 30));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_wal_tail_dropped_on_open() {
        let dir = test_dir("store_torn");
        {
            let store = ShardedStore::open(&dir, 1).unwrap();
            store.apply(&put(1, "Person", 1)).unwrap();
            store.apply(&put(2, "Person", 2)).unwrap();
        }
        // Tear the single WAL file mid-record.
        let wal = wal_path(&dir, 0);
        let len = std::fs::metadata(&wal).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let store = ShardedStore::open(&dir, 1).unwrap();
        assert_eq!(store.recover_report().wal_records_replayed, 1);
        assert!(store.recover_report().dropped_bytes > 0);
        assert_eq!(store.view().object_count(), 1);
        // The torn bytes were truncated away: appends resume cleanly
        // and a further reopen sees both the old and the new record.
        store.apply(&put(7, "Person", 7)).unwrap();
        drop(store);
        let store = ShardedStore::open(&dir, 1).unwrap();
        assert_eq!(store.view().object_count(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_is_a_clean_error() {
        let dir = test_dir("store_corrupt_snap");
        {
            let store = ShardedStore::open(&dir, 2).unwrap();
            store.apply(&put(1, "Person", 1)).unwrap();
            store.persist().unwrap();
        }
        let snap = snapshot_path(&dir);
        let mut bytes = std::fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&snap, &bytes).unwrap();
        match ShardedStore::open(&dir, 2) {
            Err(StoreError::Corrupt { detail }) => {
                assert!(!detail.is_empty());
            }
            other => panic!("expected Corrupt, got {:?}", other.map(|_| ())),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_writers_on_distinct_shards() {
        let store = Arc::new(ShardedStore::in_memory(8));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..250u64 {
                        let oid = t * 1000 + i + 1;
                        store.apply(&put(oid, "Person", oid as i64)).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(store.object_count(), 1000);
        assert_eq!(store.generation(), 1000);
        // Generations are unique per mutation: the max link seq /
        // shard generation cannot exceed the global generation.
        let view = store.view();
        assert!(view.generation() <= 1000);
    }

    #[test]
    fn set_attr_on_unknown_oid_is_invalid() {
        let store = ShardedStore::in_memory(2);
        let err = store
            .apply(&StoreOp::SetAttr {
                oid: 42,
                attr: "age".into(),
                value: StoreValue::Int(1),
            })
            .unwrap_err();
        assert!(matches!(err, StoreError::Invalid { .. }));
    }

    #[test]
    fn invalid_op_is_never_durably_logged() {
        let dir = test_dir("store_invalid_not_logged");
        {
            let store = ShardedStore::open(&dir, 2).unwrap();
            store.apply(&put(1, "Person", 1)).unwrap();
            let err = store
                .apply(&StoreOp::SetAttr {
                    oid: 42,
                    attr: "age".into(),
                    value: StoreValue::Int(1),
                })
                .unwrap_err();
            assert!(matches!(err, StoreError::Invalid { .. }));
            let err = store.apply(&StoreOp::RemoveObject { oid: 42 }).unwrap_err();
            assert!(matches!(err, StoreError::Invalid { .. }));
        }
        // The rejected ops never reached a WAL: recovery replays only
        // the valid record and the store opens cleanly — an invalid op
        // must not make a durable store unrecoverable.
        let store = ShardedStore::open(&dir, 2).unwrap();
        assert_eq!(store.recover_report().wal_records_replayed, 1);
        assert_eq!(store.view().object_count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn knows_both_ways() -> StoreOp {
        StoreOp::Batch {
            ops: vec![
                StoreOp::Link {
                    pred: "knows".into(),
                    from: 1,
                    to: 2,
                },
                StoreOp::Link {
                    pred: "known_by".into(),
                    from: 2,
                    to: 1,
                },
            ],
        }
    }

    #[test]
    fn batch_is_one_frame_and_recovers_atomically() {
        let dir = test_dir("store_batch");
        {
            let store = ShardedStore::open(&dir, 4).unwrap();
            store.apply(&put(1, "Person", 1)).unwrap();
            store.apply(&put(2, "Person", 2)).unwrap();
            // Two components get generations 3 and 4; apply returns the last.
            assert_eq!(store.apply(&knows_both_ways()).unwrap(), 4);
            assert_eq!(store.generation(), 4);
        }
        let store = ShardedStore::open(&dir, 4).unwrap();
        // Two puts plus ONE batch frame.
        assert_eq!(store.recover_report().wal_records_replayed, 3);
        assert_eq!(store.generation(), 4);
        let view = store.view();
        assert_eq!(view.links_by_pred()["knows"], vec![(1, 2)]);
        assert_eq!(view.links_by_pred()["known_by"], vec![(2, 1)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_batch_drops_whole_compound_mutation() {
        let dir = test_dir("store_batch_torn");
        {
            let store = ShardedStore::open(&dir, 1).unwrap();
            store.apply(&put(1, "Person", 1)).unwrap();
            store.apply(&put(2, "Person", 2)).unwrap();
            store.apply(&knows_both_ways()).unwrap();
        }
        // Tear the tail mid-batch-frame: the whole compound mutation
        // vanishes — never a forward link without its inverse.
        let wal = wal_path(&dir, 0);
        let len = std::fs::metadata(&wal).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&wal)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let store = ShardedStore::open(&dir, 1).unwrap();
        let view = store.view();
        assert_eq!(view.object_count(), 2);
        assert!(view.links_by_pred().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_validates_before_logging() {
        let dir = test_dir("store_batch_invalid");
        {
            let store = ShardedStore::open(&dir, 2).unwrap();
            store.apply(&put(1, "Person", 1)).unwrap();
            // A batch with one invalid component is rejected whole,
            // before anything reaches a WAL.
            let err = store
                .apply(&StoreOp::Batch {
                    ops: vec![
                        StoreOp::Link {
                            pred: "knows".into(),
                            from: 1,
                            to: 2,
                        },
                        StoreOp::SetAttr {
                            oid: 99,
                            attr: "age".into(),
                            value: StoreValue::Int(1),
                        },
                    ],
                })
                .unwrap_err();
            assert!(matches!(err, StoreError::Invalid { .. }));
            assert!(store.view().links_by_pred().is_empty());
            // Sequencing within a batch: an earlier put satisfies a
            // later set on the same (new) OID.
            store
                .apply(&StoreOp::Batch {
                    ops: vec![
                        put(7, "Person", 7),
                        StoreOp::SetAttr {
                            oid: 7,
                            attr: "age".into(),
                            value: StoreValue::Int(8),
                        },
                    ],
                })
                .unwrap();
            // Empty and nested batches are invalid.
            assert!(store.apply(&StoreOp::Batch { ops: vec![] }).is_err());
            assert!(store
                .apply(&StoreOp::Batch {
                    ops: vec![StoreOp::Batch {
                        ops: vec![put(9, "Person", 9)]
                    }],
                })
                .is_err());
        }
        let store = ShardedStore::open(&dir, 2).unwrap();
        let view = store.view();
        assert_eq!(view.object_count(), 2);
        assert_eq!(view.object(7).unwrap().attrs["age"], StoreValue::Int(8));
        assert!(view.links_by_pred().is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
