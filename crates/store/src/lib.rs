#![warn(missing_docs)]

//! # sqo-store
//!
//! A durable, sharded, snapshot-isolated object store — the extensional
//! substrate underneath `sqo-objdb`, built on the standard library
//! alone.
//!
//! The paper assumes a resident, static EDB; a production system
//! serving heavy traffic needs the opposite: writers that don't
//! serialize on one map, queries that see a consistent state while
//! writes land, and a store that survives the process. Three mechanisms
//! provide that:
//!
//! * **Sharding** ([`store`]) — objects and relationship pairs are
//!   partitioned into `N` shards by OID hash, each an independently
//!   lockable `RwLock<Arc<ShardData>>`, so concurrent writers touching
//!   different shards never contend.
//! * **Durability** ([`wal`], [`snapshot`]) — every mutation is a
//!   [`StoreOp`] validated against the owning shard and then appended
//!   to that shard's write-ahead log (length-prefixed,
//!   CRC-32-checksummed records) *before* the in-memory state changes;
//!   compound mutations commit as a single atomic [`StoreOp::Batch`]
//!   frame, so a crash persists all of one or none of it;
//!   [`ShardedStore::persist`]
//!   folds the state into a compact versioned binary snapshot and
//!   truncates the logs. Recovery = load the latest snapshot + replay
//!   the WAL tails in generation order; torn or corrupt tail records
//!   are detected by checksum and dropped cleanly, and a corrupt
//!   snapshot is a hard [`StoreError::Corrupt`] — never a panic.
//! * **Snapshot isolation** ([`StoreView`]) — every mutation gets a
//!   globally monotone generation number; a view pins the per-shard
//!   `Arc`s at one generation and stays valid while writers proceed
//!   copy-on-write (`Arc::make_mut` clones a shard only when a pinned
//!   view still references it).
//!
//! Observability: `store.wal_appends`, `store.snapshot_bytes`,
//! `store.recover_ns`, and `store.shard_lock_wait` counters plus
//! `store.recover` histograms flow through [`sqo_obs`].

pub mod codec;
pub mod error;
pub mod op;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use codec::crc32;
pub use error::{Result, StoreError};
pub use op::{Oid, StoreOp, StoreValue};
pub use snapshot::{SnapshotData, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use store::{
    AsrRecord, LinkEntry, PersistReport, RecoverReport, ShardData, ShardedStore, StoreView,
    StoredObject,
};
pub use wal::{read_wal, Wal, WalReplay};

/// Create a unique, empty scratch directory for a test.
#[cfg(test)]
pub(crate) fn test_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sqo_store_test_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}
