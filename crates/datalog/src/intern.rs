//! Global string interner backing [`crate::Var`], [`crate::PredSym`] and
//! [`crate::Const::Str`].
//!
//! Every distinct string is stored once, for the lifetime of the
//! process, and represented by a `u32` [`Sym`]. This turns the
//! optimizer's hot-path string work into integer work:
//!
//! * equality and hashing are single integer operations (`mgu`,
//!   subsumption and the residue indexes all compare predicate and
//!   variable symbols constantly);
//! * symbols are `Copy`, so terms, atoms and substitutions no longer
//!   clone heap strings while the Step-3 search rewrites queries.
//!
//! **Ordering.** `Ord` compares the *resolved strings* (with an
//! equal-id fast path), not the ids. Sort order of variables and
//! constants is observable — substitutions iterate `BTreeMap<Var, _>`,
//! canonical forms sort renamed literals, and the golden tests pin the
//! resulting output — so interning must not change it.
//!
//! The interner is thread-safe and the service's workers intern freely
//! from their own threads. Interning takes a lock (`RwLock`; a known
//! string only reads it); resolving a symbol — every `as_str` and so
//! every `Ord` comparison — takes none. Names live in an append-only
//! table of chunks, each published once through a `OnceLock`, and every
//! slot of a chunk is itself a `OnceLock` set before its id is handed
//! out: a thread holding a `Sym` got it from `intern` (or from a thread
//! that did) after the slot was set, so an acquire load finds the name.

use std::collections::HashMap;
use std::fmt;
use std::sync::{LazyLock, OnceLock, RwLock};

/// An interned string.
///
/// Cheap to copy, compare and hash; resolves to `&'static str` via
/// [`Sym::as_str`]. Two `Sym`s are equal iff their strings are equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

/// Ids by text: what `intern` looks up, and the lock it takes.
static IDS: LazyLock<RwLock<HashMap<&'static str, u32>>> = LazyLock::new(RwLock::default);

/// log₂ of the first chunk's slot count; chunk `k` holds twice as many
/// slots as chunk `k - 1`, so [`CHUNKS`] of them cover every `u32` id.
const FIRST_CHUNK_BITS: u32 = 10;
const CHUNKS: usize = 33 - FIRST_CHUNK_BITS as usize;

/// Names by id, read without a lock.
static NAMES: [OnceLock<Box<[OnceLock<&'static str>]>>; CHUNKS] =
    [const { OnceLock::new() }; CHUNKS];

/// The chunk of `id` and its slot there.
fn locate(id: u32) -> (usize, usize) {
    let at = u64::from(id) + (1 << FIRST_CHUNK_BITS);
    let top = at.ilog2();
    (
        (top - FIRST_CHUNK_BITS) as usize,
        (at - (1 << top)) as usize,
    )
}

impl Sym {
    /// Intern a string, returning its symbol. Idempotent: interning the
    /// same text always returns the same `Sym`.
    pub fn intern(text: &str) -> Sym {
        if let Some(&id) = IDS.read().unwrap().get(text) {
            return Sym(id);
        }
        let mut ids = IDS.write().unwrap();
        // Double-check: another thread may have interned between locks.
        if let Some(&id) = ids.get(text) {
            return Sym(id);
        }
        let id = u32::try_from(ids.len()).expect("interner overflow");
        let leaked: &'static str = Box::leak(text.to_owned().into_boxed_str());
        let (chunk, slot) = locate(id);
        let slots = NAMES[chunk].get_or_init(|| {
            (0..1usize << (chunk as u32 + FIRST_CHUNK_BITS))
                .map(|_| OnceLock::new())
                .collect()
        });
        slots[slot]
            .set(leaked)
            .expect("ids are handed out once, under the write lock");
        ids.insert(leaked, id);
        Sym(id)
    }

    /// Resolve the symbol to its string.
    pub fn as_str(self) -> &'static str {
        let (chunk, slot) = locate(self.0);
        NAMES[chunk]
            .get()
            .and_then(|slots| slots[slot].get())
            .expect("a symbol's name is set before its id is handed out")
    }

    /// The raw id (useful for hashing/diagnostics; ids are assigned in
    /// interning order and are not stable across processes).
    pub fn id(self) -> u32 {
        self.0
    }
}

impl PartialOrd for Sym {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Sym {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        if self.0 == other.0 {
            return std::cmp::Ordering::Equal;
        }
        self.as_str().cmp(other.as_str())
    }
}

impl fmt::Debug for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Sym {
    fn from(s: &str) -> Self {
        Sym::intern(s)
    }
}

impl From<&String> for Sym {
    fn from(s: &String) -> Self {
        Sym::intern(s)
    }
}

impl From<String> for Sym {
    fn from(s: String) -> Self {
        Sym::intern(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let a = Sym::intern("faculty");
        let b = Sym::intern("faculty");
        assert_eq!(a, b);
        assert_eq!(a.id(), b.id());
        assert_eq!(a.as_str(), "faculty");
    }

    #[test]
    fn chunks_tile_the_id_space() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(1023), (0, 1023));
        assert_eq!(locate(1024), (1, 0));
        assert_eq!(locate(3071), (1, 2047));
        assert_eq!(locate(3072), (2, 0));
        assert_eq!(locate(u32::MAX), (CHUNKS - 1, 1023));
    }

    #[test]
    fn distinct_strings_distinct_syms() {
        assert_ne!(Sym::intern("person"), Sym::intern("faculty"));
    }

    #[test]
    fn order_is_lexicographic_not_id_order() {
        // Intern in reverse lexicographic order; Ord must still sort by
        // string content.
        let z = Sym::intern("zzz_order_test");
        let a = Sym::intern("aaa_order_test");
        assert!(a < z);
        assert!(z > a);
        assert_eq!(a.cmp(&a), std::cmp::Ordering::Equal);
    }

    #[test]
    fn debug_and_display_resolve() {
        let s = Sym::intern("Age");
        assert_eq!(format!("{s}"), "Age");
        assert_eq!(format!("{s:?}"), "\"Age\"");
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    (0..100)
                        .map(|j| Sym::intern(&format!("conc_{}", (i + j) % 50)).id())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let results: Vec<Vec<u32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Same text ⇒ same id, across all threads.
        for (i, r) in results.iter().enumerate() {
            for (j, id) in r.iter().enumerate() {
                let text = format!("conc_{}", (i + j) % 50);
                assert_eq!(Sym::intern(&text).id(), *id);
            }
        }
    }
}
