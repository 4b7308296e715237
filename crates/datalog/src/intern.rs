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
//! The interner is thread-safe (`RwLock`; reads vastly dominate) and
//! the service's workers intern freely from their own threads.

use std::collections::HashMap;
use std::fmt;
use std::sync::{LazyLock, RwLock};

/// An interned string.
///
/// Cheap to copy, compare and hash; resolves to `&'static str` via
/// [`Sym::as_str`]. Two `Sym`s are equal iff their strings are equal.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

struct Interner {
    map: HashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

static INTERNER: LazyLock<RwLock<Interner>> = LazyLock::new(|| {
    RwLock::new(Interner {
        map: HashMap::new(),
        strings: Vec::new(),
    })
});

impl Sym {
    /// Intern a string, returning its symbol. Idempotent: interning the
    /// same text always returns the same `Sym`.
    pub fn intern(text: &str) -> Sym {
        {
            let interner = INTERNER.read().unwrap();
            if let Some(&id) = interner.map.get(text) {
                return Sym(id);
            }
        }
        let mut interner = INTERNER.write().unwrap();
        // Double-check: another thread may have interned between locks.
        if let Some(&id) = interner.map.get(text) {
            return Sym(id);
        }
        let id = u32::try_from(interner.strings.len()).expect("interner overflow");
        let leaked: &'static str = Box::leak(text.to_owned().into_boxed_str());
        interner.strings.push(leaked);
        interner.map.insert(leaked, id);
        Sym(id)
    }

    /// Resolve the symbol to its string.
    pub fn as_str(self) -> &'static str {
        INTERNER.read().unwrap().strings[self.0 as usize]
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
