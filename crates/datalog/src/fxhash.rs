//! A minimal multiply-rotate hasher for internal maps keyed by small
//! values (interned symbols, fingerprints, predicate/arity pairs).
//!
//! The default `SipHash` is DoS-resistant but costs ~20ns even for a
//! single `u32`; the compile and search paths hash interned symbols in
//! tight loops, where that overhead dominates. Keys here are either
//! interned ids or already-mixed 64-bit fingerprints — never untrusted
//! external input — so a fast non-cryptographic hash is appropriate.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the FxHash family (Firefox / rustc): a 64-bit odd
/// constant with well-distributed bits.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Multiply-rotate hasher state.
#[derive(Default)]
pub struct FxHasher(u64);

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64)
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64)
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64)
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n)
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64)
    }

    #[inline]
    fn write_i64(&mut self, n: i64) {
        self.add(n as u64)
    }
}

/// Spread every bit of `x` over the whole word: both halves of its
/// 128-bit product with an odd constant, xor-ed. A multiply-rotate state
/// carries its input's low bits only upwards, and keys that differ in a
/// few bits (consecutive ids, round floats) otherwise share most of the
/// bits a table picks its slot from.
#[inline]
pub fn fold(x: u64) -> u64 {
    const FOLD: u64 = 0x9e37_79b9_7f4a_7c15;
    let wide = u128::from(x) * u128::from(FOLD);
    ((wide >> 64) as u64) ^ (wide as u64)
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<T> = std::collections::HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distinct_small_keys_hash_distinctly() {
        let mut seen = std::collections::HashSet::new();
        for i in 0u32..10_000 {
            let mut h = FxHasher::default();
            h.write_u32(i);
            seen.insert(h.finish());
        }
        assert_eq!(seen.len(), 10_000);
    }

    /// Round `f64`s carry nothing in the low bits this hasher passes
    /// through to `std`'s bucket index; [`crate::term::R64`] folds its key
    /// before hashing, so a map keyed on a round-real column costs what
    /// the same map costs on integers (it was 50 times that at this size,
    /// and quadratic).
    #[test]
    fn round_reals_hash_as_well_as_integers() {
        use crate::term::Const;
        use std::time::{Duration, Instant};
        const KEYS: u32 = 32_000;
        fn build(key: impl Fn(u32) -> Const) -> (FxHashMap<Const, Vec<u32>>, Duration) {
            let mut best: Option<(FxHashMap<Const, Vec<u32>>, Duration)> = None;
            for _ in 0..3 {
                let started = Instant::now();
                let mut map: FxHashMap<Const, Vec<u32>> = FxHashMap::default();
                for i in 0..KEYS {
                    map.entry(key(i)).or_default().push(i);
                }
                let took = started.elapsed();
                if best.as_ref().is_none_or(|(_, t)| took < *t) {
                    best = Some((map, took));
                }
            }
            best.expect("three rounds")
        }
        let real = |i: u32| Const::from(40_000.0 + f64::from(i));
        let (ints, int_time) = build(|i| Const::Int(40_000 + i64::from(i)));
        let (reals, real_time) = build(real);
        assert_eq!((ints.len(), reals.len()), (KEYS as usize, KEYS as usize));
        for i in 0..KEYS {
            assert_eq!(reals.get(&real(i)), Some(&vec![i]));
        }
        assert_eq!(reals.get(&Const::from(39_999.5)), None);
        assert!(
            real_time <= int_time * 4 + Duration::from_millis(2),
            "{KEYS} round reals took {real_time:?}, as many integers {int_time:?}"
        );
    }

    #[test]
    fn map_roundtrip() {
        let mut m: FxHashMap<u64, u64> = FxHashMap::default();
        for i in 0..1000u64 {
            m.insert(i, i * 2);
        }
        for i in 0..1000u64 {
            assert_eq!(m.get(&i), Some(&(i * 2)));
        }
    }
}
