//! Terms: variables and constants.
//!
//! We follow the notation of the paper (Section 2): predicate and constant
//! symbols start with lower-case letters, variables start with upper-case
//! letters. Object identifiers (OIDs) are a distinguished constant kind so
//! that the object-database substrate can round-trip identity through the
//! Datalog representation.

use crate::intern::Sym;
use std::cmp::Ordering;
use std::fmt;

/// A totally ordered `f64` wrapper so real-valued constants can participate
/// in `Eq`/`Ord`/`Hash`. NaN is normalized to a single bit pattern and sorts
/// above all other values; `-0.0` is normalized to `0.0`.
#[derive(Debug, Clone, Copy)]
pub struct R64(f64);

impl R64 {
    /// Wrap a float, normalizing NaN and negative zero.
    pub fn new(v: f64) -> Self {
        if v.is_nan() {
            R64(f64::NAN)
        } else if v == 0.0 {
            R64(0.0)
        } else {
            R64(v)
        }
    }

    /// The underlying float value.
    pub fn get(self) -> f64 {
        self.0
    }

    fn key(self) -> u64 {
        if self.0.is_nan() {
            u64::MAX
        } else {
            let bits = self.0.to_bits();
            if bits >> 63 == 0 {
                bits | (1 << 63)
            } else {
                !bits
            }
        }
    }
}

impl PartialEq for R64 {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for R64 {}
impl PartialOrd for R64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for R64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}
impl std::hash::Hash for R64 {
    /// Round reals (`40000.0`, `40001.0`, …) differ only in the high bits
    /// of their encoding and have zeros below. [`crate::fxhash`] is
    /// multiply-rotate, so the low bits of its hash are those of the key,
    /// and `std`'s tables index by the low bits: hashed as they are, such
    /// keys share a handful of buckets and a map over a `salary` column
    /// goes quadratic. So the key is folded first: both halves of its
    /// 128-bit product with an odd constant, xor-ed, carry every bit of
    /// the key into the low bits.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        const FOLD: u64 = 0x9e37_79b9_7f4a_7c15;
        let wide = u128::from(self.key()) * u128::from(FOLD);
        (((wide >> 64) as u64) ^ (wide as u64)).hash(state);
    }
}
impl From<f64> for R64 {
    fn from(v: f64) -> Self {
        R64::new(v)
    }
}
impl fmt::Display for R64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A variable name. By convention variables start with an upper-case letter
/// (e.g. `Age`, `OID1`); the parser enforces this, but programmatic
/// construction accepts any non-empty string.
///
/// Backed by an interned [`Sym`]: `Copy`, integer equality/hashing,
/// lexicographic `Ord` (sort order is unchanged by interning).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub Sym);

impl Var {
    /// Create a variable from anything string-like.
    pub fn new(name: impl Into<Sym>) -> Self {
        Var(name.into())
    }

    /// The variable's name.
    pub fn name(&self) -> &'static str {
        self.0.as_str()
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl From<&str> for Var {
    fn from(s: &str) -> Self {
        Var(Sym::intern(s))
    }
}

/// A constant value.
///
/// `Copy`: string constants are interned [`Sym`]s, so constants (and
/// [`Term`]s) move without heap traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Const {
    /// Integer constant, e.g. `30`, `40000`.
    Int(i64),
    /// Real constant, e.g. `0.1`.
    Real(R64),
    /// String (or symbolic) constant, e.g. `"john"`.
    Str(Sym),
    /// Boolean constant.
    Bool(bool),
    /// Object identifier. OIDs are opaque: only equality is meaningful.
    Oid(u64),
}

impl Const {
    /// A short tag naming the constant's type, used in error messages and
    /// for comparability checks.
    pub fn type_tag(&self) -> &'static str {
        match self {
            Const::Int(_) | Const::Real(_) => "number",
            Const::Str(_) => "string",
            Const::Bool(_) => "bool",
            Const::Oid(_) => "oid",
        }
    }

    /// Whether an *order* comparison (`<`, `<=`, …) between the two
    /// constants is meaningful. Equality is always meaningful (constants of
    /// different types are simply unequal).
    pub fn comparable(&self, other: &Const) -> bool {
        self.type_tag() == other.type_tag() && self.type_tag() != "oid"
    }

    /// Total order used by the constraint solver and the evaluator for
    /// comparable constants. Numbers compare numerically across
    /// `Int`/`Real`; other types compare within their kind.
    pub fn order(&self, other: &Const) -> Option<Ordering> {
        match (self, other) {
            (Const::Int(a), Const::Int(b)) => Some(a.cmp(b)),
            (Const::Real(a), Const::Real(b)) => Some(a.cmp(b)),
            (Const::Int(a), Const::Real(b)) => R64::new(*a as f64).partial_cmp(b),
            (Const::Real(a), Const::Int(b)) => a.partial_cmp(&R64::new(*b as f64)),
            (Const::Str(a), Const::Str(b)) => Some(a.as_str().cmp(b.as_str())),
            (Const::Bool(a), Const::Bool(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// Numeric-aware equality: `Int(3)` equals `Real(3.0)`.
    pub fn same_value(&self, other: &Const) -> bool {
        match (self, other) {
            (Const::Oid(a), Const::Oid(b)) => a == b,
            _ => self.order(other) == Some(Ordering::Equal),
        }
    }
}

impl fmt::Display for Const {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Const::Int(v) => write!(f, "{v}"),
            Const::Real(v) => {
                // Always with a fraction: an integral one would parse back
                // as an `Int`.
                let x = v.get();
                if x.fract() == 0.0 {
                    write!(f, "{x:.1}")
                } else {
                    write!(f, "{x}")
                }
            }
            Const::Str(s) => write!(f, "{:?}", s.as_str()),
            Const::Bool(b) => write!(f, "{b}"),
            Const::Oid(o) => write!(f, "#{o}"),
        }
    }
}

impl From<i64> for Const {
    fn from(v: i64) -> Self {
        Const::Int(v)
    }
}
impl From<f64> for Const {
    fn from(v: f64) -> Self {
        Const::Real(R64::new(v))
    }
}
impl From<&str> for Const {
    fn from(v: &str) -> Self {
        Const::Str(Sym::intern(v))
    }
}
impl From<String> for Const {
    fn from(v: String) -> Self {
        Const::Str(Sym::intern(&v))
    }
}
impl From<bool> for Const {
    fn from(v: bool) -> Self {
        Const::Bool(v)
    }
}

/// A term: either a variable or a constant. The Datalog fragment of the
/// paper is function-free, so there are no compound terms.
///
/// `Copy` since both variants are interned-symbol sized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A variable.
    Var(Var),
    /// A constant.
    Const(Const),
}

impl Term {
    /// Construct a variable term.
    pub fn var(name: impl Into<Sym>) -> Self {
        Term::Var(Var::new(name))
    }

    /// Construct an integer constant term.
    pub fn int(v: i64) -> Self {
        Term::Const(Const::Int(v))
    }

    /// Construct a real constant term.
    pub fn real(v: f64) -> Self {
        Term::Const(Const::Real(R64::new(v)))
    }

    /// Construct a string constant term.
    pub fn str(v: impl Into<Sym>) -> Self {
        Term::Const(Const::Str(v.into()))
    }

    /// Construct an OID constant term.
    pub fn oid(v: u64) -> Self {
        Term::Const(Const::Oid(v))
    }

    /// The variable inside, if this is a variable.
    pub fn as_var(&self) -> Option<&Var> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// The constant inside, if this is a constant.
    pub fn as_const(&self) -> Option<&Const> {
        match self {
            Term::Const(c) => Some(c),
            Term::Var(_) => None,
        }
    }

    /// Whether this term is ground (i.e. a constant).
    pub fn is_ground(&self) -> bool {
        matches!(self, Term::Const(_))
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => v.fmt(f),
            Term::Const(c) => c.fmt(f),
        }
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Self {
        Term::Var(v)
    }
}
impl From<Const> for Term {
    fn from(c: Const) -> Self {
        Term::Const(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r64_total_order() {
        assert!(R64::new(-1.0) < R64::new(0.0));
        assert!(R64::new(0.0) < R64::new(1.5));
        assert_eq!(R64::new(-0.0), R64::new(0.0));
        assert!(R64::new(f64::NAN) == R64::new(f64::NAN));
        assert!(R64::new(1e300) < R64::new(f64::NAN));
        assert!(R64::new(f64::NEG_INFINITY) < R64::new(f64::MIN));
    }

    #[test]
    fn const_cross_type_order() {
        assert_eq!(
            Const::Int(3).order(&Const::Real(R64::new(3.0))),
            Some(Ordering::Equal)
        );
        assert!(Const::Int(3).same_value(&Const::Real(R64::new(3.0))));
        assert_eq!(Const::Str("a".into()).order(&Const::Int(1)), None);
        assert!(!Const::Str("a".into()).comparable(&Const::Int(1)));
        assert!(!Const::Oid(1).comparable(&Const::Oid(2)));
        assert!(Const::Oid(1).same_value(&Const::Oid(1)));
        assert!(!Const::Oid(1).same_value(&Const::Oid(2)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Term::var("Age").to_string(), "Age");
        assert_eq!(Term::int(30).to_string(), "30");
        assert_eq!(Term::str("john").to_string(), "\"john\"");
        assert_eq!(Term::oid(7).to_string(), "#7");
        assert_eq!(Term::real(0.5).to_string(), "0.5");
        assert_eq!(Term::real(3.0).to_string(), "3.0");
    }

    #[test]
    fn groundness() {
        assert!(Term::int(1).is_ground());
        assert!(!Term::var("X").is_ground());
        assert_eq!(Term::var("X").as_var(), Some(&Var::new("X")));
        assert_eq!(Term::int(1).as_const(), Some(&Const::Int(1)));
    }
}
