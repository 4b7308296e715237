//! Object identifiers and attribute values.

use sqo_datalog::{Const, R64};
use std::fmt;

/// An object identifier. Opaque: only identity is meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid(pub u64);

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Integer.
    Int(i64),
    /// Real.
    Real(f64),
    /// String.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// A reference to another object (structure attributes).
    Obj(Oid),
}

impl Value {
    /// Convert to the Datalog constant representation.
    pub fn to_const(&self) -> Const {
        match self {
            Value::Int(v) => Const::Int(*v),
            Value::Real(v) => Const::Real(R64::new(*v)),
            Value::Str(s) => Const::Str(sqo_datalog::Sym::intern(s)),
            Value::Bool(b) => Const::Bool(*b),
            Value::Obj(o) => Const::Oid(o.0),
        }
    }

    /// Convert from a Datalog constant.
    pub fn from_const(c: &Const) -> Value {
        match c {
            Const::Int(v) => Value::Int(*v),
            Const::Real(r) => Value::Real(r.get()),
            Const::Str(s) => Value::Str(s.as_str().to_string()),
            Const::Bool(b) => Value::Bool(*b),
            Const::Oid(o) => Value::Obj(Oid(*o)),
        }
    }

    /// The OID inside, if this is an object reference.
    pub fn as_oid(&self) -> Option<Oid> {
        match self {
            Value::Obj(o) => Some(*o),
            _ => None,
        }
    }

    /// The float inside (int or real), if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Real(v) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Real(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Obj(o) => o.fmt(f),
        }
    }
}

impl Value {
    /// Convert to the durable store's value representation.
    pub fn to_store(&self) -> sqo_store::StoreValue {
        match self {
            Value::Int(v) => sqo_store::StoreValue::Int(*v),
            Value::Real(v) => sqo_store::StoreValue::Real(*v),
            Value::Str(s) => sqo_store::StoreValue::Str(s.clone()),
            Value::Bool(b) => sqo_store::StoreValue::Bool(*b),
            Value::Obj(o) => sqo_store::StoreValue::Obj(o.0),
        }
    }
}

impl From<sqo_store::StoreValue> for Value {
    fn from(v: sqo_store::StoreValue) -> Self {
        match v {
            sqo_store::StoreValue::Int(i) => Value::Int(i),
            sqo_store::StoreValue::Real(r) => Value::Real(r),
            sqo_store::StoreValue::Str(s) => Value::Str(s),
            sqo_store::StoreValue::Bool(b) => Value::Bool(b),
            sqo_store::StoreValue::Obj(o) => Value::Obj(Oid(o)),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Real(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<Oid> for Value {
    fn from(o: Oid) -> Self {
        Value::Obj(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_roundtrip() {
        for v in [
            Value::Int(3),
            Value::Real(0.5),
            Value::Str("a".into()),
            Value::Bool(true),
            Value::Obj(Oid(7)),
        ] {
            assert_eq!(Value::from_const(&v.to_const()), v);
        }
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Obj(Oid(1)).as_oid(), Some(Oid(1)));
        assert_eq!(Value::Int(1).as_oid(), None);
        assert_eq!(Value::Int(2).as_f64(), Some(2.0));
        assert_eq!(Value::Real(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Str("x".into()).as_f64(), None);
    }
}
