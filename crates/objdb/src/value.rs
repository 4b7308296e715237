//! Object identifiers and attribute values: the store's record types,
//! which the head holds as they are logged, and their Datalog constants.

use sqo_datalog::{Const, Sym, R64};
pub use sqo_store::{Oid, StoreValue as Value};

/// Convert to the Datalog constant representation.
pub fn to_const(v: &Value) -> Const {
    match v {
        Value::Int(v) => Const::Int(*v),
        Value::Real(v) => Const::Real(R64::new(*v)),
        Value::Str(s) => Const::Str(Sym::intern(s)),
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
            assert_eq!(from_const(&to_const(&v)), v);
        }
    }
}
