//! Logical store operations and their wire encoding.
//!
//! Every mutation of the store is expressed as a [`StoreOp`] — the unit
//! that is appended to the write-ahead log and applied to the in-memory
//! shard state. Simple ops are deliberately *shard-local*: each one
//! touches the state of exactly one shard (the shard owning `oid` /
//! `from`), so a per-shard WAL replayed in order reconstructs that
//! shard exactly. Compound mutations (linking an inverse pair, deleting
//! an object and severing its links) are expressed as a single
//! [`StoreOp::Batch`] of shard-local components — one WAL frame, so a
//! crash can never persist half of a compound mutation.

use crate::codec::{Reader, Writer};
use crate::error::{Result, StoreError};
use std::fmt;

/// An object identifier. Opaque: only identity is meaningful. The codec
/// writes it as its `u64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid(pub u64);

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An attribute value: the one value type of the object layer, logged,
/// snapshotted and held in memory as it is.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreValue {
    /// 64-bit integer.
    Int(i64),
    /// IEEE-754 double.
    Real(f64),
    /// UTF-8 string.
    Str(String),
    /// Boolean.
    Bool(bool),
    /// Reference to another object (structure attributes).
    Obj(Oid),
}

impl StoreValue {
    /// The OID inside, if this is an object reference.
    pub fn as_oid(&self) -> Option<Oid> {
        match self {
            StoreValue::Obj(o) => Some(*o),
            _ => None,
        }
    }

    /// The float inside (int or real), if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            StoreValue::Int(v) => Some(*v as f64),
            StoreValue::Real(v) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for StoreValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreValue::Int(v) => write!(f, "{v}"),
            StoreValue::Real(v) => write!(f, "{v}"),
            StoreValue::Str(s) => write!(f, "{s:?}"),
            StoreValue::Bool(b) => write!(f, "{b}"),
            StoreValue::Obj(o) => o.fmt(f),
        }
    }
}

impl From<i64> for StoreValue {
    fn from(v: i64) -> Self {
        StoreValue::Int(v)
    }
}
impl From<f64> for StoreValue {
    fn from(v: f64) -> Self {
        StoreValue::Real(v)
    }
}
impl From<&str> for StoreValue {
    fn from(v: &str) -> Self {
        StoreValue::Str(v.to_string())
    }
}
impl From<String> for StoreValue {
    fn from(v: String) -> Self {
        StoreValue::Str(v)
    }
}
impl From<bool> for StoreValue {
    fn from(v: bool) -> Self {
        StoreValue::Bool(v)
    }
}
impl From<Oid> for StoreValue {
    fn from(o: Oid) -> Self {
        StoreValue::Obj(o)
    }
}

/// A shard-local logical mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreOp {
    /// Insert (or overwrite) an object with its full attribute map.
    PutObject {
        /// Object identifier (assigned by the caller).
        oid: u64,
        /// Most specific class or structure name.
        class: String,
        /// Attribute name/value pairs.
        attrs: Vec<(String, StoreValue)>,
    },
    /// Overwrite a single attribute of an existing object.
    SetAttr {
        /// Target object.
        oid: u64,
        /// Attribute name.
        attr: String,
        /// New value.
        value: StoreValue,
    },
    /// Append one directed relationship pair to a predicate. Inverse
    /// maintenance is the caller's job (it emits a second `Link`).
    Link {
        /// Relationship predicate name.
        pred: String,
        /// Source OID (the sharding key).
        from: u64,
        /// Target OID.
        to: u64,
    },
    /// Remove one directed relationship pair.
    Unlink {
        /// Relationship predicate name.
        pred: String,
        /// Source OID (the sharding key).
        from: u64,
        /// Target OID.
        to: u64,
    },
    /// Remove an object. Links must already have been severed by
    /// explicit [`StoreOp::Unlink`] ops.
    RemoveObject {
        /// Target object.
        oid: u64,
    },
    /// Record an access-support-relation definition (original
    /// definition-site arguments, so the object layer can re-register
    /// the view on recovery).
    DefineAsr {
        /// View name as passed at the definition site.
        name: String,
        /// Root class of the path.
        class: String,
        /// Relationship member names along the path.
        path: Vec<String>,
    },
    /// A compound mutation: shard-local component ops that commit
    /// atomically as **one** WAL frame. A crash either persists the
    /// whole batch or none of it — never a forward link without its
    /// inverse, never an unlink sweep without its object removal.
    /// Components may span shards; nesting and store-global ops
    /// (`DefineAsr`) are rejected.
    Batch {
        /// The component ops, applied in order.
        ops: Vec<StoreOp>,
    },
}

const TAG_PUT_OBJECT: u8 = 1;
const TAG_SET_ATTR: u8 = 2;
const TAG_LINK: u8 = 3;
const TAG_UNLINK: u8 = 4;
const TAG_REMOVE_OBJECT: u8 = 5;
const TAG_DEFINE_ASR: u8 = 6;
const TAG_BATCH: u8 = 7;

impl StoreOp {
    /// The OID whose hash selects the owning shard. Store-global ops
    /// (ASR definitions) return `None` and live on shard 0; a batch
    /// reports its first component's key (it is *logged* on that shard
    /// but applied to every shard its components touch).
    pub fn shard_key(&self) -> Option<u64> {
        match self {
            StoreOp::PutObject { oid, .. }
            | StoreOp::SetAttr { oid, .. }
            | StoreOp::RemoveObject { oid } => Some(*oid),
            StoreOp::Link { from, .. } | StoreOp::Unlink { from, .. } => Some(*from),
            StoreOp::DefineAsr { .. } => None,
            StoreOp::Batch { ops } => ops.first().and_then(StoreOp::shard_key),
        }
    }

    /// Serialize to the on-disk byte form.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            StoreOp::PutObject { oid, class, attrs } => {
                w.u8(TAG_PUT_OBJECT);
                w.u64(*oid);
                w.str(class);
                w.u32(attrs.len() as u32);
                for (name, value) in attrs {
                    w.str(name);
                    w.value(value);
                }
            }
            StoreOp::SetAttr { oid, attr, value } => {
                w.u8(TAG_SET_ATTR);
                w.u64(*oid);
                w.str(attr);
                w.value(value);
            }
            StoreOp::Link { pred, from, to } => {
                w.u8(TAG_LINK);
                w.str(pred);
                w.u64(*from);
                w.u64(*to);
            }
            StoreOp::Unlink { pred, from, to } => {
                w.u8(TAG_UNLINK);
                w.str(pred);
                w.u64(*from);
                w.u64(*to);
            }
            StoreOp::RemoveObject { oid } => {
                w.u8(TAG_REMOVE_OBJECT);
                w.u64(*oid);
            }
            StoreOp::DefineAsr { name, class, path } => {
                w.u8(TAG_DEFINE_ASR);
                w.str(name);
                w.str(class);
                w.u32(path.len() as u32);
                for p in path {
                    w.str(p);
                }
            }
            StoreOp::Batch { ops } => {
                w.u8(TAG_BATCH);
                w.u32(ops.len() as u32);
                for op in ops {
                    let bytes = op.encode();
                    w.u32(bytes.len() as u32);
                    w.bytes(&bytes);
                }
            }
        }
        w.into_bytes()
    }

    /// Deserialize from the on-disk byte form.
    pub fn decode(bytes: &[u8]) -> Result<StoreOp> {
        let mut r = Reader::new(bytes);
        let op = match r.u8("op tag")? {
            TAG_PUT_OBJECT => {
                let oid = r.u64("put oid")?;
                let class = r.str("put class")?;
                let n = r.u32("put attr count")?;
                let mut attrs = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let name = r.str("put attr name")?;
                    let value = r.value("put attr value")?;
                    attrs.push((name, value));
                }
                StoreOp::PutObject { oid, class, attrs }
            }
            TAG_SET_ATTR => StoreOp::SetAttr {
                oid: r.u64("set oid")?,
                attr: r.str("set attr")?,
                value: r.value("set value")?,
            },
            TAG_LINK => StoreOp::Link {
                pred: r.str("link pred")?,
                from: r.u64("link from")?,
                to: r.u64("link to")?,
            },
            TAG_UNLINK => StoreOp::Unlink {
                pred: r.str("unlink pred")?,
                from: r.u64("unlink from")?,
                to: r.u64("unlink to")?,
            },
            TAG_REMOVE_OBJECT => StoreOp::RemoveObject {
                oid: r.u64("remove oid")?,
            },
            TAG_DEFINE_ASR => {
                let name = r.str("asr name")?;
                let class = r.str("asr class")?;
                let n = r.u32("asr path count")?;
                let mut path = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    path.push(r.str("asr path segment")?);
                }
                StoreOp::DefineAsr { name, class, path }
            }
            TAG_BATCH => {
                let n = r.u32("batch op count")?;
                let mut ops = Vec::with_capacity(n as usize);
                for _ in 0..n {
                    let len = r.u32("batch op length")? as usize;
                    let op = StoreOp::decode(r.bytes(len, "batch op bytes")?)?;
                    if matches!(op, StoreOp::Batch { .. } | StoreOp::DefineAsr { .. }) {
                        return Err(StoreError::Corrupt {
                            detail: "batch component must be a shard-local op".into(),
                        });
                    }
                    ops.push(op);
                }
                StoreOp::Batch { ops }
            }
            tag => {
                return Err(StoreError::Corrupt {
                    detail: format!("unknown op tag {tag}"),
                })
            }
        };
        if !r.is_empty() {
            return Err(StoreError::Corrupt {
                detail: "trailing bytes after op".into(),
            });
        }
        Ok(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<StoreOp> {
        vec![
            StoreOp::PutObject {
                oid: 7,
                class: "Faculty".into(),
                attrs: vec![
                    ("name".into(), StoreValue::Str("smith".into())),
                    ("age".into(), StoreValue::Int(50)),
                    ("salary".into(), StoreValue::Real(90000.0)),
                    ("tenured".into(), StoreValue::Bool(true)),
                    ("address".into(), StoreValue::Obj(Oid(8))),
                ],
            },
            StoreOp::SetAttr {
                oid: 7,
                attr: "age".into(),
                value: StoreValue::Int(51),
            },
            StoreOp::Link {
                pred: "takes".into(),
                from: 1,
                to: 2,
            },
            StoreOp::Unlink {
                pred: "takes".into(),
                from: 1,
                to: 2,
            },
            StoreOp::RemoveObject { oid: 7 },
            StoreOp::DefineAsr {
                name: "asr1".into(),
                class: "Student".into(),
                path: vec!["takes".into(), "is_section_of".into()],
            },
            StoreOp::Batch {
                ops: vec![
                    StoreOp::Link {
                        pred: "takes".into(),
                        from: 1,
                        to: 2,
                    },
                    StoreOp::Link {
                        pred: "taken_by".into(),
                        from: 2,
                        to: 1,
                    },
                ],
            },
        ]
    }

    #[test]
    fn value_accessors_and_display() {
        assert_eq!(StoreValue::Obj(Oid(1)).as_oid(), Some(Oid(1)));
        assert_eq!(StoreValue::Int(1).as_oid(), None);
        assert_eq!(StoreValue::Int(2).as_f64(), Some(2.0));
        assert_eq!(StoreValue::Real(2.5).as_f64(), Some(2.5));
        assert_eq!(StoreValue::Str("x".into()).as_f64(), None);
        let shown: Vec<String> = [
            StoreValue::Int(-3),
            StoreValue::Real(0.5),
            StoreValue::Str("a\"b".into()),
            StoreValue::Bool(true),
            StoreValue::Obj(Oid(7)),
        ]
        .iter()
        .map(ToString::to_string)
        .collect();
        assert_eq!(shown, ["-3", "0.5", "\"a\\\"b\"", "true", "#7"]);
    }

    #[test]
    fn op_encode_decode_round_trip() {
        for op in samples() {
            let bytes = op.encode();
            assert_eq!(StoreOp::decode(&bytes).unwrap(), op);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(StoreOp::decode(&[]).is_err());
        assert!(StoreOp::decode(&[99]).is_err());
        let mut bytes = samples()[0].encode();
        bytes.push(0); // trailing byte
        assert!(StoreOp::decode(&bytes).is_err());
        bytes.truncate(bytes.len().saturating_sub(4));
        assert!(StoreOp::decode(&bytes).is_err());
    }

    #[test]
    fn shard_keys() {
        let ops = samples();
        assert_eq!(ops[0].shard_key(), Some(7));
        assert_eq!(ops[2].shard_key(), Some(1));
        assert_eq!(ops[5].shard_key(), None);
        // A batch reports its first component's key (the WAL it logs to).
        assert_eq!(ops[6].shard_key(), Some(1));
    }

    #[test]
    fn batch_decode_rejects_non_local_components() {
        let nested = StoreOp::Batch {
            ops: vec![StoreOp::Batch { ops: vec![] }],
        };
        assert!(StoreOp::decode(&nested.encode()).is_err());
        let global = StoreOp::Batch {
            ops: vec![StoreOp::DefineAsr {
                name: "v".into(),
                class: "C".into(),
                path: vec![],
            }],
        };
        assert!(StoreOp::decode(&global.encode()).is_err());
    }
}
