//! Binary encoding shared by the WAL and the snapshot format.
//!
//! Everything on disk is built from five primitives — `u8`, `u32`/`u64`
//! little-endian, IEEE-754 `f64` bits, and length-prefixed UTF-8 strings
//! — plus a CRC-32 (IEEE polynomial) checksum over each framed unit.
//! The encoding is deliberately boring: no varints, no compression, no
//! zero-copy tricks. A record is readable with a hex dump and a copy of
//! this file.

use crate::error::{Result, StoreError};
use crate::{Oid, StoreValue};

/// CRC-32 (IEEE 802.3 polynomial, reflected) lookup table, built at
/// compile time.
const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// CRC-32 checksum (IEEE polynomial) of a byte slice.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Append-only byte writer over a `Vec<u8>`.
#[derive(Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    pub fn value(&mut self, v: &StoreValue) {
        match v {
            StoreValue::Int(i) => {
                self.u8(0);
                self.i64(*i);
            }
            StoreValue::Real(r) => {
                self.u8(1);
                self.f64(*r);
            }
            StoreValue::Str(s) => {
                self.u8(2);
                self.str(s);
            }
            StoreValue::Bool(b) => {
                self.u8(3);
                self.u8(*b as u8);
            }
            StoreValue::Obj(o) => {
                self.u8(4);
                self.u64(o.0);
            }
        }
    }
}

/// Bounds-checked byte reader; every truncation or malformed field is a
/// [`StoreError::Corrupt`] rather than a panic.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(StoreError::Corrupt {
                detail: format!(
                    "truncated {what}: need {n} bytes at offset {}, have {}",
                    self.pos,
                    self.buf.len() - self.pos
                ),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self, what: &str) -> Result<u8> {
        Ok(self.take(1, what)?[0])
    }

    pub fn bytes(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        self.take(n, what)
    }

    pub fn u32(&mut self, what: &str) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    pub fn u64(&mut self, what: &str) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    pub fn i64(&mut self, what: &str) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    pub fn f64(&mut self, what: &str) -> Result<f64> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.take(8, what)?.try_into().unwrap(),
        )))
    }

    pub fn str(&mut self, what: &str) -> Result<String> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| StoreError::Corrupt {
            detail: format!("{what}: invalid UTF-8 string"),
        })
    }

    pub fn value(&mut self, what: &str) -> Result<StoreValue> {
        Ok(match self.u8(what)? {
            0 => StoreValue::Int(self.i64(what)?),
            1 => StoreValue::Real(self.f64(what)?),
            2 => StoreValue::Str(self.str(what)?),
            3 => StoreValue::Bool(self.u8(what)? != 0),
            4 => StoreValue::Obj(Oid(self.u64(what)?)),
            tag => {
                return Err(StoreError::Corrupt {
                    detail: format!("{what}: unknown value tag {tag}"),
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn value_round_trip() {
        let values = vec![
            StoreValue::Int(-42),
            StoreValue::Real(3.5),
            StoreValue::Str("héllo".into()),
            StoreValue::Bool(true),
            StoreValue::Obj(Oid(u64::MAX)),
        ];
        let mut w = Writer::new();
        for v in &values {
            w.value(v);
        }
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        for v in &values {
            assert_eq!(&r.value("v").unwrap(), v);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn truncated_reads_error_cleanly() {
        let mut w = Writer::new();
        w.str("hello");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..bytes.len() - 1]);
        assert!(matches!(r.str("s"), Err(StoreError::Corrupt { .. })));
    }
}
