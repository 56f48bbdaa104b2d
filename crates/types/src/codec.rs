//! Compact binary encoding for the core data model, replacing the old
//! (never-exercised) `serde` derives with a format we control end to end.
//!
//! The format is the natural one for a replication wire path:
//!
//! * unsigned integers — LEB128 varint (7 bits per byte, little-endian);
//! * signed integers — zigzag-mapped then varint, so small negatives stay
//!   small;
//! * `f64` — 8 raw little-endian IEEE-754 bytes (bit-exact round trip,
//!   including negative zero and non-finite values);
//! * strings / sequences — varint length prefix, then payload;
//! * enums (`Value`, `DataType`) — one tag byte, then the payload.
//!
//! Everything implements [`BinCodec`], which provides `to_bytes` /
//! `from_bytes` plus streaming `encode_into` / `decode_from` for callers
//! (like `mtc-replication`'s wire frames) that pack many items into one
//! buffer. Decoding is strict: trailing bytes, truncated payloads, bad
//! tags and invalid UTF-8 are all errors, never panics.


use crate::error::{Error, Result};
use crate::row::Row;
use crate::schema::{Column, Schema};
use crate::value::{DataType, Value};

/// Cursor over a byte slice with strict bounds checking.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    pub fn read_u8(&mut self) -> Result<u8> {
        let b = *self
            .buf
            .get(self.pos)
            .ok_or_else(|| Error::encoding("unexpected end of input"))?;
        self.pos += 1;
        Ok(b)
    }

    pub fn read_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::encoding(format!(
                "unexpected end of input: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn read_varint(&mut self) -> Result<u64> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.read_u8()?;
            if shift == 63 && byte > 1 {
                return Err(Error::encoding("varint overflows u64"));
            }
            value |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
            if shift > 63 {
                return Err(Error::encoding("varint longer than 10 bytes"));
            }
        }
    }

    pub fn read_zigzag(&mut self) -> Result<i64> {
        let raw = self.read_varint()?;
        Ok(((raw >> 1) as i64) ^ -((raw & 1) as i64))
    }

    pub fn read_f64(&mut self) -> Result<f64> {
        let bytes: [u8; 8] = self.read_bytes(8)?.try_into().expect("exact slice");
        Ok(f64::from_le_bytes(bytes))
    }

    pub fn read_str(&mut self) -> Result<&'a str> {
        let len = self.read_varint()? as usize;
        // Guard against hostile lengths before allocating/reading.
        if len > self.remaining() {
            return Err(Error::encoding(format!(
                "string length {len} exceeds remaining input {}",
                self.remaining()
            )));
        }
        std::str::from_utf8(self.read_bytes(len)?)
            .map_err(|e| Error::encoding(format!("invalid UTF-8 in string: {e}")))
    }
}

/// Append-only encoding helpers over a `Vec<u8>`.
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

pub fn write_zigzag(out: &mut Vec<u8>, v: i64) {
    write_varint(out, ((v << 1) ^ (v >> 63)) as u64);
}

pub fn write_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub fn write_str(out: &mut Vec<u8>, s: &str) {
    write_varint(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Binary encode/decode. `to_bytes`/`from_bytes` are whole-buffer
/// conveniences; the `*_into`/`*_from` pair streams.
pub trait BinCodec: Sized {
    fn encode_into(&self, out: &mut Vec<u8>);
    fn decode_from(r: &mut ByteReader<'_>) -> Result<Self>;

    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Strict decode: the buffer must contain exactly one value.
    fn from_bytes(buf: &[u8]) -> Result<Self> {
        let mut r = ByteReader::new(buf);
        let v = Self::decode_from(&mut r)?;
        if !r.is_empty() {
            return Err(Error::encoding(format!(
                "{} trailing bytes after value",
                r.remaining()
            )));
        }
        Ok(v)
    }
}

// --- Value ---------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_BOOL_FALSE: u8 = 1;
const TAG_BOOL_TRUE: u8 = 2;
const TAG_INT: u8 = 3;
const TAG_FLOAT: u8 = 4;
const TAG_STR: u8 = 5;
const TAG_TIMESTAMP: u8 = 6;

impl BinCodec for Value {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(TAG_NULL),
            Value::Bool(false) => out.push(TAG_BOOL_FALSE),
            Value::Bool(true) => out.push(TAG_BOOL_TRUE),
            Value::Int(i) => {
                out.push(TAG_INT);
                write_zigzag(out, *i);
            }
            Value::Float(f) => {
                out.push(TAG_FLOAT);
                write_f64(out, *f);
            }
            Value::Str(s) => {
                out.push(TAG_STR);
                write_str(out, s);
            }
            Value::Timestamp(t) => {
                out.push(TAG_TIMESTAMP);
                write_zigzag(out, *t);
            }
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Value> {
        Ok(match r.read_u8()? {
            TAG_NULL => Value::Null,
            TAG_BOOL_FALSE => Value::Bool(false),
            TAG_BOOL_TRUE => Value::Bool(true),
            TAG_INT => Value::Int(r.read_zigzag()?),
            TAG_FLOAT => Value::Float(r.read_f64()?),
            TAG_STR => Value::str(r.read_str()?),
            TAG_TIMESTAMP => Value::Timestamp(r.read_zigzag()?),
            tag => return Err(Error::encoding(format!("unknown Value tag {tag}"))),
        })
    }
}

// --- Row -----------------------------------------------------------------

impl BinCodec for Row {
    fn encode_into(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        for v in self.values() {
            v.encode_into(out);
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Row> {
        let n = r.read_varint()? as usize;
        if n > r.remaining() {
            // Each value needs ≥ 1 byte; reject absurd counts early.
            return Err(Error::encoding(format!(
                "row arity {n} exceeds remaining input {}",
                r.remaining()
            )));
        }
        let mut values = Vec::with_capacity(n);
        for _ in 0..n {
            values.push(Value::decode_from(r)?);
        }
        Ok(Row::new(values))
    }
}

// --- DataType / Column / Schema ------------------------------------------

impl BinCodec for DataType {
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(match self {
            DataType::Bool => 0,
            DataType::Int => 1,
            DataType::Float => 2,
            DataType::Str => 3,
            DataType::Timestamp => 4,
        });
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<DataType> {
        Ok(match r.read_u8()? {
            0 => DataType::Bool,
            1 => DataType::Int,
            2 => DataType::Float,
            3 => DataType::Str,
            4 => DataType::Timestamp,
            tag => return Err(Error::encoding(format!("unknown DataType tag {tag}"))),
        })
    }
}

impl BinCodec for Column {
    fn encode_into(&self, out: &mut Vec<u8>) {
        write_str(out, &self.name);
        self.dtype.encode_into(out);
        out.push(self.nullable as u8);
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Column> {
        let name = r.read_str()?.to_string();
        let dtype = DataType::decode_from(r)?;
        let nullable = match r.read_u8()? {
            0 => false,
            1 => true,
            b => return Err(Error::encoding(format!("bad nullability byte {b}"))),
        };
        Ok(Column {
            name,
            dtype,
            nullable,
        })
    }
}

impl BinCodec for Schema {
    fn encode_into(&self, out: &mut Vec<u8>) {
        write_varint(out, self.columns().len() as u64);
        for c in self.columns() {
            c.encode_into(out);
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Schema> {
        let n = r.read_varint()? as usize;
        if n > r.remaining() {
            return Err(Error::encoding(format!(
                "schema width {n} exceeds remaining input {}",
                r.remaining()
            )));
        }
        let mut columns = Vec::with_capacity(n);
        for _ in 0..n {
            columns.push(Column::decode_from(r)?);
        }
        Ok(Schema::new(columns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn round_trip<T: BinCodec + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(&bytes).expect("decode");
        assert_eq!(&back, v, "round trip through {bytes:?}");
    }

    #[test]
    fn value_round_trips_every_variant() {
        for v in [
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(0),
            Value::Int(1),
            Value::Int(-1),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Float(0.0),
            Value::Float(-0.0),
            Value::Float(3.25),
            Value::Float(f64::MAX),
            Value::Float(f64::MIN_POSITIVE),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::str(""),
            Value::str("hello"),
            Value::str("naïve — ünïcode ✓ 日本語"),
            Value::Timestamp(0),
            Value::Timestamp(-1_234_567_890),
            Value::Timestamp(i64::MAX),
        ] {
            round_trip(&v);
        }
    }

    #[test]
    fn nan_round_trips_bit_exactly() {
        let bytes = Value::Float(f64::NAN).to_bytes();
        let Value::Float(back) = Value::from_bytes(&bytes).unwrap() else {
            panic!("not a float");
        };
        assert!(back.is_nan());
        assert_eq!(back.to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn negative_zero_keeps_its_sign_bit() {
        let bytes = Value::Float(-0.0).to_bytes();
        let Value::Float(back) = Value::from_bytes(&bytes).unwrap() else {
            panic!("not a float");
        };
        assert!(back.is_sign_negative());
    }

    #[test]
    fn small_ints_encode_small() {
        // zigzag varint: |Int(x)| ≤ 63 should be tag + 1 byte.
        for i in [-63i64, -1, 0, 1, 63] {
            assert_eq!(Value::Int(i).to_bytes().len(), 2, "Int({i})");
        }
        assert_eq!(Value::Null.to_bytes().len(), 1);
        assert_eq!(Value::Bool(true).to_bytes().len(), 1);
    }

    #[test]
    fn row_round_trips() {
        round_trip(&Row::new(vec![]));
        round_trip(&row![1, "x", 2.5, true]);
        let mixed = Row::new(vec![
            Value::Null,
            Value::Int(-42),
            Value::str(""),
            Value::str("αβγ"),
            Value::Timestamp(99),
            Value::Bool(false),
        ]);
        round_trip(&mixed);
    }

    #[test]
    fn schema_round_trips() {
        round_trip(&Schema::empty());
        let s = Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("name", DataType::Str),
            Column::new("price", DataType::Float),
            Column::new("born", DataType::Timestamp),
            Column::new("ok", DataType::Bool),
        ]);
        round_trip(&s);
        round_trip(&s.qualified("alias"));
    }

    #[test]
    fn streams_of_rows_concatenate() {
        let rows = vec![row![1, "a"], row![2, "b"], row![3, Value::Null]];
        let mut buf = Vec::new();
        for r in &rows {
            r.encode_into(&mut buf);
        }
        let mut reader = ByteReader::new(&buf);
        let mut back = Vec::new();
        while !reader.is_empty() {
            back.push(Row::decode_from(&mut reader).unwrap());
        }
        assert_eq!(back, rows);
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let bytes = row![1, "hello world", 2.5].to_bytes();
        for cut in 0..bytes.len() {
            assert!(
                Row::from_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = Value::Int(7).to_bytes();
        bytes.push(0xFF);
        assert!(Value::from_bytes(&bytes).is_err());
    }

    #[test]
    fn bad_tags_and_lengths_are_errors() {
        assert!(Value::from_bytes(&[200]).is_err(), "unknown tag");
        // Str with a length far beyond the buffer.
        assert!(Value::from_bytes(&[TAG_STR, 0xFF, 0xFF, 0x7F]).is_err());
        // Invalid UTF-8 payload.
        assert!(Value::from_bytes(&[TAG_STR, 2, 0xC0, 0x00]).is_err());
        // Varint that never terminates / overflows.
        assert!(Value::from_bytes(&[TAG_INT, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x02]).is_err());
    }

    #[test]
    fn varint_boundaries() {
        let mut out = Vec::new();
        for v in [0u64, 127, 128, 16_383, 16_384, u64::MAX] {
            out.clear();
            write_varint(&mut out, v);
            let mut r = ByteReader::new(&out);
            assert_eq!(r.read_varint().unwrap(), v);
            assert!(r.is_empty());
        }
        assert_eq!({ let mut o = Vec::new(); write_varint(&mut o, 127); o.len() }, 1);
        assert_eq!({ let mut o = Vec::new(); write_varint(&mut o, 128); o.len() }, 2);
        assert_eq!({ let mut o = Vec::new(); write_varint(&mut o, u64::MAX); o.len() }, 10);
    }
}
