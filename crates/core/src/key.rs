//! The two-part key the plan cache and the result cache share: a
//! statement's canonical text and a signature of its bindings (DESIGN.md
//! §8.5, "Where a statement is hashed").
//!
//! A probe is hashed once: the statement's fingerprint, made when it was
//! prepared, and its signature, streamed after it into the process's keyed
//! hasher. The caches' maps are keyed by that hash, and compare text and
//! signature only with the entry found under it, the signature piece by
//! piece as it is written: a probe renders no string. A slot holds one key,
//! so a 64-bit collision costs a miss, never a wrong answer.

use std::collections::hash_map::DefaultHasher;
use std::fmt;
use std::hash::Hasher;

use mtc_engine::Bindings;
use mtc_sql::Prepared;
use mtc_types::fingerprint::{fingerprint, keyed_hasher};
use mtc_types::Value;

/// The binding half of a key.
#[derive(Clone, Copy)]
pub(crate) enum Sig<'a> {
    /// Already rendered: what the text entry points are handed.
    Text(&'a str),
    /// `name=type` of every binding: the plan cache's parameter signature.
    Types(&'a Bindings),
    /// `name=value` (`Debug` form) of the bindings named (sorted), or of
    /// all: the result cache's values signature.
    Values(Option<&'a [String]>, &'a Bindings),
}

impl Sig<'_> {
    /// Writes the signature: its bindings comma-separated, in name order.
    fn write(self, out: &mut impl fmt::Write) -> fmt::Result {
        let (params, names) = match self {
            Sig::Text(text) => return out.write_str(text),
            Sig::Types(params) => (params, None),
            Sig::Values(names, params) => (params, names),
        };
        let named = |name: &&String| names.is_none_or(|names| names.binary_search(name).is_ok());
        for (n, (name, v)) in params.iter().filter(|(name, _)| named(name)).enumerate() {
            if n > 0 {
                out.write_char(',')?;
            }
            out.write_str(name)?;
            out.write_char('=')?;
            match (self, v) {
                (Sig::Types(_), v) => out.write_str(type_tag(v))?,
                // `Debug`'s own text, without its tuple builder.
                (_, Value::Int(i)) => write!(out, "Int({i})")?,
                (_, v) => write!(out, "{v:?}")?,
            }
        }
        Ok(())
    }

    /// The signature as a string: what an entry stores.
    pub fn render(self) -> String {
        let mut out = String::new();
        self.write(&mut out).expect("writing to a String");
        out
    }

    /// Whether the signature renders as `stored`, decided without rendering
    /// it: the first piece that differs stops the writing.
    fn matches(self, stored: &str) -> bool {
        struct Rest<'s>(&'s [u8]);
        impl fmt::Write for Rest<'_> {
            fn write_str(&mut self, piece: &str) -> fmt::Result {
                self.0 = self.0.strip_prefix(piece.as_bytes()).ok_or(fmt::Error)?;
                Ok(())
            }
        }
        let mut rest = Rest(stored.as_bytes());
        self.write(&mut rest).is_ok() && rest.0.is_empty()
    }
}

fn type_tag(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "bool",
        Value::Int(_) => "int",
        Value::Float(_) => "float",
        Value::Str(_) => "str",
        Value::Timestamp(_) => "ts",
    }
}

/// Feeds what is written into a hasher.
struct HashSink(DefaultHasher);

impl fmt::Write for HashSink {
    fn write_str(&mut self, piece: &str) -> fmt::Result {
        self.0.write(piece.as_bytes());
        Ok(())
    }
}

/// What a cache entry is stored under, beside its hash.
#[derive(Debug)]
pub(crate) struct Key {
    pub text: Box<str>,
    pub sig: String,
}

/// One probe of a cache: a statement text and a binding signature, hashed
/// together once.
#[derive(Clone, Copy)]
pub(crate) struct Probe<'a> {
    /// Picks the shard and the map slot.
    pub hash: u64,
    text: &'a str,
    sig: Sig<'a>,
}

impl<'a> Probe<'a> {
    fn new(text: &'a str, fingerprint: u64, sig: Sig<'a>) -> Probe<'a> {
        let mut sink = HashSink(keyed_hasher());
        sink.0.write_u64(fingerprint);
        sig.write(&mut sink).expect("hashing never fails");
        Probe {
            hash: sink.0.finish(),
            text,
            sig,
        }
    }

    /// A prepared statement's key: its canonical text, fingerprinted when
    /// it was prepared.
    pub fn of(stmt: &'a Prepared, sig: Sig<'a>) -> Probe<'a> {
        Probe::new(&stmt.key, stmt.fingerprint, sig)
    }

    /// A key handed over as text, fingerprinted here.
    pub fn of_text(text: &'a str, sig: &'a str) -> Probe<'a> {
        Probe::new(text, fingerprint(text), Sig::Text(sig))
    }

    /// Whether `key`, found under this probe's hash, is this probe's key.
    pub fn is(&self, key: &Key) -> bool {
        *key.text == *self.text && self.sig.matches(&key.sig)
    }

    pub fn key(&self) -> Key {
        Key {
            text: self.text.into(),
            sig: self.sig.render(),
        }
    }

    /// The shard of `n` the key lives in, from the hash's high half: the
    /// map inside a shard takes its buckets from the low bits.
    pub fn shard(&self, n: usize) -> usize {
        (self.hash >> 32) as usize % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bindings(pairs: &[(&str, Value)]) -> Bindings {
        pairs
            .iter()
            .map(|(n, v)| (n.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn a_streamed_signature_is_its_rendered_string() {
        let params = bindings(&[
            ("b", Value::Int(-7)),
            ("a", Value::str("x,y=\"z\"")),
            ("c", Value::Float(0.5)),
            ("d", Value::Null),
        ]);
        let names = ["a".to_string(), "c".to_string(), "zz".to_string()];
        let stmt = Prepared::new("SELECT a FROM t WHERE k = @a").unwrap();
        for sig in [
            Sig::Types(&params),
            Sig::Values(None, &params),
            Sig::Values(Some(&names), &params),
            Sig::Values(Some(&[]), &params),
        ] {
            let rendered = sig.render();
            let streamed = Probe::of(&stmt, sig);
            let texted = Probe::of_text(&stmt.key, &rendered);
            assert_eq!(streamed.hash, texted.hash, "{rendered}");
            assert!(streamed.is(&texted.key()) && texted.is(&streamed.key()));
            assert!(sig.matches(&rendered));
            assert!(!sig.matches(&format!("{rendered},")), "a longer string");
            if let Some(shorter) = rendered.get(..rendered.len().saturating_sub(1)) {
                assert_eq!(sig.matches(shorter), rendered.is_empty());
            }
        }
        assert_eq!(Sig::Types(&params).render(), "a=str,b=int,c=float,d=null");
        assert_eq!(
            Sig::Values(Some(&names), &params).render(),
            "a=Str(\"x,y=\\\"z\\\"\"),c=Float(0.5)"
        );
    }

    #[test]
    fn values_are_written_in_their_debug_form() {
        for v in [
            Value::Int(0),
            Value::Int(-7),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::Timestamp(-1_000),
            Value::Null,
            Value::Bool(true),
            Value::Float(-0.0),
            Value::str("a\"b"),
        ] {
            let one: Bindings = [("v".to_string(), v.clone())].into();
            assert_eq!(Sig::Values(None, &one).render(), format!("v={v:?}"));
        }
        // A long signature is hashed as the one string it renders as.
        let long: Bindings = (0..40).map(|i| (format!("p{i}"), Value::Int(i))).collect();
        let sig = Sig::Values(None, &long);
        let stmt = Prepared::new("SELECT 1").unwrap();
        assert_eq!(
            Probe::of(&stmt, sig).hash,
            Probe::of_text(&stmt.key, &sig.render()).hash
        );
    }

    #[test]
    fn the_split_between_text_and_signature_is_part_of_the_key() {
        let a = Probe::of_text("SELECT 1", "a=int");
        assert!(a.is(&Probe::of_text("SELECT 1", "a=int").key()));
        assert!(!a.is(&Probe::of_text("SELECT 1", "").key()));
        assert!(!a.is(&Probe::of_text("SELECT 1a", "=int").key()));
        assert_ne!(a.hash, Probe::of_text("SELECT 1a", "=int").hash);
    }
}
