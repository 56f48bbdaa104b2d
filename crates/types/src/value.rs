//! SQL values and data types.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{Error, Result};
use crate::text::Text;

/// The SQL data types supported by the engine.
///
/// This is the subset a TPC-W schema needs; `Timestamp` stores milliseconds
/// since an arbitrary epoch (the simulator's clock origin).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Bool,
    Int,
    Float,
    Str,
    Timestamp,
}

impl DataType {
    /// Name used in `CREATE TABLE` scripts and error messages.
    pub fn sql_name(self) -> &'static str {
        match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "VARCHAR",
            DataType::Timestamp => "TIMESTAMP",
        }
    }

    /// Parses a type name as it appears in DDL. Accepts common synonyms so
    /// scripts written for other dialects keep working.
    pub fn parse(name: &str) -> Result<DataType> {
        match name.to_ascii_uppercase().as_str() {
            "BOOL" | "BOOLEAN" | "BIT" => Ok(DataType::Bool),
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" | "TINYINT" | "NUMERIC" => Ok(DataType::Int),
            "FLOAT" | "REAL" | "DOUBLE" | "DECIMAL" => Ok(DataType::Float),
            "VARCHAR" | "CHAR" | "TEXT" | "NVARCHAR" | "STRING" => Ok(DataType::Str),
            "TIMESTAMP" | "DATETIME" | "DATE" => Ok(DataType::Timestamp),
            other => Err(Error::parse(format!("unknown data type `{other}`"))),
        }
    }

    /// Rough byte width used by the cost model for data-transfer volume
    /// estimation (strings use an assumed average width).
    pub fn estimated_width(self) -> u64 {
        match self {
            DataType::Bool => 1,
            DataType::Int => 8,
            DataType::Float => 8,
            DataType::Str => 24,
            DataType::Timestamp => 8,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.sql_name())
    }
}

/// A single SQL value.
///
/// `Value` has a *total* order (needed for B-tree keys and ORDER BY):
/// `Null` sorts before everything, then `Bool < Int/Float < Str < Timestamp`.
/// `Int` and `Float` compare numerically with each other so a predicate like
/// `price > 10` works whether `price` was loaded as an int or a float.
#[derive(Debug, Clone)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Text),
    Timestamp(i64),
}

impl Value {
    pub fn str(s: impl Into<Text>) -> Value {
        Value::Str(s.into())
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The dynamic type of this value; `None` for `Null`.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Timestamp(_) => Some(DataType::Timestamp),
        }
    }

    /// Numeric view of the value, if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Timestamp(t) => Some(*t as f64),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Timestamp(t) => Some(*t),
            Value::Float(f) => Some(*f as i64),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Coerces this value to `ty`, used when inserting into typed columns.
    pub fn coerce_to(&self, ty: DataType) -> Result<Value> {
        if self.is_null() {
            return Ok(Value::Null);
        }
        let ok = match (self, ty) {
            (Value::Bool(_), DataType::Bool)
            | (Value::Int(_), DataType::Int)
            | (Value::Float(_), DataType::Float)
            | (Value::Str(_), DataType::Str)
            | (Value::Timestamp(_), DataType::Timestamp) => return Ok(self.clone()),
            (Value::Int(i), DataType::Float) => Value::Float(*i as f64),
            (Value::Float(f), DataType::Int) => Value::Int(*f as i64),
            (Value::Int(i), DataType::Timestamp) => Value::Timestamp(*i),
            (Value::Timestamp(t), DataType::Int) => Value::Int(*t),
            (Value::Int(i), DataType::Bool) => Value::Bool(*i != 0),
            (Value::Bool(b), DataType::Int) => Value::Int(*b as i64),
            (v, DataType::Str) => Value::str(v.to_string()),
            _ => {
                return Err(Error::type_error(format!(
                    "cannot coerce {self} to {ty}"
                )))
            }
        };
        Ok(ok)
    }

    /// SQL-semantics comparison: any comparison involving `NULL` is unknown.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        if self.is_null() || other.is_null() {
            return None;
        }
        Some(self.cmp(other))
    }

    /// Estimated wire size in bytes, used by the DataTransfer cost model.
    pub fn estimated_width(&self) -> u64 {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) | Value::Timestamp(_) => 8,
            Value::Str(s) => s.len() as u64,
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Float(_) => 2,
            Value::Str(_) => 3,
            Value::Timestamp(_) => 4,
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Str(a), Str(b)) => a.cmp(b),
            (Timestamp(a), Timestamp(b)) => a.cmp(b),
            (a, b) => a.rank().cmp(&b.rank()),
        }
    }
}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => (1u8, b).hash(state),
            // Int and Float must hash identically when equal (1 == 1.0):
            // hash every numeric through its f64 bit pattern.
            Value::Int(i) => (2u8, (*i as f64).to_bits()).hash(state),
            Value::Float(f) => (2u8, f.to_bits()).hash(state),
            Value::Str(s) => (3u8, s).hash(state),
            Value::Timestamp(t) => (4u8, t).hash(state),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => f.write_str("NULL"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Timestamp(t) => write!(f, "{t}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of(v: &Value) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn a_value_is_two_words() {
        // Every payload is eight bytes (strings behind a thin `Text`), so a
        // stored row costs sixteen bytes a column, not twenty-four.
        assert_eq!(std::mem::size_of::<Value>(), 16);
    }

    #[test]
    fn null_sorts_first() {
        let mut vs = [Value::Int(1), Value::Null, Value::str("a"), Value::Bool(true)];
        vs.sort();
        assert!(vs[0].is_null());
    }

    #[test]
    fn int_float_compare_numerically() {
        assert_eq!(Value::Int(2).cmp(&Value::Float(2.0)), Ordering::Equal);
        assert_eq!(Value::Int(2).cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(Value::Float(3.0).cmp(&Value::Int(2)), Ordering::Greater);
    }

    #[test]
    fn equal_int_float_hash_identically() {
        assert_eq!(hash_of(&Value::Int(7)), hash_of(&Value::Float(7.0)));
    }

    #[test]
    fn sql_cmp_null_is_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Int(1)), Some(Ordering::Equal));
    }

    #[test]
    fn coercions() {
        assert_eq!(Value::Int(3).coerce_to(DataType::Float).unwrap(), Value::Float(3.0));
        assert_eq!(Value::Float(3.9).coerce_to(DataType::Int).unwrap(), Value::Int(3));
        assert_eq!(
            Value::Int(42).coerce_to(DataType::Str).unwrap(),
            Value::str("42")
        );
        assert!(Value::str("x").coerce_to(DataType::Int).is_err());
        assert_eq!(Value::Null.coerce_to(DataType::Int).unwrap(), Value::Null);
    }

    #[test]
    fn datatype_parse_synonyms() {
        assert_eq!(DataType::parse("bigint").unwrap(), DataType::Int);
        assert_eq!(DataType::parse("NVARCHAR").unwrap(), DataType::Str);
        assert_eq!(DataType::parse("datetime").unwrap(), DataType::Timestamp);
        assert!(DataType::parse("blob").is_err());
    }

    #[test]
    fn display_round_trips_simple_values() {
        assert_eq!(Value::Int(-5).to_string(), "-5");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bool(false).to_string(), "FALSE");
    }
}
