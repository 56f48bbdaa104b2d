//! Row representation.

use std::fmt;
use std::ops::Index;

use crate::value::Value;

/// A tuple of values.
///
/// Rows flow through physical operators by value; cloning a row clones its
/// `Vec` but string payloads are shared [`Text`](crate::Text) handles, so clones are cheap in the
/// common string-heavy TPC-W rows.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Row(pub Vec<Value>);

impl Row {
    pub fn new(values: Vec<Value>) -> Row {
        Row(values)
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn values(&self) -> &[Value] {
        &self.0
    }

    pub fn get(&self, idx: usize) -> Option<&Value> {
        self.0.get(idx)
    }

    /// Concatenates two rows (join output). When one side is empty the
    /// other is cloned as-is — a capacity-exact `Vec` clone instead of a
    /// fresh allocation plus two extends.
    pub fn join(&self, other: &Row) -> Row {
        if other.0.is_empty() {
            return self.clone();
        }
        if self.0.is_empty() {
            return other.clone();
        }
        let mut values = Vec::with_capacity(self.0.len() + other.0.len());
        values.extend_from_slice(&self.0);
        values.extend_from_slice(&other.0);
        Row(values)
    }

    /// Projects the row onto the given column indices.
    pub fn project(&self, indices: &[usize]) -> Row {
        Row(indices.iter().map(|&i| self.0[i].clone()).collect())
    }

    /// Estimated wire size in bytes for transfer costing.
    pub fn estimated_width(&self) -> u64 {
        self.0.iter().map(Value::estimated_width).sum()
    }
}

impl Index<usize> for Row {
    type Output = Value;
    fn index(&self, idx: usize) -> &Value {
        &self.0[idx]
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Row {
        Row(values)
    }
}

impl FromIterator<Value> for Row {
    fn from_iter<T: IntoIterator<Item = Value>>(iter: T) -> Row {
        Row(iter.into_iter().collect())
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{v}")?;
        }
        f.write_str(")")
    }
}

/// Convenience macro for building rows in tests and generators.
#[macro_export]
macro_rules! row {
    ($($v:expr),* $(,)?) => {
        $crate::Row::new(vec![$($crate::Value::from($v)),*])
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_concatenates() {
        let a = row![1, "x"];
        let b = row![2.5];
        let j = a.join(&b);
        assert_eq!(j.len(), 3);
        assert_eq!(j[0], Value::Int(1));
        assert_eq!(j[2], Value::Float(2.5));
    }

    #[test]
    fn join_empty_side_is_capacity_exact() {
        let a = row![1, "x"];
        let empty = Row::new(vec![]);
        let j = a.join(&empty);
        assert_eq!(j, a);
        assert_eq!(j.0.capacity(), a.len());
        let j2 = empty.join(&a);
        assert_eq!(j2, a);
        assert_eq!(j2.0.capacity(), a.len());
        let both = a.join(&row![2]);
        assert_eq!(both.0.capacity(), 3);
    }

    #[test]
    fn project_reorders() {
        let r = row![1, "x", true];
        let p = r.project(&[2, 0]);
        assert_eq!(p, row![true, 1]);
    }

    #[test]
    fn display_renders_tuple() {
        assert_eq!(row![1, "a"].to_string(), "(1, a)");
    }
}
