//! Secondary indexes.

use std::cmp::Ordering;
use std::ops::Bound;
use std::sync::Arc;

use mtc_types::{Error, Result, Row, Value};

use crate::pmap::{PMap, Pos};
use crate::table::Rows;

/// A secondary index over some columns of a table.
///
/// An entry is the stored row itself — a clone of the `Arc` the table holds
/// it by — and the index is those pointers ordered by the key columns, rows
/// with equal keys in the order they were registered. Lookups therefore
/// yield rows, with no second lookup in the table, and an entry costs one
/// pointer.
#[derive(Debug, Clone)]
pub struct Index {
    name: String,
    table: String,
    /// Indices of the key columns in the table schema, in key order.
    columns: Vec<usize>,
    unique: bool,
    map: PMap<Arc<Row>>,
}

impl Index {
    pub fn new(name: &str, table: &str, columns: Vec<usize>, unique: bool) -> Index {
        Index {
            name: mtc_types::normalize_ident(name),
            table: mtc_types::normalize_ident(table),
            columns,
            unique,
            map: PMap::new(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn table(&self) -> &str {
        &self.table
    }

    pub fn columns(&self) -> &[usize] {
        &self.columns
    }

    pub fn is_unique(&self) -> bool {
        self.unique
    }

    /// Number of rows registered.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Orders a registered row's key against `key`, a row of key values,
    /// the way rows of key values order among themselves.
    fn key_cmp(&self, row: &Row, key: &[Value]) -> Ordering {
        self.columns.iter().map(|&c| &row[c]).cmp(key)
    }

    /// Where the rows whose key is `key` begin.
    fn first_of(&self, key: &[Value]) -> Pos {
        self.map.partition_point(|r| self.key_cmp(r, key).is_lt())
    }

    /// Where the rows whose key is `key` end.
    fn end_of(&self, key: &[Value]) -> Pos {
        self.map.partition_point(|r| self.key_cmp(r, key).is_le())
    }

    /// Registers a stored row.
    pub fn insert(&mut self, row: Arc<Row>) -> Result<()> {
        let key = row.project(&self.columns);
        let end = self.end_of(key.values());
        if self.unique && self.first_of(key.values()) != end {
            return Err(Error::constraint(format!(
                "duplicate key {key} in unique index `{}`",
                self.name
            )));
        }
        self.map.insert(end, row);
        Ok(())
    }

    /// Unregisters exactly the stored row `row`.
    pub fn remove(&mut self, row: &Arc<Row>) {
        let key = row.project(&self.columns);
        let first = self.first_of(key.values());
        let found = self
            .map
            .entries_from(first)
            .take_while(|(_, r)| self.key_cmp(r, key.values()).is_eq())
            .find(|(_, r)| Arc::ptr_eq(r, row))
            .map(|(pos, _)| pos);
        if let Some(pos) = found {
            self.map.remove(pos);
        }
    }

    /// Equality lookup: the rows whose index key equals `key`.
    pub fn seek(&self, key: &Row) -> Rows<'_> {
        self.range(Bound::Included(key.values()), Bound::Included(key.values()))
    }

    /// Range lookup over the index key order. One descent finds the low
    /// end; the high end is galloped to from there (see
    /// [`Table::scan_range`](crate::Table::scan_range)). Bounds that select
    /// nothing (`low` above `high`) give the empty range.
    pub fn range(&self, low: Bound<&[Value]>, high: Bound<&[Value]>) -> Rows<'_> {
        let from = match low {
            Bound::Unbounded => self.map.start(),
            Bound::Included(k) => self.first_of(k),
            Bound::Excluded(k) => self.end_of(k),
        };
        let to = match high {
            Bound::Unbounded => self.map.end(),
            Bound::Included(k) => self
                .map
                .partition_point_from(from, |r| self.key_cmp(r, k).is_le()),
            Bound::Excluded(k) => self
                .map
                .partition_point_from(from, |r| self.key_cmp(r, k).is_lt()),
        };
        self.map.between(from, to)
    }

    /// Rebuilds from scratch over the table's stored rows.
    pub fn rebuild<'a>(&mut self, rows: impl Iterator<Item = &'a Arc<Row>>) -> Result<()> {
        self.map.clear();
        for row in rows {
            self.insert(row.clone())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_types::row;

    fn rows_of<'a>(it: impl Iterator<Item = &'a Arc<Row>>) -> Vec<Row> {
        it.map(|r| Row::clone(r)).collect()
    }

    #[test]
    fn seek_and_range() {
        let mut ix = Index::new("ix", "t", vec![1], false);
        // rows: (pk, category)
        ix.insert(Arc::new(row![1, "a"])).unwrap();
        ix.insert(Arc::new(row![2, "b"])).unwrap();
        ix.insert(Arc::new(row![3, "a"])).unwrap();
        assert_eq!(ix.seek(&row!["a"]).count(), 2);
        assert_eq!(ix.seek(&row!["zzz"]).count(), 0);
        let (a, b) = ([Value::str("a")], [Value::str("b")]);
        let in_range = ix.range(Bound::Included(&a), Bound::Excluded(&b));
        assert_eq!(rows_of(in_range), [row![1, "a"], row![3, "a"]]);
        let past_a = ix.range(Bound::Excluded(&a), Bound::Unbounded);
        assert_eq!(rows_of(past_a), [row![2, "b"]]);
        // Inverted bounds select nothing.
        let inverted = ix.range(Bound::Included(&b), Bound::Included(&a));
        assert_eq!(inverted.count(), 0);
    }

    #[test]
    fn equal_keys_keep_registration_order() {
        let mut ix = Index::new("ix", "t", vec![1], false);
        for pk in [5, 1, 9, 3] {
            ix.insert(Arc::new(row![pk, "k"])).unwrap();
        }
        let pks: Vec<Row> = ix.seek(&row!["k"]).map(|r| r.project(&[0])).collect();
        assert_eq!(pks, [row![5], row![1], row![9], row![3]]);
    }

    #[test]
    fn unique_violation() {
        let mut ix = Index::new("ix", "t", vec![0], true);
        ix.insert(Arc::new(row!["x", 1])).unwrap();
        assert!(ix.insert(Arc::new(row!["x", 2])).is_err());
        assert_eq!(ix.len(), 1);
    }

    #[test]
    fn remove_takes_out_that_row_only() {
        let mut ix = Index::new("ix", "t", vec![0], false);
        let one = Arc::new(row!["x", 1]);
        let two = Arc::new(row!["x", 2]);
        ix.insert(one.clone()).unwrap();
        ix.insert(two.clone()).unwrap();
        // An equal row that was never registered is not there to remove.
        ix.remove(&Arc::new(row!["x", 1]));
        assert_eq!(ix.len(), 2);
        ix.remove(&one);
        assert_eq!(rows_of(ix.seek(&row!["x"])), [row!["x", 2]]);
        ix.remove(&two);
        assert!(ix.is_empty());
    }

    #[test]
    fn rebuild_replaces_contents() {
        let mut ix = Index::new("ix", "t", vec![0], false);
        ix.insert(Arc::new(row!["stale"])).unwrap();
        let rows = [Arc::new(row!["a"]), Arc::new(row!["b"])];
        ix.rebuild(rows.iter()).unwrap();
        assert_eq!(ix.len(), 2);
        assert_eq!(ix.seek(&row!["stale"]).count(), 0);
    }
}
