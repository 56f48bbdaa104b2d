//! Table storage: rows clustered on the primary key.

use std::cmp::Ordering;
use std::sync::Arc;

use mtc_types::{Error, Result, Row, Schema, Value};

use crate::pmap::{Iter, PMap, Pos};

/// Stored rows in order: a table's clustering-key range, or a secondary
/// index's range (whose entries are the table's rows). The default is none.
pub type Rows<'a> = Iter<'a, Arc<Row>>;

/// A stored table.
///
/// Rows live in a [`PMap`] ordered by the primary-key columns (a clustered
/// index, like SQL Server's default), so cloning a table shares its rows
/// with the clone. Tables without a declared primary key keep their rows in
/// insertion order.
///
/// A stored row is one allocation behind an `Arc`, and there is no separate
/// key: the table orders the row by its own key columns, and every
/// secondary-index entry of the row is a clone of the same pointer. That
/// pointer is what [`Table::insert`], [`Table::replace`] and
/// [`Table::delete`] hand out for index maintenance.
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    /// Indices (into `schema`) of the primary-key columns; empty if the
    /// table has none and keeps insertion order.
    primary_key: Vec<usize>,
    rows: PMap<Arc<Row>>,
    /// Shadow tables hold no data; scans are refused (the cache server's
    /// optimizer must route around them).
    is_shadow: bool,
}

impl Table {
    pub fn new(name: &str, schema: Schema, primary_key: Vec<usize>) -> Table {
        Table {
            name: mtc_types::normalize_ident(name),
            schema,
            primary_key,
            rows: PMap::new(),
            is_shadow: false,
        }
    }

    /// An empty shadow of `self` (same schema, same key, no data).
    pub fn to_shadow(&self) -> Table {
        Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            primary_key: self.primary_key.clone(),
            rows: PMap::new(),
            is_shadow: true,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    pub fn primary_key(&self) -> &[usize] {
        &self.primary_key
    }

    pub fn is_shadow(&self) -> bool {
        self.is_shadow
    }

    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The primary-key values of `row`, in key order.
    fn key_of<'a>(&'a self, row: &'a Row) -> impl Iterator<Item = &'a Value> + 'a {
        self.primary_key.iter().map(move |&c| &row[c])
    }

    /// Orders a stored row's key against `key`, a sequence of key values:
    /// value by value, a key that runs out first sorting first — so a
    /// prefix of the key columns is a valid range bound.
    fn key_cmp<'a>(&'a self, row: &'a Row, key: impl IntoIterator<Item = &'a Value>) -> Ordering {
        self.key_of(row).cmp(key)
    }

    /// Where a row with `image`'s primary key is or would go, and whether
    /// one is there. Without a primary key: the end, and no.
    fn slot_for(&self, image: &Row) -> (Pos, bool) {
        if self.primary_key.is_empty() {
            return (self.rows.end(), false);
        }
        let by_key = |row: &Arc<Row>| self.key_cmp(row, self.key_of(image));
        let pos = self.rows.partition_point(|r| by_key(r).is_lt());
        (pos, self.rows.get(pos).is_some_and(|r| by_key(r).is_eq()))
    }

    /// Where the first stored row `is_it` accepts is — a full scan, the
    /// only way to address a row of a table without a primary key.
    fn scan_for(&self, mut is_it: impl FnMut(&Arc<Row>) -> bool) -> Option<Pos> {
        let mut entries = self.rows.entries_from(self.rows.start());
        entries.find(|(_, r)| is_it(r)).map(|(pos, _)| pos)
    }

    /// Where the row with `image`'s primary key is; without a primary key,
    /// where the first row equal to `image` is.
    fn locate(&self, image: &Row) -> Option<Pos> {
        if self.primary_key.is_empty() {
            return self.scan_for(|r| **r == *image);
        }
        let (pos, found) = self.slot_for(image);
        found.then_some(pos)
    }

    /// Validates a row against the schema: arity, types (with coercion) and
    /// NOT NULL constraints. Returns the coerced row.
    pub fn validate(&self, row: &Row) -> Result<Row> {
        if row.len() != self.schema.len() {
            return Err(Error::constraint(format!(
                "table `{}` expects {} columns, got {}",
                self.name,
                self.schema.len(),
                row.len()
            )));
        }
        let mut out = Vec::with_capacity(row.len());
        for (i, v) in row.values().iter().enumerate() {
            let col = self.schema.column(i);
            if v.is_null() {
                if !col.nullable {
                    return Err(Error::constraint(format!(
                        "NULL in NOT NULL column `{}` of `{}`",
                        col.name, self.name
                    )));
                }
                out.push(Value::Null);
            } else {
                out.push(v.coerce_to(col.dtype).map_err(|e| {
                    Error::constraint(format!(
                        "column `{}` of `{}`: {e}",
                        col.name, self.name
                    ))
                })?);
            }
        }
        Ok(Row::new(out))
    }

    fn duplicate_key(&self, row: &Row) -> Error {
        Error::constraint(format!(
            "duplicate primary key {} in `{}`",
            row.project(&self.primary_key),
            self.name
        ))
    }

    /// Validates and stores a row, returning the stored row; errors on a
    /// duplicate primary key.
    pub fn insert(&mut self, row: &Row) -> Result<Arc<Row>> {
        if self.is_shadow {
            return Err(Error::execution(format!(
                "cannot insert into shadow table `{}`",
                self.name
            )));
        }
        let row = Arc::new(self.validate(row)?);
        let (pos, taken) = self.slot_for(&row);
        if taken {
            return Err(self.duplicate_key(&row));
        }
        self.rows.insert(pos, row.clone());
        Ok(row)
    }

    /// Replaces the row `before` names (see [`Table::delete`]) with
    /// `after`, handling key changes. Returns the row that was stored and
    /// the one that is now; the first is `None` when a table with a primary
    /// key held no row under `before`'s key, in which case `after` is
    /// simply inserted.
    pub fn replace(&mut self, before: &Row, after: &Row) -> Result<(Option<Arc<Row>>, Arc<Row>)> {
        let after = Arc::new(self.validate(after)?);
        let old = self.locate(before);
        if self.primary_key.is_empty() {
            let old = old.ok_or_else(|| {
                Error::execution(format!("update target row not found in `{}`", self.name))
            })?;
            return Ok((Some(self.rows.replace(old, after.clone())), after));
        }
        let same_key = self.primary_key.iter().all(|&c| before[c] == after[c]);
        if let (Some(old), true) = (old, same_key) {
            // The common case: the row changes where it stands.
            return Ok((Some(self.rows.replace(old, after.clone())), after));
        }
        if self.slot_for(&after).1 {
            return Err(self.duplicate_key(&after));
        }
        let old = old.map(|pos| self.rows.remove(pos));
        let (pos, _) = self.slot_for(&after);
        self.rows.insert(pos, after.clone());
        Ok((old, after))
    }

    /// Removes the row with `image`'s primary key — in a table without
    /// one, the first row equal to `image` — and returns it.
    pub fn delete(&mut self, image: &Row) -> Option<Arc<Row>> {
        self.locate(image).map(|pos| self.rows.remove(pos))
    }

    /// Removes exactly the stored row `row` (what a failed index insert
    /// takes back); `false` if the table does not hold it.
    pub fn take_back(&mut self, row: &Arc<Row>) -> bool {
        let pos = if self.primary_key.is_empty() {
            self.scan_for(|r| Arc::ptr_eq(r, row))
        } else {
            self.locate(row)
        };
        pos.map(|pos| self.rows.remove(pos)).is_some()
    }

    /// Point lookup by primary key.
    pub fn get(&self, key: &Row) -> Option<&Row> {
        let pos = self
            .rows
            .partition_point(|r| self.key_cmp(r, key.values()).is_lt());
        let row = self.rows.get(pos)?;
        self.key_cmp(row, key.values()).is_eq().then_some(&**row)
    }

    /// The stored row with `image`'s primary key (in a table without one,
    /// the first row equal to `image`).
    pub fn find(&self, image: &Row) -> Option<&Row> {
        self.locate(image)
            .and_then(|pos| self.rows.get(pos))
            .map(|r| &**r)
    }

    /// Full scan in clustering-key order.
    pub fn scan(&self) -> impl Iterator<Item = &Row> + '_ {
        self.rows.iter().map(|r| &**r)
    }

    /// Full scan yielding the shared pointers — what an index build
    /// registers.
    pub fn stored_rows(&self) -> impl Iterator<Item = &Arc<Row>> + '_ {
        self.rows.iter()
    }

    /// The row with the smallest clustering key (O(1)).
    pub fn first_row(&self) -> Option<&Row> {
        self.scan().next()
    }

    /// The row with the largest clustering key (O(1)).
    pub fn last_row(&self) -> Option<&Row> {
        self.rows.iter().next_back().map(|r| &**r)
    }

    /// Range scan over the clustering key, between optional inclusive key
    /// bounds (each a key or a prefix of one, see [`Table::key_cmp`]). One
    /// descent finds the low end; the high end is galloped to from there,
    /// so a range of k rows costs O(log k) key comparisons on top, not one
    /// per row. A range with `low` above `high_inclusive` is empty.
    pub fn scan_range(&self, low: Option<&[Value]>, high_inclusive: Option<&[Value]>) -> Rows<'_> {
        let from = low.map_or(self.rows.start(), |k| {
            self.rows.partition_point(|r| self.key_cmp(r, k).is_lt())
        });
        let to = high_inclusive.map_or(self.rows.end(), |k| {
            self.rows
                .partition_point_from(from, |r| self.key_cmp(r, k).is_le())
        });
        self.rows.between(from, to)
    }

    /// Drops every row (used when re-snapshotting a cached view).
    pub fn truncate(&mut self) {
        self.rows.clear();
    }

    /// Addresses of the storage chunks holding the rows; two tables share
    /// a chunk exactly when they report the same address for it. For tests
    /// that pin what a snapshot publication copies.
    pub fn chunk_addrs(&self) -> impl Iterator<Item = usize> + '_ {
        self.rows.chunk_addrs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_types::{row, Column, DataType};

    fn item_table() -> Table {
        Table::new(
            "item",
            Schema::new(vec![
                Column::not_null("i_id", DataType::Int),
                Column::new("i_title", DataType::Str),
                Column::new("i_cost", DataType::Float),
            ]),
            vec![0],
        )
    }

    #[test]
    fn insert_get_scan() {
        let mut t = item_table();
        t.insert(&row![2, "b", 2.0]).unwrap();
        t.insert(&row![1, "a", 1.0]).unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.get(&row![1]).unwrap()[1], Value::str("a"));
        // Scan is key-ordered.
        let ids: Vec<i64> = t.scan().map(|r| r[0].as_i64().unwrap()).collect();
        assert_eq!(ids, vec![1, 2]);
    }

    #[test]
    fn duplicate_pk_rejected() {
        let mut t = item_table();
        t.insert(&row![1, "a", 1.0]).unwrap();
        let err = t.insert(&row![1, "b", 2.0]).unwrap_err();
        assert_eq!(err.kind(), "constraint");
    }

    #[test]
    fn not_null_enforced() {
        let mut t = item_table();
        let err = t.insert(&Row::new(vec![Value::Null, Value::str("x"), Value::Null]));
        assert!(err.is_err());
    }

    #[test]
    fn type_coercion_on_insert() {
        let mut t = item_table();
        // i_cost is FLOAT; an int literal should coerce.
        t.insert(&row![1, "a", 5]).unwrap();
        assert_eq!(t.get(&row![1]).unwrap()[2], Value::Float(5.0));
    }

    #[test]
    fn update_changes_key() {
        let mut t = item_table();
        t.insert(&row![1, "a", 1.0]).unwrap();
        t.replace(&row![1, "a", 1.0], &row![9, "a", 1.0]).unwrap();
        assert!(t.get(&row![1]).is_none());
        assert!(t.get(&row![9]).is_some());
    }

    #[test]
    fn update_to_existing_key_rejected() {
        let mut t = item_table();
        t.insert(&row![1, "a", 1.0]).unwrap();
        t.insert(&row![2, "b", 2.0]).unwrap();
        assert!(t.replace(&row![1, "a", 1.0], &row![2, "a", 1.0]).is_err());
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    fn rowid_table_allows_duplicates() {
        let mut t = Table::new(
            "log",
            Schema::new(vec![Column::new("msg", DataType::Str)]),
            vec![],
        );
        t.insert(&row!["x"]).unwrap();
        t.insert(&row!["x"]).unwrap();
        t.insert(&row!["y"]).unwrap();
        assert_eq!(t.row_count(), 3);
        // Insertion order, and a delete takes the first equal row.
        assert!(t.delete(&row!["x"]).is_some());
        let left: Vec<&Row> = t.scan().collect();
        assert_eq!(left, [&row!["x"], &row!["y"]]);
        assert!(t.delete(&row!["z"]).is_none());
    }

    #[test]
    fn range_scan() {
        let mut t = item_table();
        for i in 1..=10 {
            t.insert(&row![i, format!("t{i}"), i as f64]).unwrap();
        }
        let got: Vec<i64> = t
            .scan_range(Some(&[Value::Int(3)]), Some(&[Value::Int(6)]))
            .map(|r| r[0].as_i64().unwrap())
            .collect();
        assert_eq!(got, vec![3, 4, 5, 6]);
    }

    #[test]
    fn composite_primary_key_orders_and_seeks() {
        let mut t = Table::new(
            "order_line",
            Schema::new(vec![
                Column::not_null("o_id", DataType::Int),
                Column::not_null("l_id", DataType::Int),
                Column::new("qty", DataType::Int),
            ]),
            vec![0, 1],
        );
        for o in 1..=3 {
            for l in 1..=3 {
                t.insert(&row![o, l, o * 10 + l]).unwrap();
            }
        }
        assert_eq!(t.row_count(), 9);
        // Same o_id with a different l_id is a distinct key...
        t.insert(&row![1, 9, 0]).unwrap();
        // ...but the full composite must be unique.
        assert!(t.insert(&row![1, 9, 5]).is_err());
        // Point lookup by the full key.
        assert_eq!(t.get(&row![2, 3]).unwrap()[2], Value::Int(23));
        // Range scan over an o_id prefix: lexicographic key order means
        // [o] <= [o, l] < [o+1].
        let got: Vec<i64> = t
            .scan_range(
                Some(&[Value::Int(2)]),
                Some(&[Value::Int(2), Value::Int(i64::MAX)]),
            )
            .map(|r| r[2].as_i64().unwrap())
            .collect();
        assert_eq!(got, vec![21, 22, 23]);
    }

    #[test]
    fn inverted_and_empty_ranges_are_empty() {
        let mut t = item_table();
        for i in 1..=10 {
            t.insert(&row![i, "t", 0.0]).unwrap();
        }
        let key = |k: i64| [Value::Int(k)];
        assert_eq!(t.scan_range(Some(&key(7)), Some(&key(3))).count(), 0);
        assert_eq!(t.scan_range(Some(&key(11)), None).count(), 0);
        assert_eq!(t.scan_range(Some(&key(4)), Some(&key(4))).count(), 1);
    }

    #[test]
    fn replace_in_place_shares_nothing_with_the_old_row() {
        let mut t = item_table();
        let stored = t.insert(&row![1, "a", 1.0]).unwrap();
        let (old, new) = t.replace(&row![1, "ignored", 0.0], &row![1, "b", 2.0]).unwrap();
        assert!(Arc::ptr_eq(&old.unwrap(), &stored));
        assert_eq!(t.get(&row![1]), Some(&*new));
        assert_eq!(*stored, row![1, "a", 1.0], "a held row never changes");
        // No row under the old key: the new image is simply inserted.
        let (old, _) = t.replace(&row![5, "x", 0.0], &row![5, "e", 5.0]).unwrap();
        assert!(old.is_none());
        assert_eq!(t.row_count(), 2);
    }

    #[test]
    fn shadow_refuses_inserts() {
        let mut t = item_table();
        t.insert(&row![1, "a", 1.0]).unwrap();
        let mut s = t.to_shadow();
        assert!(s.is_shadow());
        assert_eq!(s.row_count(), 0);
        assert!(s.insert(&row![2, "b", 2.0]).is_err());
    }
}
