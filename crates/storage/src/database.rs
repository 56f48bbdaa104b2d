//! A database: catalog + table data + secondary indexes + commit log.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use mtc_types::{normalize_ident, normalized, Error, Result, Row, Schema};

use crate::catalog::{Catalog, IndexMeta, TableMeta};
use crate::index::Index;
use crate::log::{CommitLog, Lsn, RowChange};
use crate::stats::{ColumnStats, TableStats};
use crate::table::Table;

pub use crate::log::RowChange as Change;

/// Kind of write, used by DML executors when building change lists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOp {
    Insert,
    Update,
    Delete,
}

/// A single database (one of possibly several on a server).
///
/// All mutation goes through [`Database::apply`], which applies a whole
/// transaction's [`RowChange`] list atomically (all-or-nothing, with undo on
/// failure), maintains secondary indexes, and appends the transaction to the
/// commit log for replication to sniff.
///
/// Every part sits behind an `Arc` and is written through `Arc::make_mut`,
/// so `clone` copies the two name maps and bumps reference counts: a clone
/// (a published snapshot, see [`SnapshotDb`](crate::SnapshotDb)) shares
/// each table, index, the catalog and the log with the original until one
/// of them writes to that part, and a written table or index in turn shares
/// all but the chunks written to.
#[derive(Debug, Default, Clone)]
pub struct Database {
    name: String,
    tables: BTreeMap<String, Arc<Table>>,
    indexes: BTreeMap<String, Arc<Index>>,
    /// table name → names of its secondary indexes.
    table_indexes: BTreeMap<String, Vec<String>>,
    /// Read through the field; write through [`Database::catalog_mut`].
    pub catalog: Arc<Catalog>,
    log: Arc<CommitLog>,
}

impl Database {
    pub fn new(name: &str) -> Database {
        Database {
            name: normalize_ident(name),
            ..Database::default()
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// The catalog, for writing.
    pub fn catalog_mut(&mut self) -> &mut Catalog {
        Arc::make_mut(&mut self.catalog)
    }

    // -- DDL ------------------------------------------------------------

    /// Creates a table. `primary_key` is a list of column names.
    pub fn create_table(
        &mut self,
        name: &str,
        schema: Schema,
        primary_key: &[String],
    ) -> Result<()> {
        let name = normalize_ident(name);
        if self.tables.contains_key(&name) {
            return Err(Error::catalog(format!("table `{name}` already exists")));
        }
        let pk: Vec<usize> = primary_key
            .iter()
            .map(|c| schema.index_of(c))
            .collect::<Result<_>>()?;
        self.tables
            .insert(name.clone(), Arc::new(Table::new(&name, schema, pk)));
        self.table_indexes.entry(name.clone()).or_default();
        self.catalog_mut().set_stats(&name, TableStats::empty());
        Ok(())
    }

    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        let name = normalize_ident(name);
        self.tables
            .remove(&name)
            .ok_or_else(|| Error::catalog(format!("table `{name}` not found")))?;
        for ix in self.table_indexes.remove(&name).unwrap_or_default() {
            self.indexes.remove(&ix);
        }
        self.catalog_mut().bump_version();
        Ok(())
    }

    /// Creates a secondary index and builds it from existing rows.
    pub fn create_index(
        &mut self,
        name: &str,
        table: &str,
        columns: &[String],
        unique: bool,
    ) -> Result<()> {
        let name = normalize_ident(name);
        let table_name = normalize_ident(table);
        if self.indexes.contains_key(&name) {
            return Err(Error::catalog(format!("index `{name}` already exists")));
        }
        let t = self.table_ref(&table_name)?;
        let cols: Vec<usize> = columns
            .iter()
            .map(|c| t.schema().index_of(c))
            .collect::<Result<_>>()?;
        let mut ix = Index::new(&name, &table_name, cols, unique);
        ix.rebuild(t.stored_rows())?;
        self.indexes.insert(name.clone(), Arc::new(ix));
        self.table_indexes
            .entry(table_name)
            .or_default()
            .push(name);
        self.catalog_mut().bump_version();
        Ok(())
    }

    // -- lookups ----------------------------------------------------------
    //
    // A name that arrives normalized — as a compiled plan's object and index
    // names do, on every execution — is probed as it is, not copied.

    pub fn table_ref(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(&*normalized(name))
            .map(|t| &**t)
            .ok_or_else(|| Error::catalog(format!("table `{name}` not found")))
    }

    /// The table, for writing: unshares it from any clone of this database
    /// first (its row chunks stay shared until written).
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(&normalize_ident(name))
            .map(Arc::make_mut)
            .ok_or_else(|| Error::catalog(format!("table `{name}` not found")))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&*normalized(name))
    }

    pub fn tables(&self) -> impl Iterator<Item = &Table> {
        self.tables.values().map(|t| &**t)
    }

    pub fn index(&self, name: &str) -> Option<&Index> {
        self.indexes.get(&*normalized(name)).map(|ix| &**ix)
    }

    /// Secondary indexes of `table`.
    pub fn indexes_of(&self, table: &str) -> impl Iterator<Item = &Index> {
        self.table_indexes
            .get(&*normalized(table))
            .into_iter()
            .flatten()
            .filter_map(|n| self.indexes.get(n).map(|ix| &**ix))
    }

    /// Index metadata, for scripting a shadow database.
    pub fn index_metas(&self) -> Vec<IndexMeta> {
        self.indexes
            .values()
            .map(|ix| {
                let schema = self.tables[ix.table()].schema();
                IndexMeta {
                    name: ix.name().to_string(),
                    table: ix.table().to_string(),
                    columns: ix
                        .columns()
                        .iter()
                        .map(|&c| schema.column(c).name.clone())
                        .collect(),
                    unique: ix.is_unique(),
                }
            })
            .collect()
    }

    /// Table metadata, for scripting a shadow database.
    pub fn table_metas(&self) -> Vec<TableMeta> {
        self.tables
            .values()
            .map(|t| TableMeta {
                name: t.name().to_string(),
                schema: t.schema().clone(),
                primary_key: t
                    .primary_key()
                    .iter()
                    .map(|&c| t.schema().column(c).name.clone())
                    .collect(),
            })
            .collect()
    }

    // -- transactions -------------------------------------------------------

    /// Applies one transaction's changes atomically and logs it.
    ///
    /// On any failure the already-applied prefix is rolled back and the log
    /// is untouched. Returns the assigned LSN.
    pub fn apply(&mut self, commit_ts_ms: i64, changes: Vec<RowChange>) -> Result<Lsn> {
        self.apply_unlogged(&changes)?;
        Ok(Arc::make_mut(&mut self.log).append(commit_ts_ms, changes))
    }

    /// Applies changes *without logging* — used by replication subscribers,
    /// whose applied changes must not be re-published.
    pub fn apply_unlogged(&mut self, changes: &[RowChange]) -> Result<()> {
        for (done, change) in changes.iter().enumerate() {
            if let Err(e) = self.apply_one(change) {
                // Undo in reverse order.
                for applied in changes[..done].iter().rev() {
                    self.undo_one(applied);
                }
                return Err(e);
            }
        }
        Ok(())
    }

    fn apply_one(&mut self, change: &RowChange) -> Result<()> {
        let name = normalize_ident(change.table());
        let t = self
            .tables
            .get_mut(&name)
            .map(Arc::make_mut)
            .ok_or_else(|| Error::catalog(format!("table `{name}` not found")))?;
        let index_names = self.table_indexes.get(&name).map_or(&[][..], Vec::as_slice);
        let indexes = &mut self.indexes;
        // Index entries are the table's own stored rows: each arm registers
        // and unregisters exactly what the table handed out.
        match change {
            RowChange::Insert { row, .. } => {
                let stored = t.insert(row)?;
                index_insert(t, indexes, index_names, &stored)
            }
            RowChange::Update { before, after, .. } => {
                let (old, new) = t.replace(before, after)?;
                if let Some(old) = old {
                    index_remove(indexes, index_names, &old);
                }
                index_insert(t, indexes, index_names, &new)
            }
            RowChange::Delete { row, .. } => {
                let old = t.delete(row).ok_or_else(|| {
                    Error::execution(format!("delete target not found in `{name}`"))
                })?;
                index_remove(indexes, index_names, &old);
                Ok(())
            }
        }
    }

    fn undo_one(&mut self, change: &RowChange) {
        let inverse = match change.clone() {
            RowChange::Insert { table, row } => RowChange::Delete { table, row },
            RowChange::Update {
                table,
                before,
                after,
            } => RowChange::Update {
                table,
                before: after,
                after: before,
            },
            RowChange::Delete { table, row } => RowChange::Insert { table, row },
        };
        // Undo of a successfully applied change cannot fail.
        let _ = self.apply_one(&inverse);
    }

    // -- log ------------------------------------------------------------

    pub fn log(&self) -> &CommitLog {
        &self.log
    }

    pub fn log_mut(&mut self) -> &mut CommitLog {
        Arc::make_mut(&mut self.log)
    }

    // -- statistics -----------------------------------------------------

    /// Recomputes statistics for every table (ANALYZE).
    pub fn analyze(&mut self) {
        let names: Vec<String> = self.tables.keys().cloned().collect();
        for name in names {
            self.analyze_table(&name);
        }
    }

    /// Recomputes statistics for one table.
    pub fn analyze_table(&mut self, name: &str) {
        let Some(t) = self.tables.get(&normalize_ident(name)) else {
            return;
        };
        let mut stats = TableStats {
            row_count: t.row_count() as u64,
            columns: BTreeMap::new(),
        };
        for (i, col) in t.schema().columns().iter().enumerate() {
            let mut values: Vec<_> = t.scan().map(|r| r[i].clone()).collect();
            stats
                .columns
                .insert(col.name.clone(), ColumnStats::compute(&mut values));
        }
        self.catalog_mut().set_stats(name, stats);
    }

    // -- shadowing --------------------------------------------------------

    /// Builds the *shadow database* of `self` (§3): identical tables, views,
    /// indexes, constraints and permissions, identical statistics — but
    /// every table empty and marked shadow — one [`shadow_object`] per
    /// object. "By default stored procedures are not copied from the
    /// backend server to the MTCache server" (§5.2): the DBA copies them
    /// selectively.
    ///
    /// [`shadow_object`]: Database::shadow_object
    pub fn shadow_clone(&self) -> Database {
        let mut shadow = Database::new(&self.name);
        let objects: BTreeSet<&str> = self
            .tables
            .keys()
            .map(String::as_str)
            .chain(self.catalog.objects())
            .collect();
        for name in objects {
            shadow.shadow_object(self, name);
        }
        shadow
    }

    /// Makes `name` in this shadow database what it is in `source`: its
    /// table as an empty shadow, with its secondary indexes defined but
    /// empty; its view definition, statistics and grants
    /// (`Catalog::copy_object`) — removing whichever of these `source`
    /// does not have. A table this database populates itself (a cached
    /// view's) is this node's, not `source`'s, and stays as it is; so does
    /// an index name one of its tables already uses. Bumps the catalog
    /// version.
    pub fn shadow_object(&mut self, source: &Database, name: &str) {
        let name = normalize_ident(name);
        if self.tables.get(&name).is_some_and(|t| !t.is_shadow()) {
            return;
        }
        self.tables.remove(&name);
        for ix in self.table_indexes.remove(&name).unwrap_or_default() {
            self.indexes.remove(&ix);
        }
        if let Some(t) = source.tables.get(&name) {
            self.tables.insert(name.clone(), Arc::new(t.to_shadow()));
            let mut names = Vec::new();
            for ix in source.indexes_of(&name) {
                if self.indexes.contains_key(ix.name()) {
                    continue;
                }
                let columns = ix.columns().to_vec();
                let empty = Index::new(ix.name(), ix.table(), columns, ix.is_unique());
                self.indexes.insert(ix.name().to_string(), Arc::new(empty));
                names.push(ix.name().to_string());
            }
            self.table_indexes.insert(name.clone(), names);
        }
        self.catalog_mut().copy_object(&source.catalog, &name);
    }
}

/// Registers `row`, which `table` has just stored, in each named index. On
/// a failure (a unique index refusing the key) the entries made so far and
/// the base row are taken out again.
fn index_insert(
    table: &mut Table,
    indexes: &mut BTreeMap<String, Arc<Index>>,
    names: &[String],
    row: &Arc<Row>,
) -> Result<()> {
    for (i, n) in names.iter().enumerate() {
        let Some(ix) = indexes.get_mut(n) else { continue };
        if let Err(e) = Arc::make_mut(ix).insert(row.clone()) {
            index_remove(indexes, &names[..i], row);
            table.take_back(row);
            return Err(e);
        }
    }
    Ok(())
}

fn index_remove(indexes: &mut BTreeMap<String, Arc<Index>>, names: &[String], row: &Arc<Row>) {
    for n in names {
        if let Some(ix) = indexes.get_mut(n) {
            Arc::make_mut(ix).remove(row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_types::{row, Column, DataType, Value};

    fn item_schema() -> Schema {
        Schema::new(vec![
            Column::not_null("i_id", DataType::Int),
            Column::new("i_title", DataType::Str),
            Column::new("i_subject", DataType::Str),
        ])
    }

    fn db_with_item() -> Database {
        let mut db = Database::new("tpcw");
        db.create_table("item", item_schema(), &["i_id".into()])
            .unwrap();
        db.create_index("ix_item_subject", "item", &["i_subject".into()], false)
            .unwrap();
        db
    }

    fn ins(i: i64, title: &str, subject: &str) -> RowChange {
        RowChange::Insert {
            table: "item".into(),
            row: row![i, title, subject],
        }
    }

    #[test]
    fn apply_logs_and_maintains_indexes() {
        let mut db = db_with_item();
        let lsn = db
            .apply(100, vec![ins(1, "a", "ARTS"), ins(2, "b", "ARTS")])
            .unwrap();
        assert_eq!(lsn, Lsn(0));
        assert_eq!(db.table_ref("item").unwrap().row_count(), 2);
        let ix = db.index("ix_item_subject").unwrap();
        assert_eq!(ix.seek(&row!["ARTS"]).count(), 2);
        assert_eq!(db.log().read_from(Lsn(0)).len(), 1);
        assert_eq!(db.log().read_from(Lsn(0))[0].commit_ts_ms, 100);
    }

    #[test]
    fn failed_transaction_rolls_back_entirely() {
        let mut db = db_with_item();
        db.apply(0, vec![ins(1, "a", "ARTS")]).unwrap();
        // Second change violates PK; first must be undone.
        let err = db.apply(1, vec![ins(2, "b", "SPORTS"), ins(1, "dup", "ARTS")]);
        assert!(err.is_err());
        assert_eq!(db.table_ref("item").unwrap().row_count(), 1);
        assert_eq!(db.index("ix_item_subject").unwrap().seek(&row!["SPORTS"]).count(), 0);
        assert_eq!(db.log().len(), 1, "failed txn must not be logged");
    }

    #[test]
    fn update_rewrites_index_entries() {
        let mut db = db_with_item();
        db.apply(0, vec![ins(1, "a", "ARTS")]).unwrap();
        db.apply(
            1,
            vec![RowChange::Update {
                table: "item".into(),
                before: row![1, "a", "ARTS"],
                after: row![1, "a", "HISTORY"],
            }],
        )
        .unwrap();
        let ix = db.index("ix_item_subject").unwrap();
        assert_eq!(ix.seek(&row!["ARTS"]).count(), 0);
        assert_eq!(ix.seek(&row!["HISTORY"]).count(), 1);
    }

    #[test]
    fn delete_removes_index_entries() {
        let mut db = db_with_item();
        db.apply(0, vec![ins(1, "a", "ARTS")]).unwrap();
        db.apply(
            1,
            vec![RowChange::Delete {
                table: "item".into(),
                row: row![1, "a", "ARTS"],
            }],
        )
        .unwrap();
        assert_eq!(db.table_ref("item").unwrap().row_count(), 0);
        assert!(db.index("ix_item_subject").unwrap().is_empty());
    }

    #[test]
    fn apply_unlogged_skips_log() {
        let mut db = db_with_item();
        db.apply_unlogged(&[ins(1, "a", "ARTS")]).unwrap();
        assert_eq!(db.table_ref("item").unwrap().row_count(), 1);
        assert!(db.log().is_empty());
    }

    #[test]
    fn analyze_populates_stats() {
        let mut db = db_with_item();
        let changes: Vec<_> = (1..=100)
            .map(|i| ins(i, &format!("t{i}"), if i % 2 == 0 { "A" } else { "B" }))
            .collect();
        db.apply(0, changes).unwrap();
        db.analyze();
        let stats = db.catalog.stats("item").unwrap();
        assert_eq!(stats.row_count, 100);
        let id_stats = stats.column("i_id").unwrap();
        assert_eq!(id_stats.min, Some(Value::Int(1)));
        assert_eq!(id_stats.max, Some(Value::Int(100)));
        assert_eq!(stats.column("i_subject").unwrap().distinct_count, 2);
    }

    #[test]
    fn shadow_clone_keeps_catalog_drops_data() {
        let mut db = db_with_item();
        db.apply(0, vec![ins(1, "a", "ARTS")]).unwrap();
        db.analyze();
        let shadow = db.shadow_clone();
        let t = shadow.table_ref("item").unwrap();
        assert!(t.is_shadow());
        assert_eq!(t.row_count(), 0);
        // Statistics still reflect the backend's data.
        assert_eq!(shadow.catalog.stats("item").unwrap().row_count, 1);
        // Index defined but empty.
        assert!(shadow.index("ix_item_subject").unwrap().is_empty());
    }

    #[test]
    fn shadow_object_follows_the_source_and_leaves_local_tables_alone() {
        let mut db = db_with_item();
        let mut shadow = db.shadow_clone();
        db.create_index("ix_item_title", "item", &["i_title".into()], false)
            .unwrap();
        db.catalog_mut()
            .grant("dbo", "app", "item", mtc_sql::Permission::Select)
            .unwrap();
        let version = shadow.catalog.version();
        shadow.shadow_object(&db, "ITEM");
        assert!(shadow.catalog.version() > version);
        let indexes: Vec<&str> = shadow.indexes_of("item").map(|ix| ix.name()).collect();
        assert_eq!(indexes, ["ix_item_subject", "ix_item_title"]);
        assert!(shadow.index("ix_item_title").unwrap().is_empty());
        assert!(shadow
            .catalog
            .check_permission("app", "item", mtc_sql::Permission::Select)
            .is_ok());
        // What the source no longer has goes; a table of the shadow's own
        // (a cached view's, populated) is not the source's to replace.
        db.drop_table("item").unwrap();
        shadow.shadow_object(&db, "item");
        assert!(!shadow.has_table("item") && shadow.index("ix_item_title").is_none());
        let mut own = db_with_item();
        own.apply(0, vec![ins(1, "a", "ARTS")]).unwrap();
        own.shadow_object(&db, "item");
        assert_eq!(own.table_ref("item").unwrap().row_count(), 1);
        // An index name the shadow's own table uses stays that table's.
        let mut source = db_with_item();
        source.create_table("t", item_schema(), &["i_id".into()]).unwrap();
        source.create_index("ix_item_title", "t", &["i_title".into()], false).unwrap();
        own.create_index("ix_item_title", "item", &["i_title".into()], false).unwrap();
        own.shadow_object(&source, "t");
        assert_eq!(own.index("ix_item_title").unwrap().table(), "item");
        assert_eq!(own.index("ix_item_title").unwrap().len(), 1);
        assert_eq!(own.indexes_of("t").count(), 0);
    }

    #[test]
    fn create_index_builds_from_existing_rows() {
        let mut db = db_with_item();
        db.apply(0, vec![ins(1, "a", "ARTS"), ins(2, "b", "ARTS")]).unwrap();
        db.create_index("ix_item_title", "item", &["i_title".into()], true)
            .unwrap();
        assert_eq!(db.index("ix_item_title").unwrap().len(), 2);
    }

    #[test]
    fn metas_for_scripting() {
        let db = db_with_item();
        let tables = db.table_metas();
        assert_eq!(tables.len(), 1);
        assert_eq!(tables[0].primary_key, vec!["i_id"]);
        let indexes = db.index_metas();
        assert_eq!(indexes[0].columns, vec!["i_subject"]);
    }
}
