//! In-memory relational storage engine for the MTCache reproduction.
//!
//! A [`Database`] owns a [`catalog::Catalog`] (tables, indexes, views,
//! permissions, statistics, stored procedures) plus the table data, and an
//! append-only [`log::CommitLog`] of committed transactions. The commit log
//! is what SQL Server's transactional replication *log reader* sniffs; our
//! replication crate does exactly the same against [`log::CommitLog`].
//!
//! Shadow tables (the cache server's empty copies of backend tables) are
//! ordinary tables whose `is_shadow` flag is set: they carry full schema,
//! indexes, constraints, permissions and — crucially — *statistics imported
//! from the backend*, but hold no rows and refuse scans.

pub mod catalog;
pub mod database;
pub mod index;
pub mod log;
pub mod pmap;
pub mod snapshot;
pub mod stats;
pub mod table;

pub use catalog::{require_dbo, Catalog, IndexMeta, ProcedureDef, TableMeta, ViewMeta};
pub use database::{Database, WriteOp};
pub use index::Index;
pub use log::{written_tables, CommitLog, CommittedTransaction, Lsn, RowChange};
pub use snapshot::{DbSnapshot, SnapshotDb, SnapshotWriteGuard, Watermark};
pub use stats::{ColumnStats, Histogram, TableStats};
pub use table::{Rows, Table};
