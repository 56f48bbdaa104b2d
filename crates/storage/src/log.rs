//! Commit log: the source of truth replication sniffs.
//!
//! SQL Server transactional replication works by *log sniffing*: a log
//! reader process collects committed changes from the transaction log (§2.2
//! of the paper). [`CommitLog`] is our transaction log — every committed
//! transaction appends one [`CommittedTransaction`] carrying its row-level
//! changes in order, and the replication crate's log reader tails it.

use mtc_types::codec::{write_str, write_varint, write_zigzag};
use mtc_types::{normalize_ident, BinCodec, ByteReader, Error, Result, Row};

/// Log sequence number — position of a committed transaction in the log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lsn(pub u64);

impl Lsn {
    pub const ZERO: Lsn = Lsn(0);

    pub fn next(self) -> Lsn {
        Lsn(self.0 + 1)
    }
}

/// A single row-level change, as recorded in the log.
///
/// `Update` carries both images so subscribers can locate the old row even
/// when the primary key itself changed.
#[derive(Debug, Clone, PartialEq)]
pub enum RowChange {
    Insert {
        table: String,
        row: Row,
    },
    Update {
        table: String,
        before: Row,
        after: Row,
    },
    Delete {
        table: String,
        row: Row,
    },
}

impl RowChange {
    pub fn table(&self) -> &str {
        match self {
            RowChange::Insert { table, .. }
            | RowChange::Update { table, .. }
            | RowChange::Delete { table, .. } => table,
        }
    }

    /// The row image after the change (`None` for deletes).
    pub fn after_image(&self) -> Option<&Row> {
        match self {
            RowChange::Insert { row, .. } => Some(row),
            RowChange::Update { after, .. } => Some(after),
            RowChange::Delete { .. } => None,
        }
    }

    /// The row image before the change (`None` for inserts).
    pub fn before_image(&self) -> Option<&Row> {
        match self {
            RowChange::Insert { .. } => None,
            RowChange::Update { before, .. } => Some(before),
            RowChange::Delete { row, .. } => Some(row),
        }
    }
}

/// The tables a change list writes, normalized, sorted and each named once:
/// what a committed transaction invalidates, to the hub's sinks and to the
/// cache server that forwarded the write alike.
pub fn written_tables(changes: &[RowChange]) -> Vec<String> {
    let mut tables: Vec<String> = changes.iter().map(|c| normalize_ident(c.table())).collect();
    tables.sort_unstable();
    tables.dedup();
    tables
}

/// A committed transaction in the log.
#[derive(Debug, Clone, PartialEq)]
pub struct CommittedTransaction {
    pub lsn: Lsn,
    /// Commit timestamp in milliseconds on the committing server's clock
    /// (the simulator's clock during experiments).
    pub commit_ts_ms: i64,
    pub changes: Vec<RowChange>,
}

// --- Wire encoding -------------------------------------------------------
//
// Committed transactions are what the replication pipeline ships from the
// publisher to subscribers, so they (and their row changes) carry the
// in-tree binary codec. Tags: 0 = Insert, 1 = Update, 2 = Delete.

impl BinCodec for Lsn {
    fn encode_into(&self, out: &mut Vec<u8>) {
        write_varint(out, self.0);
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<Lsn> {
        Ok(Lsn(r.read_varint()?))
    }
}

impl BinCodec for RowChange {
    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            RowChange::Insert { table, row } => {
                out.push(0);
                write_str(out, table);
                row.encode_into(out);
            }
            RowChange::Update {
                table,
                before,
                after,
            } => {
                out.push(1);
                write_str(out, table);
                before.encode_into(out);
                after.encode_into(out);
            }
            RowChange::Delete { table, row } => {
                out.push(2);
                write_str(out, table);
                row.encode_into(out);
            }
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<RowChange> {
        Ok(match r.read_u8()? {
            0 => RowChange::Insert {
                table: r.read_str()?.to_string(),
                row: Row::decode_from(r)?,
            },
            1 => RowChange::Update {
                table: r.read_str()?.to_string(),
                before: Row::decode_from(r)?,
                after: Row::decode_from(r)?,
            },
            2 => RowChange::Delete {
                table: r.read_str()?.to_string(),
                row: Row::decode_from(r)?,
            },
            tag => return Err(Error::encoding(format!("unknown RowChange tag {tag}"))),
        })
    }
}

impl BinCodec for CommittedTransaction {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.lsn.encode_into(out);
        write_zigzag(out, self.commit_ts_ms);
        write_varint(out, self.changes.len() as u64);
        for c in &self.changes {
            c.encode_into(out);
        }
    }

    fn decode_from(r: &mut ByteReader<'_>) -> Result<CommittedTransaction> {
        let lsn = Lsn::decode_from(r)?;
        let commit_ts_ms = r.read_zigzag()?;
        let n = r.read_varint()? as usize;
        if n > r.remaining() {
            return Err(Error::encoding(format!(
                "change count {n} exceeds remaining input {}",
                r.remaining()
            )));
        }
        let mut changes = Vec::with_capacity(n);
        for _ in 0..n {
            changes.push(RowChange::decode_from(r)?);
        }
        Ok(CommittedTransaction {
            lsn,
            commit_ts_ms,
            changes,
        })
    }
}

/// Append-only transaction log.
#[derive(Debug, Default, Clone)]
pub struct CommitLog {
    entries: Vec<CommittedTransaction>,
    /// LSNs below this have been truncated (already distributed).
    base: u64,
}

impl CommitLog {
    pub fn new() -> CommitLog {
        CommitLog::default()
    }

    /// Next LSN that will be assigned.
    pub fn head(&self) -> Lsn {
        Lsn(self.base + self.entries.len() as u64)
    }

    /// Appends a committed transaction, assigning its LSN.
    pub fn append(&mut self, commit_ts_ms: i64, changes: Vec<RowChange>) -> Lsn {
        let lsn = self.head();
        self.entries.push(CommittedTransaction {
            lsn,
            commit_ts_ms,
            changes,
        });
        lsn
    }

    /// All committed transactions with `lsn >= from` in commit order.
    pub fn read_from(&self, from: Lsn) -> &[CommittedTransaction] {
        let start = from.0.saturating_sub(self.base) as usize;
        if start >= self.entries.len() {
            &[]
        } else {
            &self.entries[start..]
        }
    }

    /// Removes the entries with `lsn < upto` and hands them to the caller
    /// (the replication log reader moves them into its distribution
    /// database). [`head`](CommitLog::head) does not move.
    pub fn truncate_before(&mut self, upto: Lsn) -> Vec<CommittedTransaction> {
        let upto = upto.0.min(self.head().0);
        if upto <= self.base {
            return Vec::new();
        }
        let removed = self.entries.drain(..(upto - self.base) as usize).collect();
        self.base = upto;
        removed
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_types::row;

    fn change(i: i64) -> RowChange {
        RowChange::Insert {
            table: "t".into(),
            row: row![i],
        }
    }

    #[test]
    fn append_assigns_sequential_lsns() {
        let mut log = CommitLog::new();
        assert_eq!(log.append(0, vec![change(1)]), Lsn(0));
        assert_eq!(log.append(1, vec![change(2)]), Lsn(1));
        assert_eq!(log.head(), Lsn(2));
    }

    #[test]
    fn read_from_returns_suffix() {
        let mut log = CommitLog::new();
        for i in 0..5 {
            log.append(i, vec![change(i)]);
        }
        assert_eq!(log.read_from(Lsn(0)).len(), 5);
        assert_eq!(log.read_from(Lsn(3)).len(), 2);
        assert_eq!(log.read_from(Lsn(3))[0].lsn, Lsn(3));
        assert!(log.read_from(Lsn(99)).is_empty());
    }

    #[test]
    fn truncate_preserves_lsns() {
        let mut log = CommitLog::new();
        for i in 0..5 {
            log.append(i, vec![change(i)]);
        }
        let removed = log.truncate_before(Lsn(3));
        assert_eq!(removed.iter().map(|t| t.lsn).collect::<Vec<_>>(), [Lsn(0), Lsn(1), Lsn(2)]);
        assert_eq!(log.len(), 2);
        assert_eq!(log.head(), Lsn(5));
        assert_eq!(log.read_from(Lsn(0))[0].lsn, Lsn(3));
        assert_eq!(log.read_from(Lsn(4))[0].lsn, Lsn(4));
        // Idempotent / no-op truncations.
        assert!(log.truncate_before(Lsn(1)).is_empty());
        assert_eq!(log.len(), 2);
        // Truncating past the head stops at the head: it stays monotone
        // and the next append gets the next LSN.
        assert_eq!(log.truncate_before(Lsn(100)).len(), 2);
        assert!(log.is_empty());
        assert_eq!(log.head(), Lsn(5));
    }

    #[test]
    fn row_change_images() {
        let up = RowChange::Update {
            table: "t".into(),
            before: row![1, "a"],
            after: row![1, "b"],
        };
        assert_eq!(up.before_image().unwrap()[1], mtc_types::Value::str("a"));
        assert_eq!(up.after_image().unwrap()[1], mtc_types::Value::str("b"));
        let del = RowChange::Delete {
            table: "t".into(),
            row: row![1],
        };
        assert!(del.after_image().is_none());
    }

    #[test]
    fn committed_transaction_round_trips_through_codec() {
        let txn = CommittedTransaction {
            lsn: Lsn(42),
            commit_ts_ms: -7, // clocks can start before the epoch in tests
            changes: vec![
                RowChange::Insert {
                    table: "t".into(),
                    row: row![1, "a", 2.5],
                },
                RowChange::Update {
                    table: "t".into(),
                    before: row![1, "a", 2.5],
                    after: row![1, "b", mtc_types::Value::Null],
                },
                RowChange::Delete {
                    table: "other".into(),
                    row: row![9],
                },
            ],
        };
        let bytes = txn.to_bytes();
        assert_eq!(CommittedTransaction::from_bytes(&bytes).unwrap(), txn);
        // Truncation anywhere is an error, never a panic.
        for cut in 0..bytes.len() {
            assert!(CommittedTransaction::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn row_change_codec_rejects_unknown_tag() {
        assert!(RowChange::from_bytes(&[9, 0]).is_err());
    }
}
