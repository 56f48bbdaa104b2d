//! Core data model shared by every crate in the MTCache reproduction:
//! SQL values, data types, rows, schemas and the common error type.
//!
//! The model is deliberately small — the paper's workload (TPC-W plus the
//! examples of §5) needs integers, floats, strings, booleans and timestamps.
//! All values carry a total order (`NULL` sorts lowest, as in SQL Server's
//! index ordering) so they can key B-tree indexes directly.

use std::borrow::Cow;

pub mod batch;
pub mod codec;
pub mod error;
pub mod fingerprint;
pub mod row;
pub mod schema;
pub mod text;
pub mod value;

pub use batch::{ColBuilder, ColData, ColumnVec, RowBatch, RowBatchBuilder};
pub use codec::{BinCodec, ByteReader};
pub use error::{Error, Result};
pub use fingerprint::fingerprint;
pub use row::Row;
pub use schema::{Column, Schema};
pub use text::Text;
pub use value::{DataType, Value};

/// Normalizes a SQL identifier: identifiers in this dialect are
/// case-insensitive and stored lower-case, matching SQL Server's default
/// case-insensitive collation that the paper's scripts rely on.
pub fn normalize_ident(ident: &str) -> String {
    ident.to_ascii_lowercase()
}

/// [`normalize_ident`] without the copy when `ident` is already normalized —
/// which on a statement's hot path it is: the parser normalizes object names
/// and a connection normalizes its principal once.
pub fn normalized(ident: &str) -> Cow<'_, str> {
    if ident.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(normalize_ident(ident))
    } else {
        Cow::Borrowed(ident)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_ident_lowercases() {
        assert_eq!(normalize_ident("Customer"), "customer");
        assert_eq!(normalize_ident("ORDER_LINE"), "order_line");
        assert_eq!(normalize_ident("already_lower"), "already_lower");
        assert!(matches!(normalized("already_lower"), Cow::Borrowed(_)));
        assert_eq!(normalized("Order_Line"), "order_line");
    }
}
