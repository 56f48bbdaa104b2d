//! Column and schema definitions.

use std::sync::Arc;

use crate::error::{Error, Result};
use crate::value::DataType;
use crate::normalize_ident;

/// A column definition: name, type, nullability.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub name: String,
    pub dtype: DataType,
    pub nullable: bool,
}

impl Column {
    /// New nullable column. The name is normalized to lower case.
    pub fn new(name: &str, dtype: DataType) -> Column {
        Column {
            name: normalize_ident(name),
            dtype,
            nullable: true,
        }
    }

    /// New NOT NULL column.
    pub fn not_null(name: &str, dtype: DataType) -> Column {
        Column {
            name: normalize_ident(name),
            dtype,
            nullable: false,
        }
    }
}

/// An ordered list of columns describing a row shape.
///
/// Column lookup is by (normalized) name; output schemas produced by joins
/// may qualify duplicated names as `alias.column`.
///
/// The columns are shared: cloning a schema — every result, result-cache
/// hit, peer and remote result carries one — is one refcount bump.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schema {
    columns: Arc<[Column]>,
}

impl Schema {
    pub fn new(columns: Vec<Column>) -> Schema {
        Schema {
            columns: columns.into(),
        }
    }

    pub fn empty() -> Schema {
        Schema::default()
    }

    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    pub fn len(&self) -> usize {
        self.columns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Finds a column index by name.
    ///
    /// Accepts either the exact stored name or, when the stored name is
    /// qualified (`alias.col`), the bare suffix — provided the suffix is
    /// unambiguous. This mirrors SQL name resolution after a join.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        let want = normalize_ident(name);
        if let Some(i) = self.columns.iter().position(|c| c.name == want) {
            return Ok(i);
        }
        // Fall back to suffix matching for unqualified references.
        let matches: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                c.name
                    .rsplit_once('.')
                    .map(|(_, suffix)| suffix == want)
                    .unwrap_or(false)
            })
            .map(|(i, _)| i)
            .collect();
        match matches.as_slice() {
            [i] => Ok(*i),
            [] => Err(Error::catalog(format!("column `{name}` not found"))),
            _ => Err(Error::catalog(format!("column `{name}` is ambiguous"))),
        }
    }

    pub fn contains(&self, name: &str) -> bool {
        self.index_of(name).is_ok()
    }

    /// Concatenates two schemas (join output), qualifying nothing; callers
    /// are expected to have already qualified conflicting names.
    pub fn join(&self, other: &Schema) -> Schema {
        Schema {
            columns: self
                .columns
                .iter()
                .chain(other.columns.iter())
                .cloned()
                .collect(),
        }
    }

    /// Returns a schema with every column name prefixed by `alias.`
    /// (stripping any existing qualifier first).
    pub fn qualified(&self, alias: &str) -> Schema {
        let alias = normalize_ident(alias);
        Schema {
            columns: self
                .columns
                .iter()
                .map(|c| {
                    let base = c.name.rsplit_once('.').map(|(_, s)| s).unwrap_or(&c.name);
                    Column {
                        name: format!("{alias}.{base}"),
                        dtype: c.dtype,
                        nullable: c.nullable,
                    }
                })
                .collect(),
        }
    }

    /// Projects a subset of columns by index.
    pub fn project(&self, indices: &[usize]) -> Schema {
        Schema {
            columns: indices.iter().map(|&i| self.columns[i].clone()).collect(),
        }
    }

    /// Estimated row width in bytes, used for transfer-cost estimation.
    pub fn estimated_row_width(&self) -> u64 {
        self.columns.iter().map(|c| c.dtype.estimated_width()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("name", DataType::Str),
            Column::new("price", DataType::Float),
        ])
    }

    #[test]
    fn index_of_exact() {
        let s = sample();
        assert_eq!(s.index_of("id").unwrap(), 0);
        assert_eq!(s.index_of("PRICE").unwrap(), 2);
        assert!(s.index_of("missing").is_err());
    }

    #[test]
    fn qualified_and_suffix_lookup() {
        let s = sample().qualified("c");
        assert_eq!(s.column(0).name, "c.id");
        assert_eq!(s.index_of("c.id").unwrap(), 0);
        assert_eq!(s.index_of("id").unwrap(), 0, "bare suffix resolves");
    }

    #[test]
    fn ambiguous_suffix_is_an_error() {
        let joined = sample().qualified("a").join(&sample().qualified("b"));
        assert!(joined.index_of("id").is_err());
        assert_eq!(joined.index_of("a.id").unwrap(), 0);
        assert_eq!(joined.index_of("b.id").unwrap(), 3);
    }

    #[test]
    fn requalifying_strips_old_alias() {
        let s = sample().qualified("a").qualified("b");
        assert_eq!(s.column(0).name, "b.id");
    }

    #[test]
    fn project_selects_columns() {
        let s = sample();
        let p = s.project(&[2, 0]);
        assert_eq!(p.column(0).name, "price");
        assert_eq!(p.column(1).name, "id");
    }

    #[test]
    fn row_width_sums_column_widths() {
        assert_eq!(sample().estimated_row_width(), 8 + 24 + 8);
    }
}
