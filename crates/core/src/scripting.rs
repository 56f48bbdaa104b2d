//! Shadow-database scripting (§4): "an automatically generated script that
//! configures the cache server and sets up the shadow database … contains
//! SQL commands to create a shadow database with tables, views, indexes and
//! permissions matching the target database on the backend server."
//!
//! [`script_shadow_database`] is that generator; running its output against
//! a fresh server recreates every table, index, virtual view and grant.
//! (Statistics are not expressible in SQL — the programmatic path,
//! [`mtc_storage::Database::shadow_clone`], carries them directly, one
//! object at a time with [`mtc_storage::Database::shadow_object`].)

use std::fmt::Write as _;

use mtc_storage::Database;

/// Generates the §4 shadow-database setup script from a backend database.
pub fn script_shadow_database(db: &Database) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "-- shadow database script for `{}`", db.name());

    for t in db.table_metas() {
        let cols: Vec<String> = t
            .schema
            .columns()
            .iter()
            .map(|c| {
                format!(
                    "{} {}{}",
                    c.name,
                    c.dtype.sql_name(),
                    if c.nullable { "" } else { " NOT NULL" }
                )
            })
            .collect();
        let pk = if t.primary_key.is_empty() {
            String::new()
        } else {
            format!(", PRIMARY KEY ({})", t.primary_key.join(", "))
        };
        let _ = writeln!(out, "CREATE TABLE {} ({}{});", t.name, cols.join(", "), pk);
    }

    for ix in db.index_metas() {
        let _ = writeln!(
            out,
            "CREATE {}INDEX {} ON {} ({});",
            if ix.unique { "UNIQUE " } else { "" },
            ix.name,
            ix.table,
            ix.columns.join(", ")
        );
    }

    // Virtual views script directly; materialized views become *cached*
    // views on the cache server, which the DBA's second script creates.
    for v in db.catalog.views() {
        if !v.materialized {
            let _ = writeln!(out, "CREATE VIEW {} AS {};", v.name, v.definition);
        }
    }

    for (principal, object, permission) in db.catalog.grants() {
        let _ = writeln!(
            out,
            "GRANT {} ON {object} TO {principal};",
            permission.sql()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BackendServer;

    #[test]
    fn script_recreates_the_catalog_shape() {
        let source = BackendServer::new("src");
        source
            .run_script(
                "CREATE TABLE item (i_id INT NOT NULL PRIMARY KEY, i_title VARCHAR, i_cost FLOAT);
                 CREATE TABLE author (a_id INT NOT NULL PRIMARY KEY, a_name VARCHAR);
                 CREATE INDEX ix_item_title ON item (i_title);
                 CREATE UNIQUE INDEX ux_author_name ON author (a_name);
                 CREATE VIEW cheap AS SELECT i_id FROM item WHERE i_cost < 5;
                 GRANT SELECT ON item TO app;
                 GRANT UPDATE ON item TO app;",
            )
            .unwrap();

        let script = script_shadow_database(&source.db.read());
        // The script is plain SQL that a fresh server accepts.
        let replica = BackendServer::new("replica");
        replica.run_script(&script).unwrap();

        let src = source.db.read();
        let dst = replica.db.read();
        assert_eq!(src.table_metas(), dst.table_metas());
        assert_eq!(src.index_metas(), dst.index_metas());
        // Grants survived.
        assert!(dst
            .catalog
            .check_permission("app", "item", mtc_sql::Permission::Update)
            .is_ok());
        assert!(dst
            .catalog
            .check_permission("app", "author", mtc_sql::Permission::Select)
            .is_err());
        // Virtual view survived.
        assert!(dst.catalog.view("cheap").is_some());
    }

    #[test]
    fn script_round_trips_twice() {
        let source = BackendServer::new("src");
        source
            .run_script("CREATE TABLE t (a INT NOT NULL, b VARCHAR, PRIMARY KEY (a))")
            .unwrap();
        let s1 = script_shadow_database(&source.db.read());
        let replica = BackendServer::new("r");
        replica.run_script(&s1).unwrap();
        let s2 = script_shadow_database(&replica.db.read());
        // Same catalog → same script (modulo the db-name comment).
        let tail = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(tail(&s1), tail(&s2));
    }
}
