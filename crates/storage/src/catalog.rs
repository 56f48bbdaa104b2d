//! Catalog: views, permissions, statistics and stored procedures.
//!
//! The catalog is deliberately *separable from data*: `Catalog::clone()` is
//! exactly what "shadowing the backend catalog information on the caching
//! server" (§3) needs — it carries everything required to parse, authorize
//! and cost-optimize queries locally, but no rows.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use mtc_sql::{Permission, Prepared, Select};
use mtc_types::{normalize_ident, normalized, Error, Result};

use crate::stats::TableStats;

/// A view definition (virtual or materialized).
#[derive(Debug, Clone, PartialEq)]
pub struct ViewMeta {
    pub name: String,
    /// The defining query. Materialized views that should be incrementally
    /// maintainable are select-project over a single base object.
    pub definition: Select,
    pub materialized: bool,
    /// On a cache server: true when this is a *cached* view maintained by
    /// replication (and therefore possibly stale; see §5.1.1 on why such
    /// views must not feed mixed-result plans).
    pub is_cached: bool,
}

impl ViewMeta {
    /// The single base object this view reads, if the definition is a
    /// simple select-project (the incremental-maintenance / replication
    /// article form).
    pub fn base_object(&self) -> Option<&str> {
        match self.definition.from.as_slice() {
            [mtc_sql::TableRef::Table { name, .. }] => Some(name),
            _ => None,
        }
    }
}

/// A stored procedure: named, parameterized statement list.
///
/// T-SQL procedures in the paper carry application logic; ours are a list of
/// statements over `@param` placeholders. A procedure whose body cannot run
/// on the cache server is transparently forwarded (§5.2).
///
/// The body is prepared once, when the procedure is created, and the
/// catalog holds the definition behind an `Arc`: an `EXEC` — and a copy of
/// the procedure onto a cache server — shares it instead of cloning ASTs.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcedureDef {
    pub name: String,
    /// Parameter names (without `@`), in declaration order.
    pub params: Vec<String>,
    pub body: Vec<Arc<Prepared>>,
}

/// Index metadata kept in the catalog (the index *data* lives in
/// [`crate::Database`]).
#[derive(Debug, Clone, PartialEq)]
pub struct IndexMeta {
    pub name: String,
    pub table: String,
    pub columns: Vec<String>,
    pub unique: bool,
}

/// Table metadata snapshot used when scripting out a shadow database.
#[derive(Debug, Clone, PartialEq)]
pub struct TableMeta {
    pub name: String,
    pub schema: mtc_types::Schema,
    pub primary_key: Vec<String>,
}

/// The metadata half of a database.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    views: BTreeMap<String, ViewMeta>,
    procedures: BTreeMap<String, Arc<ProcedureDef>>,
    /// object → principal → granted permissions (both normalized): nested
    /// so a check probes with the borrowed names it is handed, and an
    /// object's grants are one entry.
    permissions: BTreeMap<String, BTreeMap<String, BTreeSet<Permission>>>,
    /// Per table / materialized view statistics.
    stats: BTreeMap<String, TableStats>,
    /// Monotonic counter bumped on every change that can affect plan choice
    /// (views, statistics, and — via [`crate::Database`] — tables and
    /// indexes). Cached compiled plans are stamped with the version they
    /// were optimized under and invalidated when it moves.
    version: u64,
}

impl Catalog {
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Current plan-relevant metadata version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Bumps the metadata version — called by every catalog mutation that
    /// can change optimizer decisions, and by [`crate::Database`] DDL
    /// (tables/indexes live outside the catalog but equally shape plans).
    pub fn bump_version(&mut self) {
        self.version += 1;
    }

    // -- views --------------------------------------------------------------

    pub fn create_view(&mut self, view: ViewMeta) -> Result<()> {
        let name = normalize_ident(&view.name);
        if self.views.contains_key(&name) {
            return Err(Error::catalog(format!("view `{name}` already exists")));
        }
        self.views.insert(name, view);
        self.bump_version();
        Ok(())
    }

    pub fn drop_view(&mut self, name: &str) -> Result<ViewMeta> {
        let name = normalize_ident(name);
        let meta = self
            .views
            .remove(&name)
            .ok_or_else(|| Error::catalog(format!("view `{name}` not found")))?;
        self.bump_version();
        Ok(meta)
    }

    pub fn view(&self, name: &str) -> Option<&ViewMeta> {
        self.views.get(&normalize_ident(name))
    }

    pub fn views(&self) -> impl Iterator<Item = &ViewMeta> {
        self.views.values()
    }

    /// All *materialized* views (candidates for view matching).
    pub fn materialized_views(&self) -> impl Iterator<Item = &ViewMeta> {
        self.views.values().filter(|v| v.materialized)
    }

    // -- procedures ---------------------------------------------------------

    pub fn create_procedure(&mut self, proc: Arc<ProcedureDef>) -> Result<()> {
        let name = normalize_ident(&proc.name);
        if self.procedures.contains_key(&name) {
            return Err(Error::catalog(format!(
                "procedure `{name}` already exists"
            )));
        }
        self.procedures.insert(name, proc);
        Ok(())
    }

    pub fn drop_procedure(&mut self, name: &str) -> Result<()> {
        self.procedures
            .remove(&normalize_ident(name))
            .map(|_| ())
            .ok_or_else(|| Error::catalog(format!("procedure `{name}` not found")))
    }

    pub fn procedure(&self, name: &str) -> Option<&Arc<ProcedureDef>> {
        self.procedures.get(&normalize_ident(name))
    }

    pub fn procedures(&self) -> impl Iterator<Item = &ProcedureDef> {
        self.procedures.values().map(|p| &**p)
    }

    // -- permissions --------------------------------------------------------

    /// Grants `permission` on `object` to `grantee`. Only `dbo` may grant
    /// ([`require_dbo`]).
    pub fn grant(
        &mut self,
        grantor: &str,
        grantee: &str,
        object: &str,
        permission: Permission,
    ) -> Result<()> {
        require_dbo(grantor)?;
        self.permissions
            .entry(normalize_ident(object))
            .or_default()
            .entry(normalize_ident(grantee))
            .or_default()
            .insert(permission);
        Ok(())
    }

    /// Checks a permission; the built-in `dbo` principal can do anything.
    /// Runs on every execution of every statement: names that arrive
    /// normalized (a connection's principal, a prepared statement's objects)
    /// are probed as they are, nothing is allocated.
    pub fn check_permission(
        &self,
        principal: &str,
        object: &str,
        permission: Permission,
    ) -> Result<()> {
        let principal = normalized(principal);
        if principal == "dbo" {
            return Ok(());
        }
        let allowed = self
            .permissions
            .get(&*normalized(object))
            .and_then(|principals| principals.get(&*principal))
            .is_some_and(|perms| perms.contains(&permission));
        if allowed {
            Ok(())
        } else {
            Err(Error::permission(format!(
                "principal `{principal}` lacks {} on `{object}`",
                permission.sql()
            )))
        }
    }

    /// Removes every grant on `object`: a dropped object's grants go with
    /// it, so an object re-created under its name starts with none.
    pub fn drop_grants(&mut self, object: &str) {
        self.permissions.remove(&normalize_ident(object));
    }

    /// All grants, for scripting the shadow database.
    pub fn grants(&self) -> impl Iterator<Item = (&str, &str, Permission)> {
        self.permissions.iter().flat_map(|(object, principals)| {
            principals.iter().flat_map(move |(principal, perms)| {
                perms
                    .iter()
                    .map(move |p| (principal.as_str(), object.as_str(), *p))
            })
        })
    }

    // -- shadowing ----------------------------------------------------------

    /// Every object this catalog holds a view definition, statistics or a
    /// grant for (a name may come more than once).
    pub(crate) fn objects(&self) -> impl Iterator<Item = &str> {
        let views = self.views.keys();
        views.chain(self.stats.keys()).chain(self.permissions.keys()).map(String::as_str)
    }

    /// Makes this catalog's view definition, statistics and grants of
    /// `object` what they are in `source`, removing those `source` does not
    /// have, and bumps the version: the catalog half of
    /// [`crate::Database::shadow_object`].
    pub(crate) fn copy_object(&mut self, source: &Catalog, object: &str) {
        let object = normalize_ident(object);
        copy_entry(&mut self.views, &source.views, &object);
        copy_entry(&mut self.stats, &source.stats, &object);
        copy_entry(&mut self.permissions, &source.permissions, &object);
        self.bump_version();
    }

    // -- statistics ---------------------------------------------------------

    pub fn set_stats(&mut self, object: &str, stats: TableStats) {
        self.stats.insert(normalize_ident(object), stats);
        self.bump_version();
    }

    /// Drops the statistics of an object (used when pruning shadow tables).
    pub fn remove_stats(&mut self, object: &str) {
        self.stats.remove(&normalize_ident(object));
        self.bump_version();
    }

    pub fn stats(&self, object: &str) -> Option<&TableStats> {
        self.stats.get(&normalize_ident(object))
    }
}

/// Makes `to[key]` what `from[key]` is, absence included.
fn copy_entry<V: Clone>(to: &mut BTreeMap<String, V>, from: &BTreeMap<String, V>, key: &str) {
    match from.get(key) {
        Some(value) => to.insert(key.to_string(), value.clone()),
        None => to.remove(key),
    };
}

/// Only `dbo` changes the catalog: every DDL statement and every `GRANT`
/// is refused to any other principal with [`Error::permission`], before
/// anything changes.
pub fn require_dbo(principal: &str) -> Result<()> {
    if normalized(principal) == "dbo" {
        Ok(())
    } else {
        Err(Error::permission(format!(
            "principal `{principal}` may not change the catalog"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_sql::{parse_statement, Statement};

    fn select(sql: &str) -> Select {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            _ => panic!("not a select"),
        }
    }

    #[test]
    fn view_lifecycle() {
        let mut c = Catalog::new();
        c.create_view(ViewMeta {
            name: "cust1000".into(),
            definition: select("SELECT cid, cname FROM customer WHERE cid <= 1000"),
            materialized: true,
            is_cached: false,
        })
        .unwrap();
        assert!(c.view("Cust1000").is_some(), "lookup is case-insensitive");
        assert_eq!(c.view("cust1000").unwrap().base_object(), Some("customer"));
        assert!(c
            .create_view(ViewMeta {
                name: "cust1000".into(),
                definition: select("SELECT 1"),
                materialized: false,
                is_cached: false,
            })
            .is_err());
        c.drop_view("cust1000").unwrap();
        assert!(c.view("cust1000").is_none());
    }

    #[test]
    fn base_object_of_join_view_is_none() {
        let v = ViewMeta {
            name: "j".into(),
            definition: select("SELECT * FROM a INNER JOIN b ON a.x = b.x"),
            materialized: true,
            is_cached: false,
        };
        assert_eq!(v.base_object(), None);
    }

    #[test]
    fn permission_checks() {
        let mut c = Catalog::new();
        c.grant("dbo", "app", "item", Permission::Select).unwrap();
        assert!(c.grant("app", "app", "orders", Permission::Select).is_err());
        assert!(c.check_permission("app", "item", Permission::Select).is_ok());
        assert!(c.check_permission("app", "item", Permission::Update).is_err());
        assert!(c.check_permission("app", "orders", Permission::Select).is_err());
        // dbo bypasses checks.
        assert!(c.check_permission("dbo", "anything", Permission::Delete).is_ok());
    }

    #[test]
    fn copy_object_follows_the_source() {
        let mut backend = Catalog::new();
        let stats = TableStats {
            row_count: 1000,
            columns: Default::default(),
        };
        backend.set_stats("item", stats);
        backend
            .grant("dbo", "app", "item", Permission::Select)
            .unwrap();
        let mut shadow = Catalog::new();
        shadow
            .grant("dbo", "app", "item", Permission::Delete)
            .unwrap();
        shadow.copy_object(&backend, "ITEM");
        assert_eq!(shadow.stats("item").unwrap().row_count, 1000);
        assert!(shadow.check_permission("app", "item", Permission::Select).is_ok());
        assert!(shadow.check_permission("app", "item", Permission::Delete).is_err());
        shadow.copy_object(&Catalog::new(), "item");
        assert!(shadow.stats("item").is_none());
        assert_eq!(shadow.objects().count(), 0);
    }

    #[test]
    fn procedures() {
        let mut c = Catalog::new();
        let def = Arc::new(ProcedureDef {
            name: "getItem".into(),
            params: vec!["id".into()],
            body: vec![Arc::new(
                Prepared::new("SELECT * FROM item WHERE i_id = @id").unwrap(),
            )],
        });
        c.create_procedure(def.clone()).unwrap();
        assert!(Arc::ptr_eq(c.procedure("GETITEM").unwrap(), &def));
        assert!(c.drop_procedure("getitem").is_ok());
        assert!(c.drop_procedure("getitem").is_err());
    }
}
