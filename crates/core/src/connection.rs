//! Application-facing connections.
//!
//! A [`Connection`] is the analogue of an ODBC connection. Transparency is
//! the whole point: the application code is identical whether the handle
//! points at the backend or at a cache server, so "rerouting the
//! application's ODBC sources from the backend server to the cache server"
//! (§4) is just constructing the connection from a different handle.

use std::sync::Arc;

use mtc_engine::eval::Bindings;
use mtc_engine::QueryResult;
use mtc_types::{Result, Value};

use crate::backend::BackendServer;
use crate::cache::CacheServer;

/// Which server a connection points at (the "ODBC source" definition).
#[derive(Clone)]
pub enum ServerHandle {
    Backend(Arc<BackendServer>),
    Cache(Arc<CacheServer>),
}

impl From<Arc<BackendServer>> for ServerHandle {
    fn from(b: Arc<BackendServer>) -> ServerHandle {
        ServerHandle::Backend(b)
    }
}

impl From<Arc<CacheServer>> for ServerHandle {
    fn from(c: Arc<CacheServer>) -> ServerHandle {
        ServerHandle::Cache(c)
    }
}

/// A client connection bound to a principal.
pub struct Connection {
    server: ServerHandle,
    /// Normalized here, once, so the permission check each statement runs
    /// compares names as they are.
    principal: String,
}

impl Connection {
    /// Connects as the administrative `dbo` principal.
    pub fn connect(server: impl Into<ServerHandle>) -> Connection {
        Connection {
            server: server.into(),
            principal: "dbo".into(),
        }
    }

    /// Connects as a specific principal (application login).
    pub fn connect_as(server: impl Into<ServerHandle>, principal: &str) -> Connection {
        Connection {
            server: server.into(),
            principal: mtc_types::normalize_ident(principal),
        }
    }

    /// Points this connection at a different server — the ODBC re-route.
    pub fn reroute(&mut self, server: impl Into<ServerHandle>) {
        self.server = server.into();
    }

    pub fn principal(&self) -> &str {
        &self.principal
    }

    /// Executes a statement without parameters.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.query_with(sql, &Bindings::new())
    }

    /// Executes a statement with named parameters.
    pub fn query_with(&self, sql: &str, params: &Bindings) -> Result<QueryResult> {
        match &self.server {
            ServerHandle::Backend(b) => b.execute(sql, params, &self.principal),
            ServerHandle::Cache(c) => c.execute(sql, params, &self.principal),
        }
    }

    /// EXPLAIN: the physical plan this connection's server would run.
    pub fn explain(&self, sql: &str) -> Result<String> {
        match &self.server {
            ServerHandle::Backend(b) => b.explain(sql),
            ServerHandle::Cache(c) => c.explain(sql),
        }
    }

    /// Convenience: builds bindings from `(name, value)` pairs.
    pub fn params(pairs: &[(&str, Value)]) -> Bindings {
        pairs
            .iter()
            .map(|(k, v)| (mtc_types::normalize_ident(k), v.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_replication::ReplicationHub;
    use mtc_util::sync::Mutex;

    #[test]
    fn same_code_runs_against_backend_and_cache() {
        let backend = BackendServer::new("b");
        backend
            .run_script(
                "CREATE TABLE t (id INT NOT NULL PRIMARY KEY, v VARCHAR);
                 INSERT INTO t VALUES (1, 'x'), (2, 'y');",
            )
            .unwrap();
        backend.analyze();
        let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
        let cache = CacheServer::create("c", backend.clone(), hub);
        cache
            .create_cached_view("t_all", "SELECT id, v FROM t")
            .unwrap();

        // The application function knows nothing about servers.
        let app = |conn: &Connection| -> usize {
            conn.query("SELECT id FROM t WHERE id <= 2").unwrap().rows.len()
        };

        let mut conn = Connection::connect(backend.clone());
        assert_eq!(app(&conn), 2);
        // Re-route the "ODBC source" — no application change.
        conn.reroute(cache);
        assert_eq!(app(&conn), 2);
    }

    #[test]
    fn explain_shows_routing() {
        let backend = BackendServer::new("b");
        backend
            .run_script("CREATE TABLE t (id INT NOT NULL PRIMARY KEY, v VARCHAR)")
            .unwrap();
        let rows: Vec<String> = (1..=500)
            .map(|i| format!("INSERT INTO t VALUES ({i}, 'v{i}')"))
            .collect();
        backend.run_script(&rows.join(";")).unwrap();
        backend.analyze();
        let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
        let cache = CacheServer::create("c", backend.clone(), hub);
        let conn = Connection::connect(cache);
        let plan = conn.explain("SELECT v FROM t WHERE id = 1").unwrap();
        assert!(plan.contains("Remote"), "shadow table goes remote: {plan}");
        assert!(plan.contains("estimated cost"), "{plan}");
        let conn = Connection::connect(backend);
        let plan = conn.explain("SELECT v FROM t WHERE id = 1").unwrap();
        assert!(plan.contains("ClusteredSeek"), "{plan}");
        // The backend also explains how a DELETE or UPDATE finds its rows;
        // an INSERT of values has no plan to show.
        let plan = conn.explain("DELETE FROM t WHERE id = 1").unwrap();
        assert!(plan.contains("ClusteredSeek"), "{plan}");
        assert!(conn.explain("INSERT INTO t VALUES (501, 'x')").is_err());
    }

    /// The currency-routing decision surfaces through the application-facing
    /// handle: an app holding a `Connection` can see, in `explain`, why its
    /// freshness-bounded query left the cache.
    #[test]
    fn explain_surfaces_currency_routing_through_connection() {
        use mtc_replication::ManualClock;
        let clock = ManualClock::new(0);
        let backend = BackendServer::with_clock("b", Arc::new(clock.clone()));
        backend
            .run_script("CREATE TABLE t (id INT NOT NULL PRIMARY KEY, v VARCHAR)")
            .unwrap();
        let rows: Vec<String> = (1..=300)
            .map(|i| format!("INSERT INTO t VALUES ({i}, 'v{i}')"))
            .collect();
        backend.run_script(&rows.join(";")).unwrap();
        backend.analyze();
        let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
        let cache = CacheServer::create("c", backend.clone(), hub.clone());
        cache
            .create_cached_view("t_all", "SELECT id, v FROM t")
            .unwrap();
        let conn = Connection::connect(cache);

        // Fresh view: the bound is satisfied and explain says so.
        let bounded = "SELECT v FROM t WHERE id = 7 WITH FRESHNESS 60 SECONDS";
        let plan = conn.explain(bounded).unwrap();
        assert!(plan.contains("routing: local"), "{plan}");

        // Pause replication, mutate the backend and let time pass: the
        // bound is violated.
        hub.lock().log_reader_enabled = false;
        backend
            .run_script("UPDATE t SET v = 'stale' WHERE id = 7")
            .unwrap();
        clock.advance(10_000);
        let tight = "SELECT v FROM t WHERE id = 7 WITH FRESHNESS 1 SECONDS";
        let plan = conn.explain(tight).unwrap();
        assert!(plan.contains("routing: backend fallback"), "{plan}");
        assert!(plan.contains("t_all"), "{plan}");
        // An unbounded query through the same connection carries no line.
        let plan = conn.explain("SELECT v FROM t WHERE id = 7").unwrap();
        assert!(!plan.contains("routing:"), "{plan}");
    }

    #[test]
    fn params_helper() {
        let p = Connection::params(&[("ID", Value::Int(1)), ("name", Value::str("x"))]);
        assert_eq!(p["id"], Value::Int(1));
        assert_eq!(p["name"], Value::str("x"));
    }
}
