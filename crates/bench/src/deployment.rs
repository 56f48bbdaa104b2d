//! Deployment builder: backend + distributor + cache tier, loaded with TPC-W.

use std::sync::Arc;

use mtc_util::sync::Mutex;

use mtc_replication::{Clock, FaultPlan, ManualClock, ReplicationHub};
use mtc_tpcw::datagen::{generate, Scale};
use mtc_tpcw::deploy::configure_cache;
use mtc_tpcw::procs::register_all;
use mtc_tpcw::session::IdAllocator;
use mtcache::{
    BackendServer, CacheServer, Connection, Fleet, FleetConfig, ResultCache, ResultCacheConfig,
};

use crate::concurrency::FAULTS;

/// A complete test deployment.
pub struct Deployment {
    pub backend: Arc<BackendServer>,
    pub hub: Arc<Mutex<ReplicationHub>>,
    /// A representative cache server (the capacity model multiplies it to
    /// `k` identical ones, exactly as the paper ran identical web/cache
    /// machines). `None` for a baseline and for a fleet deployment.
    pub cache: Option<Arc<CacheServer>>,
    /// The cache fleet of a [`Deployment::new_fleet`] deployment.
    pub fleet: Option<Arc<Fleet>>,
    pub scale: Scale,
    pub clock: ManualClock,
    pub ids: Arc<IdAllocator>,
}

/// The cache tier in front of the backend.
enum Tier {
    None,
    /// One cache server; `Some(bytes)` sizes its result cache explicitly.
    Node(Option<usize>),
    /// A fleet of this many nodes behind the front-door router.
    Fleet(usize),
}

impl Deployment {
    /// Builds a backend with TPC-W data, procedures and a replication hub;
    /// with `cached`, also one fully configured cache server (§6.1.2
    /// cached views, indexes and copied procedures).
    pub fn new(scale: Scale, cached: bool) -> Deployment {
        Deployment::build(scale, if cached { Tier::Node(None) } else { Tier::None })
    }

    /// Like [`Deployment::new`] with `cached = true`, but the cache server's
    /// mid-tier result cache is built with an explicit byte budget
    /// (`exp_resultcache`'s budget sweep).
    pub fn new_with_result_cache_budget(scale: Scale, budget_bytes: usize) -> Deployment {
        Deployment::build(scale, Tier::Node(Some(budget_bytes)))
    }

    /// A deployment fronted by a fleet of `nodes` cache servers, every node
    /// provisioned with the §6.1.2 cache configuration.
    pub fn new_fleet(scale: Scale, nodes: usize) -> Deployment {
        Deployment::build(scale, Tier::Fleet(nodes))
    }

    fn build(scale: Scale, tier: Tier) -> Deployment {
        let clock = ManualClock::new(0);
        let backend = BackendServer::with_clock("backend", Arc::new(clock.clone()));
        generate(&backend, scale).expect("TPC-W data generation");
        register_all(&backend).expect("procedure registration");
        let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
        let (cache, fleet) = match tier {
            Tier::None => (None, None),
            Tier::Node(budget) => {
                let cache = match budget {
                    Some(budget) => CacheServer::create_with_result_cache(
                        "cache1",
                        backend.clone(),
                        hub.clone(),
                        ResultCache::new(ResultCacheConfig::with_budget(budget as u64)),
                    ),
                    None => CacheServer::create("cache1", backend.clone(), hub.clone()),
                };
                configure_cache(&cache).expect("cache configuration");
                (Some(cache), None)
            }
            Tier::Fleet(nodes) => {
                let cfg = FleetConfig {
                    nodes,
                    ..FleetConfig::default()
                };
                let fleet =
                    Fleet::create(backend.clone(), hub.clone(), cfg, Box::new(configure_cache))
                        .expect("fleet creation");
                (None, Some(fleet))
            }
        };
        let ids = IdAllocator::new(&scale);
        Deployment {
            backend,
            hub,
            cache,
            fleet,
            scale,
            clock,
            ids,
        }
    }

    /// Installs the standard fault plan ([`FAULTS`]: 10% dropped deliveries,
    /// 5% duplicates, a distributor crash every 200) seeded with `seed`.
    pub fn with_standard_faults(self, seed: u64) -> Deployment {
        self.hub.lock().set_fault_plan(FaultPlan::new(seed, FAULTS));
        self
    }

    /// An application connection: to the cache when one exists (the
    /// re-routed ODBC source), otherwise straight to the backend.
    pub fn connection(&self) -> Connection {
        match &self.cache {
            Some(c) => Connection::connect_as(c.clone(), "app"),
            None => Connection::connect_as(self.backend.clone(), "app"),
        }
    }

    /// A connection pinned to the backend regardless of caching (baseline
    /// routing).
    pub fn backend_connection(&self) -> Connection {
        Connection::connect_as(self.backend.clone(), "app")
    }

    /// Advances simulated time and runs one replication pass (faults and
    /// all — errors are injected-crash returns, retried on the next pass).
    pub fn pump_replication(&self, advance_ms: i64) {
        self.clock.advance(advance_ms);
        let _ = self.hub.lock().pump(self.clock.now_ms());
    }

    /// Pumps until every live node has drained (faulted deliveries
    /// retry until applied).
    pub fn drain(&self) {
        for _ in 0..100_000 {
            self.clock.advance(50);
            let mut h = self.hub.lock();
            let _ = h.pump(self.clock.now_ms());
            if h.drained() {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cached_deployment_builds_and_answers_locally() {
        let d = Deployment::new(Scale::tiny(), true);
        let conn = d.connection();
        let r = conn.query("EXEC getBook @i_id = 5").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(
            r.metrics.remote_calls, 0,
            "getBook should be answered from cv_item/cv_author"
        );
    }

    #[test]
    fn uncached_deployment_routes_to_backend() {
        let d = Deployment::new(Scale::tiny(), false);
        let conn = d.connection();
        let r = conn.query("EXEC getBook @i_id = 5").unwrap();
        assert_eq!(r.rows.len(), 1);
        assert!(d.backend.stats.queries.get() > 0);
    }
}
