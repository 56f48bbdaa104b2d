//! Deployments under test: backend + replication hub + one cache node
//! (paper §6.1.2 configuration) or a two-node fleet with partitioned views.

use std::sync::Arc;
use std::time::Instant;

use mtc_replication::{Clock, ManualClock, ReplicationHub};
use mtc_tpcw::deploy::{configure_cache, CACHED_PROCS};
use mtc_tpcw::Scale;
use mtc_types::Result;
use mtc_util::sync::Mutex;
use mtcache::{BackendServer, CacheServer, Fleet, FleetConfig, ResultCache, ResultCacheConfig};

/// Simulated milliseconds the `ManualClock` advances per replication pump.
const PUMP_ADVANCE_MS: i64 = 50;

/// Which cache tier a workload runs against.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Topology {
    /// One cache node, §6.1.2 views/indexes/procs, L1 of the given budget.
    Single { l1_budget: u64 },
    /// Two nodes, `multisite` placement, default L1/L2 budgets, `item`
    /// split at the midpoint: `cache0` owns the low half plus `author`,
    /// `cache1` the high half plus `orders`/`order_line`.
    Fleet2,
}

pub struct Deployment {
    pub clock: ManualClock,
    pub backend: Arc<BackendServer>,
    pub hub: Arc<Mutex<ReplicationHub>>,
    pub nodes: Vec<Arc<CacheServer>>,
    pub fleet: Option<Arc<Fleet>>,
    pub scale: Scale,
}

/// When one replication pass started, finished its log-reader half, and
/// finished distributing.
pub struct PumpTimes {
    pub start: Instant,
    pub read: Instant,
    pub end: Instant,
}

/// Cached views of the fleet's node `name` (the partition described on
/// [`Topology::Fleet2`]).
fn fleet_views(name: &str, items: usize) -> Vec<(&'static str, String)> {
    let mid = items / 2;
    let item_cols = "i_id, i_title, i_a_id, i_pub_date, i_publisher, i_subject, i_desc, \
                     i_srp, i_cost, i_stock, i_related1";
    if name == "cache0" {
        vec![
            (
                "cv_item_lo",
                format!("SELECT {item_cols} FROM item WHERE i_id <= {mid}"),
            ),
            (
                "cv_author",
                "SELECT a_id, a_fname, a_lname FROM author".to_string(),
            ),
        ]
    } else {
        vec![
            (
                "cv_item_hi",
                format!("SELECT {item_cols} FROM item WHERE i_id > {mid}"),
            ),
            (
                "cv_orders",
                "SELECT o_id, o_c_id, o_date, o_sub_total, o_tax, o_total, o_ship_type, o_status \
                 FROM orders"
                    .to_string(),
            ),
            (
                "cv_order_line",
                "SELECT ol_id, ol_o_id, ol_i_id, ol_qty, ol_discount FROM order_line".to_string(),
            ),
        ]
    }
}

impl Deployment {
    pub fn build(scale: Scale, topology: Topology) -> Result<Deployment> {
        let clock = ManualClock::new(0);
        let backend = BackendServer::with_clock("backend", Arc::new(clock.clone()));
        mtc_tpcw::generate(&backend, scale)?;
        mtc_tpcw::procs::register_all(&backend)?;
        let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
        let (nodes, fleet) = match topology {
            Topology::Single { l1_budget } => {
                let cache = CacheServer::create_with_result_cache(
                    "cache1",
                    backend.clone(),
                    hub.clone(),
                    ResultCache::new(ResultCacheConfig::with_budget(l1_budget)),
                );
                configure_cache(&cache)?;
                (vec![cache], None)
            }
            Topology::Fleet2 => {
                let items = scale.items;
                let fleet = Fleet::create(
                    backend.clone(),
                    hub.clone(),
                    FleetConfig {
                        nodes: 2,
                        ..FleetConfig::default()
                    },
                    Box::new(move |cache| {
                        for (name, definition) in fleet_views(cache.name(), items) {
                            cache.create_cached_view(name, &definition)?;
                        }
                        for proc in CACHED_PROCS {
                            cache.copy_procedure(proc)?;
                        }
                        Ok(())
                    }),
                )?;
                (fleet.nodes(), Some(fleet))
            }
        };
        Ok(Deployment {
            clock,
            backend,
            hub,
            nodes,
            fleet,
            scale,
        })
    }

    /// One replication pass, the two agents called separately so a traced
    /// run can attribute the time. An `Err` (an injected fault) leaves the
    /// work for the next cadence tick, which retries it.
    pub fn pump(&self) -> (PumpTimes, Result<()>) {
        self.clock.advance(PUMP_ADVANCE_MS);
        let mut hub = self.hub.lock();
        let start = Instant::now();
        hub.run_log_reader();
        let read = Instant::now();
        let result = hub.run_distribution(self.clock.now_ms());
        let end = Instant::now();
        (PumpTimes { start, read, end }, result)
    }

    /// Pumps until the hub holds no undelivered work; false if it never
    /// drained. A faulted pass is retried by the next iteration.
    pub fn drain(&self) -> bool {
        for _ in 0..1000 {
            if self.hub.lock().drained() {
                return true;
            }
            let _ = self.pump();
        }
        false
    }
}
