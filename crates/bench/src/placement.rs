//! Multi-site placement experiment (DESIGN.md §13): a 4-node fleet whose
//! cached views are **partitioned** — node `cache{i}` caches only its own
//! region slice of the `orders` table — so most routed reads land on a node
//! that does not own the relevant view. Strict two-site planning
//! (`multisite: false`) sends every such read to the backend over the far
//! link; the cost-DP placement (`multisite: true`) routes the fragment to
//! the peer that owns the view over the cheap rack-local peer link.
//!
//! Both phases run the *same* seeded read stream with result caching
//! disabled, so the comparison isolates plan placement from result reuse.
//! Per-query service time is modeled CPU work at
//! [`WORK_RATE`](crate::concurrency::WORK_RATE) plus the [`FleetLinks`] wire
//! charge, split per link: backend RTTs/bytes on the
//! far link (`remote_* − peer_*`), peer RTTs/bytes on the LAN link.
//!
//! Reported per phase: p50/p95 latency, backend round trips, and bytes per
//! link. Headlines: `p50_speedup = twosite.p50 / multisite.p50` (floor
//! 1.3×), `backend_rtt_reduction = 1 − multi.rtts/two.rtts` (floor 25%),
//! and an equivalence sweep — every probe on every node against the
//! backend, zero tolerated failures.

use std::sync::Arc;

use mtc_replication::ReplicationHub;
use mtc_sim::FleetLinks;
use mtc_util::rng::{Rng, SeedableRng, StdRng};
use mtc_util::sync::Mutex;
use mtcache::{BackendServer, CacheServer, Connection, Fleet, FleetConfig};

use crate::json::Json;
use crate::replay::{equivalence_json, equivalence_sweep, ratio, reduction, PhaseStats};

/// Partitions (and fleet nodes): `cache{i}` caches region `i`.
pub const REGIONS: usize = 4;
/// Rows in the backend `orders` table.
const ORDER_ROWS: i64 = 4000;

/// One phase (two-site or multi-site) of the seeded read stream.
#[derive(Debug, Clone, Default)]
pub struct PlacementPhase {
    pub multisite: bool,
    /// Queries, errors, summed metrics (logical remote statements, round
    /// trips and bytes in total and on peer links) and modeled latencies.
    pub stream: PhaseStats,
}

impl PlacementPhase {
    /// Wire round trips to the backend (far link): all minus the peers'.
    pub fn backend_rtts(&self) -> u64 {
        self.stream.metrics.remote_rtts - self.stream.metrics.peer_rtts
    }

    /// Payload bytes pulled over the backend link.
    pub fn backend_bytes(&self) -> u64 {
        self.stream.metrics.bytes_transferred - self.stream.metrics.peer_bytes
    }

    /// Mean modeled latency of a completed query, ms.
    pub fn mean_ms(&self) -> f64 {
        ratio(self.stream.busy_ms, self.stream.interactions as f64)
    }
}

/// Everything `exp_placement` reports.
#[derive(Debug, Clone)]
pub struct PlacementResults {
    pub queries: usize,
    pub seed: u64,
    pub nodes: usize,
    pub links: FleetLinks,
    pub twosite: PlacementPhase,
    pub multisite: PlacementPhase,
    /// `twosite.p50_ms / multisite.p50_ms` — the tier-2 floor is 1.3×.
    pub p50_speedup: f64,
    /// `1 − multisite.backend_rtts / twosite.backend_rtts` — floor 25%.
    pub backend_rtt_reduction: f64,
    /// Post-stream probes × nodes, multi-site fleet vs the backend.
    pub equivalence_checked: usize,
    pub equivalence_failures: usize,
}

impl PlacementResults {
    /// Renders the results as the `BENCH_placement.json` report.
    pub fn to_json(&self) -> String {
        let phase = |p: &PlacementPhase| {
            Json::inline()
                .put("queries", p.stream.interactions)
                .put("errors", p.stream.errors)
                .put("remote_calls", p.stream.metrics.remote_calls)
                .put("backend_rtts", p.backend_rtts())
                .put("peer_rtts", p.stream.metrics.peer_rtts)
                .put("backend_bytes", p.backend_bytes())
                .put("peer_bytes", p.stream.metrics.peer_bytes)
                .num("p50_ms", p.stream.p50_ms, 4)
                .num("p95_ms", p.stream.p95_ms, 4)
                .num("mean_ms", p.mean_ms(), 4)
        };
        let links = Json::inline()
            .num("backend_rtt_ms", self.links.backend.rtt_ms, 3)
            .num("peer_rtt_ms", self.links.peer.rtt_ms, 3)
            .num("per_kib_ms", self.links.backend.per_kib_ms, 3);
        Json::root()
            .put("experiment", "placement")
            .put("queries_per_phase", self.queries)
            .put("seed", self.seed)
            .put("nodes", self.nodes)
            .put("links", links)
            .num("p50_speedup", self.p50_speedup, 4)
            .num("backend_rtt_reduction", self.backend_rtt_reduction, 4)
            .put("twosite", phase(&self.twosite))
            .put("multisite", phase(&self.multisite))
            .put(
                "equivalence",
                equivalence_json((self.equivalence_checked, self.equivalence_failures)),
            )
            .render()
    }
}

/// Backend with the partitioned `orders` table + a fleet where node
/// `cache{i}` caches only region `i`'s slice (two of four columns — wide
/// `note` reads stay backend-only in every mode).
fn build_placement_fleet(multisite: bool) -> (Arc<BackendServer>, Arc<Fleet>) {
    let backend = BackendServer::new("backend");
    backend
        .run_script(
            "CREATE TABLE orders (o_id INT NOT NULL PRIMARY KEY, region INT, total FLOAT, \
note VARCHAR)",
        )
        .expect("orders DDL");
    let rows: Vec<String> = (0..ORDER_ROWS)
        .map(|i| {
            format!(
                "INSERT INTO orders VALUES ({i}, {}, {}.25, 'o{i}')",
                i % REGIONS as i64,
                i % 97
            )
        })
        .collect();
    backend.run_script(&rows.join(";")).expect("orders data");
    backend.analyze();
    let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
    let fleet = Fleet::create(
        backend.clone(),
        hub,
        FleetConfig {
            nodes: REGIONS,
            multisite,
            // Result reuse off below; the shared L2 would blur the link
            // accounting, so drop the tier entirely.
            l2_budget: 0,
            ..FleetConfig::default()
        },
        Box::new(|cache: &CacheServer| {
            // `cache{i}` owns region i.
            let region: usize = cache.name()["cache".len()..].parse().unwrap_or(0);
            cache.create_cached_view(
                &format!("ord_cache{region}"),
                &format!("SELECT o_id, region, total FROM orders WHERE region = {region}"),
            )
        }),
    )
    .expect("fleet creation");
    // Isolate placement from result reuse: every query must run its plan.
    for node in fleet.nodes() {
        node.result_cache.set_enabled(false);
    }
    (backend, fleet)
}

/// One seeded read: mostly region-sliced scans (placeable on the owning
/// peer), a tail of `note`-touching reads no cached view covers.
fn gen_read(rng: &mut StdRng) -> String {
    let region = rng.gen_range(0i64..REGIONS as i64);
    let lo = rng.gen_range(0i64..ORDER_ROWS - 400);
    let hi = lo + rng.gen_range(100i64..400);
    if rng.gen_range(0u32..8) == 0 {
        // Uncovered: needs `note`, backend-only in every mode.
        format!("SELECT o_id, note FROM orders WHERE o_id >= {lo} AND o_id < {hi} AND region = {region}")
    } else {
        format!(
            "SELECT o_id, total FROM orders WHERE region = {region} AND o_id >= {lo} AND o_id < {hi}"
        )
    }
}

/// Runs the seeded stream through the fleet's front door and aggregates
/// per-link wire traffic + modeled latency. Its own loop, not a
/// [`crate::replay::Replay`] script: bare SQL reads with no sessions and
/// nothing to replicate.
fn run_placement_stream(
    fleet: &Arc<Fleet>,
    n: usize,
    seed: u64,
    links: &FleetLinks,
    multisite: bool,
) -> PlacementPhase {
    let mut rng = StdRng::seed_from_u64(seed);
    let sessions = (REGIONS * 8) as u64;
    let mut stats = PhaseStats::default();
    for i in 0..n {
        let (_, server) = fleet.route(i as u64 % sessions).expect("live node");
        let conn = Connection::connect(server);
        let sql = gen_read(&mut rng);
        match conn.query(&sql) {
            Ok(r) => {
                let m = &r.metrics;
                let wire = links.latency_ms(
                    m.remote_rtts - m.peer_rtts,
                    m.bytes_transferred - m.peer_bytes,
                    m.peer_rtts,
                    m.peer_bytes,
                );
                stats.record(m, wire);
            }
            Err(_) => stats.errors += 1,
        }
    }
    stats.finish();
    PlacementPhase {
        multisite,
        stream: stats,
    }
}

/// Every probe on every node of the multi-site fleet must equal the
/// backend's answer bit-for-bit. Returns `(checked, failures)`.
fn check_placement_equivalence(
    backend: &Arc<BackendServer>,
    fleet: &Arc<Fleet>,
    seed: u64,
) -> (usize, usize) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b9);
    let mut probes: Vec<String> = (0..12).map(|_| gen_read(&mut rng)).collect();
    probes.push("SELECT COUNT(*) AS n FROM orders WHERE region = 2".to_string());
    probes.push("SELECT o_id, total FROM orders WHERE region = 1 AND o_id < 900 ORDER BY o_id ASC".to_string());
    // Result caching is off on every node: nothing to toggle, the sweep
    // compares each node's answer with the backend's.
    let targets: Vec<_> = fleet
        .nodes()
        .into_iter()
        .map(|node| (Connection::connect(node), Vec::new()))
        .collect();
    equivalence_sweep(
        &probes,
        &targets,
        Some(&Connection::connect(backend.clone())),
    )
}

/// Runs the full placement experiment: the same seeded stream under strict
/// two-site planning and under cost-DP multi-site placement.
pub fn run_placement(n: usize, seed: u64) -> PlacementResults {
    let links = FleetLinks::default();

    let (_two_backend, two_fleet) = build_placement_fleet(false);
    let twosite = run_placement_stream(&two_fleet, n, seed, &links, false);

    let (backend, multi_fleet) = build_placement_fleet(true);
    let multisite = run_placement_stream(&multi_fleet, n, seed, &links, true);

    let (equivalence_checked, equivalence_failures) =
        check_placement_equivalence(&backend, &multi_fleet, seed);

    PlacementResults {
        queries: n,
        seed,
        nodes: REGIONS,
        links,
        p50_speedup: ratio(twosite.stream.p50_ms, multisite.stream.p50_ms),
        backend_rtt_reduction: reduction(multisite.backend_rtts(), twosite.backend_rtts()),
        twosite,
        multisite,
        equivalence_checked,
        equivalence_failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_experiment_smoke() {
        let r = run_placement(400, 7);
        assert_eq!(r.twosite.stream.errors, 0, "two-site stream must run clean");
        assert_eq!(r.multisite.stream.errors, 0, "multi-site stream must run clean");
        assert_eq!(r.equivalence_failures, 0, "placement must not change answers");
        assert!(
            r.multisite.stream.metrics.peer_rtts > 0,
            "partitioned views must trigger peer placements"
        );
        assert_eq!(r.twosite.stream.metrics.peer_rtts, 0, "two-site planning never hops to a peer");
        assert!(
            r.p50_speedup >= 1.3,
            "tier-2 floor: p50 speedup {:.2}x < 1.3x",
            r.p50_speedup
        );
        assert!(
            r.backend_rtt_reduction >= 0.25,
            "tier-2 floor: backend RTT reduction {:.1}% < 25%",
            r.backend_rtt_reduction * 100.0
        );
        let json = r.to_json();
        assert!(json.contains("\"experiment\": \"placement\""));
        assert!(json.contains("\"p50_speedup\""));
        assert!(json.contains("\"backend_rtt_reduction\""));
    }
}
