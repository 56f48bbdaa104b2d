//! The names, units and bounds of every metric the benchmark reports.
//! `BENCHMARK.json` at the repository root lists the same; a test compares
//! the two.

use crate::stats::Better;
use crate::workloads::Kind;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
    /// A count that depends on the seed alone: two runs of one seed must
    /// report the same value to the last bit.
    pub exact: bool,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "throughput_ops_s",
        unit: "ops/s",
        better: Better::Higher,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "latency_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "backend_rtts_per_op",
        unit: "count",
        better: Better::Lower,
        bound: 0.25,
        exact: true,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
        exact: false,
    },
];

/// Per-layer metrics of a traced run: `(name, unit, which way is better)`.
/// Names are `<crate>.<module>.<metric>`.
pub const PER_LAYER: [(&str, &str, Better); 53] = [
    ("sql.parse_us", "us", Better::Lower),
    ("engine.binder.bind_us", "us", Better::Lower),
    ("engine.optimizer.optimize_us", "us", Better::Lower),
    ("engine.compile.compile_us", "us", Better::Lower),
    ("engine.stream.execute_us", "us", Better::Lower),
    ("engine.stream.rows_cloned_per_op", "count", Better::Lower),
    ("engine.stream.batches_per_op", "count", Better::Lower),
    (
        "engine.stream.bytes_materialized_per_op",
        "bytes",
        Better::Lower,
    ),
    ("core.plan_cache.lookup_us", "us", Better::Lower),
    ("core.plan_cache.hit_rate", "ratio", Better::Higher),
    ("core.result_cache.lookup_us", "us", Better::Lower),
    ("core.result_cache.hit_rate", "ratio", Better::Higher),
    (
        "core.result_cache.invalidations_per_op",
        "count",
        Better::Lower,
    ),
    ("core.result_cache.evictions", "count", Better::Lower),
    ("core.fragment.hit_rate", "ratio", Better::Higher),
    ("core.cache.execute_us", "us", Better::Lower),
    ("core.cache.overhead_us", "us", Better::Lower),
    ("core.backend.execute_us", "us", Better::Lower),
    ("core.dml.forward_us", "us", Better::Lower),
    ("core.cache.remote_calls_per_op", "count", Better::Lower),
    ("core.cache.coalesced_calls_per_op", "count", Better::Higher),
    ("core.fleet.route_us", "us", Better::Lower),
    ("core.fleet.peer_calls_per_op", "count", Better::Higher),
    ("core.fleet.l2_hit_rate", "ratio", Better::Higher),
    ("core.fleet.reroutes", "count", Better::Lower),
    ("replication.hub.log_reader_us", "us", Better::Lower),
    ("replication.hub.distribute_us", "us", Better::Lower),
    ("replication.hub.pump_share", "ratio", Better::Lower),
    ("replication.hub.txns_applied", "count", Better::Higher),
    ("replication.hub.changes_applied", "count", Better::Higher),
    ("replication.hub.wire_bytes", "bytes", Better::Lower),
    ("replication.hub.max_lag_txns", "count", Better::Lower),
    ("replication.wire.encode_us_per_txn", "us", Better::Lower),
    ("replication.wire.decode_us_per_txn", "us", Better::Lower),
    ("storage.snapshot.publish_us", "us", Better::Lower),
    ("storage.snapshot.publishes_per_op", "count", Better::Lower),
    ("storage.rows_resident", "count", Better::Lower),
    ("tpcw.Home.p50_us", "us", Better::Lower),
    ("tpcw.NewProducts.p50_us", "us", Better::Lower),
    ("tpcw.BestSellers.p50_us", "us", Better::Lower),
    ("tpcw.ProductDetail.p50_us", "us", Better::Lower),
    ("tpcw.SearchRequest.p50_us", "us", Better::Lower),
    ("tpcw.SearchResults.p50_us", "us", Better::Lower),
    ("tpcw.ShoppingCart.p50_us", "us", Better::Lower),
    ("tpcw.CustomerRegistration.p50_us", "us", Better::Lower),
    ("tpcw.BuyRequest.p50_us", "us", Better::Lower),
    ("tpcw.BuyConfirm.p50_us", "us", Better::Lower),
    ("tpcw.OrderInquiry.p50_us", "us", Better::Lower),
    ("tpcw.OrderDisplay.p50_us", "us", Better::Lower),
    ("tpcw.AdminRequest.p50_us", "us", Better::Lower),
    ("tpcw.AdminConfirm.p50_us", "us", Better::Lower),
    ("trace.overhead_pct", "%", Better::Lower),
    ("trace.spans_dropped", "count", Better::Lower),
];

/// False for the per-layer metrics that are no part of a workload of this
/// kind: per-interaction latencies outside TPC-W, fleet layers on one node.
pub fn measured_on(name: &str, kind: Kind) -> bool {
    if name.starts_with("tpcw.") {
        matches!(kind, Kind::Browse | Kind::Order)
    } else if name.starts_with("core.fleet.") {
        kind == Kind::FleetAdhoc
    } else {
        true
    }
}
