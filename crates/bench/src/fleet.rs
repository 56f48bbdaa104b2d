//! Fleet-scale experiment (DESIGN.md §11): N cache nodes, a front-door
//! router, the L1/L2 result-cache hierarchy — under the standard
//! fault-injected replication plan, including a mid-stream node crash and
//! cold rejoin.
//!
//! For each TPC-W workload (Browsing, Shopping) the experiment runs one
//! seeded closed-loop stream of `nodes × 8` sessions twice:
//!
//! * **single** — a fleet of 1: every session lands on the one node, the
//!   serial baseline;
//! * **fleet** — `nodes` (default 4) cache servers. Sessions place via the
//!   consistent-hash router with affinity; halfway through the stream one
//!   node is crashed (removed from the hub, its sessions rerouted
//!   to ring successors) and later cold-rejoined (fresh shadow DB + caches,
//!   snapshot-rehydrated). Every interaction completes exactly once —
//!   rerouting never loses or duplicates work.
//!
//! Reported per workload:
//!
//! * **aggregate throughput** — each node serves its sessions serially and
//!   the nodes run in parallel, so modeled makespan is the *slowest node's*
//!   busy time (CPU work at
//!   [`WORK_RATE`](crate::concurrency::WORK_RATE) plus the [`FleetLinks`]
//!   wire charge: backend RTTs on the far link, L2 serves on the cheap peer
//!   link). The ISSUE's acceptance floor is ≥ 2× the single-node
//!   throughput at 4 nodes;
//! * **backend-offload ratio** — the fraction of logical remote statements
//!   answered *without* a backend wire trip (L1 hits, L2 promotions,
//!   coalesced round trips): `1 − rtts/calls`;
//! * **L1/L2 traffic** — per-tier hits/misses, cross-node invalidations,
//!   and router reroute counts;
//! * **equivalence** — after the hub drains, every probe is answered by
//!   every live node (cache on), by the fleet with caches off, and by the
//!   backend directly; all three must match bit-for-bit on every node.

use std::cell::Cell;

use mtc_sim::FleetLinks;
use mtc_tpcw::datagen::Scale;
use mtc_tpcw::interactions::run_interaction;
use mtc_tpcw::mix::Workload;
use mtcache::{Connection, ResultCacheStats};

use crate::deployment::Deployment;
use crate::json::Json;
use crate::replay::{
    equivalence_json, equivalence_probes, equivalence_sweep, fault_plan_json, ratio, reduction,
    PhaseStats, Replay,
};
use crate::resultcache::REMOTE_ROW_BYTES;

/// Closed-loop sessions per cache node (the ISSUE's "4 nodes × 8
/// sessions").
pub const SESSIONS_PER_NODE: usize = 8;

/// Interaction index (fraction of the stream) where the fleet run crashes
/// a node, and where it cold-rejoins it.
const CRASH_AT: f64 = 0.50;
const REJOIN_AT: f64 = 0.75;

/// One phase (single or fleet) of one workload's stream.
#[derive(Debug, Clone, Default)]
pub struct FleetPhase {
    pub nodes: usize,
    /// The whole stream: interactions, errors, summed metrics (logical
    /// remote statements, backend round trips actually paid, …) and the
    /// modeled latency percentiles.
    pub stream: PhaseStats,
    /// Summed L1 counters across the live nodes at end of stream.
    pub l1: ResultCacheStats,
    /// Shared-L2 counters (zero without the tier).
    pub l2: ResultCacheStats,
    /// `1 − remote_rtts / remote_calls`: remote statements answered
    /// without a backend wire trip.
    pub offload_ratio: f64,
    /// Modeled aggregate interactions/second (nodes run in parallel;
    /// makespan = slowest node's busy time).
    pub throughput_ips: f64,
    /// Interactions each slot served (crashed slots keep their count).
    pub per_node_interactions: Vec<usize>,
    /// Sessions evicted and rerouted by the mid-stream crash.
    pub sessions_rerouted: usize,
}

/// Single-vs-fleet comparison for one workload.
#[derive(Debug, Clone)]
pub struct FleetWorkloadPoint {
    pub workload: &'static str,
    pub single: FleetPhase,
    pub fleet: FleetPhase,
    /// `fleet.throughput_ips / single.throughput_ips`.
    pub speedup: f64,
    /// Post-drain probes × live nodes, three-way compared (node cache-on,
    /// node cache-off, backend).
    pub equivalence_checked: usize,
    pub equivalence_failures: usize,
}

/// Everything `exp_fleet` reports.
#[derive(Debug, Clone)]
pub struct FleetResults {
    pub interactions: usize,
    pub seed: u64,
    pub nodes: usize,
    pub sessions: usize,
    pub links: FleetLinks,
    pub workloads: Vec<FleetWorkloadPoint>,
}

impl FleetResults {
    /// Renders the results as the `BENCH_fleet.json` report.
    pub fn to_json(&self) -> String {
        let phase = |p: &FleetPhase| {
            Json::inline()
                .put("nodes", p.nodes)
                .put("interactions", p.stream.interactions)
                .put("errors", p.stream.errors)
                .put("remote_calls", p.stream.metrics.remote_calls)
                .put("remote_rtts", p.stream.metrics.remote_rtts)
                .put("remote_rows", p.stream.metrics.remote_rows)
                .put("coalesced_calls", p.stream.metrics.coalesced_calls)
                .num("offload_ratio", p.offload_ratio, 4)
                .num("throughput_ips", p.throughput_ips, 2)
                .num("p50_ms", p.stream.p50_ms, 3)
                .num("p95_ms", p.stream.p95_ms, 3)
                .put("l1_hits", p.l1.hits)
                .put("l1_misses", p.l1.misses)
                .put("l2_hits", p.l2.hits)
                .put("l2_misses", p.l2.misses)
                .put("l2_invalidations", p.l2.invalidations)
                .put("sessions_rerouted", p.sessions_rerouted)
                .put(
                    "per_node_interactions",
                    Json::list(p.per_node_interactions.iter().copied()),
                )
        };
        let workloads = self.workloads.iter().map(|w| {
            Json::record()
                .put("workload", w.workload)
                .num("speedup_vs_single", w.speedup, 4)
                .put("single", phase(&w.single))
                .put("fleet", phase(&w.fleet))
                .put(
                    "equivalence",
                    equivalence_json((w.equivalence_checked, w.equivalence_failures)),
                )
        });
        let links = Json::inline()
            .num("backend_rtt_ms", self.links.backend.rtt_ms, 3)
            .num("peer_rtt_ms", self.links.peer.rtt_ms, 3)
            .num("per_kib_ms", self.links.backend.per_kib_ms, 3)
            .put("row_bytes", REMOTE_ROW_BYTES);
        Json::root()
            .put("experiment", "fleet")
            .put("interactions_per_phase", self.interactions)
            .put("seed", self.seed)
            .put("nodes", self.nodes)
            .put("sessions", self.sessions)
            .put("fault_plan", fault_plan_json())
            .put("links", links)
            .put("workloads", Json::rows(workloads))
            .render()
    }
}

/// Runs one seeded closed-loop stream of `n` interactions over `sessions`
/// sessions against the fleet, routing every interaction through the front
/// door (see [`Replay`]). When the fleet has more than one node, slot 1 is
/// crashed mid-stream and cold-rejoined later.
fn run_fleet_stream(
    deployment: &Deployment,
    workload: Workload,
    n: usize,
    sessions: usize,
    seed: u64,
    links: &FleetLinks,
) -> FleetPhase {
    let scale = deployment.scale;
    let fleet = deployment.fleet.as_ref().expect("fleet deployment");
    let mix = workload.mix();
    let nodes = fleet.node_count();

    let crash_at = (n as f64 * CRASH_AT) as usize;
    let rejoin_at = (n as f64 * REJOIN_AT) as usize;
    let crash_slot = 1usize;
    let mut sessions_rerouted = 0;

    // L2 serves cross the cheap peer link; backend trips cross the far
    // link with their payload. An interaction's L2 serves are the hits the
    // shared tier counted while it ran.
    let l2 = fleet.l2();
    let l2_hits = || l2.as_ref().map_or(0, |c| c.stats().hits);
    let l2_hits_before = Cell::new(0);

    // One lane per node slot: each node serves its sessions serially and
    // the nodes run in parallel, so a lane's busy time is its node's.
    let lanes = Replay {
        deployment,
        sessions,
        seed,
        boundary: &mut |i| {
            if nodes > 1 && i == crash_at {
                sessions_rerouted = fleet.crash_node(crash_slot).expect("crash slot 1");
            }
            if nodes > 1 && i == rejoin_at {
                fleet.rejoin_node(crash_slot).expect("rejoin slot 1");
            }
        },
        connect: &mut |i| {
            let (slot, server) = fleet.route(i as u64 % sessions as u64).expect("live node");
            l2_hits_before.set(l2_hits());
            (slot, Connection::connect_as(server, "app"))
        },
        step: &mut |_, conn, session, rng| {
            run_interaction(mix.sample(rng), conn, session, &scale, rng)
        },
        wire_ms: &mut |m| {
            links.latency_ms(
                m.remote_rtts,
                m.remote_rows * REMOTE_ROW_BYTES,
                l2_hits() - l2_hits_before.get(),
                0,
            )
        },
    }
    .run(n, &vec![""; nodes]);

    let stream = PhaseStats::total(&lanes);
    let makespan_ms = lanes.iter().map(|l| l.busy_ms).fold(0.0f64, f64::max);
    let mut l1 = ResultCacheStats::default();
    for node in fleet.nodes() {
        l1.absorb(&node.result_cache.stats());
    }
    FleetPhase {
        nodes,
        l1,
        l2: l2.map(|l2| l2.stats()).unwrap_or_default(),
        offload_ratio: reduction(stream.metrics.remote_rtts, stream.metrics.remote_calls),
        throughput_ips: ratio(stream.interactions as f64, makespan_ms / 1e3),
        per_node_interactions: lanes.iter().map(|l| l.interactions).collect(),
        sessions_rerouted,
        stream,
    }
}

/// Builds an `nodes`-node fleet deployment under the standard fault plan.
pub fn build_fleet(seed: u64, nodes: usize) -> Deployment {
    Deployment::new_fleet(Scale::tiny(), nodes).with_standard_faults(seed)
}

/// Runs one workload single-vs-fleet: same seeded session mix, same fault
/// plan, 1 node then `nodes` nodes (with the mid-stream crash + rejoin).
fn run_fleet_workload(workload: Workload, n: usize, nodes: usize, seed: u64) -> FleetWorkloadPoint {
    let links = FleetLinks::default();
    let sessions = nodes * SESSIONS_PER_NODE;

    let single_dep = build_fleet(seed, 1);
    let single = run_fleet_stream(&single_dep, workload, n, sessions, seed, &links);

    let fleet_dep = build_fleet(seed, nodes);
    let fleet = run_fleet_stream(&fleet_dep, workload, n, sessions, seed, &links);

    // After the hub drains, every probe must be answered identically by
    // every live node with caches on, by the same node with caches off,
    // and by the backend directly.
    fleet_dep.drain();
    let live = fleet_dep.fleet.as_ref().expect("fleet deployment").nodes();
    let targets: Vec<_> = live
        .into_iter()
        .map(|node| {
            let l1 = node.result_cache.clone();
            (Connection::connect_as(node, "app"), vec![l1])
        })
        .collect();
    let (equivalence_checked, equivalence_failures) = equivalence_sweep(
        &equivalence_probes(&fleet_dep.scale),
        &targets,
        Some(&fleet_dep.backend_connection()),
    );

    FleetWorkloadPoint {
        workload: workload.name(),
        speedup: ratio(fleet.throughput_ips, single.throughput_ips),
        single,
        fleet,
        equivalence_checked,
        equivalence_failures,
    }
}

/// Runs the full fleet experiment: Browsing and Shopping, single-node
/// baseline vs `nodes`-node fleet under the standard fault plan with a
/// mid-stream crash + cold rejoin.
pub fn run_fleet(n: usize, seed: u64, nodes: usize) -> FleetResults {
    let workloads: Vec<FleetWorkloadPoint> = [Workload::Browsing, Workload::Shopping]
        .into_iter()
        .map(|w| run_fleet_workload(w, n, nodes, seed))
        .collect();
    FleetResults {
        interactions: n,
        seed,
        nodes,
        sessions: nodes * SESSIONS_PER_NODE,
        links: FleetLinks::default(),
        workloads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_experiment_smoke() {
        let r = run_fleet(240, 7, 4);
        assert_eq!(r.workloads.len(), 2);
        for w in &r.workloads {
            assert_eq!(w.single.stream.errors, 0, "{}: single stream must run clean", w.workload);
            assert_eq!(w.fleet.stream.errors, 0, "{}: fleet stream must run clean", w.workload);
            assert_eq!(
                w.fleet.stream.interactions, 240,
                "{}: rerouting must not lose or duplicate interactions",
                w.workload
            );
            assert!(
                w.speedup >= 1.5,
                "{}: 4 nodes should beat 1 node clearly, got {:.2}x",
                w.workload,
                w.speedup
            );
            assert!(w.fleet.sessions_rerouted > 0, "{}: crash must evict sessions", w.workload);
            assert_eq!(w.equivalence_failures, 0, "{}: fleet == backend rows", w.workload);
            assert!(w.fleet.offload_ratio > 0.0, "{}", w.workload);
        }
        let json = r.to_json();
        assert!(json.contains("\"experiment\": \"fleet\""));
        assert!(json.contains("\"speedup_vs_single\""));
        assert!(json.contains("\"offload_ratio\""));
    }
}
