//! Result-cache + round-trip-coalescing experiment (DESIGN.md §10).
//!
//! The mid-tier result cache exists to convert backend round trips into
//! memory lookups; this experiment measures exactly that conversion under
//! the repo's standard adversarial conditions. For each TPC-W workload it
//! runs the *same seeded interaction stream* twice through a cached
//! deployment whose replication hub carries the standard fault plan
//! (10% dropped deliveries, 5% duplicates, a distributor crash every 200):
//! once with the result cache disabled (baseline) and once enabled. The two
//! streams are bit-identical — the cache returns the same rows a fetch
//! would, so the seeded RNG consumes the same values — which makes every
//! per-phase delta attributable to the cache alone.
//!
//! Reported per workload:
//!
//! * **remote round trips eliminated** — `1 - rtts(cached)/rtts(baseline)`,
//!   the headline number (the ISSUE targets ≥60% on Browsing);
//! * **warm hit rate** — result-cache hits over probes in the second half
//!   of the stream, after the working set is resident;
//! * **modeled p50/p95 interaction latency** — CPU work at
//!   [`WORK_RATE`](crate::concurrency::WORK_RATE) work units/s plus the
//!   [`RttModel`] wire charge (round trips × per-RTT latency + payload ÷
//!   bandwidth), so saved round trips show up in milliseconds;
//! * **equivalence** — after the replication queue fully drains, a probe
//!   suite runs each query cache-on and cache-off and compares rows
//!   bit-for-bit (the ISSUE demands zero failures).
//!
//! A budget sweep then re-runs the Browsing stream at several cache byte
//! budgets to show the hit-rate / memory trade-off the cost-aware admission
//! policy navigates.

use mtc_sim::RttModel;
use mtc_tpcw::datagen::Scale;
use mtc_tpcw::interactions::run_interaction;
use mtc_tpcw::mix::Workload;

use crate::concurrency::SESSIONS;
use crate::deployment::Deployment;
use crate::json::Json;
use crate::replay::{
    equivalence_json, equivalence_probes, equivalence_sweep, fault_plan_json, reduction,
    PhaseStats, Replay,
};
use mtcache::ResultCacheStats;

/// Modeled result-row width on the wire, bytes. `ExecMetrics` counts rows
/// shipped from the backend; the payload term of the [`RttModel`] charge
/// needs bytes. TPC-W rows here are a handful of ints/floats plus short
/// strings — ~128 bytes is the right order of magnitude, and the constant
/// cancels out of every baseline-vs-cached comparison.
pub const REMOTE_ROW_BYTES: u64 = 128;

/// Baseline-vs-cached comparison for one workload mix.
#[derive(Debug, Clone)]
pub struct WorkloadPoint {
    pub workload: &'static str,
    pub baseline: PhaseStats,
    pub cached: PhaseStats,
    /// Result-cache hit rate over the whole cached stream.
    pub hit_rate: f64,
    /// Hit rate over the second half of the stream (working set resident).
    pub warm_hit_rate: f64,
    /// `1 - rtts(cached)/rtts(baseline)`.
    pub rtt_reduction: f64,
    /// Result-cache counters at the end of the cached stream.
    pub cache: ResultCacheStats,
    /// Post-drain equivalence probes: queries run cache-on vs cache-off.
    pub equivalence_checked: usize,
    pub equivalence_failures: usize,
}

/// One point of the Browsing budget sweep.
#[derive(Debug, Clone)]
pub struct BudgetPoint {
    pub budget_bytes: usize,
    pub hit_rate: f64,
    pub rtt_reduction: f64,
    pub remote_rtts: u64,
    /// Result-cache counters at the end of the stream.
    pub cache: ResultCacheStats,
}

/// Everything `exp_resultcache` reports.
#[derive(Debug, Clone)]
pub struct ResultCacheResults {
    pub interactions: usize,
    pub seed: u64,
    pub rtt: RttModel,
    pub workloads: Vec<WorkloadPoint>,
    pub budget_sweep: Vec<BudgetPoint>,
}

impl ResultCacheResults {
    /// The point measured for `workload` ("Browsing" / "Shopping").
    pub fn workload(&self, name: &str) -> Option<&WorkloadPoint> {
        self.workloads.iter().find(|w| w.workload == name)
    }

    /// Renders the results as the `BENCH_resultcache.json` report.
    pub fn to_json(&self) -> String {
        let phase = |p: &PhaseStats| {
            Json::inline()
                .put("interactions", p.interactions)
                .put("errors", p.errors)
                .put("remote_calls", p.metrics.remote_calls)
                .put("remote_rtts", p.metrics.remote_rtts)
                .put("remote_rows", p.metrics.remote_rows)
                .put("coalesced_calls", p.metrics.coalesced_calls)
                .num("total_work_units", p.total_work, 0)
                .num("p50_ms", p.p50_ms, 3)
                .num("p95_ms", p.p95_ms, 3)
        };
        let workloads = self.workloads.iter().map(|w| {
            let cache = Json::inline()
                .put("hits", w.cache.hits)
                .put("misses", w.cache.misses)
                .put("entries", w.cache.entries)
                .put("bytes", w.cache.bytes)
                .put("invalidations", w.cache.invalidations)
                .put("currency_rejects", w.cache.currency_rejects)
                .put("evictions", w.cache.evictions);
            Json::record()
                .put("workload", w.workload)
                .num("hit_rate", w.hit_rate, 4)
                .num("warm_hit_rate", w.warm_hit_rate, 4)
                .num("rtt_reduction", w.rtt_reduction, 4)
                .put("baseline", phase(&w.baseline))
                .put("cached", phase(&w.cached))
                .put("cache", cache)
                .put(
                    "equivalence",
                    equivalence_json((w.equivalence_checked, w.equivalence_failures)),
                )
        });
        let budget_sweep = self.budget_sweep.iter().map(|b| {
            Json::record()
                .put("budget_bytes", b.budget_bytes)
                .num("hit_rate", b.hit_rate, 4)
                .num("rtt_reduction", b.rtt_reduction, 4)
                .put("remote_rtts", b.remote_rtts)
                .put("entries", b.cache.entries)
                .put("bytes", b.cache.bytes)
                .put("evictions", b.cache.evictions)
                .put("admission_rejects", b.cache.admission_rejects)
        });
        Json::root()
            .put("experiment", "resultcache")
            .put("interactions_per_phase", self.interactions)
            .put("seed", self.seed)
            .put("fault_plan", fault_plan_json())
            .put("rtt_model", rtt_model_json(&self.rtt))
            .put("workloads", Json::rows(workloads))
            .put("budget_sweep", Json::rows(budget_sweep))
            .render()
    }
}

/// The [`RttModel`] as the reports record it.
pub(crate) fn rtt_model_json(rtt: &RttModel) -> Json {
    Json::inline()
        .num("rtt_ms", rtt.rtt_ms, 3)
        .num("per_kib_ms", rtt.per_kib_ms, 3)
        .put("row_bytes", REMOTE_ROW_BYTES)
}

/// Runs one seeded stream of `n` interactions against `deployment`'s cache
/// server ([`SESSIONS`] closed-loop sessions, see [`Replay`]), snapshotting
/// the result-cache counters after `snapshot_at` interactions (the
/// warm-rate split; `usize::MAX` for never). The stream is a pure function
/// of `(workload, n, seed)` plus the rows the server returns, so an
/// equivalent server yields an identical stream.
fn run_stream(
    deployment: &Deployment,
    workload: Workload,
    n: usize,
    seed: u64,
    rtt: &RttModel,
    snapshot_at: usize,
) -> (PhaseStats, ResultCacheStats) {
    let cache = deployment.cache.clone().expect("cached deployment");
    let mix = workload.mix();
    let scale = deployment.scale;
    let mut mid = ResultCacheStats::default();
    let mut lanes = Replay {
        deployment,
        sessions: SESSIONS,
        seed,
        boundary: &mut |i| {
            if i == snapshot_at {
                mid = cache.result_cache.stats();
            }
        },
        connect: &mut |_| (0, deployment.connection()),
        step: &mut |_, conn, session, rng| {
            run_interaction(mix.sample(rng), conn, session, &scale, rng)
        },
        wire_ms: &mut |m| rtt.latency_ms(m.remote_rtts, m.remote_rows * REMOTE_ROW_BYTES),
    }
    .run(n, &[""]);
    (lanes.remove(0), mid)
}

/// Result-cache hit rate: hits over probes.
fn hit_rate(hits: u64, misses: u64) -> f64 {
    hits as f64 / (hits + misses).max(1) as f64
}

/// Builds a cached deployment under the standard fault plan. `budget`
/// selects an explicit result-cache byte budget (the sweep); `None` keeps
/// the default configuration.
fn build(seed: u64, budget: Option<usize>) -> Deployment {
    match budget {
        Some(b) => Deployment::new_with_result_cache_budget(Scale::tiny(), b),
        None => Deployment::new(Scale::tiny(), true),
    }
    .with_standard_faults(seed)
}

/// Runs baseline (cache off) and cached phases of one workload and the
/// post-drain equivalence suite.
fn run_workload(workload: Workload, n: usize, seed: u64, rtt: &RttModel) -> WorkloadPoint {
    // Baseline: identical deployment, result cache disabled.
    let base_dep = build(seed, None);
    let base_cache = base_dep.cache.clone().expect("cached deployment");
    base_cache.result_cache.set_enabled(false);
    let (baseline, _) = run_stream(&base_dep, workload, n, seed, rtt, usize::MAX);

    // Cached: same seeds, same fault plan, cache on. A mid-stream snapshot
    // separates cold-start misses from the warm regime.
    let dep = build(seed, None);
    let cache = dep.cache.clone().expect("cached deployment");
    let (cached, mid) = run_stream(&dep, workload, n, seed, rtt, n / 2);
    let end = cache.result_cache.stats();

    // After the replication queue drains, every probe is answered cache-on
    // and cache-off and the row sets must match bit-for-bit.
    dep.drain();
    let (equivalence_checked, equivalence_failures) = equivalence_sweep(
        &equivalence_probes(&dep.scale),
        &[(dep.connection(), vec![cache.result_cache.clone()])],
        None,
    );
    WorkloadPoint {
        workload: workload.name(),
        hit_rate: hit_rate(end.hits, end.misses),
        warm_hit_rate: hit_rate(end.hits - mid.hits, end.misses - mid.misses),
        rtt_reduction: reduction(cached.metrics.remote_rtts, baseline.metrics.remote_rtts),
        baseline,
        cached,
        cache: end,
        equivalence_checked,
        equivalence_failures,
    }
}

/// Byte budgets the Browsing sweep visits, smallest to largest.
pub const BUDGET_SWEEP: [usize; 5] = [
    16 * 1024,
    64 * 1024,
    256 * 1024,
    1024 * 1024,
    4 * 1024 * 1024,
];

/// Runs the full experiment: Browsing and Shopping baseline-vs-cached
/// comparisons plus the Browsing budget sweep.
pub fn run_resultcache(n: usize, seed: u64) -> ResultCacheResults {
    let rtt = RttModel::default();
    let workloads: Vec<WorkloadPoint> = [Workload::Browsing, Workload::Shopping]
        .into_iter()
        .map(|w| run_workload(w, n, seed, &rtt))
        .collect();

    let baseline_rtts = workloads
        .iter()
        .find(|w| w.workload == "Browsing")
        .map(|w| w.baseline.metrics.remote_rtts)
        .unwrap_or(0);
    let budget_sweep: Vec<BudgetPoint> = BUDGET_SWEEP
        .iter()
        .map(|&budget| {
            let dep = build(seed, Some(budget));
            let (phase, _) = run_stream(&dep, Workload::Browsing, n, seed, &rtt, usize::MAX);
            let cache = dep.cache.as_ref().expect("cached deployment");
            let stats = cache.result_cache.stats();
            BudgetPoint {
                budget_bytes: budget,
                hit_rate: hit_rate(stats.hits, stats.misses),
                rtt_reduction: reduction(phase.metrics.remote_rtts, baseline_rtts),
                remote_rtts: phase.metrics.remote_rtts,
                cache: stats,
            }
        })
        .collect();

    ResultCacheResults {
        interactions: n,
        seed,
        rtt: RttModel::default(),
        workloads,
        budget_sweep,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resultcache_experiment_smoke() {
        let r = run_resultcache(240, 7);
        assert_eq!(r.workloads.len(), 2);
        let b = r.workload("Browsing").expect("browsing point");
        assert_eq!(b.baseline.errors, 0, "baseline stream must run clean");
        assert_eq!(b.cached.errors, 0, "cached stream must run clean");
        assert_eq!(
            b.baseline.interactions, b.cached.interactions,
            "identical seeded streams"
        );
        assert_eq!(
            b.baseline.metrics.remote_calls, b.cached.metrics.remote_calls,
            "the cache changes where answers come from, not how many remote \
             statements the plans consume"
        );
        assert!(
            b.cached.metrics.remote_rtts < b.baseline.metrics.remote_rtts,
            "the cache must eliminate round trips: {} vs {}",
            b.cached.metrics.remote_rtts,
            b.baseline.metrics.remote_rtts
        );
        assert!(b.rtt_reduction > 0.0);
        assert_eq!(b.equivalence_failures, 0, "cache-on == cache-off rows");
        assert!(b.cached.p50_ms <= b.baseline.p50_ms + 1e-9);
        let json = r.to_json();
        assert!(json.contains("\"experiment\": \"resultcache\""));
        assert!(json.contains("\"rtt_reduction\""));
        assert!(json.contains("\"budget_sweep\""));
    }

    #[test]
    fn budget_sweep_is_monotone_enough() {
        // A bigger budget never hurts the hit rate by more than noise.
        let r = run_resultcache(160, 13);
        assert_eq!(r.budget_sweep.len(), BUDGET_SWEEP.len());
        let first = r.budget_sweep.first().unwrap();
        let last = r.budget_sweep.last().unwrap();
        assert!(
            last.hit_rate + 1e-9 >= first.hit_rate,
            "largest budget should match or beat smallest: {:.3} vs {:.3}",
            last.hit_rate,
            first.hit_rate
        );
    }
}
