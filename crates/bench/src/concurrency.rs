//! Concurrent TPC-W throughput experiment (DESIGN.md §9.4).
//!
//! For each worker count `W` in the sweep, the harness builds a fresh
//! cached deployment, installs the *same seeded fault plan* on the
//! replication hub, and runs the TPC-W Shopping mix through `W` real OS
//! threads while a dedicated replication thread pumps faulted deliveries
//! continuously. The real run exercises the concurrency machinery end to
//! end: every session thread reads epoch-published snapshots (asserting the
//! epoch never goes backwards), probes the sharded plan cache, and bumps
//! the relaxed-atomic server counters, all while replication apply
//! publishes new snapshots around it.
//!
//! Throughput and latency numbers come from a **deterministic closed-loop
//! schedule model** over the per-interaction work units the real run
//! measured, not from wall-clock timing: the host this repo grows on has a
//! single CPU, so wall-clock scaling is physically impossible there, and
//! the repo's precedent (the capacity model in `mtc-sim`) is to express
//! performance in machine-independent work units. The model list-schedules
//! eight closed-loop session streams onto `W` model CPUs serving
//! [`WORK_RATE`] work units per second; latency is queueing wait plus
//! service, throughput is interactions over makespan. On a machine with
//! `>= W` cores the real executor realizes the modeled scaling because the
//! snapshot/atomic/sharding work removed every shared lock from the read
//! path — the invariant the root `concurrency_smoke` test pins.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mtc_util::rng::{SeedableRng, StdRng};

use mtc_replication::{Clock, FaultSpec, ReplicationMetrics};
use mtc_tpcw::datagen::Scale;
use mtc_tpcw::interactions::run_interaction;
use mtc_tpcw::mix::Workload;
use mtcache::Connection;

use crate::deployment::Deployment;
use crate::json::Json;
use crate::replay::{fault_plan_json, new_session, percentile};

/// Model-CPU service rate, in work units per modeled second. One
/// calibration constant for the whole experiment; it scales absolute
/// latencies and throughputs but cancels out of every speedup ratio.
pub const WORK_RATE: f64 = 200_000.0;

/// Closed-loop session streams the model schedules (the same "emulated
/// browsers" pool size the demand measurement uses).
pub const SESSIONS: usize = 8;

/// The fault plan every point runs under: 10% dropped deliveries, 5%
/// duplicates, an injected distributor crash every 200 deliveries.
pub const FAULTS: FaultSpec = FaultSpec {
    drop_p: 0.10,
    duplicate_p: 0.05,
    crash_every: 200,
    ..FaultSpec::NONE
};

/// One worker count's measurements.
#[derive(Debug, Clone)]
pub struct WorkerPoint {
    /// Session threads in the real run / CPUs in the schedule model.
    pub workers: usize,
    /// Interactions completed (split evenly across the threads).
    pub interactions: usize,
    /// Interactions that returned an error (counted, not retried).
    pub errors: usize,
    /// Total measured work, in work units (local + backend).
    pub total_work: f64,
    /// Modeled interactions per second at this worker count.
    pub modeled_throughput: f64,
    /// `modeled_throughput / modeled_throughput(workers = 1)`.
    pub speedup_vs_1: f64,
    /// Modeled per-interaction latency percentiles, milliseconds
    /// (queueing wait + service).
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    /// Informational: real wall-clock seconds for the threaded run on
    /// whatever machine executed it.
    pub wall_s: f64,
    /// Highest snapshot epoch any session thread observed. Each thread
    /// asserts its view of the epoch is monotone.
    pub max_epoch: u64,
    /// Replication-under-fault counters for the run, read lock-free from
    /// the hub's shared metrics.
    pub replication: ReplicationMetrics,
}

/// Everything `exp_concurrency` reports.
#[derive(Debug, Clone)]
pub struct ConcurrencyResults {
    /// Interactions per point.
    pub interactions: usize,
    /// Seed shared by the workload streams and the fault plan.
    pub seed: u64,
    pub points: Vec<WorkerPoint>,
}

impl ConcurrencyResults {
    /// The point measured at `workers`.
    pub fn point(&self, workers: usize) -> Option<&WorkerPoint> {
        self.points.iter().find(|p| p.workers == workers)
    }

    /// Renders the results as the `BENCH_concurrency.json` report.
    pub fn to_json(&self) -> String {
        let points = self.points.iter().map(|p| {
            let replication = Json::inline()
                .put("txns_applied", p.replication.txns_applied)
                .put("dropped", p.replication.deliveries_dropped)
                .put("duplicated", p.replication.duplicates_delivered)
                .put("crashes", p.replication.crashes_injected)
                .put("retries", p.replication.retries)
                .put("redeliveries", p.replication.redeliveries);
            Json::inline()
                .put("workers", p.workers)
                .put("interactions", p.interactions)
                .put("errors", p.errors)
                .num("modeled_throughput_ips", p.modeled_throughput, 1)
                .num("speedup_vs_1", p.speedup_vs_1, 2)
                .num("p50_ms", p.p50_ms, 2)
                .num("p95_ms", p.p95_ms, 2)
                .num("p99_ms", p.p99_ms, 2)
                .num("total_work_units", p.total_work, 0)
                .num("wall_s", p.wall_s, 3)
                .put("max_epoch", p.max_epoch)
                .put("replication", replication)
        });
        Json::root()
            .put("experiment", "concurrency")
            .put("interactions_per_point", self.interactions)
            .put("seed", self.seed)
            .put("sessions", SESSIONS)
            .num("work_rate_units_per_s", WORK_RATE, 0)
            .put("fault_plan", fault_plan_json())
            .put("points", Json::rows(points))
            .render()
    }
}

/// Deterministic closed-loop list schedule: `SESSIONS` streams of service
/// demands onto `workers` model CPUs at [`WORK_RATE`]. Returns
/// `(throughput_ips, sorted latencies in seconds)`.
fn schedule(work: &[f64], workers: usize) -> (f64, Vec<f64>) {
    // Round-robin the measured interactions onto the session streams in
    // completion order.
    let mut streams: Vec<std::collections::VecDeque<f64>> =
        (0..SESSIONS).map(|_| std::collections::VecDeque::new()).collect();
    for (i, &w) in work.iter().enumerate() {
        streams[i % SESSIONS].push_back(w);
    }
    let mut session_ready = [0.0f64; SESSIONS];
    let mut worker_free = vec![0.0f64; workers];
    let mut latencies = Vec::with_capacity(work.len());
    let mut makespan = 0.0f64;
    for _ in 0..work.len() {
        // The closed loop issues the next request from the session that has
        // been ready longest (ties by index — fully deterministic).
        let s = (0..SESSIONS)
            .filter(|&s| !streams[s].is_empty())
            .min_by(|&a, &b| {
                session_ready[a]
                    .partial_cmp(&session_ready[b])
                    .expect("finite times")
                    .then(a.cmp(&b))
            })
            .expect("interactions remain");
        let service = streams[s].pop_front().expect("non-empty stream") / WORK_RATE;
        let w = (0..workers)
            .min_by(|&a, &b| {
                worker_free[a]
                    .partial_cmp(&worker_free[b])
                    .expect("finite times")
                    .then(a.cmp(&b))
            })
            .expect("at least one worker");
        let ready = session_ready[s];
        let start = ready.max(worker_free[w]);
        let end = start + service;
        latencies.push(end - ready);
        worker_free[w] = end;
        session_ready[s] = end;
        makespan = makespan.max(end);
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let throughput = work.len() as f64 / makespan.max(1e-12);
    (throughput, latencies)
}

/// Runs one worker count: a real threaded execution (workload threads plus
/// a continuously pumping replication thread) that yields the
/// per-interaction service demands, then the deterministic schedule model
/// over those demands.
fn run_point(n: usize, seed: u64, workers: usize) -> WorkerPoint {
    let deployment = Deployment::new(Scale::tiny(), true).with_standard_faults(seed);
    let cache = deployment.cache.clone().expect("cached deployment");
    // This experiment isolates the morsel-parallel/concurrency speedup: the
    // result cache would otherwise collapse repeated remote interactions
    // into memory hits, shifting the per-interaction demand distribution
    // between worker counts. It gets its own experiment (`exp_resultcache`).
    cache.result_cache.set_enabled(false);
    let stop = Arc::new(AtomicBool::new(false));

    // Replication applies continuously while the sessions run; pump errors
    // are injected crashes, and the next pump resumes from the durable
    // restart point exactly as the agent would.
    let rep = {
        let hub = deployment.hub.clone();
        let clock = deployment.clock.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                clock.advance(5);
                let _ = hub.lock().pump(clock.now_ms());
                std::thread::yield_now();
            }
        })
    };

    let per_thread = n / workers;
    let started = Instant::now();
    let handles: Vec<_> = (0..workers)
        .map(|t| {
            let cache = cache.clone();
            let ids = deployment.ids.clone();
            let scale = deployment.scale;
            std::thread::spawn(move || {
                let conn = Connection::connect_as(cache.clone(), "app");
                let mut rng = StdRng::seed_from_u64(
                    seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(t as u64 + 1),
                );
                let mix = Workload::Shopping.mix();
                let mut session = new_session(&mut rng, &scale, &ids, 1);
                let mut work = Vec::with_capacity(per_thread);
                let mut errors = 0usize;
                let mut last_epoch = 0u64;
                for _ in 0..per_thread {
                    // Snapshot reads: the epoch a session observes may only
                    // advance, never regress, even while apply publishes.
                    let epoch = cache.db.read().epoch();
                    assert!(epoch >= last_epoch, "snapshot epoch went backwards");
                    last_epoch = epoch;
                    let interaction = mix.sample(&mut rng);
                    match run_interaction(interaction, &conn, &mut session, &scale, &mut rng)
                    {
                        Ok(out) => work.push(out.metrics.local_work + out.metrics.remote_work),
                        Err(_) => errors += 1,
                    }
                }
                (work, errors, last_epoch)
            })
        })
        .collect();

    let mut work: Vec<f64> = Vec::with_capacity(n);
    let mut errors = 0usize;
    let mut max_epoch = 0u64;
    for h in handles {
        let (w, e, epoch) = h.join().expect("session thread");
        work.extend(w);
        errors += e;
        max_epoch = max_epoch.max(epoch);
    }
    let wall_s = started.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    rep.join().expect("replication thread");

    // Drain the remaining deliveries so the counters cover the whole run.
    deployment.drain();
    let replication = deployment.hub.lock().metrics.snapshot();

    let (throughput, latencies) = schedule(&work, workers);
    WorkerPoint {
        workers,
        interactions: work.len(),
        errors,
        total_work: work.iter().sum(),
        modeled_throughput: throughput,
        speedup_vs_1: 1.0, // filled by the sweep
        p50_ms: percentile(&latencies, 50.0) * 1e3,
        p95_ms: percentile(&latencies, 95.0) * 1e3,
        p99_ms: percentile(&latencies, 99.0) * 1e3,
        wall_s,
        max_epoch,
        replication,
    }
}

/// Runs the full sweep: `n` interactions at each worker count in
/// `worker_counts`, every point under the same seed and the same fault
/// plan, and normalizes speedups against the 1-worker point (or the first
/// point when 1 is not in the sweep).
pub fn run_concurrency(n: usize, seed: u64, worker_counts: &[usize]) -> ConcurrencyResults {
    let mut points: Vec<WorkerPoint> = worker_counts
        .iter()
        .map(|&w| run_point(n, seed, w))
        .collect();
    let base = points
        .iter()
        .find(|p| p.workers == 1)
        .or(points.first())
        .map(|p| p.modeled_throughput)
        .unwrap_or(1.0);
    for p in &mut points {
        p.speedup_vs_1 = p.modeled_throughput / base.max(1e-12);
    }
    ConcurrencyResults {
        interactions: n,
        seed,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrency_smoke() {
        let r = run_concurrency(96, 11, &[1, 4]);
        assert_eq!(r.points.len(), 2);
        let one = r.point(1).unwrap();
        let four = r.point(4).unwrap();
        assert_eq!(one.errors, 0, "serial point must run clean");
        assert!(one.total_work > 0.0);
        assert!(
            four.speedup_vs_1 > 1.5,
            "4 workers should model >1.5x over 1: {:.2}",
            four.speedup_vs_1
        );
        assert!(four.p95_ms >= four.p50_ms);
        let json = r.to_json();
        assert!(json.contains("\"experiment\": \"concurrency\""));
        assert!(json.contains("\"speedup_vs_1\""));
        assert!(json.contains("\"p95_ms\""));
    }

    #[test]
    fn schedule_model_is_deterministic_and_work_conserving() {
        let work: Vec<f64> = (0..64).map(|i| 100.0 + (i % 7) as f64 * 40.0).collect();
        let (t1, l1) = schedule(&work, 4);
        let (t2, l2) = schedule(&work, 4);
        assert_eq!(t1.to_bits(), t2.to_bits(), "schedule must be deterministic");
        assert_eq!(l1, l2);
        // More workers never slow the modeled makespan down.
        let (t_serial, _) = schedule(&work, 1);
        let (t_wide, _) = schedule(&work, 8);
        assert!(t1 >= t_serial);
        assert!(t_wide >= t1);
    }
}
