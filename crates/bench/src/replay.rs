//! The one replay harness behind the modeled experiments.
//!
//! `exp_resultcache`, `exp_fleet` and `exp_advisor` all replay a seeded
//! closed-loop TPC-W stream through a [`Deployment`] while replication is
//! pumped under the standard fault plan, and model each interaction's
//! latency as CPU work at [`WORK_RATE`] plus a wire charge. [`Replay`] owns
//! what they share — session construction, the interaction loop, the pump
//! cadence, the latency vectors and their percentiles — and its closure
//! fields say what differs: where interaction *i* connects, what one step
//! executes, what its round trips cost on the wire, and what happens at
//! the boundaries between interactions (a node crash, an advisor tick, a
//! mid-stream counter snapshot). The RNG is drawn in one fixed order —
//! every session's customer first, then whatever each step draws — so a
//! stream is a pure function of `(script, n, seed)` and the rows the
//! servers return.
//!
//! Loops that do not fit stay their own functions rather than teach the
//! driver which experiment called it: `placement::run_placement_stream`
//! (no sessions, no replication pump), `concurrency::run_point` (real
//! threads, one session each, replication on a thread of its own) and
//! `measure::measure_demands` (the session is an RNG draw and an error is
//! fatal). They share the pieces below: [`new_session`], [`PhaseStats`],
//! [`percentile`], [`Deployment::drain`] and [`equivalence_sweep`].

use std::sync::Arc;

use mtc_engine::ExecMetrics;
use mtc_tpcw::datagen::Scale;
use mtc_tpcw::interactions::InteractionOutcome;
use mtc_tpcw::session::{IdAllocator, Session};
use mtc_types::Result;
use mtc_util::rng::{Rng, SeedableRng, StdRng};
use mtcache::{Connection, ResultCache};

use crate::concurrency::{FAULTS, WORK_RATE};
use crate::deployment::Deployment;
use crate::json::Json;

/// Replication is pumped (5 simulated ms) after every this many
/// interactions.
const PUMP_EVERY: usize = 8;

/// The `p`-th percentile (nearest rank) of an ascending slice; 0 when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// `num / den`; 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The share of `before` that `after` did away with, `1 − after/before`; 0
/// when `before` is 0.
pub fn reduction(after: u64, before: u64) -> f64 {
    if before > 0 {
        1.0 - after as f64 / before as f64
    } else {
        0.0
    }
}

/// A closed-loop session for a customer drawn from the lower half of the
/// customer base (at least `min_customer`).
pub fn new_session(
    rng: &mut StdRng,
    scale: &Scale,
    ids: &Arc<IdAllocator>,
    min_customer: i64,
) -> Session {
    let customer = rng.gen_range(1..=scale.customers() as i64 / 2);
    Session::new(customer.max(min_customer), ids.clone())
}

/// What one stream — or one lane of it: a phase, a fleet node — did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PhaseStats {
    /// The lane's label (the advisor schedule's phase name; empty when the
    /// lanes are not named).
    pub phase: &'static str,
    /// Interactions that completed.
    pub interactions: usize,
    /// Interactions that returned an error (counted, not retried).
    pub errors: usize,
    /// The completed interactions' execution metrics, summed.
    pub metrics: ExecMetrics,
    /// Total CPU work, work units (local + backend).
    pub total_work: f64,
    /// Sum of the modeled service times, milliseconds.
    pub busy_ms: f64,
    /// Modeled per-interaction latency percentiles, milliseconds (CPU
    /// service + wire charge).
    pub p50_ms: f64,
    pub p95_ms: f64,
    /// Modeled service time of every completed interaction; ascending once
    /// the stream has finished.
    latencies: Vec<f64>,
}

impl PhaseStats {
    /// Folds in one completed interaction: its metrics, and its modeled
    /// service time — CPU work at [`WORK_RATE`] plus `wire_ms`.
    pub fn record(&mut self, m: &ExecMetrics, wire_ms: f64) {
        self.interactions += 1;
        self.metrics.absorb(m);
        let work = m.local_work + m.remote_work;
        self.total_work += work;
        let service_ms = work / WORK_RATE * 1e3 + wire_ms;
        self.busy_ms += service_ms;
        self.latencies.push(service_ms);
    }

    /// Sorts the latencies and fills in the percentiles.
    pub fn finish(&mut self) {
        self.latencies
            .sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
        self.p50_ms = percentile(&self.latencies, 50.0);
        self.p95_ms = percentile(&self.latencies, 95.0);
    }

    /// The whole stream's stats from its lanes' (percentiles over every
    /// lane's interactions together).
    pub fn total(lanes: &[PhaseStats]) -> PhaseStats {
        let mut all = PhaseStats::default();
        for lane in lanes {
            all.interactions += lane.interactions;
            all.errors += lane.errors;
            all.metrics.absorb(&lane.metrics);
            all.total_work += lane.total_work;
            all.busy_ms += lane.busy_ms;
            all.latencies.extend_from_slice(&lane.latencies);
        }
        all.finish();
        all
    }
}

/// A seeded closed-loop stream over `sessions` round-robin sessions of one
/// deployment, and the four things that differ between the experiments
/// that share the driver.
pub struct Replay<'a> {
    pub deployment: &'a Deployment,
    pub sessions: usize,
    pub seed: u64,
    /// Called at every interaction boundary: with `i` before interaction
    /// `i` of `0..n`, and with `n` after the last one.
    pub boundary: &'a mut dyn FnMut(usize),
    /// The lane interaction `i` is accounted to and the connection it runs
    /// on.
    pub connect: &'a mut dyn FnMut(usize) -> (usize, Connection),
    /// Executes interaction `i`, drawing its type and keys from the RNG.
    pub step: &'a mut Step<'a>,
    /// The wire charge (ms) of a completed interaction's round trips.
    pub wire_ms: &'a mut dyn FnMut(&ExecMetrics) -> f64,
}

/// One step of a [`Replay`]: `(i, connection, session, rng)` → outcome.
pub type Step<'a> =
    dyn FnMut(usize, &Connection, &mut Session, &mut StdRng) -> Result<InteractionOutcome> + 'a;

impl Replay<'_> {
    /// Replays `n` interactions and returns one finished [`PhaseStats`] per
    /// entry of `lanes` (its label).
    pub fn run(self, n: usize, lanes: &[&'static str]) -> Vec<PhaseStats> {
        let d = self.deployment;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut sessions: Vec<Session> = (0..self.sessions)
            .map(|_| new_session(&mut rng, &d.scale, &d.ids, 1))
            .collect();
        let mut stats: Vec<PhaseStats> = lanes
            .iter()
            .map(|&phase| PhaseStats {
                phase,
                ..PhaseStats::default()
            })
            .collect();
        for i in 0..n {
            (self.boundary)(i);
            let (lane, conn) = (self.connect)(i);
            let session = &mut sessions[i % self.sessions];
            match (self.step)(i, &conn, session, &mut rng) {
                Ok(out) => stats[lane].record(&out.metrics, (self.wire_ms)(&out.metrics)),
                Err(_) => stats[lane].errors += 1,
            }
            if i % PUMP_EVERY == PUMP_EVERY - 1 {
                d.pump_replication(5);
            }
        }
        (self.boundary)(n);
        for lane in &mut stats {
            lane.finish();
        }
        stats
    }
}

/// Read-only probe statements spanning remote-only tables (customer,
/// address, country, cc_xacts — not covered by any cached view, so they
/// exercise the result cache) and locally answerable ones (item, orders).
pub fn equivalence_probes(scale: &Scale) -> Vec<String> {
    let mut probes = Vec::new();
    for k in 1..=8i64 {
        let c = (k * 7) % scale.customers() as i64 + 1;
        probes.push(format!(
            "SELECT c_id, c_uname, c_fname, c_lname, c_balance FROM customer WHERE c_id = {c}"
        ));
        let a = (k * 5) % scale.addresses() as i64 + 1;
        probes.push(format!(
            "SELECT addr_id, addr_street1, addr_city, addr_co_id FROM address WHERE addr_id = {a}"
        ));
        let co = (k * 3) % scale.countries() as i64 + 1;
        probes.push(format!(
            "SELECT co_id, co_name, co_exchange FROM country WHERE co_id = {co}"
        ));
        let o = (k * 11) % scale.orders() as i64 + 1;
        probes.push(format!(
            "SELECT cx_o_id, cx_type, cx_xact_amt FROM cc_xacts WHERE cx_o_id = {o}"
        ));
        let i = (k * 13) % scale.items as i64 + 1;
        probes.push(format!(
            "SELECT i_id, i_title, i_srp, i_stock FROM item WHERE i_id = {i}"
        ));
        probes.push(format!(
            "SELECT o_id, o_c_id, o_total, o_status FROM orders WHERE o_id = {o}"
        ));
    }
    probes
}

/// The transparency sweep every experiment ends with. Each probe is
/// answered by each target three times: twice with the target's `toggles`
/// (result / fragment caches) enabled — the first read warms them, so the
/// second is a genuine cache serve when the statement is remote — and once
/// with them disabled. The two must agree bit-for-bit (rows and schema),
/// and with `reference`'s answer when one is given (the backend). Returns
/// `(checked, failures)`, one check per probe × target.
pub fn equivalence_sweep(
    probes: &[String],
    targets: &[(Connection, Vec<Arc<ResultCache>>)],
    reference: Option<&Connection>,
) -> (usize, usize) {
    let mut checked = 0usize;
    let mut failures = 0usize;
    for sql in probes {
        let want = reference.map(|r| r.query(sql));
        for (conn, toggles) in targets {
            checked += 1;
            let set = |on: bool| toggles.iter().for_each(|c| c.set_enabled(on));
            set(true);
            let _warm = conn.query(sql);
            let served = conn.query(sql);
            set(false);
            let fresh = conn.query(sql);
            set(true);
            let consistent = match (&served, &fresh) {
                (Ok(a), Ok(b)) => a.rows == b.rows && a.schema == b.schema,
                (Err(_), Err(_)) => true,
                _ => false,
            };
            let faithful = match (&want, &served) {
                (None, _) | (Some(Err(_)), Err(_)) => true,
                (Some(Ok(r)), Ok(a)) => a.rows == r.rows && a.schema == r.schema,
                _ => false,
            };
            if !(consistent && faithful) {
                failures += 1;
            }
        }
    }
    (checked, failures)
}

/// The standard fault plan as every report records it.
pub fn fault_plan_json() -> Json {
    Json::inline()
        .num("drop_p", FAULTS.drop_p, 2)
        .num("duplicate_p", FAULTS.duplicate_p, 2)
        .put("crash_every", FAULTS.crash_every)
}

/// An equivalence sweep's outcome as every report records it.
pub fn equivalence_json((checked, failures): (usize, usize)) -> Json {
    Json::inline()
        .put("checked", checked)
        .put("failures", failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_sim::RttModel;
    use mtc_tpcw::interactions::run_interaction;
    use mtc_tpcw::mix::Workload;

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 6.0, "index round(4.5) = 5");
        assert_eq!(percentile(&v, 95.0), 10.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
    }

    /// One Shopping stream over a fresh cached deployment under the
    /// standard fault plan; returns the lanes and the boundaries seen.
    fn shopping_stream(n: usize, seed: u64) -> (Vec<PhaseStats>, Vec<usize>) {
        let dep = Deployment::new(Scale::tiny(), true).with_standard_faults(seed);
        let mix = Workload::Shopping.mix();
        let scale = dep.scale;
        let rtt = RttModel::default();
        let mut boundaries = Vec::new();
        let lanes = Replay {
            deployment: &dep,
            sessions: 4,
            seed,
            boundary: &mut |i| boundaries.push(i),
            connect: &mut |i| (i % 2, dep.connection()),
            step: &mut |_, conn, session, rng| {
                run_interaction(mix.sample(rng), conn, session, &scale, rng)
            },
            wire_ms: &mut |m| rtt.latency_ms(m.remote_rtts, m.remote_rows * 128),
        }
        .run(n, &["even", "odd"]);
        (lanes, boundaries)
    }

    #[test]
    fn the_same_seed_replays_the_same_stream() {
        let (a, boundaries) = shopping_stream(120, 9);
        let (b, _) = shopping_stream(120, 9);
        assert_eq!(a, b, "fresh deployments, one seed: equal phase stats");
        assert_eq!(boundaries, (0..=120).collect::<Vec<_>>());

        assert_eq!(a.len(), 2);
        assert_eq!((a[0].phase, a[1].phase), ("even", "odd"));
        let total = PhaseStats::total(&a);
        assert_eq!(total.errors, 0);
        assert_eq!(total.interactions, 120);
        assert_eq!(a[0].interactions, 60, "lanes partition the stream");
        assert!(total.total_work > 0.0);
        assert!(
            total.metrics.remote_calls > 0,
            "Shopping reaches the backend"
        );
        assert!(total.p95_ms >= total.p50_ms);
        assert!(total.p95_ms >= a[0].p50_ms.min(a[1].p50_ms));

        let (c, _) = shopping_stream(120, 10);
        assert_ne!(a, c, "another seed is another stream");
    }

    #[test]
    fn the_sweep_counts_one_check_per_probe_and_target() {
        let dep = Deployment::new(Scale::tiny(), true);
        let cache = dep.cache.clone().expect("cached deployment");
        let probes = equivalence_probes(&dep.scale);
        let targets = [(dep.connection(), vec![cache.result_cache.clone()])];
        let backend = dep.backend_connection();
        assert_eq!(
            equivalence_sweep(&probes, &targets, Some(&backend)),
            (probes.len(), 0)
        );
        assert!(cache.result_cache.is_enabled(), "toggles end enabled");
        let bogus = ["SELECT nope FROM nowhere".to_string()];
        assert_eq!(
            equivalence_sweep(&bogus, &targets, Some(&backend)),
            (1, 0),
            "an error everywhere is agreement"
        );
    }
}
