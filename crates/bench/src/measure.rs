//! Demand measurement: runs the real workload and extracts per-interaction
//! service demands for the capacity model.

use std::collections::BTreeMap;

use mtc_util::rng::{Rng, SeedableRng, StdRng};

use mtc_sim::TierDemands;
use mtc_tpcw::interactions::run_interaction;
use mtc_tpcw::mix::Workload;
use mtc_tpcw::session::Session;

use crate::deployment::Deployment;
use crate::replay::new_session;

/// Fixed page-generation work per interaction at the web server, as a
/// fraction of the measured *baseline Browsing* backend demand.
///
/// Calibrated from the paper's own numbers: five web machines sustained 271
/// Ordering WIPS at ~90% CPU while carrying only the (cheap) cart queries
/// and replication applies, which puts page generation (ISAPI + dynamic
/// HTML) at roughly a third of a Browsing interaction's database work.
pub const PAGE_WORK_FRACTION: f64 = 0.34;

/// Measured demands for one (workload, configuration) pair.
#[derive(Debug, Clone)]
pub struct MeasuredDemands {
    pub workload: Workload,
    pub cached: bool,
    pub interactions: usize,
    /// Backend query/DML work per interaction (work units).
    pub backend_query_work: f64,
    /// Cache-server local query work per interaction.
    pub cache_query_work: f64,
    /// Replication log-reader + distribution work per interaction
    /// (backend side).
    pub reader_work: f64,
    /// Replication apply work per interaction (each subscriber).
    pub apply_work: f64,
    /// Fraction of interactions answered without touching the backend.
    pub fully_local_fraction: f64,
    /// Committed backend transactions per interaction (for the latency
    /// simulation's arrival rate).
    pub txns_per_interaction: f64,
    /// Per-interaction-type average backend work (diagnostics).
    pub per_type: BTreeMap<&'static str, f64>,
}

impl MeasuredDemands {
    /// Converts to capacity-model tier demands, given the fixed per-page
    /// web work.
    pub fn tier(&self, page_work: f64) -> TierDemands {
        TierDemands {
            web_work: page_work + self.cache_query_work,
            backend_work: self.backend_query_work + self.reader_work,
            cache_apply_work: self.apply_work,
        }
    }
}

/// Runs `n` interactions of `workload` against the deployment's application
/// connection and measures the demand split. Replication is pumped
/// throughout so its costs are captured.
pub fn measure_demands(
    deployment: &Deployment,
    workload: Workload,
    n: usize,
    seed: u64,
) -> MeasuredDemands {
    measure_demands_routed(deployment, workload, n, seed, false)
}

/// Like [`measure_demands`], but optionally pinning the connection to the
/// backend even when a cache exists — Experiment 2 measures the no-cache
/// throughput *while the caches are still being updated*.
pub fn measure_demands_routed(
    deployment: &Deployment,
    workload: Workload,
    n: usize,
    seed: u64,
    route_to_backend: bool,
) -> MeasuredDemands {
    let conn = if route_to_backend {
        deployment.backend_connection()
    } else {
        deployment.connection()
    };
    let mix = workload.mix();
    let mut rng = StdRng::seed_from_u64(seed);

    // A small pool of sessions, like a load driver's emulated browsers.
    let mut sessions: Vec<Session> = (1..=8)
        .map(|i| new_session(&mut rng, &deployment.scale, &deployment.ids, i))
        .collect();

    // Reset counters.
    deployment.backend.stats.take();
    if let Some(c) = &deployment.cache {
        c.stats.take();
    }
    let (reader0, apply0, log0) = {
        let m = deployment.hub.lock().metrics.snapshot();
        (m.reader_work, m.apply_work, m.txns_read)
    };
    let backend_txns0 = deployment.backend.stats.dml.get();

    let mut per_type_sum: BTreeMap<&'static str, (f64, usize)> = BTreeMap::new();
    let mut fully_local = 0usize;
    for i in 0..n {
        let s = rng.gen_range(0..sessions.len());
        let interaction = mix.sample(&mut rng);
        let backend_before = deployment.backend.stats.local_work.get();
        let out = run_interaction(
            interaction,
            &conn,
            &mut sessions[s],
            &deployment.scale,
            &mut rng,
        )
        .expect("interaction execution");
        let backend_delta = deployment.backend.stats.local_work.get() - backend_before;
        if out.metrics.remote_calls == 0 && backend_delta == 0.0 {
            fully_local += 1;
        }
        let e = per_type_sum.entry(interaction.name()).or_insert((0.0, 0));
        e.0 += backend_delta;
        e.1 += 1;
        // Replication agent runs continuously alongside the workload.
        if i % 8 == 7 {
            deployment.pump_replication(50);
        }
    }
    deployment.pump_replication(50);

    let backend_stats = deployment.backend.stats.take();
    let cache_stats = deployment
        .cache
        .as_ref()
        .map(|c| c.stats.take())
        .unwrap_or_default();
    let m = deployment.hub.lock().metrics.snapshot();
    let reader_work = m.reader_work - reader0;
    let apply_work = m.apply_work - apply0;
    let txns = (m.txns_read - log0).max(backend_stats.dml - backend_txns0);

    let nf = n as f64;
    MeasuredDemands {
        workload,
        cached: deployment.cache.is_some(),
        interactions: n,
        backend_query_work: backend_stats.local_work / nf,
        cache_query_work: cache_stats.local_work / nf,
        reader_work: reader_work / nf,
        apply_work: apply_work / nf,
        fully_local_fraction: fully_local as f64 / nf,
        txns_per_interaction: txns as f64 / nf,
        per_type: per_type_sum
            .into_iter()
            .map(|(k, (sum, count))| (k, sum / count.max(1) as f64))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_tpcw::datagen::Scale;

    #[test]
    fn cached_browsing_offloads_most_backend_work() {
        let baseline = Deployment::new(Scale::tiny(), false);
        let base = measure_demands(&baseline, Workload::Browsing, 120, 3);
        assert!(base.backend_query_work > 0.0);
        assert!(base.cache_query_work == 0.0);

        let cached = Deployment::new(Scale::tiny(), true);
        let c = measure_demands(&cached, Workload::Browsing, 120, 3);
        assert!(
            c.backend_query_work < 0.35 * base.backend_query_work,
            "browse work should move mid-tier: cached {} vs baseline {}",
            c.backend_query_work,
            base.backend_query_work
        );
        assert!(c.cache_query_work > 0.0);
        assert!(c.fully_local_fraction > 0.5, "{}", c.fully_local_fraction);
    }

    #[test]
    fn ordering_keeps_more_backend_work_than_browsing() {
        let cached = Deployment::new(Scale::tiny(), true);
        let browse = measure_demands(&cached, Workload::Browsing, 100, 5);
        let order = measure_demands(&cached, Workload::Ordering, 100, 5);
        // Updates always hit the backend, so Ordering's backend share of
        // total demand must exceed Browsing's.
        let share = |m: &MeasuredDemands| {
            m.backend_query_work / (m.backend_query_work + m.cache_query_work).max(1e-9)
        };
        assert!(
            share(&order) > share(&browse),
            "ordering {} vs browsing {}",
            share(&order),
            share(&browse)
        );
        assert!(order.txns_per_interaction > browse.txns_per_interaction);
    }

    #[test]
    fn replication_work_is_measured_when_updates_flow() {
        let cached = Deployment::new(Scale::tiny(), true);
        let m = measure_demands(&cached, Workload::Ordering, 100, 9);
        assert!(m.reader_work > 0.0, "log reader work: {}", m.reader_work);
        assert!(m.apply_work > 0.0, "apply work: {}", m.apply_work);
    }
}
