//! Adaptive-advisor experiment (DESIGN.md §14).
//!
//! The static TPC-W cache configuration (§6.1.2) is tuned for the item
//! catalog: cv_item / cv_author / cv_orders / cv_order_line. This
//! experiment moves the working set out from under it and measures how an
//! *online* advisor recovers. The same seeded, phase-shifting interaction
//! stream ([`PhaseSchedule::shifting_working_set`]: a Zipf-skewed Browsing
//! phase, then an abrupt shift to account-heavy traffic) runs through two
//! deployments:
//!
//! * **static** — the frozen §6.1.2 configuration. Post-shift, every
//!   customer/account read pays a backend round trip, forever (the
//!   statement result cache helps only until the next login write
//!   invalidates it).
//! * **adaptive** — the same deployment with an [`AdaptiveAdvisor`]
//!   attached (ticked every [`TICK_EVERY`] interactions) and
//!   intermediate-result caching on. The advisor observes the shifted
//!   statement stream, creates the missing cached views at runtime through
//!   the ordinary DDL + bulk-populate path; memoized join/aggregate
//!   fragments absorb the repeated
//!   best-seller computation.
//!
//! Reported per config and phase: backend round trips, modeled p50/p95
//! latency, fragment memo probes/hits. The headline numbers are the
//! post-shift ratios (static ÷ adaptive) of backend RTTs and p50 — the
//! ISSUE floors the better of the two at ≥ 1.3× — plus the advisor's own
//! decision counters and a post-drain equivalence sweep (caches on vs off,
//! bit-for-bit).

use std::sync::Arc;

use mtc_sim::RttModel;
use mtc_tpcw::datagen::Scale;
use mtc_tpcw::interactions::run_interaction_with_keys;
use mtc_tpcw::mix::PhaseSchedule;
use mtcache::{AdaptiveAdvisor, AdvisorStats};

use crate::concurrency::SESSIONS;
use crate::deployment::Deployment;
use crate::json::Json;
use crate::replay::{
    equivalence_json, equivalence_probes, equivalence_sweep, fault_plan_json, ratio, PhaseStats,
    Replay,
};
use crate::resultcache::{rtt_model_json, REMOTE_ROW_BYTES};

/// The adaptive config closes one advisor epoch every this many
/// interactions (a real deployment would tick on a timer).
pub const TICK_EVERY: usize = 50;

/// One config's full run over the schedule.
#[derive(Debug, Clone)]
pub struct AdvisorRun {
    pub config: &'static str,
    /// One entry per phase of the schedule, labelled with its name.
    pub phases: Vec<PhaseStats>,
    /// Cached views present when the stream ended.
    pub views_end: Vec<String>,
    /// Advisor decision counters (`None` for the static config).
    pub advisor: Option<AdvisorStats>,
    /// Cache byte budgets when the stream ended.
    pub l1_budget_end: u64,
    pub fragment_budget_end: u64,
}

/// Everything `exp_advisor` reports.
#[derive(Debug, Clone)]
pub struct AdvisorResults {
    pub per_phase: usize,
    pub seed: u64,
    pub rtt: RttModel,
    pub static_run: AdvisorRun,
    pub adaptive_run: AdvisorRun,
    /// Post-shift (last phase) static ÷ adaptive backend round trips.
    pub post_shift_rtt_ratio: f64,
    /// Post-shift static ÷ adaptive modeled p50.
    pub post_shift_p50_ratio: f64,
    /// Fragment memo totals of the adaptive run.
    pub fragment_probes: u64,
    pub fragment_hits: u64,
    /// Post-drain equivalence sweep on the adaptive deployment.
    pub equivalence_checked: usize,
    pub equivalence_failures: usize,
    /// The adaptive advisor's decision log (most recent lines).
    pub advisor_log: Vec<String>,
}

impl AdvisorResults {
    /// Renders the results as the `BENCH_advisor.json` report.
    pub fn to_json(&self) -> String {
        let configs = [&self.static_run, &self.adaptive_run].map(|run| {
            let phases = run.phases.iter().map(|p| {
                Json::record()
                    .put("phase", p.phase)
                    .put("interactions", p.interactions)
                    .put("errors", p.errors)
                    .put("remote_calls", p.metrics.remote_calls)
                    .put("remote_rtts", p.metrics.remote_rtts)
                    .put("remote_rows", p.metrics.remote_rows)
                    .num("total_work_units", p.total_work, 0)
                    .num("p50_ms", p.p50_ms, 3)
                    .num("p95_ms", p.p95_ms, 3)
                    .put("fragment_probes", p.metrics.fragment_probes)
                    .put("fragment_hits", p.metrics.fragment_hits)
            });
            let budgets = Json::inline()
                .put("l1", run.l1_budget_end)
                .put("fragment", run.fragment_budget_end);
            let record = Json::record()
                .put("config", run.config)
                .put("phases", Json::rows(phases))
                .put("views_end", Json::list(&run.views_end))
                .put("budgets_end", budgets);
            match &run.advisor {
                None => record,
                Some(a) => record.put(
                    "advisor",
                    Json::inline()
                        .put("epochs", a.epochs)
                        .put("views_created", a.views_created)
                        .put("views_widened", a.views_widened)
                        .put("indexes_created", a.indexes_created)
                        .put("views_dropped", a.views_dropped)
                        .put("creates_suppressed", a.creates_suppressed)
                        .put("drops_suppressed", a.drops_suppressed),
                ),
            }
        });
        let post_shift = Json::inline()
            .num("rtt_ratio", self.post_shift_rtt_ratio, 4)
            .num("p50_ratio", self.post_shift_p50_ratio, 4);
        let fragment = Json::inline()
            .put("probes", self.fragment_probes)
            .put("hits", self.fragment_hits);
        Json::root()
            .put("experiment", "advisor")
            .put("interactions_per_phase", self.per_phase)
            .put("seed", self.seed)
            .put("tick_every", TICK_EVERY)
            .put("fault_plan", fault_plan_json())
            .put("rtt_model", rtt_model_json(&self.rtt))
            .put("configs", Json::rows(configs))
            .put("post_shift", post_shift)
            .put("fragment", fragment)
            .put(
                "equivalence",
                equivalence_json((self.equivalence_checked, self.equivalence_failures)),
            )
            .put("advisor_log", Json::rows(&self.advisor_log))
            .render()
    }
}

/// Runs the phase schedule once through `deployment` ([`SESSIONS`]
/// closed-loop sessions, see [`Replay`]), one lane per phase so the shift
/// is observable in the numbers. With `adaptive`, closes an advisor epoch
/// after every [`TICK_EVERY`] interactions.
fn run_schedule(
    deployment: &Deployment,
    sched: &PhaseSchedule,
    seed: u64,
    rtt: &RttModel,
    adaptive: bool,
    config: &'static str,
) -> AdvisorRun {
    let scale = deployment.scale;
    let cache = deployment.cache.clone().expect("cached deployment");
    let names: Vec<&'static str> = sched.phases.iter().map(|p| p.name).collect();
    let phases = Replay {
        deployment,
        sessions: SESSIONS,
        seed,
        boundary: &mut |i| {
            if adaptive && i > 0 && i % TICK_EVERY == 0 {
                cache.advisor_tick();
            }
        },
        connect: &mut |i| (sched.phase_at(i).0, deployment.connection()),
        step: &mut |i, conn, session, rng| {
            let phase = sched.phase_at(i).1;
            let interaction = phase.mix.sample(rng);
            run_interaction_with_keys(interaction, conn, session, &scale, rng, &phase.keys)
        },
        wire_ms: &mut |m| rtt.latency_ms(m.remote_rtts, m.remote_rows * REMOTE_ROW_BYTES),
    }
    .run(sched.total(), &names);
    AdvisorRun {
        config,
        phases,
        views_end: cache.cached_views(),
        advisor: cache.advisor().map(|a| a.stats()),
        l1_budget_end: cache.result_cache.budget(),
        fragment_budget_end: cache.fragment_cache.budget(),
    }
}

/// Post-drain equivalence sweep on the adaptive deployment: every probe is
/// answered with BOTH caches (statement results + fragments) on, then with
/// both off, and the row sets must match bit-for-bit.
fn check_equivalence(deployment: &Deployment) -> (usize, usize) {
    let cache = deployment.cache.clone().expect("cached deployment");
    let toggles = vec![cache.result_cache.clone(), cache.fragment_cache.clone()];
    equivalence_sweep(
        &equivalence_probes(&deployment.scale),
        &[(deployment.connection(), toggles)],
        None,
    )
}

/// Builds the standard cached deployment under the standard fault plan.
fn build(seed: u64) -> Deployment {
    Deployment::new(Scale::tiny(), true).with_standard_faults(seed)
}

/// Runs the full experiment: the shifting-working-set schedule through the
/// frozen static config and the adaptive config, same seed.
pub fn run_advisor(per_phase: usize, seed: u64) -> AdvisorResults {
    let rtt = RttModel::default();
    let sched = PhaseSchedule::shifting_working_set(per_phase);

    // Static: the frozen §6.1.2 configuration.
    let static_dep = build(seed);
    let static_run = run_schedule(&static_dep, &sched, seed, &rtt, false, "static");

    // Adaptive: same deployment + advisor + fragment caching.
    let adaptive_dep = build(seed);
    let cache = adaptive_dep.cache.clone().expect("cached deployment");
    cache.set_fragment_caching(true);
    cache.set_advisor(Some(Arc::new(AdaptiveAdvisor::default())));
    let adaptive_run = run_schedule(&adaptive_dep, &sched, seed, &rtt, true, "adaptive");
    let advisor_log = cache
        .advisor()
        .map(|a| a.log_tail(32))
        .unwrap_or_default();

    let last = sched.phases.len() - 1;
    let s_last = &static_run.phases[last];
    let a_last = &adaptive_run.phases[last];
    let post_shift_rtt_ratio =
        s_last.metrics.remote_rtts as f64 / a_last.metrics.remote_rtts.max(1) as f64;
    let post_shift_p50_ratio = ratio(s_last.p50_ms, a_last.p50_ms);
    let fragments = PhaseStats::total(&adaptive_run.phases).metrics;
    let (fragment_probes, fragment_hits) = (fragments.fragment_probes, fragments.fragment_hits);

    adaptive_dep.drain();
    let (equivalence_checked, equivalence_failures) = check_equivalence(&adaptive_dep);

    AdvisorResults {
        per_phase,
        seed,
        rtt,
        static_run,
        adaptive_run,
        post_shift_rtt_ratio,
        post_shift_p50_ratio,
        fragment_probes,
        fragment_hits,
        equivalence_checked,
        equivalence_failures,
        advisor_log,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advisor_experiment_smoke() {
        let r = run_advisor(150, 11);
        assert_eq!(r.static_run.phases.len(), 2);
        assert_eq!(r.adaptive_run.phases.len(), 2);
        for run in [&r.static_run, &r.adaptive_run] {
            for p in &run.phases {
                assert_eq!(p.errors, 0, "{}/{} must run clean", run.config, p.phase);
            }
        }
        // The advisor acted: epochs closed, at least one view created, and
        // the adaptive config ends with more views than the static one.
        let a = r.adaptive_run.advisor.expect("advisor attached");
        assert!(a.epochs >= 4, "{a:?}");
        assert!(a.views_created >= 1, "{a:?}");
        assert!(r.adaptive_run.views_end.len() > r.static_run.views_end.len());
        // Adaptation pays post-shift: fewer backend RTTs than frozen-static.
        assert!(
            r.post_shift_rtt_ratio > 1.0,
            "adaptive must beat static post-shift: {:.3}",
            r.post_shift_rtt_ratio
        );
        // The shared best-seller fragment memoizes.
        assert!(r.fragment_probes > 0);
        assert!(r.fragment_hits > 0, "fragment memo never hit");
        assert_eq!(r.equivalence_failures, 0, "caches-on == caches-off rows");
        let json = r.to_json();
        assert!(json.contains("\"experiment\": \"advisor\""));
        assert!(json.contains("\"post_shift\""));
        assert!(json.contains("\"advisor_log\""));
    }
}

