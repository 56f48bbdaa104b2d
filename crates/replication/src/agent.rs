//! Background distribution agents.
//!
//! "The propagation is performed by a separate agent process that wakes up
//! periodically, checks for changes and, if there are any, applies them"
//! (§2.2). [`spawn_agent`] runs the hub's pump loop on a thread at a fixed
//! interval until stopped.
//!
//! The agent is *fault-tolerant*: a failed pump (corrupt frame, injected
//! crash, mid-schema-change error) does not kill the thread. The agent
//! restarts the pump after an exponential-backoff-with-jitter pause
//! ([`RetryPolicy`]); because the hub only advances a node's
//! `next_lsn` after a fully successful delivery, the restarted pump resumes
//! from the last applied LSN and idempotent apply makes any replay converge.
//!
//! Shutdown is a *drain handshake*: [`AgentHandle::stop`] signals the
//! thread, joins it, then synchronously flushes queued deliveries (bounded
//! by the retry policy) and reports whether the pipeline drained — so a
//! caller can observe in-flight work instead of silently abandoning it.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use mtc_util::fault::RetryPolicy;
use mtc_util::rng::{SeedableRng, StdRng};
use mtc_util::sync::Mutex;

use crate::clock::Clock;
use crate::hub::ReplicationHub;

/// Tuning for a background agent.
#[derive(Debug, Clone, Copy)]
pub struct AgentOptions {
    /// Steady-state pump cadence.
    pub interval: Duration,
    /// Backoff schedule after a failed pump, and the attempt bound for the
    /// shutdown drain.
    pub retry: RetryPolicy,
    /// Seed for the backoff jitter (reproducible schedules).
    pub seed: u64,
}

impl Default for AgentOptions {
    fn default() -> AgentOptions {
        AgentOptions {
            interval: Duration::from_millis(10),
            retry: RetryPolicy::default(),
            seed: 0x5EED_A6E7,
        }
    }
}

/// Outcome of the shutdown drain handshake.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StopReport {
    /// True when the pipeline held no undelivered work at shutdown: log
    /// reader caught up, distribution database empty, every node applied
    /// everything read.
    pub drained: bool,
    /// Read-but-unapplied transactions left behind (summed over nodes; 0
    /// when drained).
    pub pending_txns: u64,
}

/// Handle to a running agent thread.
pub struct AgentHandle {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    hub: Arc<Mutex<ReplicationHub>>,
    clock: Arc<dyn Clock>,
    retry: RetryPolicy,
    seed: u64,
}

impl AgentHandle {
    /// Signals the agent to stop, waits for the thread, then *drains*:
    /// queued deliveries are flushed synchronously, retrying faulted
    /// attempts with backoff up to `retry.max_attempts`. Returns what was
    /// (or was not) flushed, so in-flight deliveries are observable instead
    /// of silently dropped.
    pub fn stop(mut self) -> StopReport {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
        // Drain handshake. The jitter RNG is derived from the agent seed so
        // the flush schedule is as reproducible as the steady-state loop's.
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0xD5A1_4ED0);
        let mut attempt = 0u32;
        loop {
            let now = self.clock.now_ms();
            let mut hub = self.hub.lock();
            let result = hub.pump(now);
            if hub.drained() {
                return StopReport {
                    drained: true,
                    pending_txns: 0,
                };
            }
            drop(hub);
            // Failed or incomplete (faulted, delayed, still catching up):
            // back off and retry, bounded.
            let _ = result;
            attempt += 1;
            if attempt >= self.retry.max_attempts {
                break;
            }
            std::thread::sleep(Duration::from_millis(self.retry.backoff_ms(attempt, &mut rng)));
        }
        let hub = self.hub.lock();
        StopReport {
            drained: hub.drained(),
            pending_txns: hub.pending_txns(),
        }
    }
}

impl Drop for AgentHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Spawns a push-agent thread that pumps `hub` every `interval`, with the
/// default retry policy.
pub fn spawn_agent(
    hub: Arc<Mutex<ReplicationHub>>,
    clock: Arc<dyn Clock>,
    interval: Duration,
) -> AgentHandle {
    spawn_agent_with(
        hub,
        clock,
        AgentOptions {
            interval,
            ..AgentOptions::default()
        },
    )
}

/// Spawns a push-agent thread with explicit retry/backoff tuning.
pub fn spawn_agent_with(
    hub: Arc<Mutex<ReplicationHub>>,
    clock: Arc<dyn Clock>,
    options: AgentOptions,
) -> AgentHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = stop.clone();
    let thread_hub = hub.clone();
    let thread_clock = clock.clone();
    let AgentOptions {
        interval,
        retry,
        seed,
    } = options;
    let thread = std::thread::Builder::new()
        .name("replication-agent".into())
        .spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut attempt = 0u32;
            while !stop_flag.load(Ordering::SeqCst) {
                let result = {
                    let now = thread_clock.now_ms();
                    let mut hub = thread_hub.lock();
                    hub.pump(now)
                };
                let pause = match result {
                    // Healthy pass: reset the backoff and sleep the cadence.
                    Ok(()) => {
                        attempt = 0;
                        interval
                    }
                    // Failed pump (corrupt frame, injected crash, transient
                    // apply error): the "restarted" agent resumes from the
                    // last applied LSN on the next pass, after backing off.
                    Err(_) => {
                        attempt = attempt.saturating_add(1);
                        Duration::from_millis(retry.backoff_ms(attempt, &mut rng))
                    }
                };
                sleep_unless_stopped(&stop_flag, pause);
            }
        })
        .expect("spawn replication agent");
    AgentHandle {
        stop,
        thread: Some(thread),
        hub,
        clock,
        retry,
        seed,
    }
}

/// Sleeps `total` in small slices so a stop signal cuts a long backoff
/// short instead of stalling shutdown.
fn sleep_unless_stopped(stop: &AtomicBool, total: Duration) {
    const SLICE: Duration = Duration::from_millis(5);
    let mut remaining = total;
    while !remaining.is_zero() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let step = remaining.min(SLICE);
        std::thread::sleep(step);
        remaining -= step;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::article::Article;
    use crate::clock::{ManualClock, WallClock};
    use mtc_sql::{parse_statement, Statement};
    use mtc_storage::{Database, RowChange, SnapshotDb};
    use mtc_types::{row, Column, DataType, Schema};
    use mtc_util::fault::{FaultPlan, FaultSpec};
    use mtc_util::sync::RwLock;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::not_null("id", DataType::Int),
            Column::new("v", DataType::Str),
        ])
    }

    #[allow(clippy::type_complexity)]
    fn setup() -> (
        Arc<RwLock<Database>>,
        Arc<SnapshotDb>,
        Arc<Mutex<ReplicationHub>>,
    ) {
        let mut backend = Database::new("b");
        backend.create_table("t", schema(), &["id".into()]).unwrap();
        let backend = Arc::new(RwLock::new(backend));

        let mut cache = Database::new("c");
        cache.create_table("t_cache", schema(), &["id".into()]).unwrap();
        let cache = Arc::new(SnapshotDb::new(cache));

        let mut hub = ReplicationHub::new(backend.clone());
        let Statement::Select(def) = parse_statement("SELECT id, v FROM t").unwrap() else {
            panic!()
        };
        let article = Article::from_select("t_all", &def, &schema()).unwrap();
        hub.subscribe(article, &cache, &mut cache.write(), "t_cache", 0).unwrap();
        (backend, cache, Arc::new(Mutex::new(hub)))
    }

    #[test]
    fn agent_applies_changes_in_background() {
        let (backend, cache, hub) = setup();
        let agent = spawn_agent(hub.clone(), Arc::new(WallClock), Duration::from_millis(5));

        backend
            .write()
            .apply(
                WallClock.now_ms(),
                vec![RowChange::Insert {
                    table: "t".into(),
                    row: row![1, "hello"],
                }],
            )
            .unwrap();

        // Wait (bounded) for the agent to propagate.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if cache.read().table_ref("t_cache").unwrap().row_count() == 1 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "agent never propagated the change"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let report = agent.stop();
        assert!(report.drained);
        assert_eq!(report.pending_txns, 0);
        assert!(hub.lock().latency.count >= 1);
    }

    #[test]
    fn stop_drains_queued_frames() {
        // Queue work while the agent is asleep (long interval), then stop:
        // the drain handshake must flush everything synchronously.
        let (backend, cache, hub) = setup();
        let agent = spawn_agent_with(
            hub.clone(),
            Arc::new(ManualClock::new(0)),
            AgentOptions {
                interval: Duration::from_secs(3600),
                ..AgentOptions::default()
            },
        );
        // Give the thread its first (empty) pump, then queue three txns.
        std::thread::sleep(Duration::from_millis(20));
        for i in 0..3 {
            backend
                .write()
                .apply(
                    (i + 1) * 10,
                    vec![RowChange::Insert {
                        table: "t".into(),
                        row: row![i, format!("q{i}")],
                    }],
                )
                .unwrap();
        }
        let report = agent.stop();
        assert!(report.drained, "queued frames flushed at shutdown");
        assert_eq!(report.pending_txns, 0);
        assert_eq!(cache.read().table_ref("t_cache").unwrap().row_count(), 3);
        assert!(hub.lock().drained());
    }

    #[test]
    fn stop_reports_undrained_pipeline_when_faults_persist() {
        // A permanently lossy link: the drain handshake gives up after
        // max_attempts and reports the backlog instead of hanging.
        let (backend, _cache, hub) = setup();
        hub.lock()
            .set_fault_plan(FaultPlan::new(1, FaultSpec::drop(1.0)));
        let agent = spawn_agent_with(
            hub.clone(),
            Arc::new(ManualClock::new(0)),
            AgentOptions {
                interval: Duration::from_secs(3600),
                retry: RetryPolicy {
                    max_attempts: 3,
                    base_delay_ms: 1,
                    max_delay_ms: 2,
                    jitter: 0.0,
                },
                ..AgentOptions::default()
            },
        );
        backend
            .write()
            .apply(
                10,
                vec![RowChange::Insert {
                    table: "t".into(),
                    row: row![9, "lost"],
                }],
            )
            .unwrap();
        let report = agent.stop();
        assert!(!report.drained);
        assert_eq!(report.pending_txns, 1);
        assert!(hub.lock().metrics.deliveries_dropped.get() >= 1);
    }

    #[test]
    fn agent_survives_injected_crashes_and_converges() {
        // Crash every 2nd delivery: the background loop must absorb the
        // errors, back off, and still converge.
        let (backend, cache, hub) = setup();
        hub.lock()
            .set_fault_plan(FaultPlan::new(7, FaultSpec::crash_every(2)));
        let agent = spawn_agent_with(
            hub.clone(),
            Arc::new(WallClock),
            AgentOptions {
                interval: Duration::from_millis(2),
                retry: RetryPolicy {
                    max_attempts: 16,
                    base_delay_ms: 1,
                    max_delay_ms: 4,
                    jitter: 0.25,
                },
                seed: 99,
            },
        );
        for i in 0..8 {
            backend
                .write()
                .apply(
                    WallClock.now_ms(),
                    vec![RowChange::Insert {
                        table: "t".into(),
                        row: row![i, format!("x{i}")],
                    }],
                )
                .unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            if cache.read().table_ref("t_cache").unwrap().row_count() == 8 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "agent never converged through crashes"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let report = agent.stop();
        assert!(report.drained);
        let hub = hub.lock();
        assert!(hub.metrics.crashes_injected.get() >= 1, "cadence fired");
        assert_eq!(
            hub.metrics.redeliveries.get(),
            hub.metrics.crashes_injected.get(),
            "every crash replayed exactly once (idempotently)"
        );
    }
}
