//! Smoke guards for the multi-core serving work (DESIGN.md §9).
//!
//! Three layers:
//!
//! 1. A live mini-run of the concurrency sweep pinning the scaling
//!    invariant the committed report claims (≥1.5× modeled throughput at 4
//!    workers over 1, same seed, same fault plan).
//! 2. Validation of the committed `BENCH_concurrency.json` artifact, so a
//!    stale or regressed report fails the build rather than going
//!    unnoticed.
//! 3. An eight-reader stress test against the snapshot publication
//!    protocol: readers complete scans *while a replication apply batch is
//!    open*, and under continuous fault-injected replication every reader's
//!    observed epoch and applied-LSN watermark stay monotone, a pinned
//!    snapshot never changes underneath its holder, and the cached view
//!    still converges bit-exact once the pipeline drains.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use mtc_bench::run_concurrency;
use mtc_util::rng::{Rng, SeedableRng, StdRng};
use mtc_util::sync::Mutex;

use mtcache_repro::cache::{BackendServer, CacheServer, Connection};
use mtcache_repro::replication::{Clock, FaultPlan, FaultSpec, ManualClock, ReplicationHub};
use mtcache_repro::types::Row;

#[test]
fn four_workers_model_at_least_1p5x_over_one() {
    let r = run_concurrency(160, 7, &[1, 4]);
    let one = r.point(1).expect("1-worker point");
    let four = r.point(4).expect("4-worker point");
    assert_eq!(one.errors, 0, "serial run must be clean");
    assert_eq!(four.errors, 0, "concurrent run must be clean");
    assert!(one.total_work > 0.0, "work must be measured");
    assert!(
        four.speedup_vs_1 >= 1.5,
        "4 workers must model >= 1.5x the 1-worker throughput, got {:.2}x \
         ({:.1} vs {:.1} ips)",
        four.speedup_vs_1,
        four.modeled_throughput,
        one.modeled_throughput
    );
    assert!(four.p95_ms >= four.p50_ms, "percentiles must be ordered");
    // Replication really ran alongside the sessions: snapshots were
    // published (epochs advanced) and faulted deliveries were applied.
    assert!(one.max_epoch > 0, "no snapshot was ever published");
    assert!(one.replication.txns_applied > 0, "replication applied nothing");
}

/// Pulls the value of `key` out of the JSON line describing `workers = w`.
fn point_field(json: &str, w: usize, key: &str) -> f64 {
    let line = json
        .lines()
        .find(|l| l.contains(&format!("\"workers\": {w},")))
        .unwrap_or_else(|| panic!("BENCH_concurrency.json has no workers={w} point"));
    let pat = format!("\"{key}\":");
    let at = line
        .find(&pat)
        .unwrap_or_else(|| panic!("point workers={w} missing `{key}`"));
    let rest = &line[at + pat.len()..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end]
        .trim()
        .parse()
        .unwrap_or_else(|e| panic!("`{key}` is not numeric: {e}"))
}

#[test]
fn committed_bench_report_meets_floors() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_concurrency.json");
    let json = std::fs::read_to_string(path).expect(
        "BENCH_concurrency.json missing — regenerate with \
         `cargo run --release -p mtc-bench --bin exp_concurrency`",
    );
    assert!(json.contains("\"experiment\": \"concurrency\""));
    // Every point ran under one seed and one fault plan, and the faults
    // really fired.
    assert!(json.contains("\"seed\":"), "report must record the seed");
    assert!(json.contains("\"fault_plan\":"), "report must record the fault plan");
    for w in [1usize, 2, 4, 8] {
        assert!(
            point_field(&json, w, "p95_ms") >= point_field(&json, w, "p50_ms"),
            "workers={w}: p95 below p50"
        );
        assert_eq!(
            point_field(&json, w, "errors"),
            0.0,
            "workers={w}: interactions errored"
        );
        assert!(
            point_field(&json, w, "dropped") > 0.0,
            "workers={w}: fault plan never dropped a delivery"
        );
    }
    assert!(
        point_field(&json, 4, "speedup_vs_1") >= 1.5,
        "committed report must show >= 1.5x modeled throughput at 4 workers"
    );
    assert!(
        point_field(&json, 8, "speedup_vs_1") >= point_field(&json, 4, "speedup_vs_1") * 0.9,
        "8 workers should not fall behind 4"
    );
}

#[allow(clippy::type_complexity)]
fn stress_setup() -> (
    Arc<BackendServer>,
    Arc<CacheServer>,
    Arc<Mutex<ReplicationHub>>,
    ManualClock,
) {
    let clock = ManualClock::new(0);
    let backend = BackendServer::with_clock("backend", Arc::new(clock.clone()));
    backend
        .run_script("CREATE TABLE stockx (s_id INT NOT NULL PRIMARY KEY, s_qty INT, s_note VARCHAR)")
        .unwrap();
    let rows: Vec<String> = (0..200)
        .map(|i| format!("INSERT INTO stockx VALUES ({i}, {}, 'n{i}')", i % 50))
        .collect();
    backend.run_script(&rows.join(";")).unwrap();
    backend.analyze();
    let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
    let cache = CacheServer::create("cache", backend.clone(), hub.clone());
    cache
        .create_cached_view("stock_head", "SELECT s_id, s_qty FROM stockx WHERE s_id < 150")
        .unwrap();
    (backend, cache, hub, clock)
}

fn sorted(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort();
    rows
}

#[test]
fn eight_readers_never_block_on_faulted_apply() {
    let (backend, cache, hub, clock) = stress_setup();
    hub.lock().set_fault_plan(FaultPlan::new(
        0x5EED,
        FaultSpec {
            drop_p: 0.10,
            duplicate_p: 0.10,
            crash_every: 5,
            ..FaultSpec::NONE
        },
    ));

    // Phase 1 — readers complete while an apply batch is OPEN. Holding the
    // write guard models a replication apply mid-delivery: under the seed's
    // RwLock this deadlocked; under snapshot publication every reader
    // finishes (or this test times out, failing loudly).
    {
        let guard = cache.db.write();
        let readers: Vec<_> = (0..8)
            .map(|_| {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        let snap = cache.db.read();
                        let n = snap.table_ref("stock_head").unwrap().row_count();
                        assert_eq!(n, 150, "pre-churn image must be complete");
                    }
                })
            })
            .collect();
        for r in readers {
            r.join().expect("reader finished while apply batch open");
        }
        drop(guard); // publishes (a no-op image) only now
    }

    // Phase 2 — continuous faulted churn: a seeded DML stream with the
    // pipeline pumping after every statement, eight readers asserting
    // monotone epochs and applied-LSN watermarks throughout, and one
    // pinned snapshot that must come out of the churn untouched.
    let pinned = cache.db.read();
    let pinned_rows: Vec<Row> = pinned
        .table_ref("stock_head")
        .unwrap()
        .scan()
        .cloned()
        .collect();
    let stop = Arc::new(AtomicBool::new(false));
    // The churn starts only once all eight readers run: it can otherwise
    // finish (in a release build) before any reader thread was scheduled.
    let running = Arc::new(Barrier::new(9));
    let readers: Vec<_> = (0..8)
        .map(|_| {
            let cache = cache.clone();
            let stop = stop.clone();
            let running = running.clone();
            std::thread::spawn(move || {
                running.wait();
                let mut last_epoch = 0u64;
                let mut last_lsn = None;
                let mut reads = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let snap = cache.db.read();
                    assert!(snap.epoch() >= last_epoch, "epoch went backwards");
                    last_epoch = snap.epoch();
                    let lsn = snap.applied_lsn("stock_head");
                    assert!(lsn >= last_lsn, "applied LSN went backwards: {lsn:?} < {last_lsn:?}");
                    last_lsn = lsn;
                    // The image is always a complete publication.
                    assert!(snap.table_ref("stock_head").unwrap().row_count() <= 150);
                    reads += 1;
                }
                reads
            })
        })
        .collect();
    running.wait();

    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for i in 0..300i64 {
        clock.advance(10);
        let (id, qty) = (rng.gen_range(0i64..150), rng.gen_range(0i64..1000));
        backend
            .execute(
                &format!("UPDATE stockx SET s_qty = {qty} WHERE s_id = {id}"),
                &Default::default(),
                "dbo",
            )
            .unwrap();
        if i % 3 == 0 {
            let _ = hub.lock().pump(clock.now_ms());
        }
    }
    // Drain through the injected drops/duplicates/crashes.
    for _ in 0..10_000 {
        clock.advance(50);
        let mut h = hub.lock();
        let _ = h.pump(clock.now_ms());
        if h.drained() {
            break;
        }
    }
    assert!(hub.lock().drained(), "pipeline failed to drain");
    stop.store(true, Ordering::Relaxed);
    let reads: u64 = readers
        .into_iter()
        .map(|r| r.join().expect("reader thread"))
        .sum();
    assert!(reads > 0, "readers made no progress during the churn");

    // The pinned snapshot is bit-identical to what it was before the churn.
    let still: Vec<Row> = pinned
        .table_ref("stock_head")
        .unwrap()
        .scan()
        .cloned()
        .collect();
    assert_eq!(sorted(pinned_rows), sorted(still), "pinned snapshot mutated");

    // And the live view converged bit-exact despite the fault plan.
    let expected = Connection::connect(backend.clone())
        .query("SELECT s_id, s_qty FROM stockx WHERE s_id < 150")
        .unwrap();
    let actual: Vec<Row> = cache
        .db
        .read()
        .table_ref("stock_head")
        .unwrap()
        .scan()
        .cloned()
        .collect();
    assert_eq!(sorted(expected.rows), sorted(actual), "view diverged");
    let m = hub.lock().metrics.snapshot();
    assert!(m.retries > 0, "faults must have forced retries: {m:?}");
}
