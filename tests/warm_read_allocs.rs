//! What a warm read allocates, pinned by a counter, not a clock.
//!
//! This binary installs a global allocator that counts the allocations (and
//! reallocations) made on the thread that switched counting on, so tests
//! running beside each other do not see each other's. On TPC-W tiny with
//! the paper's §6.1.2 cache, a warm `hotpoint` statement allocates its
//! result batch and the rows it returns; setting the read up — the
//! statement, plan and result-cache probes, the seek bounds, the parameter
//! slots, the operators' scratch — allocates nothing that a budget here
//! would not catch growing back. A warm local hash join allocates per
//! batch, not per row: no key is built for a build or a probe row.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use mtc_util::sync::Mutex;

use mtcache_repro::cache::{BackendServer, Bindings, CacheServer, Connection};
use mtcache_repro::replication::ReplicationHub;
use mtcache_repro::tpcw::datagen::{generate, Scale};
use mtcache_repro::tpcw::deploy::configure_cache;
use mtcache_repro::tpcw::procs::register_all;
use mtcache_repro::types::Value;

struct Counting;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let on = COUNTING.try_with(Cell::get).unwrap_or(false);
    if on {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, COUNT.with(Cell::get))
}

const ITEM_POINT: &str = "SELECT i_title, i_cost, i_stock FROM item WHERE i_id = @id";
const CUSTOMER_POINT: &str = "SELECT c_fname, c_lname, c_balance FROM customer WHERE c_id = @id";

/// TPC-W tiny on the backend, one cache with the §6.1.2 configuration.
fn tpcw() -> Arc<CacheServer> {
    let backend = BackendServer::new("backend");
    generate(&backend, Scale::tiny()).unwrap();
    register_all(&backend).unwrap();
    let hub = Arc::new(Mutex::new(ReplicationHub::new(backend.db.clone())));
    let cache = CacheServer::create("cache", backend, hub);
    configure_cache(&cache).unwrap();
    cache
}

/// The fewest allocations a warm `sql` with `@id = id` makes, over a few
/// executions (the first ones warm the statement, plan and result caches).
fn warm_allocations(conn: &Connection, sql: &str, id: i64) -> u64 {
    let params: Bindings = Connection::params(&[("id", Value::Int(id))]);
    (0..4)
        .map(|_| {
            let (result, n) = allocations(|| conn.query_with(sql, &params));
            assert_eq!(result.unwrap().rows.len(), 1, "{sql} @id = {id}");
            n
        })
        .min()
        .unwrap()
}

#[test]
fn a_warm_item_point_read_allocates_its_answer_and_little_else() {
    let cache = tpcw();
    let conn = Connection::connect(cache);
    for id in [1, 17, 100] {
        let n = warm_allocations(&conn, ITEM_POINT, id);
        assert!(
            n <= 14,
            "a warm item point read made {n} allocations (i_id = {id})"
        );
    }
}

#[test]
fn a_warm_customer_l1_hit_allocates_its_answer_and_little_else() {
    let cache = tpcw();
    let conn = Connection::connect(cache.clone());
    let hits = cache.result_cache.stats().hits;
    let n = warm_allocations(&conn, CUSTOMER_POINT, 42);
    assert!(cache.result_cache.stats().hits > hits, "served from L1");
    assert!(n <= 4, "a warm customer L1 hit made {n} allocations");
}

/// A warm local hash join of `cv_item` with `cv_author` (100 items on
/// tiny): its key table is keyed by column-folded hashes with chain links
/// in one vector, so neither side builds a key per row.
#[test]
fn a_warm_local_hash_join_builds_no_key_per_row() {
    let cache = tpcw();
    let conn = Connection::connect(cache);
    let sql = "SELECT COUNT(*) FROM item, author WHERE i_a_id = a_id";
    let plan = conn.explain(sql).unwrap();
    assert!(plan.contains("HashJoin"), "{plan}");
    let n = (0..4)
        .map(|_| {
            let (result, n) = allocations(|| conn.query(sql));
            assert_eq!(result.unwrap().rows[0][0], Value::Int(100), "{sql}");
            n
        })
        .min()
        .unwrap();
    // 62 when pinned; a `Vec<Value>` key per build and probe row made 207.
    assert!(n <= 70, "a warm item-author hash join made {n} allocations");
}
