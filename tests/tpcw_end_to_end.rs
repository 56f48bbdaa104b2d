//! End-to-end TPC-W through the full stack: every interaction type against
//! a cached deployment, with business-level invariants checked afterwards.

use mtc_util::rng::StdRng;
use mtc_util::rng::{Rng, SeedableRng};

use mtc_bench::Deployment;
use mtcache_repro::types::Value;
use mtcache_repro::tpcw::datagen::Scale;
use mtcache_repro::tpcw::interactions::{run_interaction, Interaction};
use mtcache_repro::tpcw::mix::Workload;
use mtcache_repro::tpcw::session::{IdAllocator, Session};

#[test]
fn mixed_workload_preserves_business_invariants() {
    let scale = Scale::tiny();
    let deployment = Deployment::new(scale, true);
    let conn = deployment.connection();
    let ids = IdAllocator::new(&scale);
    let mut rng = StdRng::seed_from_u64(2024);
    let mix = Workload::Shopping.mix();

    let orders_before = deployment
        .backend
        .db
        .read()
        .table_ref("orders")
        .unwrap()
        .row_count();

    let mut sessions: Vec<Session> = (1..=4)
        .map(|i| Session::new(i * 2, ids.clone()))
        .collect();
    let mut buys = 0usize;
    for i in 0..250 {
        let s = i % sessions.len();
        let interaction = mix.sample(&mut rng);
        if interaction == Interaction::BuyConfirm && sessions[s].cart_id.is_some() {
            buys += 1;
        }
        run_interaction(interaction, &conn, &mut sessions[s], &scale, &mut rng)
            .unwrap_or_else(|e| panic!("{} failed: {e}", interaction.name()));
        if i % 10 == 9 {
            deployment.pump_replication(100);
        }
    }
    deployment.pump_replication(100);

    let db = deployment.backend.db.read();
    // Every new order has at least one line and a cc transaction.
    let orders_after = db.table_ref("orders").unwrap().row_count();
    assert!(orders_after >= orders_before + buys.saturating_sub(1));

    // cc_xacts match orders one-to-one for new orders.
    let orders: Vec<i64> = db
        .table_ref("orders")
        .unwrap()
        .scan()
        .map(|r| r[0].as_i64().unwrap())
        .filter(|o| *o > scale.orders() as i64)
        .collect();
    for o_id in &orders {
        let cc = db
            .table_ref("cc_xacts")
            .unwrap()
            .get(&mtcache_repro::types::Row::new(vec![Value::Int(*o_id)]));
        assert!(cc.is_some(), "order {o_id} has no credit-card transaction");
        let mut lines = db
            .index("ix_orderline_order")
            .unwrap()
            .seek(&mtcache_repro::types::Row::new(vec![Value::Int(*o_id)]));
        assert!(lines.next().is_some(), "order {o_id} has no order lines");
    }
    drop(db);

    // After quiescing, the cached order projections match the backend.
    let backend_count = deployment
        .backend
        .execute("SELECT COUNT(*) AS n FROM orders", &Default::default(), "dbo")
        .unwrap();
    let cache = deployment.cache.as_ref().unwrap();
    let cached_count = cache
        .execute("SELECT COUNT(*) AS n FROM orders", &Default::default(), "dbo")
        .unwrap();
    assert_eq!(backend_count.rows, cached_count.rows);
    assert_eq!(
        cached_count.metrics.remote_calls, 0,
        "the count should come from cv_orders"
    );
}

#[test]
fn cache_and_backend_routes_agree_on_reads() {
    let scale = Scale::tiny();
    let deployment = Deployment::new(scale, true);
    let via_cache = deployment.connection();
    let via_backend = deployment.backend_connection();
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..25 {
        let i_id = rng.gen_range(1..=scale.items as i64);
        let sql = format!("EXEC getBook @i_id = {i_id}");
        let a = via_cache.query(&sql).unwrap();
        let b = via_backend.query(&sql).unwrap();
        assert_eq!(a.rows, b.rows, "getBook({i_id})");
    }
    // Best-seller agreement (the heavyweight query).
    let max = via_backend.query("EXEC getMaxOrderId").unwrap().rows[0][0]
        .as_i64()
        .unwrap();
    let sql = format!(
        "EXEC getBestSellers @subject = 'HISTORY', @o_threshold = {}",
        (max - 3333).max(0)
    );
    let a = via_cache.query(&sql).unwrap();
    let b = via_backend.query(&sql).unwrap();
    assert_eq!(a.rows.len(), b.rows.len());
    // Quantities agree even if equal-quantity ties order differently.
    let qty = |rows: &[mtcache_repro::types::Row]| -> Vec<i64> {
        rows.iter().map(|r| r[4].as_i64().unwrap()).collect()
    };
    assert_eq!(qty(&a.rows), qty(&b.rows));
}

#[test]
fn all_fourteen_interactions_work_against_the_cache() {
    let scale = Scale::tiny();
    let deployment = Deployment::new(scale, true);
    let conn = deployment.connection();
    let ids = IdAllocator::new(&scale);
    let mut session = Session::new(7, ids);
    let mut rng = StdRng::seed_from_u64(31);
    for interaction in Interaction::ALL {
        let out = run_interaction(interaction, &conn, &mut session, &scale, &mut rng)
            .unwrap_or_else(|e| panic!("{} via cache: {e}", interaction.name()));
        assert!(out.db_calls >= 1);
        deployment.pump_replication(20);
    }
}
