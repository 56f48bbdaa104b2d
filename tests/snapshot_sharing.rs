//! What a snapshot publication copies, pinned by pointer identity rather
//! than by a clock: consecutive snapshots of a cache database share
//! everything the write batch between them did not write. A change that
//! brings back a per-publication copy of the database, of a table or of a
//! table's rows fails here whatever the machine's speed.
//! `scripts/verify.sh` runs this test by name.

use std::collections::BTreeMap;
use std::ptr;

use mtc_bench::Deployment;
use mtcache_repro::storage::{Database, DbSnapshot};
use mtcache_repro::tpcw::datagen::Scale;
use mtcache_repro::types::{row, Row};

/// The address of every table and of every index, by name.
fn parts(db: &Database) -> (BTreeMap<String, usize>, BTreeMap<String, usize>) {
    let tables = db
        .tables()
        .map(|t| (t.name().to_string(), ptr::from_ref(t) as usize))
        .collect();
    let indexes = db
        .index_metas()
        .into_iter()
        .map(|ix| {
            let at = ptr::from_ref(db.index(&ix.name).expect("listed index")) as usize;
            (ix.name, at)
        })
        .collect();
    (tables, indexes)
}

fn database(snapshot: &DbSnapshot) -> *const Database {
    ptr::from_ref(&**snapshot)
}

fn item_5(snapshot: &DbSnapshot) -> &Row {
    let cv_item = snapshot.table_ref("cv_item").unwrap();
    cv_item.get(&row![5]).expect("item 5 is cached")
}

#[test]
fn a_publication_copies_only_what_the_batch_wrote() {
    let d = Deployment::new(Scale::tiny(), true);
    let cache = d.cache.as_ref().expect("cached deployment");
    d.pump_replication(50);

    // An idle pump restamps the node's watermark: one publication, and it
    // carries the database image the previous one carried.
    let before = cache.db.read();
    d.pump_replication(50);
    let idle = cache.db.read();
    assert_eq!(idle.epoch(), before.epoch() + 1, "one restamp per node");
    assert_ne!(idle.watermark("cv_item"), before.watermark("cv_item"));
    assert_eq!(
        database(&idle),
        database(&before),
        "a watermark-only batch must publish the image it already has"
    );

    // One row changes at the backend and is delivered to `cv_item`.
    d.backend_connection()
        .query("UPDATE item SET i_stock = i_stock + 1 WHERE i_id = 5")
        .unwrap();
    d.pump_replication(50);
    let after = cache.db.read();
    assert_ne!(item_5(&after), item_5(&idle), "the change arrived");
    assert_ne!(database(&after), database(&idle));

    let (tables_then, indexes_then) = parts(&idle);
    let (tables_now, indexes_now) = parts(&after);
    assert!(
        tables_now.len() >= 10 && indexes_now.len() >= 7,
        "the TPC-W shadow database"
    );
    for (name, at) in &tables_now {
        assert_eq!(
            *at != tables_then[name],
            name == "cv_item",
            "table `{name}`: only the table written to is unshared"
        );
    }
    for (name, at) in &indexes_now {
        let on_cv_item = after.index(name).unwrap().table() == "cv_item";
        assert_eq!(
            *at != indexes_then[name],
            on_cv_item,
            "index `{name}`: only the indexes of the table written to are unshared"
        );
    }

    // Within the table, only the chunk the row sits in was replaced.
    let then: Vec<usize> = idle.table_ref("cv_item").unwrap().chunk_addrs().collect();
    let now: Vec<usize> = after.table_ref("cv_item").unwrap().chunk_addrs().collect();
    assert!(then.len() >= 2, "cv_item spans several chunks");
    let replaced = now.iter().filter(|a| !then.contains(a)).count();
    assert!(
        (1..=2).contains(&replaced),
        "{replaced} of {} chunks replaced",
        now.len()
    );

    // The snapshot held across all of it still reads what it read then.
    assert_eq!(item_5(&before), item_5(&idle));
}
