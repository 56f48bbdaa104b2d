//! Per-server execution statistics.
//!
//! The live counters ([`SharedServerStats`]) are relaxed atomics so that
//! concurrent sessions never serialize on a stats mutex: recording a query
//! is a handful of independent `fetch_add`s. Consumers read a plain
//! [`ServerStats`] value via [`SharedServerStats::snapshot`] (or
//! [`SharedServerStats::take`] between experiment phases).

use mtc_engine::ExecMetrics;

mtc_util::counter_set! {
    /// Cumulative counters for one server, used by the experiments to derive
    /// CPU loads and by operators to watch a deployment.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct ServerStats {
        /// SELECT statements executed (including those arriving via EXEC).
        pub queries: u64,
        /// INSERT/UPDATE/DELETE statements executed here.
        pub dml: u64,
        /// Stored procedure calls dispatched here.
        pub procs: u64,
        /// Rows returned to clients.
        pub rows_returned: u64,
        /// Work units this server spent.
        pub local_work: f64,
        /// Work units spent on the backend on behalf of this server (only
        /// nonzero on cache servers).
        pub remote_work: f64,
        /// Remote statements this server consumed (shipped subqueries,
        /// forwarded DML/procedures) — counted whether the answer came over
        /// the wire or out of the result cache.
        pub remote_calls: u64,
        /// Network round trips actually *paid* to the backend — below
        /// `remote_calls` when the result cache answers from memory and when
        /// a miss shares another session's in-flight fetch.
        pub remote_rtts: u64,
        /// Rows shipped back from the backend.
        pub remote_rows: u64,
        /// Remote statements that shared another session's in-flight fetch
        /// (single-flight followers) instead of paying a round trip.
        pub coalesced_calls: u64,
        /// Executions of a currency-bounded SELECT on this node while it was
        /// past the bound: a session statement forwarded whole to the
        /// backend, or a peer's fragment refused. Each is one comparison
        /// with the node's watermark, made before any plan is looked up.
        pub freshness_fallbacks: u64,
        /// Statement texts parsed and prepared here: the statement cache's
        /// misses. A text that recurs is prepared once, however often it runs.
        pub prepares: u64,
        /// Raw-text misses of the statement cache that resolved to a
        /// template: ad-hoc statements executed with their literals lifted
        /// into bindings.
        pub auto_parameterized: u64,
    }
    /// The live, lock-free form of [`ServerStats`]: every field is a relaxed
    /// atomic, so many sessions can record queries concurrently without a
    /// lock. `snapshot()` copies the counters, `take()` copies and clears
    /// them (used between experiment phases).
    #[derive(Debug, Default)]
    live pub struct SharedServerStats;
}

impl SharedServerStats {
    /// Folds one query's metrics into the counters.
    pub fn record_query(&self, m: &ExecMetrics, rows: usize) {
        self.queries.inc();
        self.rows_returned.add(rows as u64);
        self.local_work.add(m.local_work);
        self.remote_work.add(m.remote_work);
        self.remote_calls.add(m.remote_calls);
        self.remote_rtts.add(m.remote_rtts);
        self.remote_rows.add(m.remote_rows);
        self.coalesced_calls.add(m.coalesced_calls);
    }

    /// Folds a DML execution in.
    pub fn record_dml(&self, work: f64) {
        self.dml.inc();
        self.local_work.add(work);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_take() {
        let s = SharedServerStats::default();
        let m = ExecMetrics {
            local_work: 10.0,
            remote_work: 5.0,
            remote_calls: 2,
            remote_rtts: 1,
            remote_rows: 7,
            coalesced_calls: 1,
            ..Default::default()
        };
        s.record_query(&m, 3);
        s.record_dml(2.0);
        let snap = s.snapshot();
        assert_eq!(snap.queries, 1);
        assert_eq!(snap.dml, 1);
        assert_eq!(snap.rows_returned, 3);
        assert_eq!(snap.local_work, 12.0);
        assert_eq!(snap.remote_calls, 2);
        assert_eq!(snap.remote_rtts, 1, "one paid round trip");
        assert_eq!(snap.remote_rows, 7);
        assert_eq!(snap.coalesced_calls, 1);
        let taken = s.take();
        assert_eq!(taken.queries, 1);
        assert_eq!(s.snapshot(), ServerStats::default());
    }

    #[test]
    fn concurrent_recording_drops_nothing() {
        let s = std::sync::Arc::new(SharedServerStats::default());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let s = s.clone();
                std::thread::spawn(move || {
                    let m = ExecMetrics {
                        local_work: 1.0,
                        ..Default::default()
                    };
                    for _ in 0..5_000 {
                        s.record_query(&m, 2);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = s.snapshot();
        assert_eq!(snap.queries, 20_000);
        assert_eq!(snap.rows_returned, 40_000);
        assert_eq!(snap.local_work, 20_000.0);
    }
}
