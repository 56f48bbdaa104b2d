//! Replication metrics: work accounting and propagation latency.
//!
//! The live counters ([`SharedReplicationMetrics`]) are relaxed atomics in
//! an `Arc` handed out by the hub, so query sessions and experiment drivers
//! can observe replication progress **without taking the hub mutex** — the
//! apply path may hold that mutex for a whole delivery, and a reader poking
//! at counters must never queue behind it. [`ReplicationMetrics`] is the
//! plain point-in-time snapshot form.

mtc_util::counter_set! {
    /// Cumulative work/volume counters for the replication pipeline.
    ///
    /// `reader_work` accrues on the *publisher* (log reader + distributor run
    /// there in our single-distributor setup); `apply_work` accrues on each
    /// *subscriber*. The simulator charges these against the respective CPUs
    /// to reproduce Experiment 2's overhead measurements.
    #[derive(Debug, Clone, Copy, Default, PartialEq)]
    pub struct ReplicationMetrics {
        /// Committed transactions read from the publisher's log.
        pub txns_read: u64,
        /// Row changes read from the publisher's log.
        pub changes_read: u64,
        /// Transactions applied, counted once per node delivery.
        pub txns_applied: u64,
        /// Row changes applied across all nodes.
        pub changes_applied: u64,
        /// Work units consumed on the publisher (log sniffing + distribution).
        pub reader_work: f64,
        /// Work units consumed on subscribers (applying changes).
        pub apply_work: f64,
        /// Bytes of encoded wire frames shipped from the distributor to
        /// subscribers (every delivered transaction crosses the codec).
        pub wire_bytes: u64,
        // -- fault & recovery accounting --------------------------------
        /// Deliveries lost in flight (fault-injected drops); each one blocks
        /// its node until redelivered.
        pub deliveries_dropped: u64,
        /// Deliveries held by a fault-injected delay.
        pub deliveries_delayed: u64,
        /// Redundant second deliveries of an already-applied frame
        /// (idempotent apply makes their net effect zero).
        pub duplicates_delivered: u64,
        /// Frames damaged in flight and rejected by the strict wire decoder.
        pub corrupt_frames: u64,
        /// Injected agent crashes (delivery applied, progress record lost).
        pub crashes_injected: u64,
        /// Delivery attempts beyond the first for a given transaction —
        /// the cost of drops/delays/corruption/crashes.
        pub retries: u64,
        /// Transactions whose *successful* apply needed more than one
        /// attempt.
        pub redeliveries: u64,
        /// Worst read-but-unapplied transaction backlog observed for any
        /// node (a lag gauge, in transactions).
        pub max_lag_txns: u64,
    }
    /// The live, lock-free form of [`ReplicationMetrics`]: every field is a
    /// relaxed atomic, so readers never contend with the apply path. The hub
    /// hands this out as an `Arc` — clone it once and read counters (or
    /// `snapshot()` all of them) without ever locking the hub.
    #[derive(Debug, Default)]
    live pub struct SharedReplicationMetrics;
}

/// Commit-to-apply latency distribution (Experiment 3's metric: time from
/// commit on the backend to commit on the middle tier).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyStats {
    pub count: u64,
    pub total_ms: i64,
    pub max_ms: i64,
}

impl LatencyStats {
    pub fn record(&mut self, latency_ms: i64) {
        let latency_ms = latency_ms.max(0);
        self.count += 1;
        self.total_ms += latency_ms;
        self.max_ms = self.max_ms.max(latency_ms);
    }

    /// Average latency in milliseconds (0 when nothing recorded).
    pub fn avg_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ms as f64 / self.count as f64
        }
    }

    pub fn avg_seconds(&self) -> f64 {
        self.avg_ms() / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_stats_average() {
        let mut s = LatencyStats::default();
        assert_eq!(s.avg_ms(), 0.0);
        s.record(100);
        s.record(300);
        assert_eq!(s.count, 2);
        assert_eq!(s.avg_ms(), 200.0);
        assert_eq!(s.max_ms, 300);
        assert!((s.avg_seconds() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn fault_counters_start_at_zero() {
        let m = ReplicationMetrics::default();
        assert_eq!(
            (
                m.deliveries_dropped,
                m.deliveries_delayed,
                m.duplicates_delivered,
                m.corrupt_frames,
                m.crashes_injected,
                m.retries,
                m.redeliveries,
                m.max_lag_txns,
            ),
            (0, 0, 0, 0, 0, 0, 0, 0)
        );
    }

    #[test]
    fn negative_latencies_clamped() {
        let mut s = LatencyStats::default();
        s.record(-50);
        assert_eq!(s.total_ms, 0);
    }
}
