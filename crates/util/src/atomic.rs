//! Relaxed atomic counters for hot-path statistics.
//!
//! Server and replication counters are bumped on every query; guarding them
//! with a `Mutex` serializes otherwise-independent sessions on a cache line
//! that exists only for observability. These counters use
//! `Ordering::Relaxed` throughout: each counter is an independent
//! monotonically-increasing tally, no reader derives cross-counter
//! invariants from a single load, and torn *sets* of counters (a snapshot
//! taken mid-update) were always possible under the old per-field reads
//! anyway.
//!
//! [`Counter`] wraps `AtomicU64`; [`FloatCounter`] stores an `f64` as its
//! bit pattern in an `AtomicU64` and adds with a CAS loop (uncontended in
//! practice — the loop exists for correctness, not because contention is
//! expected on a stats line).

use std::sync::atomic::{AtomicU64, Ordering};

/// A relaxed monotonically-adjusted `u64` tally.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub const fn new(v: u64) -> Counter {
        Counter(AtomicU64::new(v))
    }

    /// Adds `n` (relaxed).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one (relaxed).
    pub fn inc(&self) {
        self.add(1);
    }

    /// Subtracts `n` (relaxed, wrapping). Used by gauges (e.g. resident
    /// cache bytes) that go down as well as up.
    pub fn sub(&self, n: u64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Raises the stored value to `v` if larger (relaxed `fetch_max`).
    pub fn raise_to(&self, v: u64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value (relaxed).
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrites the value (relaxed).
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Returns the value and resets it to zero.
    pub fn take(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.get().fmt(f)
    }
}

/// A relaxed `f64` accumulator stored as bits in an `AtomicU64`.
#[derive(Default)]
pub struct FloatCounter(AtomicU64);

impl FloatCounter {
    pub fn new(v: f64) -> FloatCounter {
        FloatCounter(AtomicU64::new(v.to_bits()))
    }

    /// Adds `v` with a compare-and-swap loop (relaxed).
    pub fn add(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value (relaxed).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Overwrites the value (relaxed).
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Returns the value and resets it to zero.
    pub fn take(&self) -> f64 {
        f64::from_bits(self.0.swap(0f64.to_bits(), Ordering::Relaxed))
    }
}

impl std::fmt::Debug for FloatCounter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.get().fmt(f)
    }
}

/// Maps a counter's snapshot type to its live, lock-free form: `u64` is
/// kept in a [`Counter`], `f64` in a [`FloatCounter`]. [`counter_set!`]
/// reads it so a declaration names each counter's type once.
pub trait CounterKind {
    type Live;
}

impl CounterKind for u64 {
    type Live = Counter;
}

impl CounterKind for f64 {
    type Live = FloatCounter;
}

/// Declares a set of counters once.
///
/// ```
/// mtc_util::counter_set! {
///     /// What one probe stream did.
///     #[derive(Debug, Clone, Copy, Default, PartialEq)]
///     pub struct ProbeStats {
///         /// Probes answered.
///         pub hits: u64,
///         /// Work units spent answering them.
///         pub work: f64,
///     }
///     /// The live form of [`ProbeStats`].
///     #[derive(Debug, Default)]
///     live pub struct SharedProbeStats;
/// }
/// let live = SharedProbeStats::default();
/// live.hits.inc();
/// live.work.add(2.5);
/// let mut total = live.take();
/// total.absorb(&ProbeStats { hits: 1, work: 0.5 });
/// assert_eq!(total, ProbeStats { hits: 2, work: 3.0 });
/// assert_eq!(live.snapshot(), ProbeStats::default());
/// ```
///
/// The field list (`name: u64` or `name: f64`, each with its doc comment
/// and visibility) expands to the plain snapshot struct exactly as written
/// plus `absorb(&other)`, which adds every counter of `other` into `self`.
/// With a `live` line it also expands to the struct of relaxed atomics
/// ([`Counter`] / [`FloatCounter`], same field names, docs and visibility)
/// with `snapshot()` (a point-in-time copy) and `take()` (copy and reset to
/// zero). Adding a counter is therefore one line in one place. Attributes —
/// derives included — are the declaration's own: the macro adds none.
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $kind:ty ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $kind, )*
        }

        #[allow(dead_code)]
        impl $name {
            /// Adds every counter of `other` into `self`.
            pub fn absorb(&mut self, other: &$name) {
                $( self.$field += other.$field; )*
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $kind:ty ),* $(,)?
        }
        $(#[$lmeta:meta])*
        live $lvis:vis struct $live:ident;
    ) => {
        $crate::counter_set! {
            $(#[$meta])*
            $vis struct $name {
                $( $(#[$fmeta])* $fvis $field : $kind ),*
            }
        }

        $(#[$lmeta])*
        $lvis struct $live {
            $( $(#[$fmeta])* $fvis $field: <$kind as $crate::atomic::CounterKind>::Live, )*
        }

        #[allow(dead_code)]
        impl $live {
            /// A point-in-time copy of every counter.
            pub fn snapshot(&self) -> $name {
                $name { $( $field: self.$field.get(), )* }
            }

            /// Returns every counter and resets it to zero.
            pub fn take(&self) -> $name {
                $name { $( $field: self.$field.take(), )* }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    counter_set! {
        /// A three-field set of both kinds.
        #[derive(Debug, Clone, Copy, Default, PartialEq)]
        struct Tally {
            /// Things counted.
            calls: u64,
            rows: u64,
            work: f64,
        }
        #[derive(Debug, Default)]
        live struct SharedTally;
    }

    counter_set! {
        /// A set with no live form: the snapshot struct and `absorb` only.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        struct Plain {
            seen: u64,
        }
    }

    #[test]
    fn counter_set_declares_snapshot_live_and_absorb_from_one_list() {
        let live = SharedTally::default();
        live.calls.inc();
        live.rows.add(7);
        live.work.add(1.5);
        live.work.add(0.25);
        let snap = live.snapshot();
        assert_eq!(
            snap,
            Tally {
                calls: 1,
                rows: 7,
                work: 1.75
            }
        );
        assert_eq!(live.snapshot(), snap, "snapshot leaves the counters alone");

        assert_eq!(live.take(), snap);
        assert_eq!(
            live.snapshot(),
            Tally::default(),
            "take resets every counter"
        );

        let mut sum = snap;
        sum.absorb(&Tally {
            calls: 2,
            rows: 3,
            work: 0.25,
        });
        assert_eq!(
            sum,
            Tally {
                calls: 3,
                rows: 10,
                work: 2.0
            }
        );

        let mut plain = Plain { seen: 1 };
        plain.absorb(&Plain { seen: 4 });
        assert_eq!(plain, Plain { seen: 5 });
    }

    #[test]
    fn counter_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        c.sub(2);
        assert_eq!(c.get(), 3);
        c.add(2);
        c.raise_to(3);
        assert_eq!(c.get(), 5, "raise_to never lowers");
        c.raise_to(9);
        assert_eq!(c.get(), 9);
        assert_eq!(c.take(), 9);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn float_counter_accumulates() {
        let c = FloatCounter::default();
        c.add(1.5);
        c.add(2.25);
        assert_eq!(c.get(), 3.75);
        assert_eq!(c.take(), 3.75);
        assert_eq!(c.get(), 0.0);
    }

    #[test]
    fn float_counter_concurrent_adds_lose_nothing() {
        let c = Arc::new(FloatCounter::default());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.add(0.5);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 4.0 * 10_000.0 * 0.5);
    }
}
