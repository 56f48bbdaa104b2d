//! Currency-aware remote result cache + backend round-trip coalescing.
//!
//! MTCache's dominant cost is the backend round trip: every subexpression
//! the optimizer ships remote pays network + backend execution on every
//! query — even when an identical remote subquery ran microseconds ago with
//! data that still satisfies the client's currency bound. This module keeps
//! the **materialized results** of shipped SQL on the cache server (Roy et
//! al., "Don't Trash your Intermediate Results, Cache 'em") and keeps the
//! cache transactionally sound by invalidating through the same update
//! stream that maintains the cached views (Pfeifer & Lockemann's
//! transactional method caching, mapped onto our replication LSNs).
//!
//! # Key
//!
//! `(normalized remote SQL, values of the parameters it references)`.
//! Shipped SQL is generated by `mtc_engine::sqlgen` from a physical plan, so
//! the text is canonical by construction (normalized identifiers, single
//! spacing, deterministic clause order: it is its own [`Prepared::key`]) —
//! and it is cut from the client statement's *template* (see
//! [`crate::statements`]), so ad-hoc statements that differ only in lifted
//! literals ship the same text. The parameters the shipped statement
//! references ([`Prepared::params`]) are keyed as the sorted `name=value`
//! list ([`referenced_values_signature`]), hashed once per execution and
//! never rendered to probe (see [`crate::key`]); what else the client
//! statement binds is not part of the key. Two different bindings of the
//! same ChoosePlan remote branch are two entries.
//!
//! # What an entry stores
//!
//! The fetched [`Answer`] (metrics zeroed — a hit costs the backend
//! nothing): one dense batch of `Arc`-shared columns, compacted once by the
//! fetch that produced it and shared, never copied, by this cache, the
//! fleet's L2, single-flight followers and every hit. Next to it, its
//! [`Lineage`]: a [`Watermark`] stamp like a node snapshot's — `lsn` is the
//! backend log head *before* the fetch (every transaction below it is
//! reflected in the rows), `synced_through_ms` the fetch instant on the
//! publisher clock (currency bounds) — the set of **backend tables read**
//! (derived when the shipped SQL was prepared), the shadow-catalog version
//! (DDL flushes results, exactly like plans) and the backend work the fetch
//! cost. A hit returns the lineage beside the answer, and L2 → L1 promotion
//! admits the two unchanged.
//!
//! # Validity of a hit
//!
//! 1. **Catalog** — the entry's catalog version must equal the current
//!    shadow-catalog version. A DROP TABLE / CREATE INDEX bumps the
//!    version and thereby flushes dependent results.
//! 2. **Invalidation** — for every table `T` the entry read, the highest
//!    *observed write requirement* [`ResultCache::note_write`] must not
//!    exceed the entry's watermark LSN. Writes are observed from two
//!    sources: DML forwarded through the owning `CacheServer` (synchronously —
//!    read-your-writes), and the replication stream (the hub notifies an
//!    [`mtc_replication::InvalidationSink`] per processed transaction, so
//!    invalidation is delayed by exactly the replication lag — including
//!    fault-lengthened lag). The requirements are watermarks and only ever
//!    rise, so an entry a write has overtaken can never be served again: it
//!    is **released at the write** (through a per-table index of the live
//!    entries, ordered by watermark LSN), not when its key happens to be probed
//!    next, and an entry that arrives already overtaken is not admitted. A
//!    resident entry is therefore always valid against the watermarks, and
//!    the byte budget only ever holds results that can still be served.
//! 3. **Currency** — a statement carrying `WITH FRESHNESS n SECONDS` is
//!    served from an entry only if its watermark is within the bound
//!    ([`Watermark::within`], the test a node's snapshot passes too): at
//!    fetch time the entry was exactly current, so its age is a
//!    conservative upper bound on its staleness no matter how far the
//!    invalidation stream lags. Out-of-bound probes count a
//!    `currency_reject`, fall through to the backend, and refresh the
//!    entry; the (still resident) entry remains servable to unbounded
//!    statements, mirroring how unbounded queries may read arbitrarily
//!    stale cached views.
//!
//! # Admission & eviction
//!
//! Cost-aware admission in the spirit of Roy et al.: an entry's *benefit*
//! is its backend cost × observed use frequency (prior misses for a
//! candidate, hits for a resident entry); division by size gives benefit
//! density. A candidate that would force evictions is admitted only if its
//! density beats at least one of its would-be victims — a huge cheap
//! result can never wash out many small expensive ones. Under the
//! configurable byte budget each shard evicts from the cold end of its LRU
//! list (an [`LruMap`]: a hit, a refresh and an eviction are O(1)).
//!
//! # Round-trip coalescing
//!
//! Single-flight only: concurrent identical misses share one in-flight
//! backend call ([`ResultCache::begin_flight`]); followers block on the
//! leader's completion and share its answer (1 call, 0 RTTs, 1 coalesced
//! each). It is the only producer of
//! [`RemoteOutcome::coalesced`]. A plan's remote subexpressions each ship
//! when the executor first pulls them.
//!
//! All counters are `mtc_util::atomic` relaxed counters, readable without
//! taking any shard lock.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use mtc_util::lru::{LruMap, PreHashedBuild};
use mtc_util::sync::Mutex;

use mtc_engine::eval::Bindings;
use mtc_engine::{Answer, QueryResult, RemoteExecutor, RemoteOutcome, RemoteSite};
use mtc_sql::Prepared;
use mtc_storage::Watermark;
use mtc_types::Result;

use crate::backend::BackendServer;
use crate::key::{Key, Probe, Sig};

/// Configuration for a [`ResultCache`].
#[derive(Debug, Clone)]
pub struct ResultCacheConfig {
    /// Total resident-bytes budget across all shards.
    pub byte_budget: u64,
    /// Largest admissible single entry; bigger results are never cached.
    pub max_entry_bytes: u64,
}

impl Default for ResultCacheConfig {
    fn default() -> ResultCacheConfig {
        ResultCacheConfig {
            byte_budget: 8 * 1024 * 1024,
            max_entry_bytes: 1024 * 1024,
        }
    }
}

impl ResultCacheConfig {
    /// A budget-of-`bytes` config with the per-entry cap scaled to an
    /// eighth of the budget.
    pub fn with_budget(bytes: u64) -> ResultCacheConfig {
        ResultCacheConfig {
            byte_budget: bytes.max(1),
            max_entry_bytes: (bytes / 8).max(1),
        }
    }
}

mtc_util::counter_set! {
    /// Observable result-cache counters — all relaxed atomics, readable
    /// without locks.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct ResultCacheStats {
        /// Probes answered from the cache.
        pub hits: u64,
        /// Probes that found nothing servable (includes invalidations and
        /// currency rejects).
        pub misses: u64,
        /// Results admitted.
        pub inserts: u64,
        /// Entries evicted under the byte budget.
        pub evictions: u64,
        /// Resident bytes (gauge).
        pub bytes: u64,
        /// Probes by currency-bounded statements whose entry was older than
        /// the bound: fell through to the backend and refreshed the entry.
        pub currency_rejects: u64,
        /// Entries released: by an observed write (replicated or forwarded
        /// DML) that outran their watermark LSN — counted at the write that
        /// killed them, or on arrival for a result the write got ahead of,
        /// whether or not the key is ever probed again — or by a probe that
        /// found them compiled against an older catalog version.
        pub invalidations: u64,
        /// Hits served to currency-bounded statements from an entry with
        /// nonzero age — stale-but-within-bound serves.
        pub stale_hits: u64,
        /// Candidates refused by cost-aware admission (too big, or benefit
        /// density below every would-be victim's).
        pub admission_rejects: u64,
        /// Misses that shared another session's in-flight backend call
        /// instead of issuing their own (single-flight followers).
        pub single_flight_waits: u64,
        /// Entries currently resident (a gauge [`ResultCache::stats`]
        /// computes; the live counter of this name stays zero).
        pub entries: u64,
    }
    #[derive(Default)]
    live struct SharedStats;
}

/// Everything a cached answer's validity and worth depend on: what
/// [`ResultCache::admit`] takes and [`ResultCache::lookup`] returns beside
/// the answer, so an answer re-admitted on another tier invalidates, ages
/// and competes for room exactly like the original.
#[derive(Debug, Clone)]
pub struct Lineage {
    /// `lsn`: the publisher log head (exclusive) the answer reflects — every
    /// transaction below it. `synced_through_ms`: the publisher-clock
    /// instant the answer was exactly current at.
    pub watermark: Watermark,
    /// Normalized backend tables the answer read.
    pub tables: Arc<[String]>,
    /// Shadow-catalog version it was computed under.
    pub catalog_version: u64,
    /// Backend work units computing it cost (the admission benefit: a
    /// stored answer's metrics are zeroed).
    pub backend_work: f64,
}

struct Entry {
    key: Key,
    /// The shared answer; `metrics` zeroed (a hit costs the backend
    /// nothing).
    answer: Answer,
    lineage: Lineage,
    /// Estimated resident size.
    bytes: u64,
    /// Times this entry has been served.
    hits: u64,
    /// Admission number within the shard: with the watermark LSN, where
    /// the entry stands in [`Shard::readers`].
    seq: u64,
}

impl Entry {
    /// Roy-et-al-style benefit: backend cost × observed use frequency.
    fn benefit(&self) -> f64 {
        self.lineage.backend_work * (1.0 + self.hits as f64)
    }

    /// Where the entry stands in [`Shard::readers`].
    fn reader_at(&self) -> (u64, u64) {
        (self.lineage.watermark.lsn.0, self.seq)
    }

    fn benefit_density(&self) -> f64 {
        self.benefit() / (self.bytes.max(1) as f64)
    }
}

#[derive(Default)]
struct Shard {
    /// Resident entries by key hash, least recently used first. Every one
    /// of them is valid against `required`.
    entries: LruMap<u64, Entry, PreHashedBuild>,
    bytes: u64,
    /// Miss frequency per key hash (bounded sketch): how often a key has
    /// missed since the sketch was last trimmed — the candidate-side
    /// frequency in the admission benefit.
    miss_freq: HashMap<u64, u32, PreHashedBuild>,
    /// Per-table invalidation watermarks: the minimum watermark LSN an
    /// entry reading the table must have. Raised monotonically by forwarded
    /// DML and by replication-stream deliveries; every shard holds the same
    /// values, so a probe needs no lock but its shard's.
    required: HashMap<String, u64>,
    /// Per table, the resident entries (key hashes) reading it by
    /// `(lsn, seq)`: what a write to the table releases is a prefix. Holds
    /// exactly the resident entries — whatever removes an entry removes it
    /// from here.
    readers: HashMap<String, BTreeMap<(u64, u64), u64>>,
    next_seq: u64,
}

impl Shard {
    /// Stores `entry` as the most recently used one. The slot must be free.
    fn insert(&mut self, hash: u64, mut entry: Entry) {
        entry.seq = self.next_seq;
        self.next_seq += 1;
        let at = entry.reader_at();
        for table in entry.lineage.tables.iter() {
            match self.readers.get_mut(table) {
                Some(readers) => readers.insert(at, hash),
                None => self
                    .readers
                    .entry(table.clone())
                    .or_default()
                    .insert(at, hash),
            };
        }
        self.bytes += entry.bytes;
        self.entries.insert(hash, entry);
    }

    /// Takes `entry` out of the byte count and the per-table index.
    fn unlist(&mut self, entry: &Entry) {
        self.bytes -= entry.bytes;
        for table in entry.lineage.tables.iter() {
            if let Some(readers) = self.readers.get_mut(table) {
                readers.remove(&entry.reader_at());
            }
        }
    }

    fn remove(&mut self, hash: u64) -> Option<Entry> {
        let entry = self.entries.remove(&hash)?;
        self.unlist(&entry);
        Some(entry)
    }

    fn evict_lru(&mut self) -> Option<Entry> {
        let (_, entry) = self.entries.pop_lru()?;
        self.unlist(&entry);
        Some(entry)
    }

    /// Raises `table`'s watermark to `required` and releases the entries it
    /// overtakes. Returns how many, and their bytes.
    fn note_write(&mut self, table: &str, required: u64) -> (u64, u64) {
        match self.required.get_mut(table) {
            Some(mark) if *mark >= required => return (0, 0),
            Some(mark) => *mark = required,
            None => {
                self.required.insert(table.to_string(), required);
            }
        }
        let dead: Vec<u64> = match self.readers.get(table) {
            Some(readers) => readers.range(..(required, 0)).map(|(_, &h)| h).collect(),
            None => return (0, 0),
        };
        let mut bytes = 0;
        for &hash in &dead {
            bytes += self.remove(hash).map_or(0, |e| e.bytes);
        }
        (dead.len() as u64, bytes)
    }

    /// Has a write to one of the tables `lineage` read outrun its LSN?
    fn overtaken(&self, lineage: &Lineage) -> bool {
        let lsn = lineage.watermark.lsn.0;
        lineage
            .tables
            .iter()
            .any(|t| self.required.get(t).is_some_and(|&r| r > lsn))
    }

    fn count_miss(&mut self, key_hash: u64) {
        *self.miss_freq.entry(key_hash).or_insert(0) += 1;
        // Keeps the sketch bounded.
        if self.miss_freq.len() > 4096 {
            self.miss_freq.clear();
        }
    }
}

/// One in-flight backend fetch shared by identical concurrent misses.
pub struct Flight {
    key: Key,
    state: Mutex<Option<Result<Answer>>>,
    cv: std::sync::Condvar,
}

impl Flight {
    fn new(key: Key) -> Flight {
        Flight {
            key,
            state: Mutex::new(None),
            cv: std::sync::Condvar::new(),
        }
    }

    fn complete(&self, result: Result<Answer>) {
        *self.state.lock() = Some(result);
        self.cv.notify_all();
    }

    /// Blocks until the leader completes, then returns its answer, shared
    /// (errors clone too — a failed flight fails its followers).
    pub fn wait(&self) -> Result<Answer> {
        let mut guard = self.state.lock();
        while guard.is_none() {
            guard = self
                .cv
                .wait(guard)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        guard.as_ref().expect("flight completed").clone()
    }
}

/// How a session participates in a single-flight fetch.
pub enum FlightRole {
    /// First to miss: executes the backend call and must
    /// [`ResultCache::finish_flight`].
    Leader(Arc<Flight>),
    /// Late to an identical in-flight miss: waits for the leader.
    Follower(Arc<Flight>),
}

/// The sharded, memory-budgeted, currency-aware remote result cache.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard slice of the byte budget. Atomic so
    /// [`ResultCache::set_budget`] can resize at runtime without a shard
    /// lock.
    shard_budget: AtomicU64,
    cfg: ResultCacheConfig,
    /// Single-flight registry: in-flight backend fetches by key hash.
    flights: Mutex<HashMap<u64, Arc<Flight>, PreHashedBuild>>,
    stats: SharedStats,
    enabled: AtomicBool,
}

impl Default for ResultCache {
    fn default() -> ResultCache {
        ResultCache::new(ResultCacheConfig::default())
    }
}

impl ResultCache {
    pub fn new(cfg: ResultCacheConfig) -> ResultCache {
        // Small (test-sized) budgets collapse to one shard so the byte
        // bound and LRU order are exact; serving-sized budgets shard 8-way.
        let n_shards = if cfg.byte_budget < 1024 * 1024 { 1 } else { 8 };
        ResultCache {
            shards: (0..n_shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_budget: AtomicU64::new((cfg.byte_budget / n_shards as u64).max(1)),
            cfg,
            flights: Mutex::new(HashMap::default()),
            stats: SharedStats::default(),
            enabled: AtomicBool::new(true),
        }
    }

    /// Turns the cache on/off (off: every probe misses, nothing is
    /// admitted). Used by the equivalence tests and the bench baseline.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn shard_of(&self, probe: &Probe) -> &Mutex<Shard> {
        &self.shards[probe.shard(self.shards.len())]
    }

    /// Raises table `T`'s invalidation watermark: entries reading `T` with
    /// a watermark LSN below `required` can never be served again and are
    /// released now. Monotone and idempotent — duplicate deliveries of the
    /// same transaction are no-ops.
    pub fn note_write(&self, table: &str, required: u64) {
        let table = mtc_types::normalize_ident(table);
        let (mut released, mut bytes) = (0, 0);
        for shard in &self.shards {
            let (n, b) = shard.lock().note_write(&table, required);
            released += n;
            bytes += b;
        }
        self.stats.bytes.sub(bytes);
        self.stats.invalidations.add(released);
    }

    /// Probes for a servable entry: its answer, and the lineage a peer
    /// tier re-admits it with. Counts hits/misses/invalidations/currency
    /// rejects and touches LRU order.
    pub fn lookup(
        &self,
        sql: &str,
        psig: &str,
        catalog_version: u64,
        bound_ms: Option<i64>,
        now_ms: i64,
    ) -> Option<(Answer, Lineage)> {
        self.probe(
            &Probe::of_text(sql, psig),
            catalog_version,
            bound_ms,
            now_ms,
        )
    }

    /// [`lookup`](Self::lookup) by a probe hashed once: one probe of the
    /// shard's map finds the entry, which is judged, then touched or
    /// released where it stands.
    pub(crate) fn probe(
        &self,
        probe: &Probe,
        catalog_version: u64,
        bound_ms: Option<i64>,
        now_ms: i64,
    ) -> Option<(Answer, Lineage)> {
        if !self.is_enabled() {
            return None;
        }
        let mut shard = self.shard_of(probe).lock();
        let at = shard
            .entries
            .find(&probe.hash)
            .filter(|&at| probe.is(&shard.entries.at_mut(at).key));
        let Some(at) = at else {
            shard.count_miss(probe.hash);
            drop(shard);
            self.stats.misses.inc();
            return None;
        };
        let entry = shard.entries.at_mut(at);
        if entry.lineage.catalog_version != catalog_version {
            let (_, entry) = shard.entries.remove_at(at);
            shard.unlist(&entry);
            shard.count_miss(probe.hash);
            drop(shard);
            self.stats.bytes.sub(entry.bytes);
            self.stats.invalidations.inc();
            self.stats.misses.inc();
            return None;
        }
        let watermark = entry.lineage.watermark;
        if bound_ms.is_some_and(|bound| !watermark.within(bound, now_ms)) {
            // Too old for THIS statement; still fine for unbounded ones.
            // Judged without touching the LRU order: only a hit is a use.
            drop(shard);
            self.stats.currency_rejects.inc();
            self.stats.misses.inc();
            return None;
        }
        entry.hits += 1;
        let hit = (entry.answer.clone(), entry.lineage.clone());
        shard.entries.touch(at);
        debug_assert!(!shard.overtaken(&hit.1));
        drop(shard);
        self.stats.hits.inc();
        if bound_ms.is_some() && watermark.staleness_ms(now_ms) > 0 {
            self.stats.stale_hits.inc();
        }
        Some(hit)
    }

    /// Non-counting, non-mutating validity probe for `EXPLAIN`: would
    /// `(sql, psig)` hit right now?
    pub fn would_hit(
        &self,
        sql: &str,
        psig: &str,
        catalog_version: u64,
        bound_ms: Option<i64>,
        now_ms: i64,
    ) -> bool {
        if !self.is_enabled() {
            return false;
        }
        let probe = Probe::of_text(sql, psig);
        let shard = self.shard_of(&probe).lock();
        shard
            .entries
            .peek(&probe.hash)
            .filter(|entry| probe.is(&entry.key))
            .is_some_and(|entry| {
                let lineage = &entry.lineage;
                lineage.catalog_version == catalog_version
                    && bound_ms.is_none_or(|bound| lineage.watermark.within(bound, now_ms))
            })
    }

    /// Offers an answer for admission under its lineage: a backend fetch's,
    /// or the one an L2 hit carries into L1. Applies the cost-aware
    /// admission rule and the byte budget; returns whether the entry was
    /// admitted. An admitted entry shares `answer`'s columns.
    pub fn admit(&self, sql: &str, psig: &str, answer: &Answer, lineage: Lineage) -> bool {
        if !self.is_enabled() {
            return false;
        }
        let shard_budget = self.shard_budget.load(Ordering::Relaxed);
        let bytes = entry_bytes(answer);
        if bytes > self.cfg.max_entry_bytes.min(shard_budget) {
            self.stats.admission_rejects.inc();
            return false;
        }
        let mut stored = answer.clone();
        stored.metrics = Default::default();
        let probe = Probe::of_text(sql, psig);
        let key_hash = probe.hash;
        let mut shard = self.shard_of(&probe).lock();
        // A write that got here before the result did has already outrun
        // it: it would never be served, so it is released on arrival.
        if shard.overtaken(&lineage) {
            drop(shard);
            self.stats.invalidations.inc();
            return false;
        }
        let prior_misses = shard.miss_freq.get(&key_hash).copied().unwrap_or(0);
        let candidate_benefit_density =
            lineage.backend_work * (1.0 + prior_misses as f64) / (bytes.max(1) as f64);

        // Replacing an existing entry (refresh) releases its bytes first.
        let mut freed = shard.remove(key_hash).map_or(0, |old| old.bytes);

        // Cost-aware admission: find the LRU victims this entry would
        // displace; refuse if every victim is worth more per byte.
        let mut victims: Vec<u64> = Vec::new();
        let mut victim_bytes = 0u64;
        let mut any_victim_cheaper = false;
        for (&k, v) in shard.entries.iter() {
            if shard.bytes - victim_bytes + bytes <= shard_budget {
                break;
            }
            if v.benefit_density() <= candidate_benefit_density {
                any_victim_cheaper = true;
            }
            victim_bytes += v.bytes;
            victims.push(k);
        }
        if !victims.is_empty() && !any_victim_cheaper {
            // Everything we'd evict is worth more per byte than the
            // candidate: don't trash the better results.
            drop(shard);
            self.stats.bytes.sub(freed);
            self.stats.admission_rejects.inc();
            return false;
        }
        for &k in &victims {
            shard.remove(k);
        }
        freed += victim_bytes;
        shard.miss_freq.remove(&key_hash);
        shard.insert(
            key_hash,
            Entry {
                key: probe.key(),
                answer: stored,
                lineage,
                bytes,
                hits: 0,
                seq: 0,
            },
        );
        drop(shard);
        self.stats.bytes.sub(freed);
        self.stats.bytes.add(bytes);
        self.stats.evictions.add(victims.len() as u64);
        self.stats.inserts.inc();
        true
    }

    /// Joins (or starts) the single flight for `(sql, psig)`. A flight
    /// whose hash another key's flight holds leads unregistered.
    pub fn begin_flight(&self, sql: &str, psig: &str) -> FlightRole {
        let probe = Probe::of_text(sql, psig);
        let mut flights = self.flights.lock();
        match flights.get(&probe.hash) {
            Some(f) if probe.is(&f.key) => {
                let f = f.clone();
                drop(flights);
                self.stats.single_flight_waits.inc();
                FlightRole::Follower(f)
            }
            held => {
                let f = Arc::new(Flight::new(probe.key()));
                if held.is_none() {
                    flights.insert(probe.hash, f.clone());
                }
                FlightRole::Leader(f)
            }
        }
    }

    /// Completes a led flight: publishes the answer to followers and
    /// removes the registry entry.
    pub fn finish_flight(
        &self,
        sql: &str,
        psig: &str,
        flight: &Arc<Flight>,
        result: Result<Answer>,
    ) {
        let probe = Probe::of_text(sql, psig);
        {
            let mut flights = self.flights.lock();
            if flights
                .get(&probe.hash)
                .is_some_and(|f| Arc::ptr_eq(f, flight))
            {
                flights.remove(&probe.hash);
            }
        }
        flight.complete(result);
    }

    /// Current total byte budget across all shards.
    pub fn budget(&self) -> u64 {
        self.shard_budget.load(Ordering::Relaxed) * self.shards.len() as u64
    }

    /// Resizes the byte budget at runtime. Growing takes effect lazily
    /// (more room on the next admission); shrinking evicts from the cold
    /// end of each shard's LRU list until resident bytes fit the new
    /// budget. Counters, invalidation
    /// watermarks and surviving entries' hit lineage are all preserved; the
    /// shard count and per-entry cap are fixed at construction.
    pub fn set_budget(&self, byte_budget: u64) {
        let per_shard = (byte_budget.max(1) / self.shards.len() as u64).max(1);
        self.shard_budget.store(per_shard, Ordering::Relaxed);
        let mut freed = 0u64;
        let mut evicted = 0u64;
        for shard in &self.shards {
            let mut s = shard.lock();
            while s.bytes > per_shard {
                let Some(v) = s.evict_lru() else { break };
                freed += v.bytes;
                evicted += 1;
            }
        }
        self.stats.bytes.sub(freed);
        self.stats.evictions.add(evicted);
    }

    /// Drops every entry (counters and invalidation watermarks preserved).
    pub fn flush(&self) {
        let mut freed = 0u64;
        for shard in &self.shards {
            let mut s = shard.lock();
            freed += s.bytes;
            s.entries.clear();
            s.readers.clear();
            s.bytes = 0;
            s.miss_freq.clear();
        }
        self.stats.bytes.sub(freed);
    }

    /// Counter snapshot (no shard locks taken except for the entry count).
    pub fn stats(&self) -> ResultCacheStats {
        ResultCacheStats {
            entries: self.len() as u64,
            ..self.stats.snapshot()
        }
    }

    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().entries.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The replication stream is the invalidation stream: the hub notifies the
/// sink registered for a cache server's database whenever it processes a
/// transaction for that target — so invalidation arrives with (and is
/// delayed by exactly) the replication lag, including fault-lengthened lag.
impl mtc_replication::InvalidationSink for ResultCache {
    fn note_applied(&self, tables: &[String], lsn: mtc_storage::Lsn) {
        for t in tables {
            // An entry is only sure to contain the transaction if its
            // watermark LSN (exclusive head) is past the transaction's.
            self.note_write(t, lsn.0 + 1);
        }
    }
}

/// Renders the bound parameter *values* as a canonical string — the second
/// half of the result-cache key. `Bindings` iterates in sorted order.
pub fn param_values_signature(params: &Bindings) -> String {
    Sig::Values(None, params).render()
}

/// The second half of the key a shipped statement's result is cached under:
/// the values of the parameters *it* references ([`Prepared::params`],
/// sorted like `Bindings`), not of everything the client statement it was
/// cut from happens to bind — `SELECT * FROM author` shipped from a
/// three-parameter statement is one entry, not one per execution. A probe
/// streams it (see [`crate::key`]); this rendering is what a key given as
/// text must spell.
pub fn referenced_values_signature(stmt: &Prepared, params: &Bindings) -> String {
    Sig::Values(Some(&stmt.params), params).render()
}

/// Estimated resident size of a cached answer: Σ `Row::estimated_width`
/// of its rows, counted once when the answer was built.
fn entry_bytes(answer: &Answer) -> u64 {
    // Fixed per-entry overhead: key, schema, bookkeeping.
    answer.estimated_bytes() + 256
}

/// A remote statement answered from a mid-tier result cache: consumed, but
/// no round trip paid.
fn served_from_cache(result: Answer) -> RemoteOutcome<Answer> {
    RemoteOutcome {
        result,
        calls: 1,
        rtts: 0,
        coalesced: 0,
        cached: true,
        peer: false,
    }
}

/// The caching, coalescing remote executor a `CacheServer` hands to the
/// engine for one statement execution. Carries the statement's currency
/// bound and the catalog version observed under the planning read lock.
pub struct RemoteGateway<'a> {
    cache: &'a ResultCache,
    backend: &'a BackendServer,
    catalog_version: u64,
    /// The executing statement's `WITH FRESHNESS` bound, in ms.
    bound_ms: Option<i64>,
    now_ms: i64,
    /// Peer-shared second cache tier: probed on an L1 miss, written through
    /// on a backend fetch, with hits promoted into L1. `None` outside a
    /// fleet — the single-node behaviour is unchanged.
    l2: Option<&'a ResultCache>,
    /// Fleet peers multi-site placement may have routed plan fragments to,
    /// by name. Empty outside a fleet: peer-placed fragments then degrade
    /// to the backend path (always correct — a peer's cached view is a
    /// subset of backend truth).
    peers: &'a [(String, std::sync::Arc<crate::cache::CacheServer>)],
}

impl<'a> RemoteGateway<'a> {
    pub fn new(
        cache: &'a ResultCache,
        backend: &'a BackendServer,
        catalog_version: u64,
        bound_ms: Option<i64>,
        now_ms: i64,
    ) -> RemoteGateway<'a> {
        RemoteGateway {
            cache,
            backend,
            catalog_version,
            bound_ms,
            now_ms,
            l2: None,
            peers: &[],
        }
    }

    /// Attaches the fleet's shared L2 tier to this gateway.
    pub fn with_l2(mut self, l2: &'a ResultCache) -> RemoteGateway<'a> {
        self.l2 = Some(l2);
        self
    }

    /// Attaches the fleet peers placed fragments may execute on.
    pub fn with_peers(
        mut self,
        peers: &'a [(String, std::sync::Arc<crate::cache::CacheServer>)],
    ) -> RemoteGateway<'a> {
        self.peers = peers;
        self
    }

    /// The key `stmt`'s result is cached under — its text and the values
    /// of the parameters it references ([`referenced_values_signature`]) —
    /// hashed once per shipped statement; `None` while this node's cache is
    /// off.
    fn key_of<'s>(&self, stmt: &'s Prepared, params: &'s Bindings) -> Option<Probe<'s>> {
        self.cache
            .is_enabled()
            .then(|| Probe::of(stmt, Sig::Values(Some(&stmt.params), params)))
    }

    /// Probes this node's L1 under the executing statement's catalog
    /// version and currency bound.
    fn l1_hit(&self, key: &Probe) -> Option<RemoteOutcome<Answer>> {
        self.probe(self.cache, key)
            .map(|(answer, _)| served_from_cache(answer))
    }

    /// Probes `tier` under the executing statement's catalog version and
    /// currency bound.
    fn probe(&self, tier: &ResultCache, key: &Probe) -> Option<(Answer, Lineage)> {
        tier.probe(key, self.catalog_version, self.bound_ms, self.now_ms)
    }

    /// A backend-bound statement: L1, then [`Self::past_l1`].
    fn via_backend(
        &self,
        stmt: &Arc<Prepared>,
        params: &Bindings,
        key: Option<&Probe>,
    ) -> Result<RemoteOutcome<Answer>> {
        match key.and_then(|key| self.l1_hit(key)) {
            Some(hit) => Ok(hit),
            None => self.past_l1(stmt, params, key),
        }
    }

    /// Where a statement goes once this node's L1 has missed (or is off,
    /// `key` `None`): the fleet's L2, then the backend.
    fn past_l1(
        &self,
        stmt: &Arc<Prepared>,
        params: &Bindings,
        key: Option<&Probe>,
    ) -> Result<RemoteOutcome<Answer>> {
        let Some(key) = key else {
            return Ok(RemoteOutcome::fetched(
                self.backend.execute_prepared_as(stmt, params, "dbo")?,
            ));
        };
        // Probe the fleet's shared L2 and promote a hit into L1 (sharing
        // its answer, with its original lineage) so the next probe is
        // local. Past L1 the key is spelled out, once.
        let l2_hit = self.l2.and_then(|l2| self.probe(l2, key));
        let Key { text, sig } = key.key();
        if let Some((answer, lineage)) = l2_hit {
            self.cache.admit(&text, &sig, &answer, lineage);
            return Ok(served_from_cache(answer));
        }
        self.fetch(stmt, params, &text, &sig)
    }

    /// A fragment multi-site placement routed to cache peer `node`: probe
    /// this node's own L1 first (a hop the network never needs), then cross
    /// the peer link. The statement's currency bound travels with the
    /// fragment, and a peer further behind than it refuses. A vanished peer
    /// (crashed between planning and execution of an uncached plan), a peer
    /// past the bound or any other peer-side error degrades to the normal
    /// backend path past the L1 probe already made — the fragment's SQL is
    /// over backend truth, so the fallback is always correct, just slower.
    /// The peer's answer arrives as its root's batches.
    fn via_peer(
        &self,
        node: &str,
        stmt: &Arc<Prepared>,
        params: &Bindings,
        key: Option<&Probe>,
    ) -> Result<RemoteOutcome<Answer>> {
        if let Some(hit) = key.and_then(|key| self.l1_hit(key)) {
            return Ok(hit);
        }
        if let Some((_, peer)) = self.peers.iter().find(|(name, _)| name == node) {
            if let Ok(result) = peer.execute_for_peer(stmt, params, self.bound_ms) {
                return Ok(RemoteOutcome {
                    result,
                    calls: 1,
                    rtts: 1,
                    coalesced: 0,
                    cached: false,
                    peer: true,
                });
            }
        }
        self.past_l1(stmt, params, key)
    }

    /// Miss path: lead (or join) the single flight for this key, execute
    /// on the backend, admit, publish to followers.
    fn fetch(
        &self,
        stmt: &Arc<Prepared>,
        params: &Bindings,
        sql: &str,
        psig: &str,
    ) -> Result<RemoteOutcome<Answer>> {
        match self.cache.begin_flight(sql, psig) {
            FlightRole::Follower(flight) => {
                // Share the leader's answer: no round trip, no
                // double-charged backend work — but still one remote
                // statement consumed, so `calls` accounting stays honest.
                let mut result = flight.wait()?;
                result.metrics = Default::default();
                Ok(RemoteOutcome {
                    result,
                    calls: 1,
                    rtts: 0,
                    coalesced: 1,
                    cached: false,
                    peer: false,
                })
            }
            FlightRole::Leader(flight) => {
                // Head *before* the fetch: any transaction committing after
                // this point may be missing from the rows and must
                // invalidate. (The in-process backend executes under its
                // read lock, so this is conservative, never unsafe.)
                let lsn = self.backend.commit_lsn();
                // Compacted once: L1, L2, the followers and this statement
                // all share the one dense copy.
                let res = self
                    .backend
                    .execute_prepared_as::<Answer>(stmt, params, "dbo")
                    .map(|answer| answer.compacted());
                // Only a SELECT's rows are an answer to keep; the tables
                // that invalidate it were derived when it was prepared.
                if let (Ok(answer), Some(_)) = (&res, stmt.select()) {
                    let lineage = Lineage {
                        watermark: Watermark {
                            lsn,
                            synced_through_ms: self.now_ms,
                        },
                        tables: stmt.tables.clone(),
                        catalog_version: self.catalog_version,
                        backend_work: answer.metrics.local_work + answer.metrics.remote_work,
                    };
                    // Write through to the shared L2 so peer nodes can
                    // serve this result without their own backend trip.
                    if let Some(l2) = self.l2 {
                        l2.admit(sql, psig, answer, lineage.clone());
                    }
                    self.cache.admit(sql, psig, answer, lineage);
                }
                self.cache.finish_flight(sql, psig, &flight, res.clone());
                res.map(RemoteOutcome::fetched)
            }
        }
    }
}

/// The engine hands the gateway the prepared statement its compiled
/// `Remote` operator carries ([`execute_shipped`]
/// (RemoteExecutor::execute_shipped)) and gets the answer's batches back.
/// The text-taking methods serve a caller that only has text: they take its
/// prepared form from the backend's statement cache — a hash probe once the
/// text has been seen — continue as above, and hand back rows.
impl RemoteExecutor for RemoteGateway<'_> {
    fn execute_remote(&self, sql: &str, params: &Bindings) -> Result<QueryResult> {
        self.execute_remote_outcome(sql, params).map(|o| o.result)
    }

    fn execute_remote_outcome(&self, sql: &str, params: &Bindings) -> Result<RemoteOutcome> {
        let resolved = self.backend.prepare(sql)?;
        let params = &resolved.bindings(params);
        let key = self.key_of(&resolved.stmt, params);
        self.via_backend(&resolved.stmt, params, key.as_ref())?
            .try_map(|answer| Ok(answer.to_result()))
    }

    fn execute_peer(&self, node: &str, sql: &str, params: &Bindings) -> Result<RemoteOutcome> {
        let resolved = self.backend.prepare(sql)?;
        let params = &resolved.bindings(params);
        let key = self.key_of(&resolved.stmt, params);
        self.via_peer(node, &resolved.stmt, params, key.as_ref())?
            .try_map(|answer| Ok(answer.to_result()))
    }

    fn execute_shipped(
        &self,
        site: &RemoteSite,
        stmt: &Arc<Prepared>,
        params: &Bindings,
    ) -> Result<RemoteOutcome<Answer>> {
        let key = self.key_of(stmt, params);
        match site {
            RemoteSite::Backend => self.via_backend(stmt, params, key.as_ref()),
            RemoteSite::Peer { node, .. } => self.via_peer(node, stmt, params, key.as_ref()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_types::{Row, Schema, Value};

    /// What a backend fetch costing `backend_work` stamps on its entry.
    fn lineage(
        tables: &[&str],
        lsn: u64,
        synced_through_ms: i64,
        catalog_version: u64,
        backend_work: f64,
    ) -> Lineage {
        Lineage {
            watermark: Watermark {
                lsn: mtc_storage::Lsn(lsn),
                synced_through_ms,
            },
            tables: tables.iter().map(|n| n.to_string()).collect(),
            catalog_version,
            backend_work,
        }
    }

    fn result_of(n: usize, work: f64) -> Answer {
        let mut r = QueryResult {
            schema: Schema::new(vec![mtc_types::Column::not_null(
                "x",
                mtc_types::DataType::Int,
            )]),
            rows: (0..n).map(|i| Row::new(vec![Value::Int(i as i64)])).collect(),
            metrics: Default::default(),
        };
        r.metrics.local_work = work;
        Answer::from_result(r).unwrap()
    }

    #[test]
    fn hit_miss_and_value_keying() {
        let c = ResultCache::new(ResultCacheConfig::with_budget(64 * 1024));
        assert!(c.lookup("q", "n=Int(1)", 0, None, 0).is_none());
        assert!(c.admit("q", "n=Int(1)", &result_of(3, 10.0), lineage(&["t"], 5, 0, 0, 10.0)));
        let (hit, _) = c.lookup("q", "n=Int(1)", 0, None, 0).unwrap();
        assert_eq!(hit.len(), 3);
        assert_eq!(hit.metrics.local_work, 0.0, "hits charge no backend work");
        // Different parameter VALUE is a different entry.
        assert!(c.lookup("q", "n=Int(2)", 0, None, 0).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 2, 1));
        assert!(s.bytes > 0);
    }

    #[test]
    fn invalidation_by_observed_write() {
        let c = ResultCache::new(ResultCacheConfig::with_budget(64 * 1024));
        // Entry computed at head 10 (txns < 10 reflected).
        c.admit("q", "", &result_of(2, 5.0), lineage(&["t"], 10, 0, 0, 5.0));
        // A write to an unrelated table leaves it servable.
        c.note_write("other", 99);
        assert!(c.lookup("q", "", 0, None, 0).is_some());
        // Txn 9 was already reflected (9 < 10): no invalidation.
        c.note_write("t", 10);
        assert!(c.lookup("q", "", 0, None, 0).is_some());
        // Txn 10 was NOT reflected: required 11 > lsn 10 → dead.
        c.note_write("t", 11);
        assert!(c.lookup("q", "", 0, None, 0).is_none());
        let s = c.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.entries, 0);
        assert_eq!(s.bytes, 0, "invalidated bytes released");
    }

    /// Entries the per-table index lists, over all shards.
    fn indexed(c: &ResultCache) -> usize {
        c.shards
            .iter()
            .map(|s| s.lock().readers.values().map(BTreeMap::len).sum::<usize>())
            .sum()
    }

    #[test]
    fn a_write_releases_what_it_overtakes_without_a_probe() {
        let c = ResultCache::new(ResultCacheConfig::with_budget(64 * 1024));
        c.admit("a", "", &result_of(2, 5.0), lineage(&["t"], 10, 0, 0, 5.0));
        c.admit("b", "", &result_of(2, 5.0), lineage(&["t", "u"], 12, 0, 0, 5.0));
        c.admit("d", "", &result_of(2, 5.0), lineage(&["u"], 5, 0, 0, 5.0));
        let one = c.stats().bytes / 3;
        assert_eq!(indexed(&c), 4);
        // Txn 10 on `t`: `a` (computed at head 10) misses it, `b` has it.
        c.note_write("T", 11);
        let s = c.stats();
        assert_eq!((s.entries, s.invalidations, s.bytes), (2, 1, 2 * one));
        assert_eq!(indexed(&c), 3, "released from the index too");
        c.note_write("t", 11);
        c.note_write("t", 3);
        assert_eq!(c.stats().invalidations, 1, "watermarks only rise");
        // Nobody probed `a`, yet its budget is free; a probe now just misses.
        assert!(c.lookup("a", "", 0, None, 0).is_none());
        assert_eq!(c.stats().invalidations, 1);
        assert!(c.lookup("b", "", 0, None, 0).is_some());
        // A result that arrives already overtaken is not admitted.
        assert!(!c.admit("late", "", &result_of(2, 5.0), lineage(&["t"], 10, 0, 0, 5.0)));
        let s = c.stats();
        assert_eq!((s.entries, s.invalidations, s.admission_rejects), (2, 2, 0));
        c.note_write("u", 13);
        let s = c.stats();
        assert_eq!((s.entries, s.invalidations, s.bytes), (0, 4, 0));
        assert_eq!(indexed(&c), 0);
    }

    #[test]
    fn the_per_table_index_holds_exactly_the_resident_entries() {
        let one = entry_bytes(&result_of(50, 5.0));
        let c = ResultCache::new(ResultCacheConfig {
            byte_budget: one * 3 + 10,
            max_entry_bytes: one * 3,
        });
        // Refreshes and LRU evictions, many times over the budget.
        for i in 0..40u64 {
            let key = format!("q{}", i % 7);
            c.admit(&key, "", &result_of(50, 5.0), lineage(&["t", "u"], i, 0, 0, 5.0));
            assert_eq!(indexed(&c), 2 * c.len(), "after admitting {key}");
        }
        assert_eq!(c.len(), 3);
        c.set_budget(one + 10);
        assert_eq!((c.len(), indexed(&c)), (1, 2));
        // A catalog-stale entry found by a probe leaves the index as well.
        assert!(c.lookup("q4", "", 1, None, 0).is_none());
        assert_eq!((c.len(), indexed(&c)), (0, 0));
        c.admit("x", "", &result_of(50, 5.0), lineage(&["t"], 100, 0, 0, 5.0));
        c.flush();
        assert_eq!((c.len(), indexed(&c)), (0, 0));
    }

    #[test]
    fn catalog_version_flushes() {
        let c = ResultCache::default();
        c.admit("q", "", &result_of(1, 5.0), lineage(&["t"], 1, 0, 7, 5.0));
        assert!(c.lookup("q", "", 7, None, 0).is_some());
        assert!(c.lookup("q", "", 8, None, 0).is_none(), "DDL bumped version");
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn currency_bound_rejects_old_entries_but_keeps_them() {
        let c = ResultCache::default();
        c.admit("q", "", &result_of(1, 5.0), lineage(&["t"], 1, 1_000, 0, 5.0));
        // Within bound at t=5s (age 4s ≤ 10s): served, counted stale.
        assert!(c.lookup("q", "", 0, Some(10_000), 5_000).is_some());
        assert_eq!(c.stats().stale_hits, 1);
        // Out of bound at t=20s (age 19s > 10s): rejected...
        assert!(c.lookup("q", "", 0, Some(10_000), 20_000).is_none());
        assert_eq!(c.stats().currency_rejects, 1);
        // ...but an unbounded statement may still read it.
        assert!(c.lookup("q", "", 0, None, 20_000).is_some());
    }

    #[test]
    fn byte_budget_evicts_lru() {
        // Budget fits ~2 of these entries (each ≈ 256 + rows).
        let one = entry_bytes(&result_of(50, 5.0));
        let c = ResultCache::new(ResultCacheConfig {
            byte_budget: one * 2 + 10,
            max_entry_bytes: one * 2,
        });
        assert!(c.admit("a", "", &result_of(50, 5.0), lineage(&[], 1, 0, 0, 5.0)));
        assert!(c.admit("b", "", &result_of(50, 5.0), lineage(&[], 1, 0, 0, 5.0)));
        // Touch "a" so "b" is cold.
        assert!(c.lookup("a", "", 0, None, 0).is_some());
        assert!(c.admit("c", "", &result_of(50, 5.0), lineage(&[], 1, 0, 0, 5.0)));
        assert!(c.lookup("a", "", 0, None, 0).is_some());
        assert!(c.lookup("b", "", 0, None, 0).is_none(), "LRU victim");
        let s = c.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.bytes <= one * 2 + 10, "budget respected: {}", s.bytes);
    }

    #[test]
    fn cost_aware_admission_protects_expensive_entries() {
        let small = entry_bytes(&result_of(10, 0.0));
        let c = ResultCache::new(ResultCacheConfig {
            byte_budget: small * 3,
            max_entry_bytes: small * 3,
        });
        // Three small, expensive, frequently used entries.
        for k in ["a", "b", "x"] {
            assert!(c.admit(k, "", &result_of(10, 1_000.0), lineage(&[], 1, 0, 0, 1_000.0)));
            for _ in 0..5 {
                c.lookup(k, "", 0, None, 0).unwrap();
            }
        }
        // A big cheap result that would displace them: refused.
        assert!(!c.admit("junk", "", &result_of(25, 0.001), lineage(&[], 1, 0, 0, 0.001)));
        assert_eq!(c.stats().admission_rejects, 1);
        for k in ["a", "b", "x"] {
            assert!(c.lookup(k, "", 0, None, 0).is_some(), "{k} survived");
        }
        // An equally valuable result IS admitted (evicting the coldest).
        assert!(c.admit("good", "", &result_of(10, 50_000.0), lineage(&[], 1, 0, 0, 50_000.0)));
        assert!(c.lookup("good", "", 0, None, 0).is_some());
    }

    #[test]
    fn oversized_entries_never_cached() {
        let c = ResultCache::new(ResultCacheConfig {
            byte_budget: 10_000,
            max_entry_bytes: 300,
        });
        assert!(!c.admit("big", "", &result_of(500, 100.0), lineage(&[], 1, 0, 0, 100.0)));
        assert_eq!(c.stats().admission_rejects, 1);
        assert!(c.is_empty());
    }

    #[test]
    fn single_flight_shares_one_fetch() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let c = Arc::new(ResultCache::default());
        let backend_calls = Arc::new(AtomicU64::new(0));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let c = c.clone();
                let backend_calls = backend_calls.clone();
                std::thread::spawn(move || match c.begin_flight("q", "") {
                    FlightRole::Leader(f) => {
                        // Simulate the backend call.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        backend_calls.fetch_add(1, Ordering::SeqCst);
                        c.finish_flight("q", "", &f, Ok(result_of(4, 1.0)));
                        4usize
                    }
                    FlightRole::Follower(f) => f.wait().unwrap().len(),
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap(), 4, "followers share the rows");
        }
        assert_eq!(backend_calls.load(Ordering::SeqCst), 1, "one backend call");
        assert_eq!(c.stats().single_flight_waits, 7);
        // The flight registry drains.
        assert!(c.flights.lock().is_empty());
    }

    #[test]
    fn failed_flight_fails_followers_and_clears() {
        let c = ResultCache::default();
        let FlightRole::Leader(f) = c.begin_flight("q", "") else {
            panic!("first in is leader");
        };
        let FlightRole::Follower(f2) = c.begin_flight("q", "") else {
            panic!("second in is follower");
        };
        c.finish_flight("q", "", &f, Err(mtc_types::Error::execution("boom")));
        assert!(f2.wait().is_err());
        // Next miss starts a fresh flight.
        assert!(matches!(c.begin_flight("q", ""), FlightRole::Leader(_)));
    }

    #[test]
    fn disabled_cache_never_serves() {
        let c = ResultCache::default();
        c.admit("q", "", &result_of(1, 5.0), lineage(&[], 1, 0, 0, 5.0));
        c.set_enabled(false);
        assert!(c.lookup("q", "", 0, None, 0).is_none());
        assert!(!c.admit("r", "", &result_of(1, 5.0), lineage(&[], 1, 0, 0, 5.0)));
        c.set_enabled(true);
        assert!(c.lookup("q", "", 0, None, 0).is_some(), "entries survive a disable");
    }

    #[test]
    fn flush_releases_bytes() {
        let c = ResultCache::default();
        c.admit("q", "", &result_of(10, 5.0), lineage(&[], 1, 0, 0, 5.0));
        assert!(c.stats().bytes > 0);
        c.flush();
        assert_eq!(c.stats().bytes, 0);
        assert!(c.is_empty());
    }

    #[test]
    fn param_values_signature_is_canonical() {
        let mut p = Bindings::new();
        p.insert("b".into(), Value::Int(7));
        p.insert("a".into(), Value::str("x"));
        let sig = param_values_signature(&p);
        assert!(sig.starts_with("a="), "sorted: {sig}");
        assert!(sig.contains("b="));
        // Same names, different values ⇒ different signatures.
        let mut q = Bindings::new();
        q.insert("b".into(), Value::Int(8));
        q.insert("a".into(), Value::str("x"));
        assert_ne!(sig, param_values_signature(&q));
    }
}
