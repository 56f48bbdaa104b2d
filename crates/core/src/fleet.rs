//! The cache-tier **fleet**: N MTCache servers in front of one backend.
//!
//! The paper's mid-tier cache is a *tier*, not a single box — "a cache
//! server … can be deployed on multiple machines close to the application"
//! (§1). This module turns the repo's single [`CacheServer`] into a fleet:
//!
//! * **Nodes.** [`Fleet::create`] spawns N cache servers, each with its own
//!   shadow database, cached-view subset (applied by a caller-supplied
//!   provisioning closure), plan cache and L1 result cache — all fed from
//!   the one replication hub. Per-node replication progress is observable
//!   as an applied LSN ([`Fleet::applied_lsn`]).
//!
//! * **Front-door router.** Sessions are placed on nodes by consistent
//!   hashing (FNV-1a over a virtual-node ring, deterministic across
//!   processes) with session affinity: a session stays on its node until
//!   the node dies. Removing a node only remaps the sessions that lived on
//!   it — every other session keeps its placement (the classic
//!   minimal-disruption property, pinned by tests).
//!
//! * **L1/L2 result-cache hierarchy.** Each node's [`ResultCache`] is its
//!   L1; the fleet owns an optional peer-shared L2. An L1 miss probes the
//!   L2 and promotes a hit (with its original currency lineage — commit
//!   LSN, tables, fetch instant); a backend fetch writes through to both
//!   tiers. Cross-node invalidation fans out over the existing per-table
//!   `InvalidationSink` watermarks: the replication stream invalidates each
//!   node's L1 and the L2 as deliveries apply, and a write forwarded
//!   through any node invalidates **all** tiers synchronously, before the
//!   DML returns — so no node ever serves a result older than its currency
//!   bound, and no reader at-or-past a write's LSN can hit a pre-write
//!   entry anywhere in the fleet.
//!
//! * **Failure semantics.** [`Fleet::crash_node`] kills a node: it is
//!   removed from the hub (a dead node must not pin the distribution
//!   queue), its sessions are evicted from the affinity map
//!   and reroute to ring successors on their next statement.
//!   [`Fleet::rejoin_node`] brings the slot back **cold**: a fresh server,
//!   fresh shadow DB, fresh caches, re-provisioned cached views — the
//!   subscription snapshot rehydrates it to bit-exact convergence with its
//!   peers (pinned by `tests/fleet_semantics.rs`).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mtc_util::sync::Mutex;

use mtc_replication::ReplicationHub;
use mtc_storage::Lsn;
use mtc_types::{Error, Result};

use crate::backend::BackendServer;
use crate::cache::{CacheServer, Wiring};
use crate::result_cache::{ResultCache, ResultCacheConfig};

/// 64-bit FNV-1a. Used for ring and session placement because it is
/// deterministic by construction — `std`'s `DefaultHasher` is allowed to
/// change between releases, and routing must be reproducible across
/// processes and seeds.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Virtual ring entries per node (placement smoothness).
const VNODES: usize = 32;
/// Per-node L1 result-cache budget, bytes.
const L1_BUDGET: u64 = 256 * 1024;

/// Consistent-hash ring with virtual nodes plus a session-affinity map.
///
/// Placement is two-level: a session already pinned to a live node stays
/// there (affinity); an unpinned session walks the ring — first vnode with
/// hash ≥ the session's hash, wrapping — and gets pinned to the node it
/// lands on. Crashing a node evicts only its pins.
#[derive(Default)]
pub struct Router {
    /// `(vnode hash, node index)`, sorted by hash. Only live nodes appear.
    ring: Vec<(u64, usize)>,
    /// Session → node-index pins.
    affinity: HashMap<u64, usize>,
    /// Sessions evicted by node crashes (observability).
    reroutes: u64,
}

impl Router {
    pub fn new() -> Router {
        Router::default()
    }

    /// Rebuilds the ring from the live `(node index, node name)` set.
    /// Vnode hashes depend only on node *names*, so a node that leaves and
    /// returns reclaims exactly its old ring positions.
    pub fn rebuild(&mut self, alive: &[(usize, String)]) {
        self.ring.clear();
        for (idx, name) in alive {
            for v in 0..VNODES {
                self.ring.push((fnv1a64(format!("{name}#{v}").as_bytes()), *idx));
            }
        }
        self.ring.sort_unstable();
    }

    /// Pure ring lookup — no affinity read or write. This is the
    /// deterministic placement new sessions get.
    pub fn ring_node(&self, session: u64) -> Option<usize> {
        if self.ring.is_empty() {
            return None;
        }
        let h = fnv1a64(&session.to_le_bytes());
        let at = self.ring.partition_point(|(vh, _)| *vh < h);
        Some(self.ring[at % self.ring.len()].1)
    }

    /// Places `session`: its pinned node if still live, else the ring node,
    /// pinning the choice.
    pub fn place(&mut self, session: u64) -> Option<usize> {
        if let Some(&idx) = self.affinity.get(&session) {
            return Some(idx);
        }
        let idx = self.ring_node(session)?;
        self.affinity.insert(session, idx);
        Some(idx)
    }

    /// Evicts every session pinned to `idx` (they re-place on next use);
    /// returns how many were evicted.
    pub fn evict_node(&mut self, idx: usize) -> usize {
        let before = self.affinity.len();
        self.affinity.retain(|_, v| *v != idx);
        let evicted = before - self.affinity.len();
        self.reroutes += evicted as u64;
        evicted
    }

    /// Sessions rerouted by crashes so far.
    pub fn reroutes(&self) -> u64 {
        self.reroutes
    }
}

/// Fleet construction knobs.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Cache nodes to spawn.
    pub nodes: usize,
    /// Shared L2 budget, bytes; 0 disables the L2 tier.
    pub l2_budget: u64,
    /// Multi-site fragment placement: let each node's optimizer route plan
    /// fragments to peers carrying a relevant cached view (over the cheap
    /// peer link) instead of falling back to the backend. Disabling it
    /// restores strict two-site (local/backend) planning on every node.
    pub multisite: bool,
}

impl Default for FleetConfig {
    fn default() -> FleetConfig {
        FleetConfig {
            nodes: 4,
            l2_budget: 1024 * 1024,
            multisite: true,
        }
    }
}

/// Applies a node's cache configuration (cached views, indexes, copied
/// procedures, grants) — run once per node at creation and again on every
/// cold rejoin.
pub type Provisioner = dyn Fn(&CacheServer) -> Result<()> + Send + Sync;

struct Slot {
    name: String,
    /// `None` while crashed.
    server: Option<Arc<CacheServer>>,
}

/// A fleet of cache servers behind one front-door router. See the module
/// docs for the architecture.
pub struct Fleet {
    backend: Arc<BackendServer>,
    hub: Arc<Mutex<ReplicationHub>>,
    cfg: FleetConfig,
    /// Peer-shared L2 result-cache tier (`None` when `l2_budget == 0`).
    l2: Option<Arc<ResultCache>>,
    provision: Box<Provisioner>,
    slots: Mutex<Vec<Slot>>,
    router: Mutex<Router>,
    /// Fleet-wide placement-topology version, shared by every node: bumped
    /// on crash AND rejoin, so plan-cache entries whose placements
    /// reference the old membership are invalidated everywhere at once.
    topology: Arc<AtomicU64>,
}

/// Nodes hold their placement peers strongly (see [`Wiring`]); a fleet that
/// goes away unwires them so they are freed.
impl Drop for Fleet {
    fn drop(&mut self) {
        for slot in self.slots.lock().iter() {
            if let Some(server) = &slot.server {
                server.set_wiring(Wiring::default());
            }
        }
    }
}

impl Fleet {
    /// Spawns `cfg.nodes` cache servers named `cache0…`, provisions each
    /// with `provision`, wires the L1/L2 hierarchy and the peer
    /// invalidation fan-out, and builds the routing ring.
    pub fn create(
        backend: Arc<BackendServer>,
        hub: Arc<Mutex<ReplicationHub>>,
        cfg: FleetConfig,
        provision: Box<Provisioner>,
    ) -> Result<Arc<Fleet>> {
        if cfg.nodes == 0 {
            return Err(Error::catalog("a fleet needs at least one node"));
        }
        let l2 = (cfg.l2_budget > 0)
            .then(|| Arc::new(ResultCache::new(ResultCacheConfig::with_budget(cfg.l2_budget))));
        let fleet = Fleet {
            backend,
            hub,
            cfg,
            l2,
            provision,
            slots: Mutex::new(Vec::new()),
            router: Mutex::new(Router::new()),
            topology: Arc::new(AtomicU64::new(0)),
        };
        {
            let mut slots = fleet.slots.lock();
            for i in 0..cfg.nodes {
                let name = format!("cache{i}");
                let server = fleet.spawn(&name)?;
                slots.push(Slot {
                    name,
                    server: Some(server),
                });
            }
        }
        fleet.rewire();
        Ok(Arc::new(fleet))
    }

    /// Builds and provisions one node (fresh shadow DB, fresh caches), and
    /// registers the shared L2 for replication-stream invalidation of that
    /// node's deliveries.
    fn spawn(&self, name: &str) -> Result<Arc<CacheServer>> {
        let server = CacheServer::create_with_result_cache(
            name,
            self.backend.clone(),
            self.hub.clone(),
            ResultCache::new(ResultCacheConfig::with_budget(L1_BUDGET)),
        );
        if let Some(l2) = &self.l2 {
            // Any node applying a delivery proves the backend write
            // happened: the shared tier must drop entries missing it.
            self.hub
                .lock()
                .register_invalidation_sink(&server.db, l2.clone());
        }
        (self.provision)(&server)?;
        Ok(server)
    }

    /// Publishes every live node's wiring — one value per node: the L2, the
    /// peer L1s it invalidates, its placement peers, the topology counter —
    /// and rebuilds the routing ring from the current live set. Called
    /// after every membership change.
    fn rewire(&self) {
        let slots = self.slots.lock();
        let live: Vec<(usize, Arc<CacheServer>)> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.server.clone().map(|srv| (i, srv)))
            .collect();
        for (i, server) in &live {
            let others = || live.iter().filter(|(j, _)| j != i).map(|(_, p)| p);
            server.set_wiring(Wiring {
                l2: self.l2.clone(),
                peer_caches: others().map(|p| p.result_cache.clone()).collect(),
                // Placement wiring: with multi-site planning on, a node's
                // optimizer may place fragments on any live peer.
                peers: if self.cfg.multisite {
                    others()
                        .map(|p| (p.name().to_string(), p.clone()))
                        .collect()
                } else {
                    Vec::new()
                },
                topology: self.topology.clone(),
            });
        }
        let names: Vec<(usize, String)> = live
            .iter()
            .map(|(i, s)| (*i, s.name().to_string()))
            .collect();
        drop(slots);
        self.router.lock().rebuild(&names);
    }

    pub fn backend(&self) -> &Arc<BackendServer> {
        &self.backend
    }

    pub fn hub(&self) -> &Arc<Mutex<ReplicationHub>> {
        &self.hub
    }

    /// The shared L2 tier, if configured.
    pub fn l2(&self) -> Option<Arc<ResultCache>> {
        self.l2.clone()
    }

    pub fn node_count(&self) -> usize {
        self.slots.lock().len()
    }

    pub fn alive_count(&self) -> usize {
        self.slots.lock().iter().filter(|s| s.server.is_some()).count()
    }

    /// The node in slot `idx`, if alive.
    pub fn node(&self, idx: usize) -> Option<Arc<CacheServer>> {
        self.slots.lock().get(idx).and_then(|s| s.server.clone())
    }

    /// All live nodes, slot order.
    pub fn nodes(&self) -> Vec<Arc<CacheServer>> {
        self.slots
            .lock()
            .iter()
            .filter_map(|s| s.server.clone())
            .collect()
    }

    /// Routes `session` through the front door: affinity first, consistent
    /// hash otherwise. Returns the slot index and the server.
    pub fn route(&self, session: u64) -> Result<(usize, Arc<CacheServer>)> {
        let idx = self
            .router
            .lock()
            .place(session)
            .ok_or_else(|| Error::catalog("fleet has no live nodes"))?;
        let server = self
            .node(idx)
            .ok_or_else(|| Error::catalog(format!("routed session to dead slot {idx}")))?;
        Ok((idx, server))
    }

    /// Pure consistent-hash placement for `session` (no affinity) — what a
    /// brand-new session would get.
    pub fn ring_node(&self, session: u64) -> Option<usize> {
        self.router.lock().ring_node(session)
    }

    /// Kills the node in slot `idx`: removes it from the hub (so the dead
    /// node stops pinning distribution truncation), drops the server,
    /// evicts its sessions, and rewires the
    /// survivors. Returns how many sessions were evicted for rerouting.
    pub fn crash_node(&self, idx: usize) -> Result<usize> {
        let server = {
            let mut slots = self.slots.lock();
            let slot = slots
                .get_mut(idx)
                .ok_or_else(|| Error::catalog(format!("no fleet slot {idx}")))?;
            slot.server
                .take()
                .ok_or_else(|| Error::catalog(format!("slot {idx} already crashed")))?
        };
        self.hub.lock().detach_target(&server.db);
        let evicted = self.router.lock().evict_node(idx);
        // Placements that routed fragments to the victim are now invalid
        // fleet-wide: bump the shared topology version so every node's plan
        // cache discards them (exactly like a catalog version bump).
        self.topology.fetch_add(1, Ordering::AcqRel);
        self.rewire();
        Ok(evicted)
    }

    /// Cold-rejoins slot `idx`: a brand-new server (fresh shadow DB, empty
    /// caches) provisioned from scratch — its cached-view subscriptions
    /// bulk-populate from a consistent backend snapshot, so it converges
    /// bit-exactly with peers as soon as the hub drains.
    pub fn rejoin_node(&self, idx: usize) -> Result<Arc<CacheServer>> {
        let name = {
            let slots = self.slots.lock();
            let slot = slots
                .get(idx)
                .ok_or_else(|| Error::catalog(format!("no fleet slot {idx}")))?;
            if slot.server.is_some() {
                return Err(Error::catalog(format!("slot {idx} is already alive")));
            }
            slot.name.clone()
        };
        let server = self.spawn(&name)?;
        self.slots.lock()[idx].server = Some(server.clone());
        // A rejoin changes the placement space too (the returned node's
        // views are routable again): old single-site plans must re-optimize.
        self.topology.fetch_add(1, Ordering::AcqRel);
        self.rewire();
        Ok(server)
    }

    /// The LSN past the last transaction fully applied to node `idx` — its
    /// replication cursor. `None` for a crashed slot or a node with no
    /// cached views.
    pub fn applied_lsn(&self, idx: usize) -> Option<Lsn> {
        let server = self.node(idx)?;
        self.hub.lock().applied_lsn_for_target(&server.db)
    }

    /// Read-but-unapplied transaction backlog of node `idx`.
    pub fn lag_txns(&self, idx: usize) -> Option<u64> {
        let server = self.node(idx)?;
        self.hub.lock().lag_txns_for_target(&server.db)
    }

    /// Sessions rerouted by crashes so far.
    pub fn reroutes(&self) -> u64 {
        self.router.lock().reroutes()
    }

    /// The fleet-wide placement-topology version (bumped by crash/rejoin).
    pub fn topology_version(&self) -> u64 {
        self.topology.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_of(names: &[&str]) -> Router {
        let mut r = Router::new();
        let alive: Vec<(usize, String)> = names
            .iter()
            .enumerate()
            .map(|(i, n)| (i, n.to_string()))
            .collect();
        r.rebuild(&alive);
        r
    }

    #[test]
    fn ring_placement_is_deterministic_and_total() {
        let a = ring_of(&["cache0", "cache1", "cache2", "cache3"]);
        let b = ring_of(&["cache0", "cache1", "cache2", "cache3"]);
        for s in 0..1000u64 {
            assert_eq!(a.ring_node(s), b.ring_node(s));
            assert!(a.ring_node(s).unwrap() < 4);
        }
    }

    #[test]
    fn ring_spreads_sessions_across_nodes() {
        let r = ring_of(&["cache0", "cache1", "cache2", "cache3"]);
        let mut counts = [0usize; 4];
        for s in 0..4000u64 {
            counts[r.ring_node(s).unwrap()] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            assert!(
                *c > 400,
                "node {i} got {c}/4000 sessions — ring badly unbalanced: {counts:?}"
            );
        }
    }

    #[test]
    fn removing_a_node_only_remaps_its_own_sessions() {
        let full = ring_of(&["cache0", "cache1", "cache2", "cache3"]);
        // cache2 crashes: rebuild without it, same names for the rest.
        let mut reduced = Router::new();
        reduced.rebuild(&[
            (0, "cache0".into()),
            (1, "cache1".into()),
            (3, "cache3".into()),
        ]);
        let mut moved = 0;
        for s in 0..4000u64 {
            let before = full.ring_node(s).unwrap();
            let after = reduced.ring_node(s).unwrap();
            if before != 2 {
                assert_eq!(before, after, "session {s} moved though its node survived");
            } else {
                assert_ne!(after, 2);
                moved += 1;
            }
        }
        assert!(moved > 0, "some sessions must have lived on cache2");
    }

    #[test]
    fn affinity_pins_survive_other_nodes_crashing() {
        let mut r = ring_of(&["cache0", "cache1", "cache2"]);
        // Pin every session once.
        let placements: Vec<(u64, usize)> =
            (0..300u64).map(|s| (s, r.place(s).unwrap())).collect();
        // Crash cache1.
        r.rebuild(&[(0, "cache0".into()), (2, "cache2".into())]);
        let evicted = r.evict_node(1);
        assert!(evicted > 0);
        assert_eq!(r.reroutes(), evicted as u64);
        for (s, before) in placements {
            let after = r.place(s).unwrap();
            if before != 1 {
                assert_eq!(before, after, "pinned session {s} must not move");
            } else {
                assert_ne!(after, 1, "session {s} must leave the dead node");
            }
        }
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
