//! A hash map that remembers recency: O(1) lookup, touch, insert, removal
//! and eviction of the least-recently-used entry.
//!
//! The plan cache, the result cache and the statement cache all bound
//! themselves by evicting what was used longest ago. Entries live in a slab
//! (`Vec` of slots) threaded into a doubly linked list by slot index —
//! least-recently-used at the head, most-recently-used at the tail — and a
//! `HashMap` takes a key to its slot. Nothing is ever searched for: a touch
//! unlinks one slot and relinks it at the tail.
//!
//! A key is held twice (in the map and in its slot), so `K: Clone`; callers
//! with long keys use a shared pointer (`Arc<str>`) or key the map by a hash
//! they computed once, with [`PreHashed`] as the map's hasher.

use std::borrow::Borrow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};

/// "No slot": the end of the list in either direction.
const NIL: usize = usize::MAX;

/// The hasher of a map keyed by `u64`s that already are hashes: the key is
/// its own hash.
#[derive(Default)]
pub struct PreHashed(u64);

impl Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = x;
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("PreHashed only accepts u64 keys");
    }
}

pub type PreHashedBuild = BuildHasherDefault<PreHashed>;

struct Slot<K, V> {
    key: K,
    value: V,
    /// Towards the least-recently-used end.
    prev: usize,
    /// Towards the most-recently-used end.
    next: usize,
}

/// Where an entry is ([`LruMap::find`]), until the map's next insert or
/// removal.
#[derive(Clone, Copy)]
pub struct At(usize);

/// A map ordered by recency of use. [`get`](LruMap::get) and
/// [`insert`](LruMap::insert) make an entry the most recently used;
/// [`peek`](LruMap::peek) and iteration leave the order alone.
pub struct LruMap<K, V, S = RandomState> {
    index: HashMap<K, usize, S>,
    slots: Vec<Option<Slot<K, V>>>,
    /// Vacated slots, reused before the slab grows.
    free: Vec<usize>,
    /// Least-recently-used slot.
    head: usize,
    /// Most-recently-used slot.
    tail: usize,
}

impl<K, V, S: Default> Default for LruMap<K, V, S> {
    fn default() -> LruMap<K, V, S> {
        LruMap {
            index: HashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }
}

impl<K: Hash + Eq + Clone, V> LruMap<K, V> {
    pub fn new() -> LruMap<K, V> {
        LruMap::default()
    }
}

impl<K: Hash + Eq + Clone, V, S: BuildHasher + Default> LruMap<K, V, S> {
    pub fn len(&self) -> usize {
        self.index.len()
    }

    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    fn slot(&self, at: usize) -> &Slot<K, V> {
        self.slots[at].as_ref().expect("linked slot is occupied")
    }

    fn slot_mut(&mut self, at: usize) -> &mut Slot<K, V> {
        self.slots[at].as_mut().expect("linked slot is occupied")
    }

    /// Takes slot `at` out of the recency list (it stays in the slab).
    fn unlink(&mut self, at: usize) {
        let (prev, next) = {
            let s = self.slot(at);
            (s.prev, s.next)
        };
        match prev {
            NIL => self.head = next,
            p => self.slot_mut(p).next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slot_mut(n).prev = prev,
        }
    }

    /// Links slot `at` in as the most recently used.
    fn link_last(&mut self, at: usize) {
        let tail = self.tail;
        {
            let s = self.slot_mut(at);
            s.prev = tail;
            s.next = NIL;
        }
        match tail {
            NIL => self.head = at,
            t => self.slot_mut(t).next = at,
        }
        self.tail = at;
    }

    /// The value under `key`, which becomes the most recently used entry.
    pub fn get<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let at = self.find(key)?;
        self.touch(at);
        Some(self.at_mut(at))
    }

    /// Where the entry under `key` is: one probe of the map, after which
    /// `at_mut`, `touch` and `remove_at` go straight to it.
    pub fn find<Q>(&self, key: &Q) -> Option<At>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.index.get(key).map(|&at| At(at))
    }

    /// The value at `at`.
    pub fn at_mut(&mut self, at: At) -> &mut V {
        &mut self.slot_mut(at.0).value
    }

    /// Makes the entry at `at` the most recently used.
    pub fn touch(&mut self, At(at): At) {
        if at != self.tail {
            self.unlink(at);
            self.link_last(at);
        }
    }

    /// Removes the entry at `at`.
    pub fn remove_at(&mut self, At(at): At) -> (K, V) {
        self.unlink(at);
        self.free.push(at);
        let slot = self.slots[at].take().expect("linked slot is occupied");
        self.index.remove(&slot.key);
        (slot.key, slot.value)
    }

    /// The value under `key`; the recency order is left as it is.
    pub fn peek<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.index.get(key).map(|&at| &self.slot(at).value)
    }

    /// Stores `value` under `key` as the most recently used entry and
    /// returns the value it replaces, if any.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        if let Some(&at) = self.index.get(&key) {
            if at != self.tail {
                self.unlink(at);
                self.link_last(at);
            }
            return Some(std::mem::replace(&mut self.slot_mut(at).value, value));
        }
        let slot = Some(Slot {
            key: key.clone(),
            value,
            prev: NIL,
            next: NIL,
        });
        let at = match self.free.pop() {
            Some(at) => {
                self.slots[at] = slot;
                at
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        };
        self.index.insert(key, at);
        self.link_last(at);
        None
    }

    /// Removes the entry under `key`.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let at = self.find(key)?;
        Some(self.remove_at(at).1)
    }

    /// Removes and returns the least-recently-used entry.
    pub fn pop_lru(&mut self) -> Option<(K, V)> {
        (self.head != NIL).then(|| self.remove_at(At(self.head)))
    }

    /// Every entry, least recently used first.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        let mut at = self.head;
        std::iter::from_fn(move || {
            if at == NIL {
                return None;
            }
            let s = self.slot(at);
            at = s.next;
            Some((&s.key, &s.value))
        })
    }

    /// Drops every entry and the slab's storage.
    pub fn clear(&mut self) {
        *self = LruMap::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{self, Config};
    use crate::rng::Rng;

    #[test]
    fn pre_hashed_is_identity_on_u64() {
        assert_eq!(
            PreHashedBuild::default().hash_one(0xdead_beefu64),
            0xdead_beef
        );
    }

    fn keys(m: &LruMap<u32, u32>) -> Vec<u32> {
        m.iter().map(|(k, _)| *k).collect()
    }

    #[test]
    fn get_and_insert_touch_peek_does_not() {
        let mut m = LruMap::new();
        for k in 1..=3 {
            assert_eq!(m.insert(k, k * 10), None);
        }
        assert_eq!(keys(&m), [1, 2, 3]);
        assert_eq!(m.peek(&1), Some(&10));
        assert_eq!(keys(&m), [1, 2, 3], "a peek is not a use");
        assert_eq!(m.get(&1).copied(), Some(10));
        assert_eq!(keys(&m), [2, 3, 1]);
        assert_eq!(m.insert(2, 21), Some(20), "replacing is a use");
        assert_eq!(keys(&m), [3, 1, 2]);
        assert_eq!(m.pop_lru(), Some((3, 30)));
        assert_eq!(m.remove(&1), Some(10));
        assert_eq!(m.remove(&1), None);
        assert_eq!(keys(&m), [2]);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn vacated_slots_are_reused() {
        let mut m = LruMap::new();
        for round in 0..100u32 {
            m.insert(round, round);
            if round >= 4 {
                m.pop_lru();
            }
        }
        assert_eq!(m.len(), 4);
        assert!(m.slots.len() <= 5, "the slab does not grow with churn");
        m.clear();
        assert!(m.is_empty());
        assert_eq!(m.pop_lru(), None);
    }

    /// Against the obvious model: a `Vec` of pairs, least recent first.
    #[test]
    fn agrees_with_a_vec_model() {
        check::run(
            &Config::cases(64),
            "lru_agrees_with_a_vec_model",
            |rng| {
                check::vec_of(rng, 1..200, |r| {
                    (r.gen_range(0u32..5), r.gen_range(0u32..12))
                })
            },
            |ops| {
                let mut lru: LruMap<u32, u32> = LruMap::new();
                let mut model: Vec<(u32, u32)> = Vec::new();
                for (i, &(op, k)) in ops.iter().enumerate() {
                    let at = model.iter().position(|(mk, _)| *mk == k);
                    match op {
                        0 => {
                            let old = at.map(|at| model.remove(at).1);
                            model.push((k, i as u32));
                            assert_eq!(lru.insert(k, i as u32), old);
                        }
                        1 => {
                            let hit = at.map(|at| {
                                let e = model.remove(at);
                                model.push(e);
                                e.1
                            });
                            assert_eq!(lru.get(&k).copied(), hit);
                        }
                        2 => assert_eq!(lru.peek(&k).copied(), at.map(|at| model[at].1)),
                        3 => assert_eq!(lru.remove(&k), at.map(|at| model.remove(at).1)),
                        _ => {
                            let lru_end = (!model.is_empty()).then(|| model.remove(0));
                            assert_eq!(lru.pop_lru(), lru_end);
                        }
                    }
                    let order: Vec<(u32, u32)> = lru.iter().map(|(k, v)| (*k, *v)).collect();
                    assert_eq!(order, model);
                    assert_eq!(lru.len(), model.len());
                }
            },
        );
    }
}
