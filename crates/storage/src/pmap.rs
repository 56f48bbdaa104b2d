//! A persistent ordered map: the one container behind [`Table`]'s rows and
//! [`Index`]'s entries.
//!
//! An entry carries its own key (a table row holds its primary-key columns,
//! an index entry its indexed columns), so the map stores entries only and
//! its users say where an entry belongs with a predicate, the way
//! `slice::partition_point` is used: [`PMap::partition_point`] finds a
//! [`Pos`], and `get` / `insert` / `remove` / `replace` / `between` work at
//! positions. The map keeps whatever order its user inserts in.
//!
//! Entries sit in chunks of at most [`CHUNK`], each chunk behind an `Arc`;
//! the map itself is the vector of chunks (its directory). `clone` copies
//! the directory — one reference-count bump per chunk, no entry is touched
//! — and a write copies only the chunk it lands in, and only when some
//! clone still shares that chunk. That is what lets [`SnapshotDb`] publish
//! an image per write batch at a cost proportional to the rows the batch
//! changed: the published image and the writer's master share every chunk
//! neither of them has written since.
//!
//! [`Table`]: crate::Table
//! [`Index`]: crate::Index
//! [`SnapshotDb`]: crate::SnapshotDb

use std::slice;
use std::sync::Arc;

/// Entries per chunk, at most. Every chunk's `Vec` is allocated at this
/// capacity and a full chunk is split *before* an insert, so a chunk never
/// reallocates — neither in place nor when copy-on-write duplicates it.
const CHUNK: usize = 64;

type Chunk<E> = Arc<Vec<E>>;

/// Invariants: no chunk is empty; `len` is the total number of entries.
#[derive(Debug)]
pub struct PMap<E> {
    chunks: Vec<Chunk<E>>,
    len: usize,
}

/// Where an entry is, or would go. Positions order like the entries they
/// name and stay valid until the map is next written to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Pos {
    chunk: usize,
    at: usize,
}

impl<E> Clone for PMap<E> {
    fn clone(&self) -> PMap<E> {
        PMap {
            chunks: self.chunks.clone(),
            len: self.len,
        }
    }
}

impl<E> Default for PMap<E> {
    fn default() -> PMap<E> {
        PMap {
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<E> PMap<E> {
    pub fn new() -> PMap<E> {
        PMap::default()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn clear(&mut self) {
        self.chunks.clear();
        self.len = 0;
    }

    /// The position of the first entry.
    pub fn start(&self) -> Pos {
        Pos { chunk: 0, at: 0 }
    }

    /// The position past the last entry.
    pub fn end(&self) -> Pos {
        Pos {
            chunk: self.chunks.len(),
            at: 0,
        }
    }

    /// The position of the first entry `precedes` is false for (`end()` if
    /// there is none), given that it is true for every entry before that
    /// one and false for every entry after: a binary search over the
    /// directory by each chunk's last entry, then one inside the chunk.
    pub fn partition_point(&self, mut precedes: impl FnMut(&E) -> bool) -> Pos {
        let chunk = self
            .chunks
            .partition_point(|c| c.last().is_some_and(&mut precedes));
        match self.chunks.get(chunk) {
            Some(c) => Pos {
                chunk,
                at: c.partition_point(precedes),
            },
            None => self.end(),
        }
    }

    /// [`partition_point`](Self::partition_point) over the entries from
    /// `from` on, galloping forward from `from`: O(log k) calls of
    /// `precedes` for an answer k entries on, never one per entry.
    pub fn partition_point_from(&self, from: Pos, mut precedes: impl FnMut(&E) -> bool) -> Pos {
        let Some(c) = self.chunks.get(from.chunk) else {
            return self.end();
        };
        if !c.last().is_some_and(&mut precedes) {
            let at = from.at + gallop(&c[from.at..], precedes);
            return Pos {
                chunk: from.chunk,
                at,
            };
        }
        let rest = &self.chunks[from.chunk + 1..];
        let chunk = from.chunk + 1 + gallop(rest, |c| c.last().is_some_and(&mut precedes));
        let at = |c: &Chunk<E>| Pos {
            chunk,
            at: c.partition_point(precedes),
        };
        self.chunks.get(chunk).map_or(self.end(), at)
    }

    pub fn get(&self, pos: Pos) -> Option<&E> {
        self.chunks.get(pos.chunk)?.get(pos.at)
    }

    /// All entries in order.
    pub fn iter(&self) -> Iter<'_, E> {
        self.between(self.start(), self.end())
    }

    /// The entries from `from` up to, not including, `to`; nothing when
    /// `from` is not before `to`.
    pub fn between(&self, from: Pos, to: Pos) -> Iter<'_, E> {
        let none: &[E] = &[];
        let (front, middle, back) = if from >= to {
            (none, &[][..], none)
        } else if from.chunk == to.chunk {
            (&self.chunks[from.chunk][from.at..to.at], &[][..], none)
        } else {
            (
                &self.chunks[from.chunk][from.at..],
                &self.chunks[from.chunk + 1..to.chunk],
                self.chunks.get(to.chunk).map_or(none, |c| &c[..to.at]),
            )
        };
        Iter {
            front: front.iter(),
            middle: middle.iter(),
            back: back.iter(),
        }
    }

    /// The entries from `from` on, each with its position.
    pub fn entries_from(&self, from: Pos) -> impl Iterator<Item = (Pos, &E)> + '_ {
        let chunks = self.chunks.get(from.chunk..).unwrap_or(&[]);
        chunks.iter().enumerate().flat_map(move |(i, c)| {
            let chunk = from.chunk + i;
            let skip = if i == 0 { from.at } else { 0 };
            let entries = c.iter().enumerate().skip(skip);
            entries.map(move |(at, e)| (Pos { chunk, at }, e))
        })
    }

    /// The address of every chunk, in order: what tests compare to pin
    /// which chunks two clones still share.
    pub fn chunk_addrs(&self) -> impl Iterator<Item = usize> + '_ {
        self.chunks.iter().map(|c| Arc::as_ptr(c) as usize)
    }
}

/// `items.partition_point(precedes)`, probing items 1, 2, 4, … until one
/// fails and bisecting the last doubling: ≈ 2·log2(k) calls for answer k.
fn gallop<T>(items: &[T], mut precedes: impl FnMut(&T) -> bool) -> usize {
    let mut bound = 1;
    while bound <= items.len() && precedes(&items[bound - 1]) {
        bound *= 2;
    }
    let (lo, hi) = (bound / 2, bound.min(items.len()));
    lo + items[lo..hi].partition_point(precedes)
}

/// Exclusive access to a chunk's entries: in place when this map is the
/// chunk's only owner, otherwise on a fresh copy that replaces it here.
fn make_mut<E: Clone>(chunk: &mut Chunk<E>) -> &mut Vec<E> {
    if Arc::get_mut(chunk).is_none() {
        let mut copy = Vec::with_capacity(CHUNK);
        copy.extend(chunk.iter().cloned());
        *chunk = Arc::new(copy);
    }
    Arc::get_mut(chunk).expect("sole owner: checked or just copied")
}

impl<E: Clone> PMap<E> {
    /// Puts `entry` at `pos`, before the entry that is there now.
    pub fn insert(&mut self, pos: Pos, entry: E) {
        self.len += 1;
        if pos.chunk == self.chunks.len() {
            // Past the last entry. A full last chunk stays full and a new
            // one is started, so an ascending load leaves no half-empty
            // chunks.
            match self.chunks.last_mut() {
                Some(last) if last.len() < CHUNK => make_mut(last).push(entry),
                _ => {
                    let mut entries = Vec::with_capacity(CHUNK);
                    entries.push(entry);
                    self.chunks.push(Arc::new(entries));
                }
            }
            return;
        }
        let chunk = make_mut(&mut self.chunks[pos.chunk]);
        if chunk.len() < CHUNK {
            chunk.insert(pos.at, entry);
            return;
        }
        let mut upper = Vec::with_capacity(CHUNK);
        upper.extend(chunk.drain(CHUNK / 2..));
        if pos.at <= CHUNK / 2 {
            chunk.insert(pos.at, entry);
        } else {
            upper.insert(pos.at - CHUNK / 2, entry);
        }
        self.chunks.insert(pos.chunk + 1, Arc::new(upper));
    }

    /// Swaps the entry at `pos` for `entry`, returning the old one.
    ///
    /// # Panics
    /// If there is no entry at `pos`.
    pub fn replace(&mut self, pos: Pos, entry: E) -> E {
        std::mem::replace(&mut make_mut(&mut self.chunks[pos.chunk])[pos.at], entry)
    }

    /// Takes out the entry at `pos`.
    ///
    /// # Panics
    /// If there is no entry at `pos`.
    pub fn remove(&mut self, pos: Pos) -> E {
        let c = pos.chunk;
        let entry = make_mut(&mut self.chunks[c]).remove(pos.at);
        self.len -= 1;
        if self.chunks[c].is_empty() {
            self.chunks.remove(c);
            return entry;
        }
        // Fold the chunk and a neighbour into one when together they fill
        // no more than half of it, so deletions cannot leave the directory
        // full of near-empty chunks.
        let left = if c + 1 < self.chunks.len() {
            c
        } else {
            c.saturating_sub(1)
        };
        if left + 1 < self.chunks.len()
            && self.chunks[left].len() + self.chunks[left + 1].len() <= CHUNK / 2
        {
            let right = self.chunks.remove(left + 1);
            make_mut(&mut self.chunks[left]).extend(right.iter().cloned());
        }
        entry
    }
}

/// Double-ended iterator over a run of entries: the rest of the first
/// chunk, whole chunks in between, the start of the last chunk (by default,
/// none).
#[derive(Debug, Default)]
pub struct Iter<'a, E> {
    front: slice::Iter<'a, E>,
    middle: slice::Iter<'a, Chunk<E>>,
    back: slice::Iter<'a, E>,
}

impl<'a, E> Iterator for Iter<'a, E> {
    type Item = &'a E;

    fn next(&mut self) -> Option<&'a E> {
        loop {
            if let Some(e) = self.front.next() {
                return Some(e);
            }
            match self.middle.next() {
                Some(chunk) => self.front = chunk.iter(),
                None => return self.back.next(),
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let ends = self.front.len() + self.back.len();
        let whole = self.middle.len();
        (ends + whole, Some(ends + whole * CHUNK))
    }
}

impl<E> DoubleEndedIterator for Iter<'_, E> {
    fn next_back(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(e) = self.back.next_back() {
                return Some(e);
            }
            match self.middle.next_back() {
                Some(chunk) => self.back = chunk.iter(),
                None => return self.front.next_back(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::ops::Bound;

    use mtc_util::check::{self, Config};
    use mtc_util::rng::{Rng, StdRng};

    type Map = PMap<(u16, u32)>;

    // A `BTreeMap<u16, u32>` worth of operations over `(key, value)`
    // entries kept sorted by key — how `Table` uses the map.

    fn lower(map: &Map, k: u16) -> Pos {
        map.partition_point(|e| e.0 < k)
    }

    fn upper(map: &Map, k: u16) -> Pos {
        map.partition_point(|e| e.0 <= k)
    }

    fn upper_from(map: &Map, from: Pos, k: u16) -> Pos {
        map.partition_point_from(from, |e| e.0 <= k)
    }

    fn find(map: &Map, k: u16) -> Option<Pos> {
        let pos = lower(map, k);
        map.get(pos).is_some_and(|e| e.0 == k).then_some(pos)
    }

    fn get(map: &Map, k: u16) -> Option<&u32> {
        find(map, k).and_then(|pos| map.get(pos)).map(|e| &e.1)
    }

    fn insert(map: &mut Map, k: u16, v: u32) -> Option<u32> {
        match find(map, k) {
            Some(pos) => Some(map.replace(pos, (k, v)).1),
            None => {
                map.insert(lower(map, k), (k, v));
                None
            }
        }
    }

    fn remove(map: &mut Map, k: u16) -> Option<u32> {
        find(map, k).map(|pos| map.remove(pos).1)
    }

    fn range(map: &Map, low: Bound<u16>, high: Bound<u16>) -> Iter<'_, (u16, u32)> {
        let from = match low {
            Bound::Unbounded => map.start(),
            Bound::Included(k) => lower(map, k),
            Bound::Excluded(k) => upper(map, k),
        };
        // The high end gallops from the low one, as `Table` and `Index`
        // seek; it lands where a descent from the top does, or at `from`
        // when the range is inverted.
        let (to, descended) = match high {
            Bound::Unbounded => (map.end(), map.end()),
            Bound::Included(k) => (upper_from(map, from, k), upper(map, k)),
            Bound::Excluded(k) => (map.partition_point_from(from, |e| e.0 < k), lower(map, k)),
        };
        assert_eq!(to, descended.max(from));
        map.between(from, to)
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u16, u32),
        Remove(u16),
        Get(u16),
        Range(Bound<u16>, Bound<u16>),
        /// Take a clone now; it is compared with the model of this moment
        /// after every later operation has run.
        Hold,
    }

    fn gen_bound(rng: &mut StdRng, keys: u16) -> Bound<u16> {
        let k = rng.gen_range(0..keys);
        match rng.gen_range(0u32..5) {
            0 => Bound::Unbounded,
            1 | 2 => Bound::Included(k),
            _ => Bound::Excluded(k),
        }
    }

    /// Streams over a key space small enough to overwrite and remove what
    /// was inserted, and long enough to split, empty and merge chunks.
    fn gen_ops(rng: &mut StdRng) -> Vec<Op> {
        let keys = *rng.choose(&[8u16, 200, 2000]).expect("non-empty");
        check::vec_of(rng, 1..1500, |rng| match rng.gen_range(0u32..100) {
            0..=44 => Op::Insert(rng.gen_range(0..keys), rng.gen_range(0u32..1000)),
            45..=74 => Op::Remove(rng.gen_range(0..keys)),
            75..=84 => Op::Get(rng.gen_range(0..keys)),
            85..=97 => Op::Range(gen_bound(rng, keys), gen_bound(rng, keys)),
            _ => Op::Hold,
        })
    }

    /// What `BTreeMap::range` would return, had it defined bounds that
    /// select nothing as empty instead of panicking on them.
    fn model_range(
        model: &BTreeMap<u16, u32>,
        low: Bound<u16>,
        high: Bound<u16>,
    ) -> Vec<(u16, u32)> {
        let selects_nothing = match (low, high) {
            (Bound::Unbounded, _) | (_, Bound::Unbounded) => false,
            (Bound::Included(l), Bound::Included(h)) => l > h,
            (Bound::Included(l) | Bound::Excluded(l), Bound::Included(h) | Bound::Excluded(h)) => {
                l >= h
            }
        };
        if selects_nothing {
            return Vec::new();
        }
        model.range((low, high)).map(|(k, v)| (*k, *v)).collect()
    }

    fn check_invariants(map: &Map) {
        assert!(map.chunks.iter().all(|c| !c.is_empty() && c.len() <= CHUNK));
        assert!(map.chunks.iter().all(|c| c.capacity() == CHUNK));
        assert_eq!(map.chunks.iter().map(|c| c.len()).sum::<usize>(), map.len());
        assert!(map.iter().zip(map.iter().skip(1)).all(|(a, b)| a.0 < b.0));
        let walked: Vec<_> = map.entries_from(map.start()).collect();
        assert_eq!(walked.len(), map.len());
        assert!(walked.iter().all(|(pos, e)| map.get(*pos) == Some(*e)));
    }

    #[test]
    fn agrees_with_btreemap_and_held_clones_never_change() {
        check::run(
            &Config::cases(96),
            "agrees_with_btreemap_and_held_clones_never_change",
            gen_ops,
            |ops| {
                let mut map = Map::new();
                let mut model: BTreeMap<u16, u32> = BTreeMap::new();
                let mut held = Vec::new();
                for op in ops {
                    match *op {
                        Op::Insert(k, v) => assert_eq!(insert(&mut map, k, v), model.insert(k, v)),
                        Op::Remove(k) => assert_eq!(remove(&mut map, k), model.remove(&k)),
                        Op::Get(k) => assert_eq!(get(&map, k), model.get(&k)),
                        Op::Range(low, high) => {
                            let want = model_range(&model, low, high);
                            let got: Vec<_> = range(&map, low, high).copied().collect();
                            assert_eq!(got, want);
                            let back: Vec<_> = range(&map, low, high).rev().copied().collect();
                            assert_eq!(back, want.into_iter().rev().collect::<Vec<_>>());
                        }
                        Op::Hold => held.push((map.clone(), model.clone())),
                    }
                    assert_eq!(map.len(), model.len());
                }
                held.push((map, model));
                for (map, model_then) in held {
                    check_invariants(&map);
                    let entries: Vec<_> = map.iter().copied().collect();
                    assert_eq!(entries, model_then.into_iter().collect::<Vec<_>>());
                }
            },
        );
    }

    #[test]
    fn iterator_meets_in_the_middle() {
        let mut map = Map::new();
        for k in 0..300u16 {
            insert(&mut map, k, u32::from(k));
        }
        let mut it = range(&map, Bound::Included(10), Bound::Excluded(290));
        let mut seen = Vec::new();
        while let (Some(f), Some(b)) = (it.next(), it.next_back()) {
            seen.push(f.0);
            seen.push(b.0);
        }
        assert!(it.next().is_none() && it.next_back().is_none());
        seen.sort_unstable();
        assert_eq!(seen, (10..290).collect::<Vec<u16>>());
    }

    #[test]
    fn ascending_load_fills_chunks() {
        let mut map = PMap::new();
        for k in 0..(CHUNK as u32 * 10) {
            map.insert(map.end(), k);
        }
        assert_eq!(map.chunks.len(), 10);
    }

    #[test]
    fn a_write_copies_one_chunk_and_leaves_clones_alone() {
        let mut map = Map::new();
        for k in 0..1000u16 {
            insert(&mut map, k, u32::from(k));
        }
        let before = map.clone();
        insert(&mut map, 7, 700);
        remove(&mut map, 500);
        assert_eq!(get(&map, 7), Some(&700));
        assert_eq!(get(&before, 7), Some(&7));
        assert_eq!(get(&before, 500), Some(&500));
        let then: Vec<usize> = before.chunk_addrs().collect();
        let copied = map.chunk_addrs().filter(|a| !then.contains(a)).count();
        assert_eq!(copied, 2, "one chunk per write");
    }
}
