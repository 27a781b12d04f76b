//! A bounded LRU cache of hot `(src, dst)` answers.
//!
//! The gateway consults the cache at intake, before a query is ever
//! routed to a shard, so a hot pair costs one map probe instead of a
//! network round trip — under Zipf-skewed load most traffic collapses
//! onto a few pairs and the hit rate is what buys the QPS headroom
//! (EXPERIMENTS.md E19 measures exactly this curve).
//!
//! Implementation: a hand-rolled intrusive LRU — a slot arena with an
//! embedded doubly-linked recency list and a `HashMap` from key to
//! slot. All operations are O(1); no external crates (the build is
//! offline). One entry can hold the distance alone or the distance plus
//! the reconstructed path: a path-bearing entry answers both query
//! flavors, a distance-only entry answers distance queries and upgrades
//! in place when a path reply comes back.

use dw_graph::{NodeId, Weight, INFINITY};
use std::collections::HashMap;

/// A cached answer for one `(src, dst)` pair. `dist == INFINITY` means
/// "known unreachable" (which answers path queries too — there is no
/// path to reconstruct).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedAnswer {
    pub dist: Weight,
    pub path: Option<Vec<NodeId>>,
}

impl CachedAnswer {
    /// Can this entry answer a query of the given flavor?
    fn answers(&self, want_path: bool) -> bool {
        !want_path || self.path.is_some() || self.dist == INFINITY
    }
}

const NIL: u32 = u32::MAX;

struct Slot {
    key: (NodeId, NodeId),
    value: CachedAnswer,
    /// The snapshot generation the answer was computed against. A table
    /// swap bumps the cache's current generation; entries stamped with
    /// an older one are facts about a graph that no longer exists and
    /// are treated as misses (and reclaimed) on their next probe.
    gen: u64,
    prev: u32,
    next: u32,
}

/// Bounded LRU over `(src, dst)` keys. `capacity == 0` disables
/// caching entirely (every lookup misses, nothing is stored).
///
/// Entries are keyed by snapshot generation: [`PathCache::set_generation`]
/// invalidates every older entry lazily, in O(1), without walking the
/// arena — stale slots die on first touch.
pub struct PathCache {
    capacity: usize,
    map: HashMap<(NodeId, NodeId), u32>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    head: u32, // most recently used
    tail: u32, // least recently used
    generation: u64,
}

impl PathCache {
    pub fn new(capacity: usize) -> PathCache {
        PathCache {
            capacity,
            map: HashMap::with_capacity(capacity.min(1 << 20)),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            generation: 0,
        }
    }

    /// The generation new entries are stamped with.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Move the cache to a new snapshot generation. Every entry stamped
    /// with an older generation is invalid from this point on; they are
    /// reclaimed lazily as probes touch them.
    pub fn set_generation(&mut self, generation: u64) {
        self.generation = generation;
    }

    /// Drop every entry, keeping the capacity and the generation.
    pub fn clear(&mut self) {
        let generation = self.generation;
        *self = PathCache::new(self.capacity);
        self.generation = generation;
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn unlink(&mut self, i: u32) {
        let (prev, next) = {
            let s = &self.slots[i as usize];
            (s.prev, s.next)
        };
        if prev != NIL {
            self.slots[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slots[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: u32) {
        let old_head = self.head;
        {
            let s = &mut self.slots[i as usize];
            s.prev = NIL;
            s.next = old_head;
        }
        if old_head != NIL {
            self.slots[old_head as usize].prev = i;
        } else {
            self.tail = i;
        }
        self.head = i;
    }

    /// Look up an answer able to serve a query of the given flavor.
    /// Refreshes recency on a hit. An entry from a stale generation is
    /// a miss — its slot is freed on the spot. The gateway counts hits
    /// and misses in its `ServeStats`.
    pub fn get(&mut self, src: NodeId, dst: NodeId, want_path: bool) -> Option<CachedAnswer> {
        match self.map.get(&(src, dst)).copied() {
            Some(i) if self.slots[i as usize].gen != self.generation => {
                self.unlink(i);
                self.map.remove(&(src, dst));
                self.free.push(i);
                None
            }
            Some(i) if self.slots[i as usize].value.answers(want_path) => {
                self.unlink(i);
                self.push_front(i);
                Some(self.slots[i as usize].value.clone())
            }
            _ => None,
        }
    }

    /// Insert or upgrade the answer for `(src, dst)`, evicting the
    /// least-recently-used entry when at capacity. An existing
    /// path-bearing entry is never downgraded to distance-only.
    pub fn put(&mut self, src: NodeId, dst: NodeId, value: CachedAnswer) {
        if self.capacity == 0 {
            return;
        }
        if let Some(&i) = self.map.get(&(src, dst)) {
            let slot = &mut self.slots[i as usize];
            // A stale-generation slot is overwritten outright (its old
            // answer must never resurface); a current-generation
            // path-bearing entry is never downgraded to distance-only.
            if slot.gen != self.generation || value.path.is_some() || slot.value.path.is_none() {
                slot.value = value;
            }
            slot.gen = self.generation;
            self.unlink(i);
            self.push_front(i);
            return;
        }
        let i = if self.map.len() >= self.capacity {
            // Evict the LRU tail and reuse its slot.
            let victim = self.tail;
            self.unlink(victim);
            let key = self.slots[victim as usize].key;
            self.map.remove(&key);
            self.slots[victim as usize].key = (src, dst);
            self.slots[victim as usize].value = value;
            self.slots[victim as usize].gen = self.generation;
            victim
        } else if let Some(i) = self.free.pop() {
            self.slots[i as usize].key = (src, dst);
            self.slots[i as usize].value = value;
            self.slots[i as usize].gen = self.generation;
            i
        } else {
            let i = self.slots.len() as u32;
            self.slots.push(Slot {
                key: (src, dst),
                value,
                gen: self.generation,
                prev: NIL,
                next: NIL,
            });
            i
        };
        self.map.insert((src, dst), i);
        self.push_front(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(d: Weight) -> CachedAnswer {
        CachedAnswer {
            dist: d,
            path: None,
        }
    }

    #[test]
    fn hits_misses_and_recency() {
        let mut c = PathCache::new(2);
        assert_eq!(c.get(0, 1, false), None);
        c.put(0, 1, dist(5));
        c.put(0, 2, dist(7));
        assert_eq!(c.get(0, 1, false), Some(dist(5)));
        // (0,2) is now LRU; inserting a third pair evicts it.
        c.put(0, 3, dist(9));
        assert_eq!(c.len(), 2);
        assert_eq!(c.get(0, 2, false), None);
        assert_eq!(c.get(0, 1, false), Some(dist(5)));
        assert_eq!(c.get(0, 3, false), Some(dist(9)));
    }

    #[test]
    fn dist_entry_does_not_answer_path_queries() {
        let mut c = PathCache::new(4);
        c.put(1, 2, dist(4));
        assert_eq!(c.get(1, 2, true), None); // path wanted, none cached
        assert_eq!(c.get(1, 2, false), Some(dist(4)));
        let full = CachedAnswer {
            dist: 4,
            path: Some(vec![1, 2]),
        };
        c.put(1, 2, full.clone());
        assert_eq!(c.get(1, 2, true), Some(full.clone()));
        // A later dist-only put must not erase the path.
        c.put(1, 2, dist(4));
        assert_eq!(c.get(1, 2, true), Some(full));
    }

    #[test]
    fn unreachable_answers_both_flavors() {
        let mut c = PathCache::new(4);
        c.put(3, 9, dist(INFINITY));
        assert_eq!(c.get(3, 9, true), Some(dist(INFINITY)));
        assert_eq!(c.get(3, 9, false), Some(dist(INFINITY)));
    }

    #[test]
    fn generation_bump_invalidates_stale_entries() {
        let mut c = PathCache::new(4);
        c.put(0, 1, dist(5));
        c.put(0, 2, dist(7));
        assert_eq!(c.get(0, 1, false), Some(dist(5)));
        c.set_generation(1);
        // Every pre-swap entry is now a miss, and its slot is freed.
        assert_eq!(c.get(0, 1, false), None);
        assert_eq!(c.get(0, 2, false), None);
        assert_eq!(c.len(), 0);
        // Post-swap answers cache normally under the new generation.
        c.put(0, 1, dist(9));
        assert_eq!(c.get(0, 1, false), Some(dist(9)));
    }

    #[test]
    fn stale_path_entry_is_overwritten_not_upgraded() {
        let mut c = PathCache::new(4);
        c.put(
            1,
            2,
            CachedAnswer {
                dist: 4,
                path: Some(vec![1, 2]),
            },
        );
        c.set_generation(3);
        // A distance-only put after the swap must replace the stale
        // path answer entirely — the old path is from a dead graph.
        c.put(1, 2, dist(6));
        assert_eq!(c.get(1, 2, false), Some(dist(6)));
        assert_eq!(c.get(1, 2, true), None);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = PathCache::new(0);
        c.put(0, 1, dist(5));
        assert_eq!(c.len(), 0);
        assert_eq!(c.get(0, 1, false), None);
    }

    #[test]
    fn heavy_churn_keeps_len_bounded() {
        let mut c = PathCache::new(8);
        for i in 0..1000u32 {
            c.put(i % 16, i / 16, dist(i as Weight));
            let _ = c.get(i % 16, 0, false);
        }
        assert!(c.len() <= 8);
    }
}
