//! A tiny LRU buffer pool over (segment, page) identifiers.
//!
//! The pool holds no data — records live in heap memory — it only simulates
//! which pages would be resident, so that benchmarks can distinguish "scan of
//! clustered slices" (mostly hits) from "pointer-chasing across segments"
//! (mostly misses).
//!
//! Every record read touches a page, so a touch must cost O(1) however
//! large the pool: a hash index maps each resident page to its node in a
//! slab, and the nodes are threaded on a doubly-linked recency list (head =
//! least recently used, tail = most). The replacement policy is exact LRU —
//! the same hits, misses and evictions as a queue scanned front to back
//! (`reference.rs`, the differential test's oracle).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

#[cfg(test)]
mod reference;

/// Identifies a page globally: (segment id, page index within segment).
pub(crate) type PageKey = (u32, u32);

/// No node: the end of the recency list.
const NIL: u32 = u32::MAX;

/// One resident page and its neighbours in recency order.
#[derive(Debug, Clone, Copy)]
struct Node {
    key: PageKey,
    /// Next less recently used node.
    prev: u32,
    /// Next more recently used node.
    next: u32,
}

/// FxHash's multiply-rotate step: page keys are small integers the store
/// hands out itself, never attacker-chosen, so SipHash's flood resistance
/// buys nothing on a path every read takes.
#[derive(Debug, Default, Clone, Copy)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for byte in bytes {
            self.write_u32(u32::from(*byte));
        }
    }

    fn write_u32(&mut self, word: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(word)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[derive(Debug)]
pub(crate) struct BufferPool {
    capacity: usize,
    /// Resident page → its node in `nodes`.
    index: HashMap<PageKey, u32, BuildHasherDefault<PageHasher>>,
    /// One node per resident page; a full pool recycles its LRU node.
    nodes: Vec<Node>,
    /// Least recently used node.
    head: u32,
    /// Most recently used node.
    tail: u32,
    /// Every touch and whether it hit, in order (for the store's tests).
    #[cfg(test)]
    pub(crate) log: Vec<(PageKey, bool)>,
}

impl BufferPool {
    pub fn new(capacity: usize) -> Self {
        BufferPool {
            capacity: capacity.clamp(1, NIL as usize),
            index: HashMap::default(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            #[cfg(test)]
            log: Vec::new(),
        }
    }

    /// Touch a page; returns `true` on a hit, `false` on a miss (page fault).
    pub fn touch(&mut self, key: PageKey) -> bool {
        let hit = self.touch_unlogged(key);
        #[cfg(test)]
        self.log.push((key, hit));
        hit
    }

    fn touch_unlogged(&mut self, key: PageKey) -> bool {
        if let Some(&slot) = self.index.get(&key) {
            if slot != self.tail {
                self.unlink(slot);
                self.link_mru(slot);
            }
            return true;
        }
        let slot = if self.nodes.len() < self.capacity {
            self.nodes.push(Node { key, prev: NIL, next: NIL });
            if self.nodes.len() == self.capacity {
                // Room for twice the resident pages: a full pool's
                // evict-then-insert churn then rehashes in place and never
                // allocates again.
                self.index.reserve(2 * self.capacity - self.index.len());
            }
            (self.nodes.len() - 1) as u32
        } else {
            let lru = self.head;
            self.index.remove(&self.nodes[lru as usize].key);
            self.unlink(lru);
            self.nodes[lru as usize].key = key;
            lru
        };
        self.link_mru(slot);
        self.index.insert(key, slot);
        false
    }

    /// Drop every cached page (e.g. after a snapshot restore).
    pub fn clear(&mut self) {
        self.index.clear();
        self.nodes.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Evict all pages of one segment (segment drop). Rare, so the
    /// survivors are simply re-touched into an empty pool, oldest first.
    pub fn evict_segment(&mut self, segment: u32) {
        let survivors: Vec<PageKey> = self.lru_order().filter(|(s, _)| *s != segment).collect();
        self.clear();
        for key in survivors {
            self.touch(key);
        }
    }

    /// Resident pages, least recently used first.
    pub(crate) fn lru_order(&self) -> impl Iterator<Item = PageKey> + '_ {
        std::iter::successors((self.head != NIL).then_some(self.head), |slot| {
            let next = self.nodes[*slot as usize].next;
            (next != NIL).then_some(next)
        })
        .map(|slot| self.nodes[slot as usize].key)
    }

    fn unlink(&mut self, slot: u32) {
        let Node { prev, next, .. } = self.nodes[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    fn link_mru(&mut self, slot: u32) {
        let node = &mut self.nodes[slot as usize];
        node.prev = self.tail;
        node.next = NIL;
        match self.tail {
            NIL => self.head = slot,
            t => self.nodes[t as usize].next = slot,
        }
        self.tail = slot;
    }

    #[cfg(test)]
    pub fn resident(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn repeated_touch_hits() {
        let mut pool = BufferPool::new(2);
        assert!(!pool.touch((0, 0)));
        assert!(pool.touch((0, 0)));
        assert!(pool.touch((0, 0)));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut pool = BufferPool::new(2);
        pool.touch((0, 0));
        pool.touch((0, 1));
        pool.touch((0, 0)); // 1 is now LRU
        pool.touch((0, 2)); // evicts 1
        assert!(pool.touch((0, 0)), "0 stayed resident");
        assert!(!pool.touch((0, 1)), "1 was evicted");
    }

    #[test]
    fn capacity_of_zero_is_clamped_to_one() {
        let mut pool = BufferPool::new(0);
        assert!(!pool.touch((0, 0)));
        assert!(pool.touch((0, 0)));
        assert_eq!(pool.resident(), 1);
    }

    #[test]
    fn evict_segment_removes_only_that_segment() {
        let mut pool = BufferPool::new(8);
        pool.touch((1, 0));
        pool.touch((2, 0));
        pool.touch((1, 5));
        pool.evict_segment(1);
        assert!(!pool.touch((1, 0)));
        assert!(pool.touch((2, 0)));
    }

    #[derive(Debug, Clone)]
    enum PoolOp {
        /// Segment and a raw page number, folded onto about twice the
        /// capacity so a run mixes hits and misses at every pool size.
        Touch(u32, u32),
        EvictSegment(u32),
        Clear,
    }

    fn pool_op() -> impl Strategy<Value = PoolOp> {
        let touch = || (0u32..3, any::<u32>()).prop_map(|(s, p)| PoolOp::Touch(s, p));
        prop_oneof![
            touch(),
            touch(),
            touch(),
            touch(),
            touch(),
            touch(),
            touch(),
            touch(),
            (0u32..3).prop_map(PoolOp::EvictSegment),
            Just(PoolOp::Clear),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

        /// Random touches, segment evictions and clears, at pool sizes
        /// 1..=300: every touch hits or misses exactly as the scanned queue
        /// does, and the same pages are resident in the same recency order.
        #[test]
        fn touches_match_the_queue_reference(
            capacity in prop_oneof![Just(1usize), 1usize..=300],
            ops in proptest::collection::vec(pool_op(), 1..1200),
        ) {
            let mut pool = BufferPool::new(capacity);
            let mut queue = reference::QueuePool::new(capacity);
            let pages = 2 * capacity as u32 + 2;
            for (step, op) in ops.into_iter().enumerate() {
                match op {
                    PoolOp::Touch(segment, raw) => {
                        let key = (segment, raw % pages);
                        prop_assert_eq!(pool.touch(key), queue.touch(key), "touch {:?} at step {}", key, step);
                    }
                    PoolOp::EvictSegment(segment) => {
                        pool.evict_segment(segment);
                        queue.evict_segment(segment);
                    }
                    PoolOp::Clear => {
                        pool.clear();
                        queue.clear();
                    }
                }
                prop_assert!(pool.lru_order().eq(queue.lru_order()), "residency after step {}", step);
                prop_assert_eq!(pool.index.len(), pool.resident());
            }
        }
    }
}
