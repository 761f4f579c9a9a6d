//! The buffer pool as it was before the hash index: a `VecDeque` scanned
//! front to back on every touch, O(pool) each. Kept only as the oracle the
//! indexed pool is tested against (like the object model's
//! `access/reference.rs`).

use std::collections::VecDeque;

use super::PageKey;

pub(crate) struct QueuePool {
    capacity: usize,
    /// Most-recently-used at the back.
    queue: VecDeque<PageKey>,
}

impl QueuePool {
    pub(crate) fn new(capacity: usize) -> Self {
        QueuePool { capacity: capacity.max(1), queue: VecDeque::new() }
    }

    pub(crate) fn touch(&mut self, key: PageKey) -> bool {
        if let Some(pos) = self.queue.iter().position(|k| *k == key) {
            self.queue.remove(pos);
            self.queue.push_back(key);
            true
        } else {
            if self.queue.len() >= self.capacity {
                self.queue.pop_front();
            }
            self.queue.push_back(key);
            false
        }
    }

    pub(crate) fn clear(&mut self) {
        self.queue.clear();
    }

    pub(crate) fn evict_segment(&mut self, segment: u32) {
        self.queue.retain(|(s, _)| *s != segment);
    }

    /// Resident pages, least recently used first.
    pub(crate) fn lru_order(&self) -> impl Iterator<Item = PageKey> + '_ {
        self.queue.iter().copied()
    }
}
