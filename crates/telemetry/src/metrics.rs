//! The metrics store: one slot per name, sharded by thread.
//!
//! A counter or histogram name resolves once, under the registry lock, to a
//! dense slot. Its value lives in two kinds of place that are summed on
//! read: the domain's **totals** (what callers holding the registry lock
//! record, and what a shard leaves behind when it is folded) and one
//! **shard** per thread that records into the domain. A shard's cells are
//! written only by the thread that owns it, with a relaxed load and store
//! each, so recording through a resolved slot takes no lock and hashes no
//! name. The domain keeps every live shard in a list so a snapshot can sum
//! it; a shard leaves the list, folded into the totals, when its thread's
//! context drops (thread exit, or the idle-context GC).
//!
//! `reset` cannot reach into a shard (no thread but its owner writes one),
//! so it bumps the domain's **generation** instead: a shard still stamped
//! with an older one holds nothing current, is skipped by every sum and
//! fold, and is zeroed by its owner the next time it records.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::hist::{bump, HistCells, Histogram};
use crate::registry::MetricsSnapshot;

/// One thread's cells in one domain.
pub(crate) struct Shard {
    /// The reset generation the cells belong to; stored by the owner after
    /// it zeroes them, so a reader that sees the current generation sees
    /// the zeroing too.
    generation: AtomicU64,
    counters: Box<[AtomicU64]>,
    hists: Box<[HistCells]>,
}

impl Shard {
    fn new(generation: u64, counters: usize, hists: usize) -> Shard {
        Shard {
            generation: AtomicU64::new(generation),
            counters: (0..counters).map(|_| AtomicU64::new(0)).collect(),
            hists: (0..hists).map(|_| HistCells::new()).collect(),
        }
    }

    /// Has room for counter slots below `counters` and histogram slots
    /// below `hists`.
    pub(crate) fn fits(&self, counters: usize, hists: usize) -> bool {
        counters <= self.counters.len() && hists <= self.hists.len()
    }

    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Add to a counter. Owner thread only.
    pub(crate) fn add(&self, slot: usize, by: u64) {
        bump(&self.counters[slot], by);
    }

    /// Record into a histogram. Owner thread only.
    pub(crate) fn record(&self, slot: usize, value: u64) {
        self.hists[slot].record(value);
    }

    /// Zero every cell and move to `generation`. Owner thread only.
    pub(crate) fn restart(&self, generation: u64) {
        for cell in self.counters.iter() {
            cell.store(0, Ordering::Relaxed);
        }
        for cells in self.hists.iter() {
            cells.clear();
        }
        self.generation.store(generation, Ordering::Release);
    }

    fn counter(&self, slot: usize) -> u64 {
        self.counters.get(slot).map_or(0, |c| c.load(Ordering::Relaxed))
    }

    fn hist(&self, slot: usize) -> Option<&HistCells> {
        self.hists.get(slot)
    }
}

/// Names resolved to dense slots, and the domain totals of each slot.
struct Slots<T> {
    index: HashMap<String, usize>,
    names: Vec<String>,
    totals: Vec<T>,
    /// Shown by a snapshot even when nothing was summed into it: a name
    /// written through the registry lock (`incr(name, 0)`, a gauge, a
    /// pre-registered histogram). A slot resolved for a handle but never
    /// recorded into stays absent.
    present: Vec<bool>,
}

impl<T: Default> Slots<T> {
    fn new() -> Self {
        Slots { index: HashMap::new(), names: Vec::new(), totals: Vec::new(), present: Vec::new() }
    }

    fn slot(&mut self, name: &str) -> usize {
        if let Some(&slot) = self.index.get(name) {
            return slot;
        }
        let slot = self.names.len();
        self.index.insert(name.to_string(), slot);
        self.names.push(name.to_string());
        self.totals.push(T::default());
        self.present.push(false);
        slot
    }

    /// The slot of `name`, shown by snapshots from now on.
    fn touch(&mut self, name: &str) -> usize {
        let slot = self.slot(name);
        self.present[slot] = true;
        slot
    }

    fn len(&self) -> usize {
        self.names.len()
    }
}

/// Every counter (gauges included) and histogram of one domain: the slot
/// index, the totals, and the live shards. Lives under the registry lock.
pub(crate) struct Metrics {
    counters: Slots<u64>,
    hists: Slots<Histogram>,
    /// Bumped by every reset; see the module docs.
    generation: u64,
    shards: Vec<Arc<Shard>>,
}

impl Metrics {
    /// An empty store whose first histogram slots are `preresolved`, in order.
    pub(crate) fn new(preresolved: &[&str]) -> Self {
        let mut hists = Slots::new();
        for name in preresolved {
            hists.slot(name);
        }
        Metrics { counters: Slots::new(), hists, generation: 0, shards: Vec::new() }
    }

    pub(crate) fn counter_slot(&mut self, name: &str) -> usize {
        self.counters.slot(name)
    }

    pub(crate) fn hist_slot(&mut self, name: &str) -> usize {
        self.hists.slot(name)
    }

    /// The counter slot of `name`, shown by snapshots from now on.
    pub(crate) fn touch_counter(&mut self, name: &str) -> usize {
        self.counters.touch(name)
    }

    /// The histogram slot of `name`, shown by snapshots from now on.
    pub(crate) fn touch_hist(&mut self, name: &str) -> usize {
        self.hists.touch(name)
    }

    /// Add to a counter's total.
    pub(crate) fn add(&mut self, slot: usize, by: u64) {
        self.counters.totals[slot] += by;
    }

    /// Add to a named counter's total, shown by snapshots from now on.
    pub(crate) fn bump(&mut self, name: &str, by: u64) {
        let slot = self.counters.touch(name);
        self.add(slot, by);
    }

    /// Record into a histogram's total.
    pub(crate) fn record(&mut self, slot: usize, value: u64) {
        self.hists.totals[slot].record(value);
    }

    /// Set a gauge: gauges are absolute and domain-wide, never sharded.
    pub(crate) fn set(&mut self, name: &str, value: u64) {
        let slot = self.counters.touch(name);
        self.counters.totals[slot] = value;
    }

    /// `(counter names, histogram names)` resolved so far.
    pub(crate) fn len(&self) -> (usize, usize) {
        (self.counters.len(), self.hists.len())
    }

    /// Shards whose cells belong to the current generation.
    fn live(&self) -> impl Iterator<Item = &Shard> + '_ {
        self.shards.iter().map(|s| &**s).filter(|s| s.generation() == self.generation)
    }

    /// A counter's value: its total plus every live shard's cell.
    pub(crate) fn counter(&self, name: &str) -> u64 {
        self.counters.index.get(name).map_or(0, |&slot| self.counter_sum(slot))
    }

    fn counter_sum(&self, slot: usize) -> u64 {
        self.live().fold(self.counters.totals[slot], |sum, s| sum + s.counter(slot))
    }

    /// Every present counter and histogram, summed over totals and live
    /// shards, by name.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let mut counters = BTreeMap::new();
        for (slot, name) in self.counters.names.iter().enumerate() {
            let value = self.counter_sum(slot);
            if value > 0 || self.counters.present[slot] {
                counters.insert(name.clone(), value);
            }
        }
        let mut histograms = BTreeMap::new();
        for (slot, name) in self.hists.names.iter().enumerate() {
            let mut hist = self.hists.totals[slot].clone();
            for cells in self.live().filter_map(|s| s.hist(slot)) {
                hist.absorb(cells);
            }
            if hist.count() > 0 || self.hists.present[slot] {
                histograms.insert(name.clone(), hist.snapshot());
            }
        }
        MetricsSnapshot { counters, histograms }
    }

    /// Forget every value: zero the totals, hide every name, and start a
    /// new generation so that every shard's cells read as empty until
    /// their owner zeroes them. Returns the new generation.
    pub(crate) fn reset(&mut self) -> u64 {
        self.counters.totals.iter_mut().for_each(|t| *t = 0);
        self.hists.totals.iter_mut().for_each(|t| *t = Histogram::default());
        self.counters.present.iter_mut().for_each(|p| *p = false);
        self.hists.present.iter_mut().for_each(|p| *p = false);
        self.generation += 1;
        self.generation
    }

    /// A shard for a thread that needs counter slots below `counters` and
    /// histogram slots below `hists`, listed with the domain. `old` is the
    /// thread's shard that was too small: its cells move into the new one
    /// (its owner is the caller, so nothing is recorded meanwhile) and it
    /// leaves the list in the same critical section.
    pub(crate) fn register(
        &mut self,
        old: Option<Arc<Shard>>,
        counters: usize,
        hists: usize,
    ) -> Arc<Shard> {
        // Room for the slots asked for and those the old shard had, and
        // some to come: a shard grows with the slots its thread records into.
        let had = old.as_ref().map_or((0, 0), |old| (old.counters.len(), old.hists.len()));
        let room = |needed: usize, had: usize| needed.max(had).next_power_of_two().max(8);
        let shard = Shard::new(self.generation, room(counters, had.0), room(hists, had.1));
        if let Some(old) = old {
            self.shards.retain(|s| !Arc::ptr_eq(s, &old));
            if old.generation() == self.generation {
                for (to, from) in shard.counters.iter().zip(old.counters.iter()) {
                    to.store(from.load(Ordering::Relaxed), Ordering::Relaxed);
                }
                for (to, from) in shard.hists.iter().zip(old.hists.iter()) {
                    to.copy_from(from);
                }
            }
        }
        let shard = Arc::new(shard);
        self.shards.push(Arc::clone(&shard));
        shard
    }

    /// Take a shard off the list, adding its cells to the totals unless a
    /// reset made them stale.
    pub(crate) fn fold(&mut self, shard: &Arc<Shard>) {
        self.shards.retain(|s| !Arc::ptr_eq(s, shard));
        if shard.generation() != self.generation {
            return;
        }
        for (total, cell) in self.counters.totals.iter_mut().zip(shard.counters.iter()) {
            *total += cell.load(Ordering::Relaxed);
        }
        for (slot, total) in self.hists.totals.iter_mut().enumerate() {
            if let Some(cells) = shard.hist(slot) {
                total.absorb(cells);
            }
        }
    }
}
