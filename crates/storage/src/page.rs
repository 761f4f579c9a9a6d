//! Page bookkeeping inside a segment.
//!
//! Pages are an *accounting* construct: record payloads live in ordinary heap
//! memory, but every record is assigned to a page and every access is charged
//! to that page. This is what lets the benchmark harness reproduce the
//! locality arguments of the paper's Table 1 (clustered slices → few page
//! accesses) without implementing a real disk format.

/// Metadata for a single fixed-size page.
#[derive(Debug, Clone, Default)]
pub(crate) struct PageMeta {
    /// Bytes currently occupied by records assigned to this page.
    pub bytes_used: usize,
    /// Number of live records assigned to this page.
    pub records: usize,
}

impl PageMeta {
    /// Free bytes remaining given the configured page size.
    pub fn free(&self, page_size: usize) -> usize {
        page_size.saturating_sub(self.bytes_used)
    }
}

/// A set of pages belonging to one segment, with a simple first-fit-from-tail
/// placement policy.
#[derive(Debug, Clone, Default)]
pub(crate) struct PageSet {
    pages: Vec<PageMeta>,
}

impl PageSet {
    /// Place a record of `size` bytes; returns the page index.
    ///
    /// Placement is "last page first, else scan, else grow": appends cluster
    /// naturally, while freed space in earlier pages is still reused.
    pub fn place(&mut self, size: usize, page_size: usize) -> u32 {
        // Oversized records get a dedicated run of pages; we model that as a
        // single page holding more than page_size bytes (counted once).
        if let Some(last) = self.pages.last() {
            if last.free(page_size) >= size {
                let idx = self.pages.len() - 1;
                self.pages[idx].bytes_used += size;
                self.pages[idx].records += 1;
                return idx as u32;
            }
        }
        for (idx, page) in self.pages.iter_mut().enumerate() {
            if page.free(page_size) >= size {
                page.bytes_used += size;
                page.records += 1;
                return idx as u32;
            }
        }
        self.pages.push(PageMeta { bytes_used: size, records: 1 });
        (self.pages.len() - 1) as u32
    }

    /// Release `size` bytes of a record from `page`.
    pub fn release(&mut self, page: u32, size: usize) {
        let p = &mut self.pages[page as usize];
        p.bytes_used = p.bytes_used.saturating_sub(size);
        p.records = p.records.saturating_sub(1);
    }

    /// Try to grow a record in place on its page; returns `false` when the
    /// page cannot absorb the delta and the record must be relocated.
    pub fn try_grow(&mut self, page: u32, delta: usize, page_size: usize) -> bool {
        let p = &mut self.pages[page as usize];
        if p.free(page_size) >= delta {
            p.bytes_used += delta;
            true
        } else {
            false
        }
    }

    /// Shrink a record in place (always succeeds).
    pub fn shrink(&mut self, page: u32, delta: usize) {
        let p = &mut self.pages[page as usize];
        p.bytes_used = p.bytes_used.saturating_sub(delta);
    }

    /// Total number of pages ever allocated (empty pages are not reclaimed;
    /// this mirrors a real store's high-water mark).
    #[cfg(test)]
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Total bytes used across all pages.
    pub fn bytes_used(&self) -> usize {
        self.pages.iter().map(|p| p.bytes_used).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PS: usize = 100;

    #[test]
    fn placement_fills_tail_page_first() {
        let mut set = PageSet::default();
        assert_eq!(set.place(40, PS), 0);
        assert_eq!(set.place(40, PS), 0);
        // 80 used, 20 free: a 40-byte record opens page 1.
        assert_eq!(set.place(40, PS), 1);
        assert_eq!(set.page_count(), 2);
        assert_eq!(set.bytes_used(), 120);
    }

    #[test]
    fn placement_reuses_freed_space_in_earlier_pages() {
        let mut set = PageSet::default();
        let a = set.place(90, PS);
        let _b = set.place(90, PS);
        set.release(a, 90);
        // Tail page (1) has 10 free, page 0 is empty: record goes to page 0.
        assert_eq!(set.place(50, PS), 0);
    }

    #[test]
    fn grow_and_shrink_update_occupancy() {
        let mut set = PageSet::default();
        let p = set.place(50, PS);
        assert!(set.try_grow(p, 30, PS));
        assert_eq!(set.bytes_used(), 80);
        assert!(!set.try_grow(p, 30, PS), "only 20 bytes free");
        set.shrink(p, 60);
        assert_eq!(set.bytes_used(), 20);
    }

    #[test]
    fn oversized_record_gets_its_own_page() {
        let mut set = PageSet::default();
        let p = set.place(450, PS);
        assert_eq!(p, 0);
        assert_eq!(set.page_count(), 1);
        // Nothing else fits on the oversized page.
        assert_eq!(set.place(10, PS), 1);
    }
}
