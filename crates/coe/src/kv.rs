//! Paged KV-cache management under an HBM budget shared with expert
//! weights.
//!
//! The SN40L reserves part of each node's HBM for "the router, KV cache,
//! and activations" (§V-B) — the same reservation the CoE runtime's
//! activation budget carves out. This module manages the KV share of that
//! reservation as fixed-size **pages** (vLLM-style paged attention over
//! the paper's memory hierarchy): each live request owns
//! `ceil(context_tokens / page_tokens)` pages, and when the resident set
//! exceeds the budget, pages spill to node DDR under a **cost-aware LRU**
//! policy — pages of finished requests are free to drop (their context is
//! dead), so they evict first; pages of live requests evict
//! least-recently-touched and must be refilled DDR→HBM (a *refault*) if
//! the request decodes again.
//!
//! The cache is pure deterministic bookkeeping: the serving engine
//! ([`crate::tenancy`]) touches it per served chunk, charges refault
//! refill bytes through the cluster's DMA model, and exports evictions as
//! [`sn_trace::Counter::KvPagesEvicted`]. Conservation is an invariant:
//! every page that ever entered HBM is either still resident or was
//! evicted — `pages_in == pages_resident + pages_evicted` after any
//! operation sequence.
//!
//! # Examples
//!
//! ```
//! use sn_coe::kv::{PagedKvCache, PagedKvConfig};
//! use sn_arch::Bytes;
//!
//! // A tiny cache: 4-token pages of 1 MiB, budget of 8 pages.
//! let mut kv = PagedKvCache::new(PagedKvConfig {
//!     page_tokens: 4,
//!     page_bytes: Bytes::from_mib(1),
//!     budget: Bytes::from_mib(8),
//! });
//! assert_eq!(kv.capacity_pages(), 8);
//!
//! // Request 0 prefills 10 tokens: 3 pages allocated.
//! let touch = kv.touch(0, 10);
//! assert_eq!(touch.allocated, 3);
//! let stats = kv.stats();
//! assert_eq!(stats.pages_in, 3);
//! assert_eq!(stats.pages_resident, 3);
//! assert_eq!(stats.pages_in, stats.pages_resident + stats.pages_evicted);
//! ```

use serde::{Deserialize, Serialize};
use sn_arch::Bytes;
use std::collections::{BTreeMap, BTreeSet};

/// Page geometry and the HBM budget the cache may occupy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PagedKvConfig {
    /// Context tokens per page.
    pub page_tokens: usize,
    /// HBM bytes one page occupies.
    pub page_bytes: Bytes,
    /// Total HBM the cache may hold (the KV share of the node
    /// reservation; resident pages never exceed `budget / page_bytes`).
    pub budget: Bytes,
}

impl Default for PagedKvConfig {
    /// Llama2-7B-class geometry: ~512 KiB of KV per token (32 layers ×
    /// K+V × 4096 hidden × fp16), 16-token pages, and a 16 GiB slice of
    /// the node's 48 GiB reservation.
    fn default() -> Self {
        PagedKvConfig {
            page_tokens: 16,
            page_bytes: Bytes::from_mib(8),
            budget: Bytes::from_gib(16),
        }
    }
}

/// What one [`PagedKvCache::touch`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct KvTouch {
    /// Brand-new pages allocated (context grew past a page boundary).
    pub allocated: u64,
    /// Previously evicted live pages brought back — each one costs a
    /// DDR→HBM refill the caller must charge.
    pub refaulted: u64,
    /// Pages evicted to make room during this touch.
    pub evicted: u64,
}

/// Cumulative cache statistics; the conservation identity
/// `pages_in == pages_resident + pages_evicted` holds after every
/// operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct KvStats {
    /// Pages that ever entered HBM (allocations plus refaults).
    pub pages_in: u64,
    /// Pages currently resident.
    pub pages_resident: u64,
    /// Pages evicted to DDR (or dropped, for finished requests).
    pub pages_evicted: u64,
    /// Evicted live pages that were touched again and had to refill.
    pub refaults: u64,
}

#[derive(Debug, Clone, Copy)]
struct PageMeta {
    last_touch: u64,
    finished: bool,
}

impl PageMeta {
    /// Eviction rank, cheapest victim lowest: the live bit sits above
    /// the last-touch stamp, so finished pages rank before live ones and
    /// each group orders least-recently-touched first. The clock counts
    /// touches, so it never reaches the live bit.
    fn rank(&self) -> u64 {
        (u64::from(!self.finished) << 63) | self.last_touch
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct SeqState {
    /// Highest page index ever allocated for the sequence, exclusive —
    /// a non-resident page below it is a refault, not an allocation.
    high_water: u32,
    finished: bool,
}

/// A paged KV cache with cost-aware LRU eviction under an HBM budget.
///
/// Deterministic by construction: pages live in ordered maps, victims
/// come off an ordered index of the total order `(evict-cost,
/// last-touch, page key)`, and the logical clock advances once per
/// touch.
#[derive(Debug, Clone)]
pub struct PagedKvCache {
    config: PagedKvConfig,
    capacity: u64,
    /// Resident pages keyed by `(sequence, page index)`.
    pages: BTreeMap<(u64, u32), PageMeta>,
    /// The victim index: one `(rank, sequence, page index)` entry per
    /// resident page, kept in step with `pages`, so the first entry is
    /// the next victim.
    victims: BTreeSet<(u64, u64, u32)>,
    seqs: BTreeMap<u64, SeqState>,
    clock: u64,
    stats: KvStats,
}

impl PagedKvCache {
    /// Builds an empty cache.
    ///
    /// # Panics
    ///
    /// Panics when the geometry is degenerate: zero-token or zero-byte
    /// pages, or a budget smaller than one page.
    pub fn new(config: PagedKvConfig) -> Self {
        assert!(config.page_tokens > 0, "pages must hold at least a token");
        assert!(config.page_bytes > Bytes::ZERO, "pages must occupy bytes");
        let capacity = config.budget.as_u64() / config.page_bytes.as_u64();
        assert!(capacity >= 1, "budget must hold at least one page");
        PagedKvCache {
            config,
            capacity,
            pages: BTreeMap::new(),
            victims: BTreeSet::new(),
            seqs: BTreeMap::new(),
            clock: 0,
            stats: KvStats::default(),
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> &PagedKvConfig {
        &self.config
    }

    /// Resident pages the budget can hold.
    pub fn capacity_pages(&self) -> u64 {
        self.capacity
    }

    /// Pages a context of `tokens` needs (at least one).
    pub fn pages_for(&self, tokens: usize) -> u32 {
        (tokens.max(1)).div_ceil(self.config.page_tokens) as u32
    }

    /// HBM bytes currently resident.
    pub fn resident_bytes(&self) -> Bytes {
        self.config.page_bytes * self.pages.len() as u64
    }

    /// Cumulative statistics (see [`KvStats`] for the conservation
    /// identity).
    pub fn stats(&self) -> KvStats {
        KvStats {
            pages_resident: self.pages.len() as u64,
            ..self.stats
        }
    }

    /// Evicts the cheapest page: finished requests' pages first (their
    /// context is dead — dropping is free), then least-recently-touched,
    /// then lowest key. Returns false when nothing is resident.
    fn evict_one(&mut self) -> bool {
        #[cfg(test)]
        let reference = self.linear_victim();
        let victim = self.victims.pop_first().map(|(_, seq, page)| (seq, page));
        #[cfg(test)]
        assert_eq!(victim, reference, "victim index disagrees with the scan");
        let Some(key) = victim else {
            return false;
        };
        self.pages.remove(&key);
        self.stats.pages_evicted += 1;
        true
    }

    /// The victim the index stands in for, found the slow way: a linear
    /// scan of every resident page for the lowest `(live, last-touch,
    /// key)`. Unit tests hold every eviction to it.
    #[cfg(test)]
    fn linear_victim(&self) -> Option<(u64, u32)> {
        self.pages
            .iter()
            .min_by_key(|(&key, meta)| (!meta.finished, meta.last_touch, key))
            .map(|(&key, _)| key)
    }

    /// Ensures the first `pages_for(tokens)` pages of `seq` are resident,
    /// allocating, refaulting, and evicting as needed, and marks them
    /// touched. The caller charges `refaulted` pages' refill bytes
    /// through its DMA model.
    ///
    /// Touching a finished sequence restarts it (the request came back).
    pub fn touch(&mut self, seq: u64, tokens: usize) -> KvTouch {
        self.clock += 1;
        let needed = self.pages_for(tokens);
        let state = self.seqs.entry(seq).or_default();
        state.finished = false;
        let high_water = state.high_water;
        state.high_water = state.high_water.max(needed);
        let mut touch = KvTouch::default();
        for page in 0..needed {
            if let Some(meta) = self.pages.get_mut(&(seq, page)) {
                self.victims.remove(&(meta.rank(), seq, page));
                meta.last_touch = self.clock;
                meta.finished = false;
                self.victims.insert((meta.rank(), seq, page));
                continue;
            }
            // Not resident: a refault if it was allocated before, a
            // fresh allocation otherwise. Either way it enters HBM.
            if page < high_water {
                touch.refaulted += 1;
                self.stats.refaults += 1;
            } else {
                touch.allocated += 1;
            }
            while self.pages.len() as u64 >= self.capacity {
                if !self.evict_one() {
                    break;
                }
                touch.evicted += 1;
            }
            let meta = PageMeta {
                last_touch: self.clock,
                finished: false,
            };
            self.pages.insert((seq, page), meta);
            self.victims.insert((meta.rank(), seq, page));
            self.stats.pages_in += 1;
        }
        debug_assert_eq!(
            self.stats.pages_in,
            self.pages.len() as u64 + self.stats.pages_evicted,
            "KV page conservation broke in this touch"
        );
        debug_assert_eq!(
            self.victims.len(),
            self.pages.len(),
            "KV victim index drifted from the page map in this touch"
        );
        touch
    }

    /// Marks a sequence finished: its resident pages stay until pressure
    /// evicts them, but they become the cheapest victims.
    pub fn finish(&mut self, seq: u64) {
        if let Some(state) = self.seqs.get_mut(&seq) {
            state.finished = true;
        }
        for (&(_, page), meta) in self.pages.range_mut((seq, 0)..=(seq, u32::MAX)) {
            self.victims.remove(&(meta.rank(), seq, page));
            meta.finished = true;
            self.victims.insert((meta.rank(), seq, page));
        }
        debug_assert_eq!(
            self.victims.len(),
            self.pages.len(),
            "KV victim index drifted from the page map in this finish"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tiny(capacity_pages: u64) -> PagedKvCache {
        PagedKvCache::new(PagedKvConfig {
            page_tokens: 4,
            page_bytes: Bytes::from_mib(1),
            budget: Bytes::from_mib(capacity_pages),
        })
    }

    #[test]
    fn allocation_rounds_up_to_pages() {
        let mut kv = tiny(8);
        assert_eq!(kv.pages_for(1), 1);
        assert_eq!(kv.pages_for(4), 1);
        assert_eq!(kv.pages_for(5), 2);
        let t = kv.touch(7, 9);
        assert_eq!(t.allocated, 3);
        assert_eq!(t.refaulted, 0);
        assert_eq!(t.evicted, 0);
        assert_eq!(kv.stats().pages_resident, 3);
        assert_eq!(kv.resident_bytes(), Bytes::from_mib(3));
    }

    #[test]
    fn growing_a_context_allocates_only_the_new_pages() {
        let mut kv = tiny(8);
        kv.touch(1, 8); // 2 pages
        let t = kv.touch(1, 12); // 3 pages
        assert_eq!(t.allocated, 1);
        assert_eq!(kv.stats().pages_in, 3);
    }

    #[test]
    fn finished_pages_evict_before_live_lru() {
        let mut kv = tiny(4);
        kv.touch(1, 8); // pages (1,0) (1,1)
        kv.touch(2, 8); // pages (2,0) (2,1) — cache full
        kv.finish(1);
        // A third sequence forces eviction: finished seq 1's pages go
        // first even though seq 2's are older than this touch.
        let t = kv.touch(3, 8);
        assert_eq!(t.evicted, 2);
        assert!(kv.pages.contains_key(&(2, 0)));
        assert!(kv.pages.contains_key(&(2, 1)));
        assert!(!kv.pages.contains_key(&(1, 0)));
    }

    #[test]
    fn evicted_live_pages_refault_on_next_touch() {
        let mut kv = tiny(2);
        kv.touch(1, 8); // fills the cache with seq 1
        kv.touch(2, 8); // evicts seq 1 entirely (live LRU)
        assert_eq!(kv.stats().pages_evicted, 2);
        let t = kv.touch(1, 8); // seq 1 decodes again
        assert_eq!(t.refaulted, 2, "previously allocated pages came back");
        assert_eq!(t.allocated, 0);
        assert_eq!(kv.stats().refaults, 2);
    }

    #[test]
    fn conservation_holds_across_a_scripted_run() {
        let mut kv = tiny(3);
        for (seq, tokens) in [(1, 8), (2, 12), (1, 16), (3, 4), (2, 16)] {
            kv.touch(seq, tokens);
            let s = kv.stats();
            assert_eq!(s.pages_in, s.pages_resident + s.pages_evicted);
        }
        kv.finish(1);
        kv.finish(2);
        kv.touch(4, 12);
        let s = kv.stats();
        assert_eq!(s.pages_in, s.pages_resident + s.pages_evicted);
        assert!(s.pages_resident <= kv.capacity_pages());
    }

    #[test]
    fn eviction_fires_at_exactly_full_budget() {
        // Fill the cache to exactly its capacity — no eviction yet —
        // then one more page must evict exactly one victim and leave
        // residency pinned at capacity.
        let mut kv = tiny(4);
        let t = kv.touch(1, 16); // 4 pages: exactly full
        assert_eq!(t.allocated, 4);
        assert_eq!(t.evicted, 0, "filling to the boundary evicts nothing");
        assert_eq!(kv.stats().pages_resident, kv.capacity_pages());
        let t = kv.touch(2, 4); // 1 page over
        assert_eq!(t.allocated, 1);
        assert_eq!(t.evicted, 1, "the page past the boundary evicts one");
        let s = kv.stats();
        assert_eq!(s.pages_resident, kv.capacity_pages());
        assert_eq!(s.pages_in, s.pages_resident + s.pages_evicted);
    }

    #[test]
    fn zero_token_touch_still_pins_one_page() {
        // A request with no context yet still owns a page (`pages_for`
        // rounds up to at least one), so an empty decode slot cannot
        // slip through the budget accounting.
        let mut kv = tiny(4);
        assert_eq!(kv.pages_for(0), 1);
        let t = kv.touch(9, 0);
        assert_eq!(t.allocated, 1);
        assert_eq!(kv.stats().pages_resident, 1);
        // Touching again is a no-op: the page is already resident.
        let t = kv.touch(9, 0);
        assert_eq!(t.allocated + t.refaulted + t.evicted, 0);
    }

    #[test]
    fn oversized_context_evicts_its_own_oldest_pages() {
        // One sequence larger than the whole budget: the touch evicts
        // its own earliest pages mid-loop, conservation holds, and the
        // next touch refaults what was self-evicted.
        let mut kv = tiny(2);
        let t = kv.touch(1, 16); // 4 pages through a 2-page cache
        assert_eq!(t.allocated, 4);
        assert_eq!(t.evicted, 2, "the walk displaced its own head");
        let s = kv.stats();
        assert_eq!(s.pages_resident, kv.capacity_pages());
        assert_eq!(s.pages_in, s.pages_resident + s.pages_evicted);
        let t = kv.touch(1, 16);
        assert!(t.refaulted > 0, "self-evicted pages come back as refaults");
        assert_eq!(t.allocated, 0, "nothing above the high-water mark");
    }

    #[test]
    fn touch_after_finish_restarts_the_sequence() {
        let mut kv = tiny(8);
        kv.touch(1, 8);
        kv.finish(1);
        let t = kv.touch(1, 8);
        // Pages were still resident: nothing re-enters, they just became
        // live (and expensive to evict) again.
        assert_eq!(t.allocated + t.refaulted, 0);
        assert_eq!(kv.stats().pages_resident, 2);
    }

    proptest! {
        /// Over random touch/finish interleavings, the victim index pops
        /// exactly the page the linear scan picks at every eviction (the
        /// check inside `evict_one`), its head agrees with the scan after
        /// every operation, and it holds one entry per resident page.
        #[test]
        fn victim_index_matches_the_linear_scan(
            capacity in 1u64..10,
            ops in proptest::collection::vec((0u64..5, 1usize..48, 0u8..3), 1..120),
        ) {
            let mut kv = tiny(capacity);
            for (seq, tokens, op) in ops {
                if op == 0 {
                    kv.finish(seq);
                } else {
                    kv.touch(seq, tokens);
                }
                prop_assert_eq!(kv.victims.len(), kv.pages.len());
                let head = kv.victims.first().map(|&(_, seq, page)| (seq, page));
                prop_assert_eq!(head, kv.linear_victim());
            }
        }

        /// The conservation identity survives arbitrary interleavings of
        /// touches and finishes, and residency never exceeds capacity.
        #[test]
        fn kv_pages_are_conserved(
            capacity in 1u64..12,
            ops in proptest::collection::vec((0u64..6, 1usize..40, 0u8..2), 1..80),
        ) {
            let mut kv = tiny(capacity);
            for (seq, tokens, finish) in ops {
                if finish == 1 {
                    kv.finish(seq);
                } else {
                    kv.touch(seq, tokens);
                }
                let s = kv.stats();
                prop_assert_eq!(s.pages_in, s.pages_resident + s.pages_evicted);
                prop_assert!(s.pages_resident <= kv.capacity_pages());
            }
        }
    }
}
