//! Set-associative cache timing model.
//!
//! Caches here hold tags and metadata only — data lives in the functional
//! [`PagedMem`](crate::backing::PagedMem). Each cache tracks the full
//! Table 3 accounting: demand hits/misses by kind, prefetch fills, line
//! placements, write-through traffic, write-backs, snoop lookups and
//! invalidations.
//!
//! The tag array is stored so that an empty way is all-zero bits: a new
//! cache is one zeroed allocation, which the allocator hands out as
//! untouched zero pages. A run pays memory only for the sets it touches.

/// Write policy of one cache level (Table 1: L1D is write-through, L2 and
/// L3 are write-back).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WritePolicy {
    /// Stores update this level and are forwarded to the next level.
    /// Lines at this level are never dirty.
    WriteThrough,
    /// Stores update this level only; dirty lines are written back on
    /// eviction.
    WriteBack,
}

/// Geometry and policy of one cache.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable name used in reports ("L1D", "L2", …).
    pub name: &'static str,
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Hit latency in cycles.
    pub latency: u64,
    /// Write policy.
    pub write_policy: WritePolicy,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        let sets = self.size_bytes / (self.ways as u64 * self.line_bytes);
        assert!(
            sets.is_power_of_two(),
            "{}: set count must be a power of two",
            self.name
        );
        sets as usize
    }
}

/// What kind of access is being performed (affects accounting only).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Demand load.
    Read,
    /// Demand store.
    Write,
    /// Prefetcher-initiated access.
    Prefetch,
}

/// Per-cache activity counters. `total_accesses()` reproduces the paper's
/// Table 3 accounting: "hits, misses, lookups and invalidations provoked by
/// memory instructions, prefetchers, placement of cache lines by the MSHRs,
/// write-through and write-back policies and bus requests of the DMA
/// commands".
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand read hits.
    pub read_hits: u64,
    /// Demand read misses.
    pub read_misses: u64,
    /// Demand write hits.
    pub write_hits: u64,
    /// Demand write misses.
    pub write_misses: u64,
    /// Write accesses arriving from a write-through upper level.
    pub writethrough_writes: u64,
    /// Line placements (fills) from the level below.
    pub fills: u64,
    /// Of which, fills triggered by the prefetcher.
    pub prefetch_fills: u64,
    /// Prefetch probe lookups that hit (no fill needed).
    pub prefetch_hits: u64,
    /// Dirty lines written back to the level below on eviction.
    pub writebacks_out: u64,
    /// Write-back traffic arriving from the level above.
    pub writebacks_in: u64,
    /// DMA snoop lookups (dma-get bus requests).
    pub snoops: u64,
    /// Lines invalidated by DMA put requests (includes the lookup).
    pub invalidations: u64,
}

impl CacheStats {
    /// Counts one [`Cache::access`] outcome (the shared backside mirrors
    /// each bank's counts into the requesting core's share with this).
    pub(crate) fn count_access(&mut self, kind: AccessKind, hit: bool) {
        match (kind, hit) {
            (AccessKind::Read, true) => self.read_hits += 1,
            (AccessKind::Read, false) => self.read_misses += 1,
            (AccessKind::Write, true) => self.write_hits += 1,
            (AccessKind::Write, false) => self.write_misses += 1,
            (AccessKind::Prefetch, true) => self.prefetch_hits += 1,
            (AccessKind::Prefetch, false) => {} // fill accounted separately
        }
    }

    /// Demand accesses (reads + writes).
    pub fn demand_accesses(&self) -> u64 {
        self.read_hits + self.read_misses + self.write_hits + self.write_misses
    }

    /// Demand hit ratio in percent, 100.0 when there were no accesses.
    pub fn hit_ratio(&self) -> f64 {
        let acc = self.demand_accesses();
        if acc == 0 {
            return 100.0;
        }
        100.0 * (self.read_hits + self.write_hits) as f64 / acc as f64
    }

    /// Total activity per the Table 3 accounting.
    pub fn total_accesses(&self) -> u64 {
        self.demand_accesses()
            + self.writethrough_writes
            + self.fills
            + self.prefetch_hits
            + self.writebacks_in
            + self.snoops
            + self.invalidations
    }

    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.read_hits += other.read_hits;
        self.read_misses += other.read_misses;
        self.write_hits += other.write_hits;
        self.write_misses += other.write_misses;
        self.writethrough_writes += other.writethrough_writes;
        self.fills += other.fills;
        self.prefetch_fills += other.prefetch_fills;
        self.prefetch_hits += other.prefetch_hits;
        self.writebacks_out += other.writebacks_out;
        self.writebacks_in += other.writebacks_in;
        self.snoops += other.snoops;
        self.invalidations += other.invalidations;
    }
}

/// One way of a set: `[key, lru << LRU_SHIFT | flags]`. `key` is the
/// line number (address >> line shift) plus one, so 0 marks an empty way;
/// `lru` is the cache clock of the line's last touch. An empty way is
/// `[0, 0]`.
type Way = [u64; 2];

/// Flag: the line is dirty (only ever set at a write-back level, except
/// by a dirty refresh in [`Cache::fill`]).
const DIRTY: u64 = 0b10;
/// Flag: the prefetcher placed the line and no demand access has touched
/// it yet (pollution statistics).
const PREFETCHED: u64 = 0b01;
const LRU_SHIFT: u32 = 2;

/// A dirty line evicted by a fill; the owner must write it back below.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// Line-aligned address of the victim.
    pub addr: u64,
    /// Whether the victim was dirty (needs writing back).
    pub dirty: bool,
}

/// One cache level (tags + metadata only).
pub struct Cache {
    /// The immutable configuration.
    pub cfg: CacheConfig,
    sets: Vec<Way>,
    ways: usize,
    set_mask: u64,
    line_shift: u32,
    clock: u64,
    /// Activity counters.
    pub stats: CacheStats,
    /// Useful prefetches: demand hits on lines the prefetcher brought in.
    pub prefetch_useful: u64,
}

impl Cache {
    /// Builds an empty cache from its configuration.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.num_sets();
        // Lines of two bytes or more leave a line number room for the +1
        // of its key.
        assert!(cfg.line_bytes.is_power_of_two() && cfg.line_bytes > 1);
        Cache {
            ways: cfg.ways,
            set_mask: sets as u64 - 1,
            line_shift: cfg.line_bytes.trailing_zeros(),
            sets: vec![[0; 2]; sets * cfg.ways],
            clock: 0,
            stats: CacheStats::default(),
            prefetch_useful: 0,
            cfg,
        }
    }

    /// Line-aligns an address.
    #[inline]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    /// The first way of `addr`'s set, and `addr`'s key.
    #[inline]
    fn index(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        (((line & self.set_mask) as usize) * self.ways, line + 1)
    }

    #[inline]
    fn find(&self, addr: u64) -> Option<usize> {
        let (base, key) = self.index(addr);
        (base..base + self.ways).find(|&i| self.sets[i][0] == key)
    }

    /// Stamps way `i` with the clock, keeping its flags, and marks it
    /// dirty when `dirty`.
    #[inline]
    fn touch(&mut self, i: usize, dirty: bool) {
        let flags = self.sets[i][1] & (DIRTY | PREFETCHED);
        self.sets[i][1] = self.clock << LRU_SHIFT | flags | if dirty { DIRTY } else { 0 };
    }

    /// Tag lookup with no state change and no accounting.
    #[inline]
    pub fn probe(&self, addr: u64) -> bool {
        self.find(addr).is_some()
    }

    /// Performs a demand or prefetch access. Returns `true` on hit. Misses
    /// do **not** fill the line; the hierarchy calls [`Cache::fill`] after
    /// fetching from below, mirroring an MSHR-mediated placement.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> bool {
        self.clock += 1;
        let write_back = self.cfg.write_policy == WritePolicy::WriteBack;
        let hit = match self.find(addr) {
            Some(i) => {
                if self.sets[i][1] & PREFETCHED != 0 && kind != AccessKind::Prefetch {
                    self.sets[i][1] &= !PREFETCHED;
                    self.prefetch_useful += 1;
                }
                debug_assert!(
                    kind != AccessKind::Write || write_back || self.sets[i][1] & DIRTY == 0,
                    "write-through lines must stay clean"
                );
                self.touch(i, kind == AccessKind::Write && write_back);
                true
            }
            None => false,
        };
        self.stats.count_access(kind, hit);
        hit
    }

    /// A write arriving from a write-through level above. Updates the line
    /// if present (setting dirty under write-back policy); misses do not
    /// allocate (write-through traffic is non-allocating at this level).
    pub fn writethrough_from_above(&mut self, addr: u64) -> bool {
        self.clock += 1;
        self.stats.writethrough_writes += 1;
        let found = self.find(addr);
        if let Some(i) = found {
            self.touch(i, self.cfg.write_policy == WritePolicy::WriteBack);
        }
        found.is_some()
    }

    /// Places a line fetched from below, evicting the LRU victim if the
    /// set is full. `dirty` marks the fill as already-modified (used when a
    /// write-allocate store fills a write-back level).
    pub fn fill(&mut self, addr: u64, dirty: bool, prefetched: bool) -> Option<Evicted> {
        self.clock += 1;
        self.stats.fills += 1;
        if prefetched {
            self.stats.prefetch_fills += 1;
        }
        // Already present (e.g. race between prefetch and demand): refresh.
        if let Some(i) = self.find(addr) {
            self.touch(i, dirty);
            return None;
        }
        // Choose victim: first empty way, else the least recently used.
        // An empty way's clock is 0 and a line's at least 1, so the first
        // way with the smallest clock is exactly that.
        let (base, key) = self.index(addr);
        let victim = (base..base + self.ways)
            .min_by_key(|&i| self.sets[i][1] >> LRU_SHIFT)
            .expect("a cache has at least one way");
        let [old_key, old_meta] = self.sets[victim];
        let evicted = (old_key != 0).then(|| Evicted {
            addr: (old_key - 1) << self.line_shift,
            dirty: old_meta & DIRTY != 0,
        });
        let dirty = dirty && self.cfg.write_policy == WritePolicy::WriteBack;
        let flags = if dirty { DIRTY } else { 0 } | if prefetched { PREFETCHED } else { 0 };
        self.sets[victim] = [key, self.clock << LRU_SHIFT | flags];
        if let Some(e) = evicted {
            if e.dirty {
                self.stats.writebacks_out += 1;
            }
        }
        evicted
    }

    /// DMA snoop lookup (bus request of a `dma-get`): counted, no state
    /// change beyond statistics. Returns whether the line is present.
    pub fn snoop(&mut self, addr: u64) -> bool {
        self.stats.snoops += 1;
        self.probe(addr)
    }

    /// Invalidates a line if present (bus request of a `dma-put`). Returns
    /// whether the line was present and whether it was dirty.
    pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
        self.stats.invalidations += 1;
        self.find(addr).map(|i| {
            let was_dirty = self.sets[i][1] & DIRTY != 0;
            self.sets[i] = [0; 2];
            was_dirty
        })
    }

    /// Accepts a dirty line written back from the level above: marks it
    /// dirty when resident, otherwise fills it dirty (possibly evicting a
    /// victim that the caller must push further down).
    pub fn writeback_fill(&mut self, addr: u64) -> Option<Evicted> {
        self.stats.writebacks_in += 1;
        self.clock += 1;
        if let Some(i) = self.find(addr) {
            self.touch(i, self.cfg.write_policy == WritePolicy::WriteBack);
            return None;
        }
        self.fill(addr, true, false)
    }

    /// Number of valid lines currently resident (for tests).
    pub fn resident_lines(&self) -> usize {
        self.sets.iter().filter(|w| w[0] != 0).count()
    }

    /// Resets all lines (not the statistics).
    pub fn flush_all(&mut self) {
        self.sets.fill([0; 2]);
    }
}

/// The tag array as it was stored before ways became zero-means-empty
/// words: one `Line` struct per way. Kept as the oracle the storage is
/// checked against op by op.
#[cfg(test)]
mod reference {
    use super::{AccessKind, CacheConfig, CacheStats, Evicted, WritePolicy};

    #[derive(Clone, Copy, Default)]
    struct Line {
        tag: u64,
        valid: bool,
        dirty: bool,
        prefetched: bool,
        lru: u64,
    }

    pub struct RefCache {
        cfg: CacheConfig,
        sets: Vec<Line>,
        ways: usize,
        set_mask: u64,
        line_shift: u32,
        clock: u64,
        pub stats: CacheStats,
        pub prefetch_useful: u64,
    }

    impl RefCache {
        pub fn new(cfg: CacheConfig) -> Self {
            let sets = cfg.num_sets();
            RefCache {
                ways: cfg.ways,
                set_mask: sets as u64 - 1,
                line_shift: cfg.line_bytes.trailing_zeros(),
                sets: vec![Line::default(); sets * cfg.ways],
                clock: 0,
                stats: CacheStats::default(),
                prefetch_useful: 0,
                cfg,
            }
        }

        fn index(&self, addr: u64) -> (usize, u64) {
            let line = addr >> self.line_shift;
            (((line & self.set_mask) as usize) * self.ways, line)
        }

        fn find(&self, addr: u64) -> Option<usize> {
            let (base, tag) = self.index(addr);
            (0..self.ways).map(|w| base + w).find(|&i| {
                let l = &self.sets[i];
                l.valid && l.tag == tag
            })
        }

        pub fn probe(&self, addr: u64) -> bool {
            self.find(addr).is_some()
        }

        pub fn access(&mut self, addr: u64, kind: AccessKind) -> bool {
            self.clock += 1;
            let hit = match self.find(addr) {
                Some(i) => {
                    let clock = self.clock;
                    let line = &mut self.sets[i];
                    line.lru = clock;
                    if line.prefetched && kind != AccessKind::Prefetch {
                        line.prefetched = false;
                        self.prefetch_useful += 1;
                    }
                    if kind == AccessKind::Write && self.cfg.write_policy == WritePolicy::WriteBack
                    {
                        self.sets[i].dirty = true;
                    }
                    true
                }
                None => false,
            };
            self.stats.count_access(kind, hit);
            hit
        }

        pub fn writethrough_from_above(&mut self, addr: u64) -> bool {
            self.clock += 1;
            self.stats.writethrough_writes += 1;
            if let Some(i) = self.find(addr) {
                self.sets[i].lru = self.clock;
                if self.cfg.write_policy == WritePolicy::WriteBack {
                    self.sets[i].dirty = true;
                }
                true
            } else {
                false
            }
        }

        pub fn fill(&mut self, addr: u64, dirty: bool, prefetched: bool) -> Option<Evicted> {
            self.clock += 1;
            self.stats.fills += 1;
            if prefetched {
                self.stats.prefetch_fills += 1;
            }
            let (base, tag) = self.index(addr);
            for w in 0..self.ways {
                let l = &mut self.sets[base + w];
                if l.valid && l.tag == tag {
                    l.lru = self.clock;
                    l.dirty |= dirty;
                    return None;
                }
            }
            let mut victim = base;
            let mut best = u64::MAX;
            for w in 0..self.ways {
                let l = &self.sets[base + w];
                if !l.valid {
                    victim = base + w;
                    break;
                }
                if l.lru < best {
                    best = l.lru;
                    victim = base + w;
                }
            }
            let old = self.sets[victim];
            let evicted = old.valid.then(|| Evicted {
                addr: (old.tag) << self.line_shift,
                dirty: old.dirty,
            });
            self.sets[victim] = Line {
                tag,
                valid: true,
                dirty: dirty && self.cfg.write_policy == WritePolicy::WriteBack,
                prefetched,
                lru: self.clock,
            };
            if let Some(e) = evicted {
                if e.dirty {
                    self.stats.writebacks_out += 1;
                }
            }
            evicted
        }

        pub fn snoop(&mut self, addr: u64) -> bool {
            self.stats.snoops += 1;
            self.probe(addr)
        }

        pub fn invalidate(&mut self, addr: u64) -> Option<bool> {
            self.stats.invalidations += 1;
            self.find(addr).map(|i| {
                let was_dirty = self.sets[i].dirty;
                self.sets[i] = Line::default();
                was_dirty
            })
        }

        pub fn writeback_fill(&mut self, addr: u64) -> Option<Evicted> {
            self.stats.writebacks_in += 1;
            self.clock += 1;
            if let Some(i) = self.find(addr) {
                self.sets[i].lru = self.clock;
                if self.cfg.write_policy == WritePolicy::WriteBack {
                    self.sets[i].dirty = true;
                }
                return None;
            }
            self.fill(addr, true, false)
        }

        pub fn resident_lines(&self) -> usize {
            self.sets.iter().filter(|l| l.valid).count()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::reference::RefCache;
    use super::*;
    use proptest::prelude::*;

    /// One cache operation with its arguments: `(op, address, kind,
    /// dirty, prefetched)`.
    type Op = (u8, u64, u8, bool, bool);

    /// Applies `op` to both caches and fails on the first answer that
    /// differs. A `Some` comparison covers hits, `Evicted` victims and
    /// invalidation results alike.
    fn step(
        c: &mut Cache,
        r: &mut RefCache,
        (op, addr, kind, dirty, pf): Op,
    ) -> Result<(), String> {
        let kind = [AccessKind::Read, AccessKind::Write, AccessKind::Prefetch][kind as usize % 3];
        let (got, want) = match op % 7 {
            0 => (
                format!("{:?}", c.access(addr, kind)),
                format!("{:?}", r.access(addr, kind)),
            ),
            1 => (
                format!("{:?}", c.writethrough_from_above(addr)),
                format!("{:?}", r.writethrough_from_above(addr)),
            ),
            2 => (
                format!("{:?}", c.fill(addr, dirty, pf)),
                format!("{:?}", r.fill(addr, dirty, pf)),
            ),
            3 => (
                format!("{:?}", c.invalidate(addr)),
                format!("{:?}", r.invalidate(addr)),
            ),
            4 => (
                format!("{:?}", c.snoop(addr)),
                format!("{:?}", r.snoop(addr)),
            ),
            5 => (
                format!("{:?}", c.writeback_fill(addr)),
                format!("{:?}", r.writeback_fill(addr)),
            ),
            _ => (
                format!("{:?}", c.probe(addr)),
                format!("{:?}", r.probe(addr)),
            ),
        };
        if got != want {
            return Err(format!("op {op} at {addr:#x}: {got} != {want}"));
        }
        if (c.stats, c.prefetch_useful, c.resident_lines())
            != (r.stats, r.prefetch_useful, r.resident_lines())
        {
            return Err(format!("op {op} at {addr:#x}: counters diverged"));
        }
        Ok(())
    }

    /// A geometry of `sets` × `ways` 64-byte lines.
    fn oracle_cfg(sets: u64, ways: usize, write_policy: WritePolicy) -> CacheConfig {
        CacheConfig {
            name: "O",
            size_bytes: sets * ways as u64 * 64,
            ways,
            line_bytes: 64,
            latency: 1,
            write_policy,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The zero-means-empty tag array answers every operation as the
        /// one-`Line`-per-way array did, with the same counters after
        /// every step, over random operation sequences on small
        /// geometries under both write policies.
        #[test]
        fn tag_storage_matches_the_line_array_oracle(
            shape in (0u32..3, 1usize..5, prop::bool::ANY),
            ops in prop::collection::vec(
                (0u8..7, 0u64..48 * 64, 0u8..3, prop::bool::ANY, prop::bool::ANY),
                1..300,
            ),
        ) {
            let (sets_log2, ways, wb) = shape;
            let policy = if wb { WritePolicy::WriteBack } else { WritePolicy::WriteThrough };
            let cfg = oracle_cfg(1 << sets_log2, ways, policy);
            let (mut c, mut r) = (Cache::new(cfg.clone()), RefCache::new(cfg));
            for (op, addr, kind, dirty, pf) in ops {
                // A dirty fill into a write-through level is a caller
                // error that `access`'s debug assertion catches.
                let dirty = dirty && wb;
                step(&mut c, &mut r, (op, addr, kind, dirty, pf)).map_err(TestCaseError::fail)?;
            }
        }
    }

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B.
        Cache::new(CacheConfig {
            name: "T",
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            latency: 2,
            write_policy: WritePolicy::WriteBack,
        })
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.cfg.num_sets(), 4);
        assert_eq!(c.line_addr(0x12345), 0x12340);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert!(!c.access(0x1000, AccessKind::Read));
        assert_eq!(c.fill(0x1000, false, false), None);
        assert!(c.access(0x1000, AccessKind::Read));
        assert_eq!(c.stats.read_hits, 1);
        assert_eq!(c.stats.read_misses, 1);
        assert_eq!(c.stats.fills, 1);
    }

    #[test]
    fn same_line_different_offset_hits() {
        let mut c = tiny();
        c.fill(0x1000, false, false);
        assert!(c.access(0x103f, AccessKind::Read));
        assert!(!c.access(0x1040, AccessKind::Read), "next line misses");
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Set index = (addr>>6) & 3. Use set 0: line addrs multiples of 0x100.
        c.fill(0x0000, false, false);
        c.fill(0x1000, false, false);
        // Touch 0x0000 so 0x1000 becomes LRU.
        c.access(0x0000, AccessKind::Read);
        let ev = c.fill(0x2000, false, false).expect("eviction expected");
        assert_eq!(ev.addr, 0x1000);
        assert!(!ev.dirty);
        assert!(c.probe(0x0000) && c.probe(0x2000) && !c.probe(0x1000));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.fill(0x0000, false, false);
        c.access(0x0000, AccessKind::Write); // marks dirty (write-back)
        c.fill(0x1000, false, false);
        let ev = c.fill(0x2000, false, false).unwrap();
        assert_eq!(ev.addr, 0x0000);
        assert!(ev.dirty);
        assert_eq!(c.stats.writebacks_out, 1);
    }

    #[test]
    fn writethrough_lines_stay_clean() {
        let mut c = Cache::new(CacheConfig {
            name: "WT",
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
            latency: 2,
            write_policy: WritePolicy::WriteThrough,
        });
        c.fill(0x0000, false, false);
        c.access(0x0000, AccessKind::Write);
        c.fill(0x1000, false, false);
        let ev = c.fill(0x2000, false, false).unwrap();
        assert!(!ev.dirty, "write-through lines are never dirty");
        assert_eq!(c.stats.writebacks_out, 0);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = tiny();
        c.fill(0x1000, false, false);
        c.access(0x1000, AccessKind::Write);
        assert_eq!(c.invalidate(0x1000), Some(true));
        assert!(!c.probe(0x1000));
        assert_eq!(c.invalidate(0x1000), None);
        assert_eq!(c.stats.invalidations, 2);
    }

    #[test]
    fn snoop_counts_without_disturbing() {
        let mut c = tiny();
        c.fill(0x1000, false, false);
        assert!(c.snoop(0x1000));
        assert!(!c.snoop(0x2000));
        assert_eq!(c.stats.snoops, 2);
        assert!(c.probe(0x1000));
    }

    #[test]
    fn prefetch_accounting() {
        let mut c = tiny();
        assert!(!c.access(0x1000, AccessKind::Prefetch));
        c.fill(0x1000, false, true);
        assert_eq!(c.stats.prefetch_fills, 1);
        // Demand touch marks the prefetch useful.
        assert!(c.access(0x1000, AccessKind::Read));
        assert_eq!(c.prefetch_useful, 1);
        // Second prefetch to the same line is a prefetch hit.
        assert!(c.access(0x1000, AccessKind::Prefetch));
        assert_eq!(c.stats.prefetch_hits, 1);
    }

    #[test]
    fn fill_of_resident_line_does_not_evict() {
        let mut c = tiny();
        c.fill(0x1000, false, false);
        assert_eq!(c.fill(0x1000, true, false), None);
        assert_eq!(c.stats.fills, 2);
    }

    #[test]
    fn hit_ratio_and_totals() {
        let mut c = tiny();
        c.access(0x1000, AccessKind::Read); // miss
        c.fill(0x1000, false, false);
        c.access(0x1000, AccessKind::Read); // hit
        c.access(0x1000, AccessKind::Write); // hit
        assert!((c.stats.hit_ratio() - 66.666).abs() < 0.01);
        assert_eq!(c.stats.total_accesses(), 3 + 1); // 3 demand + 1 fill
    }

    #[test]
    fn flush_all_clears_lines_keeps_stats() {
        let mut c = tiny();
        c.fill(0x1000, false, false);
        c.flush_all();
        assert_eq!(c.resident_lines(), 0);
        assert_eq!(c.stats.fills, 1);
    }
}
