//! The per-core memory tile: L1I/L1D/L2 + TLB + prefetcher + LM + DMAC
//! in front of the shared [`SharedBackside`].
//!
//! This is the component the simulated core talks to. It reproduces the
//! architecture of the paper's Figure 1 and Table 1:
//!
//! * **Demand accesses** to system memory consult the TLB, train the
//!   prefetcher, and walk L1D → L2 → L3 → DRAM with MSHR merging, LRU
//!   fills and write-back cascades. The L1D is write-through (Table 1), so
//!   store hits forward the write to L2.
//! * **Local-memory accesses** bypass the TLB and the whole hierarchy with
//!   a fixed 2-cycle latency.
//! * **DMA transfers** are coherent with the caches: each `dma-get` bus
//!   request snoops the hierarchy for a newer copy, and each `dma-put` bus
//!   request invalidates matching lines (paper §2.1), exactly the
//!   accounting Table 3 includes in its per-level access counts.
//!
//! Everything here is private to one core; tiles meet only at the
//! backside (paper §3).

use crate::backside::{BacksideCoreStats, SharedBackside};
use crate::cache::{AccessKind, Cache};
use crate::config::{AccessResponse, CacheEvent, Level, MemConfig};
use crate::dma::{DmaOp, Dmac};
use crate::lm::LocalMem;
use crate::mshr::{MshrFile, MshrOutcome};
use crate::prefetch::StreamPrefetcher;
use crate::tlb::Tlb;
use std::cell::RefCell;
use std::rc::Rc;

/// The per-core memory tile plus its handle on the shared backside.
pub struct MemSystem {
    /// Configuration (geometry reported by Table 1 binaries).
    pub cfg: MemConfig,
    /// L1 instruction cache.
    pub l1i: Cache,
    /// L1 data cache.
    pub l1d: Cache,
    /// Unified L2.
    pub l2: Cache,
    /// L1D miss-status holding registers.
    pub mshr: MshrFile,
    /// IP-based stream prefetcher.
    pub prefetcher: StreamPrefetcher,
    /// The prefetcher's output buffer, reused by every demand access.
    prefetch_targets: Vec<u64>,
    /// Data TLB (bypassed by LM accesses).
    pub tlb: Tlb,
    /// Local memory, when configured.
    pub lm: Option<LocalMem>,
    /// DMA controller.
    pub dmac: Dmac,
    /// Residency event stream for the coherence tracker (`None`
    /// disables collection; benchmarks keep it off).
    pub events: Option<Vec<CacheEvent>>,
    pub(crate) backside: Rc<RefCell<SharedBackside>>,
    core_id: usize,
}

impl MemSystem {
    /// Builds a single-core memory system with a private backside.
    pub fn new(cfg: MemConfig) -> Self {
        let backside = Rc::new(RefCell::new(SharedBackside::new(&cfg, 1)));
        Self::with_backside(cfg, backside, 0)
    }

    /// Builds one core's tile in front of a shared backside.
    ///
    /// Panics if `core_id` is out of range for the backside.
    pub fn with_backside(
        cfg: MemConfig,
        backside: Rc<RefCell<SharedBackside>>,
        core_id: usize,
    ) -> Self {
        assert!(
            core_id < backside.borrow().n_cores(),
            "core_id {core_id} out of range for the shared backside"
        );
        MemSystem {
            l1i: Cache::new(cfg.l1i.clone()),
            l1d: Cache::new(cfg.l1d.clone()),
            l2: Cache::new(cfg.l2.clone()),
            mshr: MshrFile::new(cfg.mshr_entries),
            prefetcher: StreamPrefetcher::new(cfg.prefetch.clone()),
            prefetch_targets: Vec::new(),
            tlb: Tlb::new(cfg.tlb.clone()),
            lm: cfg.lm.clone().map(LocalMem::new),
            dmac: Dmac::with_faults(cfg.dma.clone(), &cfg.fault, core_id as u64),
            events: None,
            backside,
            core_id,
            cfg,
        }
    }

    /// This tile's core id within the shared backside.
    pub fn core_id(&self) -> usize {
        self.core_id
    }

    /// Enables residency-event collection (coherence-tracker runs).
    pub fn enable_events(&mut self) {
        self.events = Some(Vec::new());
        self.backside.borrow_mut().enable_events(self.core_id);
    }

    /// Drains collected residency events (this core's tile plus its share
    /// of backside events).
    pub fn drain_events(&mut self) -> Vec<CacheEvent> {
        self.pull_backside_events();
        match &mut self.events {
            Some(v) => std::mem::take(v),
            None => Vec::new(),
        }
    }

    /// Appends this core's pending backside events to the local stream,
    /// preserving the order relative to L1/L2 events.
    fn pull_backside_events(&mut self) {
        if let Some(v) = &mut self.events {
            let mut incoming = self.backside.borrow_mut().take_events(self.core_id);
            v.append(&mut incoming);
        }
    }

    /// Runs one request of this core on the shared backside, then pulls
    /// the residency events it raised into the local stream.
    fn on_backside<R>(&mut self, request: impl FnOnce(&mut SharedBackside, usize) -> R) -> R {
        let r = request(&mut self.backside.borrow_mut(), self.core_id);
        self.pull_backside_events();
        r
    }

    #[inline]
    fn ev(&mut self, line: u64, fill: bool) {
        if let Some(v) = &mut self.events {
            v.push(CacheEvent { line, fill });
        }
    }

    /// This core's backside contention statistics.
    pub fn backside_stats(&self) -> BacksideCoreStats {
        self.backside.borrow().core_stats(self.core_id)
    }

    /// A local-memory access: fixed latency, no TLB, no cache activity.
    ///
    /// Panics if the system has no LM (the machine must not route LM
    /// accesses here in cache-based mode).
    pub fn lm_access(&mut self, write: bool) -> AccessResponse {
        let lm = self.lm.as_mut().expect("lm_access on a system without LM");
        AccessResponse {
            latency: lm.access(write),
            served: Level::Lm,
            tlb_penalty: 0,
        }
    }

    /// Drops `line` from the L1D and the L2 (a recall or a `dma-put`
    /// invalidation), returning how many of the dropped copies were
    /// dirty. Either level can hold a dirty copy: the shipped Table 1
    /// L1D is write-through and never dirty, but hetero tiles are free
    /// to configure a write-back L1D.
    fn invalidate_upper(&mut self, line: u64) -> u64 {
        let mut dirty = 0;
        let dropped = [self.l1d.invalidate(line), self.l2.invalidate(line)];
        for was_dirty in dropped.into_iter().flatten() {
            self.ev(line, false);
            dirty += u64::from(was_dirty);
        }
        dirty
    }

    /// Applies any back-invalidation messages the directory addressed to
    /// this tile's L1/L2 (recalls of shared lines another core wrote or
    /// evicted), returning the tile-side port occupancy the recalls
    /// cost: each *dirty* line recalled out of the L1/L2 charges
    /// [`CoherenceConfig::dirty_recall_latency`](crate::CoherenceConfig::dirty_recall_latency)
    /// cycles to the memory operation draining the queue, so recall
    /// storms couple into the victim core's timing. A cheap no-op under
    /// `Replicate` — the backside is not even consulted.
    fn apply_upper_invals(&mut self) -> u64 {
        if !self.cfg.coherence.mode.is_directory()
            || !self.backside.borrow().has_upper_invals(self.core_id)
        {
            return 0;
        }
        let lines = self.backside.borrow_mut().take_upper_invals(self.core_id);
        let dirty: u64 = lines.into_iter().map(|a| self.invalidate_upper(a)).sum();
        if dirty == 0 {
            return 0;
        }
        let mut bs = self.backside.borrow_mut();
        bs.note_dirty_recalls(self.core_id, dirty);
        dirty * bs.dirty_recall_latency()
    }

    /// A demand access to system memory from instruction at `pc`.
    pub fn data_access(&mut self, now: u64, pc: u64, addr: u64, write: bool) -> AccessResponse {
        let recall_penalty = self.apply_upper_invals();
        let tlb_penalty = self.tlb.access(addr);
        let now = now + tlb_penalty + recall_penalty;

        // Train the prefetcher and issue its fills before the demand
        // access so a just-prefetched line does not count as a demand hit
        // for the line that triggered it.
        let line_bytes = self.cfg.l1d.line_bytes;
        let mut targets = std::mem::take(&mut self.prefetch_targets);
        self.prefetcher.observe(pc, addr, line_bytes, &mut targets);
        for &t in &targets {
            self.prefetch_line(now, t);
        }
        self.prefetch_targets = targets;

        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        let l1_latency = self.cfg.l1d.latency;
        let wait_for = |ready_at: u64| (ready_at - now).max(l1_latency);
        let line_addr = self.l1d.line_addr(addr);
        let (latency, served) = if self.l1d.access(addr, kind) {
            // The line may have been placed by a miss whose fetch is still
            // in flight; such accesses wait on the MSHR entry (secondary
            // miss merge).
            let in_flight = self.mshr.pending_ready(line_addr, now);
            (in_flight.map_or(l1_latency, wait_for), Level::L1)
        } else {
            // L1 miss: allocate or merge in the MSHR file.
            match self.mshr.lookup_or_allocate(line_addr, now) {
                MshrOutcome::Merged { ready_at } => (wait_for(ready_at), Level::L1),
                MshrOutcome::Allocated { idx, start_at } => {
                    let (below, served, intervention) = self.walk_l2(start_at, line_addr, kind);
                    let total = (start_at - now) + l1_latency + below;
                    self.mshr.set_ready(idx, now + total);
                    if intervention {
                        self.mshr.note_intervention(idx);
                    }
                    self.fill_l1d(line_addr, false);
                    (total, served)
                }
            }
        };
        if write {
            // Write-through (after a write-allocate fill on a miss): the
            // write updates L1 and is forwarded below.
            self.writethrough_below(now, addr);
        }
        AccessResponse {
            latency: latency + tlb_penalty + recall_penalty,
            served,
            tlb_penalty,
        }
    }

    /// Places `line` in the L1D (write-through L1 victims are always
    /// clean), streaming the victim's eviction and the line's fill.
    fn fill_l1d(&mut self, line: u64, prefetched: bool) {
        if let Some(ev) = self.l1d.fill(line, false, prefetched) {
            self.ev(ev.addr, false);
        }
        self.ev(line, true);
    }

    /// Propagates a write-through store below L1. The walk above
    /// guarantees L2 normally holds the line; when it does not, the write
    /// keeps descending into the shared backside (and is posted to DRAM
    /// at the bottom). Under the directory modes, a store absorbed by
    /// the L2 still notifies the directory when the line is shared, so
    /// ownership tracking stays sound.
    fn writethrough_below(&mut self, now: u64, addr: u64) {
        let a2 = self.l2.line_addr(addr);
        if !self.l2.writethrough_from_above(a2) {
            self.on_backside(|bs, core| bs.writethrough(core, now, a2));
        } else if self.cfg.coherence.mode.is_directory() {
            self.on_backside(|bs, core| bs.note_shared_store(core, now, a2));
        }
    }

    /// Walks L2 and then the shared L3 → DRAM backside for a missing L1
    /// line. Returns the latency beyond L1, the serving level, and
    /// whether the backside walk paid an M-state intervention.
    fn walk_l2(&mut self, now: u64, line_addr: u64, kind: AccessKind) -> (u64, Level, bool) {
        let l2_latency = self.cfg.l2.latency;
        if self.l2.access(line_addr, kind) {
            return (l2_latency, Level::L2, false);
        }
        let (below, served, intervention) =
            self.on_backside(|bs, core| bs.access(core, now + l2_latency, line_addr, kind));
        // Fill L2; dirty victims cascade into the backside.
        if let Some(ev) = self.l2.fill(line_addr, false, kind == AccessKind::Prefetch) {
            self.ev(ev.addr, false);
            if ev.dirty {
                self.on_backside(|bs, core| bs.accept_writeback(core, now, ev.addr));
            }
        }
        self.ev(line_addr, true);
        (l2_latency + below, served, intervention)
    }

    /// Issues one prefetch to `line` (fills L1, L2 and L3 as in Table 1).
    ///
    /// The fill is tracked in the MSHR file with its real completion
    /// time, so demand accesses that catch up with an in-flight prefetch
    /// wait for the remaining latency (prefetch *timeliness* matters:
    /// simple loops can outrun the prefetcher, §4.3).
    fn prefetch_line(&mut self, now: u64, line: u64) {
        if self.l1d.access(line, AccessKind::Prefetch) {
            return; // already resident: counted as a prefetch hit
        }
        // Bring the line in below (counts L2/L3 activity), then fill
        // upward flagged as prefetched.
        let (latency, _, intervention) = self.walk_l2(now, line, AccessKind::Prefetch);
        self.fill_l1d(line, true);
        // Record the in-flight window so demand accesses that catch up
        // with this prefetch wait for it.
        if let MshrOutcome::Allocated { idx, start_at } = self.mshr.lookup_or_allocate(line, now) {
            self.mshr.set_ready(idx, start_at + latency);
            if intervention {
                self.mshr.note_intervention(idx);
            }
        }
    }

    /// Instruction fetch of the line containing `addr`.
    pub fn inst_fetch(&mut self, now: u64, addr: u64) -> u64 {
        if self.l1i.access(addr, AccessKind::Read) {
            return self.cfg.l1i.latency;
        }
        let line = self.l1i.line_addr(addr);
        let (below, _, _) = self.walk_l2(now, line, AccessKind::Read);
        self.l1i.fill(line, false, false);
        self.cfg.l1i.latency + below
    }

    /// Executes the bus side of a `dma-get`: snoops the hierarchy for
    /// every line of `[sm_addr, sm_addr+bytes)` (paper §2.1: "the bus
    /// requests generated by a dma-get look for the data in the caches")
    /// and returns the command completion cycle.
    pub fn dma_get(&mut self, now: u64, sm_addr: u64, bytes: u64, tag: u8) -> u64 {
        self.dma(DmaOp::Get, now, sm_addr, bytes, tag)
    }

    /// Executes the bus side of a `dma-put`: copies to main memory and
    /// invalidates every matching cache line in the whole hierarchy
    /// (paper §2.1). Returns the command completion cycle.
    pub fn dma_put(&mut self, now: u64, sm_addr: u64, bytes: u64, tag: u8) -> u64 {
        self.dma(DmaOp::Put, now, sm_addr, bytes, tag)
    }

    /// The bus requests of one DMA command, line by line, then the
    /// command's issue on the DMAC.
    fn dma(&mut self, op: DmaOp, now: u64, sm_addr: u64, bytes: u64, tag: u8) -> u64 {
        // Draining pending recalls first delays the command issue by the
        // dirty-recall port occupancy, like any other memory operation.
        let now = now + self.apply_upper_invals();
        let line = self.cfg.l1d.line_bytes;
        for a in ((sm_addr & !(line - 1))..sm_addr + bytes).step_by(line as usize) {
            match op {
                // Snoop top-down; stop at the first level holding the line.
                DmaOp::Get => {
                    if !self.l1d.snoop(a) && !self.l2.snoop(a) {
                        let mut bs = self.backside.borrow_mut();
                        if !bs.snoop(self.core_id, now, a) {
                            bs.note_dram_read(self.core_id, a);
                        }
                    }
                }
                DmaOp::Put => {
                    self.invalidate_upper(a);
                    let mut bs = self.backside.borrow_mut();
                    bs.invalidate(self.core_id, a);
                    bs.note_dram_write(self.core_id, a);
                }
            }
        }
        if op == DmaOp::Put {
            self.pull_backside_events();
        }
        if let Some(lm) = self.lm.as_mut() {
            match op {
                DmaOp::Get => lm.note_dma_in(bytes),
                DmaOp::Put => lm.note_dma_out(bytes),
            }
        }
        self.dmac.issue(op, bytes, tag, now)
    }

    /// `dma-synch`: the cycle at which the wait for `tag` ends.
    pub fn dma_synch(&mut self, now: u64, tag: u8) -> u64 {
        self.dmac.synch(tag, now)
    }

    /// Total LM activity for the Table 3 "LM Accesses" column: CPU
    /// accesses plus DMA line transfers.
    pub fn lm_total_accesses(&self) -> u64 {
        match &self.lm {
            Some(lm) => {
                let line = self.cfg.l1d.line_bytes;
                lm.stats.cpu_accesses()
                    + (lm.stats.dma_bytes_in + lm.stats.dma_bytes_out).div_ceil(line)
            }
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_system(prefetch: bool) -> MemSystem {
        let mut cfg = MemConfig::hybrid();
        cfg.prefetch.enabled = prefetch;
        MemSystem::new(cfg)
    }

    #[test]
    fn cold_miss_walks_to_dram_then_hits() {
        let mut m = small_system(false);
        let r = m.data_access(0, 0x40, 0x1000_0000, false);
        assert_eq!(r.served, Level::Dram);
        // 2 (L1) + 15 (L2) + 40 (L3) + 200 (DRAM) + 30 (TLB miss)
        assert_eq!(r.latency, 2 + 15 + 40 + 200 + 30);
        assert_eq!(r.tlb_penalty, 30);
        let r2 = m.data_access(300, 0x40, 0x1000_0000, false);
        assert_eq!(r2.served, Level::L1);
        assert_eq!(r2.latency, 2);
    }

    #[test]
    fn l2_and_l3_service_levels() {
        let mut m = small_system(false);
        m.data_access(0, 0x40, 0x1000_0000, false); // to DRAM, fills all
                                                    // Evict from tiny L1 by filling its set; L1 32KB/8w/64B = 64 sets,
                                                    // set stride = 64*64 = 4096.
        for i in 1..=8u64 {
            m.data_access(1000 * i, 0x40, 0x1000_0000 + i * 4096, false);
        }
        let r = m.data_access(100_000, 0x40, 0x1000_0000, false);
        assert_eq!(r.served, Level::L2, "line must still be in L2");
        assert_eq!(r.latency, 2 + 15);
    }

    #[test]
    fn mshr_merges_same_line() {
        let mut m = small_system(false);
        let r1 = m.data_access(0, 0x40, 0x1000_0000, false);
        assert_eq!(r1.served, Level::Dram);
        // Reset TLB effect by touching the page already.
        // Second access to the same line while "in flight" at cycle 10.
        let r2 = m.data_access(10, 0x44, 0x1000_0008, false);
        assert_eq!(r2.served, Level::L1, "merged miss serves from L1 fill");
        assert!(r2.latency < r1.latency);
        assert_eq!(m.mshr.stats.merges, 1);
        // DRAM was read exactly once.
        assert_eq!(m.backside_stats().dram.reads, 1);
    }

    #[test]
    fn write_through_l1_forwards_to_l2() {
        let mut m = small_system(false);
        m.data_access(0, 0x40, 0x1000_0000, false); // fill
        let before = m.l2.stats.writethrough_writes;
        let r = m.data_access(300, 0x44, 0x1000_0000, true); // store hit
        assert_eq!(r.served, Level::L1);
        assert_eq!(m.l2.stats.writethrough_writes, before + 1);
    }

    #[test]
    fn store_miss_allocates_then_forwards() {
        let mut m = small_system(false);
        let r = m.data_access(0, 0x40, 0x2000_0000, true);
        assert_eq!(r.served, Level::Dram);
        assert!(m.l1d.probe(0x2000_0000), "write-allocate fills L1");
        assert_eq!(m.l2.stats.writethrough_writes, 1);
        // L2 line is dirty now; evicting it must cascade a write-back.
    }

    #[test]
    fn lm_access_bypasses_everything() {
        let mut m = small_system(false);
        let r = m.lm_access(false);
        assert_eq!(r.served, Level::Lm);
        assert_eq!(r.latency, 2);
        assert_eq!(r.tlb_penalty, 0);
        assert_eq!(m.tlb.lookups(), 0);
        assert_eq!(m.l1d.stats.demand_accesses(), 0);
    }

    #[test]
    fn prefetcher_fills_ahead() {
        let mut m = small_system(true);
        // Stream with stride 64 (one line per access): after training,
        // later accesses must hit on prefetched lines.
        let mut dram_before = 0;
        for i in 0..64u64 {
            let r = m.data_access(i * 1000, 0x40, 0x1000_0000 + i * 64, false);
            if i == 16 {
                dram_before = m.backside_stats().dram.reads;
            }
            if i > 20 {
                assert_eq!(
                    r.served,
                    Level::L1,
                    "stream must hit after training (i={i})"
                );
            }
        }
        assert!(
            m.backside_stats().dram.reads > dram_before,
            "prefetches read DRAM"
        );
        assert!(m.l1d.prefetch_useful > 0);
    }

    #[test]
    fn dma_get_snoops_and_put_invalidates() {
        let mut m = small_system(false);
        // Load a line so caches hold it.
        m.data_access(0, 0x40, 0x1000_0000, false);
        let l1_snoops = m.l1d.stats.snoops;
        m.dma_get(1000, 0x1000_0000, 128, 0);
        assert_eq!(m.l1d.stats.snoops, l1_snoops + 2, "two lines snooped");
        // dma-put invalidates everywhere.
        assert!(m.l1d.probe(0x1000_0000));
        m.dma_put(2000, 0x1000_0000, 64, 0);
        assert!(!m.l1d.probe(0x1000_0000));
        assert!(!m.l2.probe(0x1000_0000));
        assert!(!m.backside.borrow().probe(m.core_id(), 0x1000_0000));
        assert_eq!(m.l1d.stats.invalidations, 1);
    }

    #[test]
    fn dma_synch_waits_for_tagged_transfers() {
        let mut m = small_system(false);
        let done = m.dma_get(0, 0x1000_0000, 4096, 3);
        assert!(done > 0);
        assert_eq!(m.dma_synch(10, 3), done);
        assert_eq!(m.dma_synch(done + 5, 3), done + 5);
    }

    #[test]
    fn inst_fetch_caches_lines() {
        let mut m = small_system(false);
        let cold = m.inst_fetch(0, 0x0);
        assert!(cold > 2);
        let warm = m.inst_fetch(300, 0x8);
        assert_eq!(warm, 2, "same I-line hits");
    }

    #[test]
    fn lm_total_accesses_combines_cpu_and_dma() {
        let mut m = small_system(false);
        m.lm_access(true);
        m.lm_access(false);
        m.dma_get(0, 0x1000_0000, 128, 0);
        assert_eq!(m.lm_total_accesses(), 2 + 2);
    }

    #[test]
    fn cache_based_config_has_no_lm() {
        let cfg = MemConfig::cache_based();
        assert!(cfg.lm.is_none());
        assert_eq!(cfg.l1d.size_bytes, 64 * 1024);
        let m = MemSystem::new(cfg);
        assert!(m.lm.is_none());
    }

    #[test]
    #[should_panic(expected = "without LM")]
    fn lm_access_without_lm_panics() {
        let mut m = MemSystem::new(MemConfig::cache_based());
        m.lm_access(false);
    }

    #[test]
    fn single_core_system_reports_zero_waits() {
        let mut m = small_system(false);
        for i in 0..16u64 {
            m.data_access(i * 10, 0x40, 0x1000_0000 + i * 64, false);
        }
        assert_eq!(m.backside_stats().bus_wait_cycles, 0);
    }
}
