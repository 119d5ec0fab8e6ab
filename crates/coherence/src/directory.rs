//! The coherence directory (paper §3.2, Figure 4).
//!
//! A small per-core CAM that keeps track of what data is mapped to the
//! local memory. One entry is statically assigned to each equally-sized LM
//! buffer; the entry index *is* the buffer number. Each entry maps the
//! starting SM address of the copied chunk (the *tag*) to the buffer, and
//! carries a *presence bit* covering in-flight `dma-get` transfers.
//!
//! The software side configures the LM buffer size through a
//! memory-mapped register (`dir.cfg`); the hardware derives the **Base
//! Mask** and **Offset Mask** registers from it. A guarded access then
//! decomposes its SM address with two AND gates, compares the base against
//! all tags, and on a hit ORs the matching buffer's base address with the
//! offset — producing the diverted LM address in the same cycle as address
//! generation (§3.2 estimates 0.348 ns for a 32-entry CAM at 45 nm).
//!
//! Invariants enforced here (and leaned on by the compiler):
//! * the buffer size is a power of two, at least 64 bytes, at most the LM
//!   size;
//! * `dma-get` chunks are buffer-size aligned in both memories (the
//!   compiler allocates arrays and windows aligned — see
//!   `hsim_compiler::layout`);
//! * reconfiguring the buffer size invalidates all entries.

/// Outcome of a directory lookup that hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DirHit {
    /// The diverted local-memory address (`LM base | offset`).
    pub lm_addr: u64,
    /// Cycle at which the mapping's `dma-get` completes. A guarded access
    /// executing before this cycle stalls on the presence bit (§3.2,
    /// double-buffer support).
    pub ready_at: u64,
}

/// Directory configuration.
#[derive(Clone, Debug)]
pub struct DirConfig {
    /// Number of CAM entries (paper: 32, to keep the lookup in-cycle).
    pub entries: usize,
    /// Base virtual address of the LM window.
    pub lm_base: u64,
    /// Size of the LM in bytes.
    pub lm_size: u64,
}

impl Default for DirConfig {
    fn default() -> Self {
        DirConfig {
            entries: 32,
            lm_base: hsim_isa::memmap::LM_BASE,
            lm_size: hsim_isa::memmap::LM_SIZE,
        }
    }
}

/// Errors raised by directory operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DirError {
    /// `dir.cfg` with a size that is not a power of two, too small, or
    /// larger than the LM.
    BadBufferSize(u64),
    /// A `dma-get` whose LM destination is not buffer-aligned or outside
    /// the LM.
    BadLmAddress(u64),
    /// A `dma-get` whose SM source is not buffer-aligned.
    BadSmAddress(u64),
    /// A `dma-get` targeting a buffer beyond the CAM's entry count.
    NoEntry(usize),
}

impl std::fmt::Display for DirError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DirError::BadBufferSize(s) => write!(f, "bad LM buffer size {s:#x}"),
            DirError::BadLmAddress(a) => write!(f, "unaligned or out-of-range LM address {a:#x}"),
            DirError::BadSmAddress(a) => write!(f, "unaligned SM address {a:#x}"),
            DirError::NoEntry(i) => write!(f, "LM buffer {i} has no directory entry"),
        }
    }
}

impl std::error::Error for DirError {}

/// Directory activity counters (drive the Table 3 "Directory Accesses"
/// column and the directory's energy contribution).
#[derive(Clone, Copy, Debug, Default)]
pub struct DirStats {
    /// CAM lookups performed by guarded accesses.
    pub lookups: u64,
    /// Lookups that hit (diverted to the LM).
    pub hits: u64,
    /// Entry updates performed by `dma-get` commands.
    pub updates: u64,
    /// Buffer-size reconfigurations.
    pub configures: u64,
    /// Guarded accesses that stalled on an unset presence bit.
    pub presence_stalls: u64,
}

#[derive(Clone, Copy, Debug, Default)]
struct Entry {
    valid: bool,
    /// SM base address of the mapped chunk (buffer-size aligned).
    tag: u64,
    /// Completion cycle of the mapping `dma-get` (presence bit proxy).
    ready_at: u64,
}

/// The per-core coherence directory.
pub struct Directory {
    cfg: DirConfig,
    buf_size: u64,
    base_mask: u64,
    offset_mask: u64,
    entries: Vec<Entry>,
    /// Activity counters.
    pub stats: DirStats,
}

impl Directory {
    /// Builds a directory; the initial buffer size is the whole LM split
    /// across all entries.
    pub fn new(cfg: DirConfig) -> Self {
        assert!(cfg.entries > 0 && cfg.lm_size.is_power_of_two());
        let initial = (cfg.lm_size / cfg.entries as u64)
            .next_power_of_two()
            .max(64);
        let mut d = Directory {
            entries: vec![Entry::default(); cfg.entries],
            buf_size: 0,
            base_mask: 0,
            offset_mask: 0,
            stats: DirStats::default(),
            cfg,
        };
        d.configure(initial).expect("initial size is valid");
        d.stats.configures = 0; // implicit initial configuration is free
        d
    }

    /// The current LM buffer size in bytes.
    pub fn buf_size(&self) -> u64 {
        self.buf_size
    }

    /// The Base Mask register (AND with an address to get its base).
    pub fn base_mask(&self) -> u64 {
        self.base_mask
    }

    /// The Offset Mask register (AND with an address to get its offset).
    pub fn offset_mask(&self) -> u64 {
        self.offset_mask
    }

    /// Number of usable LM buffers under the current configuration.
    pub fn num_buffers(&self) -> usize {
        ((self.cfg.lm_size / self.buf_size) as usize).min(self.cfg.entries)
    }

    /// Reconfigures the LM buffer size (the `dir.cfg` MMIO write). All
    /// entries are invalidated: the previous mapping is meaningless under
    /// new masks.
    pub fn configure(&mut self, buf_size: u64) -> Result<(), DirError> {
        if !buf_size.is_power_of_two() || buf_size < 64 || buf_size > self.cfg.lm_size {
            return Err(DirError::BadBufferSize(buf_size));
        }
        self.buf_size = buf_size;
        self.offset_mask = buf_size - 1;
        self.base_mask = !self.offset_mask;
        self.entries.iter_mut().for_each(|e| e.valid = false);
        self.stats.configures += 1;
        Ok(())
    }

    /// The buffer index owning an LM address, if in range.
    pub fn buf_index(&self, lm_addr: u64) -> Option<usize> {
        let off = lm_addr.wrapping_sub(self.cfg.lm_base);
        if off >= self.cfg.lm_size {
            return None;
        }
        Some((off / self.buf_size) as usize)
    }

    /// Records a `dma-get`: maps the chunk starting at `sm_src` (SM) into
    /// the buffer at `lm_dst`; the presence bit is considered set from
    /// `ready_at` (the transfer's completion cycle) onward.
    pub fn update_get(&mut self, lm_dst: u64, sm_src: u64, ready_at: u64) -> Result<(), DirError> {
        if sm_src & self.offset_mask != 0 {
            return Err(DirError::BadSmAddress(sm_src));
        }
        let idx = self
            .buf_index(lm_dst)
            .ok_or(DirError::BadLmAddress(lm_dst))?;
        if !lm_dst
            .wrapping_sub(self.cfg.lm_base)
            .is_multiple_of(self.buf_size)
        {
            return Err(DirError::BadLmAddress(lm_dst));
        }
        if idx >= self.entries.len() {
            return Err(DirError::NoEntry(idx));
        }
        self.entries[idx] = Entry {
            valid: true,
            tag: sm_src,
            ready_at,
        };
        self.stats.updates += 1;
        Ok(())
    }

    /// The SM chunk currently mapped by buffer `idx`, if any (used by the
    /// machine to raise unmap events for the coherence tracker).
    pub fn mapped_chunk(&self, idx: usize) -> Option<u64> {
        let e = self.entries.get(idx)?;
        e.valid.then_some(e.tag)
    }

    /// CAM lookup in the address-generation path of a guarded access
    /// (Figure 4): splits `sm_addr` with the mask registers, compares the
    /// base against all valid tags, and returns the diverted LM address on
    /// a hit. Counted in the statistics.
    #[inline]
    pub fn lookup(&mut self, sm_addr: u64) -> Option<DirHit> {
        self.stats.lookups += 1;
        let hit = self.lookup_quiet(sm_addr);
        if hit.is_some() {
            self.stats.hits += 1;
        }
        hit
    }

    /// The same CAM match without touching statistics or energy — used by
    /// the oracle-routed baseline (Figure 8), which has no directory
    /// hardware but is "always served by the memory that has the valid
    /// copy".
    #[inline]
    pub fn lookup_quiet(&self, sm_addr: u64) -> Option<DirHit> {
        let base = sm_addr & self.base_mask;
        let offset = sm_addr & self.offset_mask;
        for (idx, e) in self.entries.iter().enumerate() {
            if e.valid && e.tag == base {
                let lm_buf_base = self.cfg.lm_base + idx as u64 * self.buf_size;
                return Some(DirHit {
                    lm_addr: lm_buf_base | offset,
                    ready_at: e.ready_at,
                });
            }
        }
        None
    }

    /// Notes a presence-bit stall (the machine calls this when a guarded
    /// access hits an entry whose `dma-get` has not completed).
    pub fn note_presence_stall(&mut self) {
        self.stats.presence_stalls += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LM_BASE: u64 = hsim_isa::memmap::LM_BASE;

    fn dir() -> Directory {
        Directory::new(DirConfig::default())
    }

    #[test]
    fn initial_configuration_splits_lm() {
        let d = dir();
        assert_eq!(d.buf_size(), 1024); // 32 KiB / 32 entries
        assert_eq!(d.num_buffers(), 32);
        assert_eq!(d.offset_mask(), 1023);
        assert_eq!(d.base_mask(), !1023);
    }

    #[test]
    fn configure_rejects_bad_sizes() {
        let mut d = dir();
        assert_eq!(d.configure(1000), Err(DirError::BadBufferSize(1000)));
        assert_eq!(d.configure(32), Err(DirError::BadBufferSize(32)));
        assert_eq!(
            d.configure(64 * 1024),
            Err(DirError::BadBufferSize(64 * 1024))
        );
        assert!(d.configure(4096).is_ok());
        assert_eq!(d.num_buffers(), 8, "32 KiB / 4 KiB");
    }

    #[test]
    fn update_and_lookup_roundtrip() {
        let mut d = dir();
        d.configure(1024).unwrap();
        let sm = 0x1000_0000u64;
        d.update_get(LM_BASE + 2048, sm, 500).unwrap();
        // Address inside the chunk hits and diverts with the same offset.
        let h = d.lookup(sm + 136).expect("must hit");
        assert_eq!(h.lm_addr, LM_BASE + 2048 + 136);
        assert_eq!(h.ready_at, 500);
        // Address in the next chunk misses.
        assert!(d.lookup(sm + 1024).is_none());
        // Address below misses.
        assert!(d.lookup(sm - 8).is_none());
        assert_eq!(d.stats.lookups, 3);
        assert_eq!(d.stats.hits, 1);
    }

    #[test]
    fn lookup_matches_figure4_datapath() {
        // The diverted address must equal (LM buffer base) | (addr &
        // offset mask) — bit-wise OR, exactly as in Figure 4.
        let mut d = dir();
        d.configure(512).unwrap();
        let sm = 0x2000_0400u64; // 512-aligned
        d.update_get(LM_BASE, sm, 0).unwrap();
        for off in [0u64, 8, 255, 511] {
            let h = d.lookup(sm + off).unwrap();
            assert_eq!(h.lm_addr, LM_BASE | off);
        }
    }

    #[test]
    fn remapping_a_buffer_replaces_its_tag() {
        let mut d = dir();
        d.configure(1024).unwrap();
        d.update_get(LM_BASE, 0x1000_0000, 0).unwrap();
        assert!(d.lookup(0x1000_0000).is_some());
        // New dma-get to the same buffer unmaps the old chunk.
        d.update_get(LM_BASE, 0x1000_0400, 0).unwrap();
        assert!(d.lookup(0x1000_0000).is_none(), "old chunk unmapped");
        assert!(d.lookup(0x1000_0400).is_some());
        assert_eq!(d.mapped_chunk(0), Some(0x1000_0400));
    }

    #[test]
    fn distinct_buffers_coexist() {
        let mut d = dir();
        d.configure(1024).unwrap();
        for i in 0..32u64 {
            d.update_get(LM_BASE + i * 1024, 0x1000_0000 + i * 1024, 0)
                .unwrap();
        }
        for i in 0..32u64 {
            let h = d.lookup(0x1000_0000 + i * 1024 + 8).unwrap();
            assert_eq!(h.lm_addr, LM_BASE + i * 1024 + 8);
        }
    }

    #[test]
    fn update_rejects_misaligned_addresses() {
        let mut d = dir();
        d.configure(1024).unwrap();
        assert_eq!(
            d.update_get(LM_BASE + 8, 0x1000_0000, 0),
            Err(DirError::BadLmAddress(LM_BASE + 8))
        );
        assert_eq!(
            d.update_get(LM_BASE, 0x1000_0008, 0),
            Err(DirError::BadSmAddress(0x1000_0008))
        );
        assert_eq!(
            d.update_get(0x10, 0x1000_0000, 0),
            Err(DirError::BadLmAddress(0x10))
        );
    }

    #[test]
    fn reconfigure_invalidates_entries() {
        let mut d = dir();
        d.configure(1024).unwrap();
        d.update_get(LM_BASE, 0x1000_0000, 0).unwrap();
        d.configure(2048).unwrap();
        assert!(d.lookup(0x1000_0000).is_none());
        assert_eq!(d.stats.configures, 2);
    }

    #[test]
    fn quiet_lookup_leaves_stats_untouched() {
        let mut d = dir();
        d.configure(1024).unwrap();
        d.update_get(LM_BASE, 0x1000_0000, 0).unwrap();
        let before = d.stats;
        assert!(d.lookup_quiet(0x1000_0010).is_some());
        assert_eq!(d.stats.lookups, before.lookups);
        assert_eq!(d.stats.hits, before.hits);
    }

    #[test]
    fn presence_ready_cycle_reported() {
        let mut d = dir();
        d.configure(1024).unwrap();
        d.update_get(LM_BASE, 0x1000_0000, 12345).unwrap();
        assert_eq!(d.lookup(0x1000_0001).unwrap().ready_at, 12345);
        d.note_presence_stall();
        assert_eq!(d.stats.presence_stalls, 1);
    }

    #[test]
    fn whole_lm_as_one_buffer() {
        let mut d = dir();
        d.configure(32 * 1024).unwrap();
        assert_eq!(d.num_buffers(), 1);
        d.update_get(LM_BASE, 0x4000_0000, 0).unwrap();
        let h = d.lookup(0x4000_0000 + 32 * 1024 - 1).unwrap();
        assert_eq!(h.lm_addr, LM_BASE + 32 * 1024 - 1);
        assert!(d.lookup(0x4000_0000 + 32 * 1024).is_none());
    }
}
