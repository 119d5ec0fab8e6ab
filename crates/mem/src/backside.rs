//! The chip-wide memory backside: the banked shared L3, its inter-core
//! directory and the DRAM channels behind them.
//!
//! One or more per-core [`MemSystem`](crate::MemSystem) tiles share a
//! [`SharedBackside`] (the paper's §3 multicore integration: everything
//! above the L3 — and the whole LM/directory apparatus — is strictly
//! per core, while the last-level cache and memory channel are chip-wide
//! resources). The backside is **banked**: the shared L3 is a vector of
//! address-interleaved banks, each with its own arbitrated port, in
//! front of one [`DramController`] per channel with per-DRAM-bank row
//! buffers and a posted-write queue. Requests to different L3 banks
//! proceed in parallel; requests to one bank serialize on its port in
//! the rotating round-robin order the machine ticks cores in.
//! Single-core systems embed a private one-core backside.
//!
//! ## Private and shared lines
//!
//! How the shared arrays treat the *same* system-memory address on two
//! cores depends on whether the address was registered as cross-core
//! shared ([`SharedBackside::mark_shared_range`], fed from the kernel
//! sharder's read-only replicated-whole arrays and from communication
//! arrays):
//!
//! * **Private** lines — everything unregistered — are tagged with
//!   their core id in the shared arrays and in the DRAM row mapping.
//!   Each tile runs in its own address space (its functional backing
//!   store is private), so one address on two cores names two physical
//!   lines; the tag models that separation, not a coherence mode. No
//!   directory state, no sharing, no invalidation traffic.
//! * **Shared** lines drop the core tag. Each L3 bank owns a directory
//!   slice (`dirslice.rs`) tracking, per resident shared line, the
//!   protocol state, a sharer bitset and the owner, stepped through the
//!   [`ProtocolTable`] of the configured
//!   [`CoherenceProtocol`](crate::CoherenceProtocol) (MSI, MESI, MOESI or
//!   MESIF). Reads are served to multiple cores from one line
//!   (`shared_hits`); a write recalls other sharers' copies with
//!   invalidation messages; a read of another core's dirty line pays an
//!   intervention; evicting a shared line (capacity or DMA)
//!   back-invalidates every upper copy. Message latencies are charged
//!   on the home bank's port, so later requests to that bank queue
//!   behind them — up to a finite backlog ([`BANK_BACKLOG_WINDOW`]).
//!
//! A machine that registers nothing (for instance, shards whose
//! `ArrayDecl::shared` marks are cleared) runs every line private and
//! behaves identically under all four protocols.
//!
//! Every entry point resolves its line once (`home`), and whatever a
//! directory transition owes — for a demand hit, a posted store or a
//! DMA snoop — is paid in one place (`discharge`).
//!
//! The per-tile hybrid LM protocol never enters this machinery: LM
//! accesses bypass the backside entirely, and DMA bus requests hit the
//! directory exactly like any other bus agent (paper §3: the protocols
//! do not interact).
//!
//! ## Invariants
//!
//! * **Exact stat partitioning** — every counter the backside increments
//!   (L3 bank activity, DRAM lines and row outcomes, bus waits, bank
//!   conflicts, queue stalls, coherence messages) is attributed to
//!   exactly one core's [`BacksideCoreStats`]; summing per-core shares
//!   always reproduces the aggregate `l3_total_stats()` /
//!   `dram_total_stats()` / `coherence_total_stats()`. This includes
//!   writes the directory posts on M-state interventions and dirty
//!   shared-victim evictions: the DRAM write and its eventual drain-time
//!   row outcome are charged to the *owner* whose dirty data is written
//!   back (interventions) or to the evicting requester (clean-path
//!   victims), never double-counted. Tests pin this for every counter.

use crate::backing::{DramController, DramStats};
use crate::cache::{AccessKind, Cache, CacheConfig, CacheStats, Evicted};
use crate::config::{CacheEvent, CoherenceConfig, Level, MemConfig};
use crate::dirslice::DirectorySlice;
use crate::fault::{backoff_delay, FaultRoller, FaultSite, MAX_RETRIES};
use hsim_coherence::protocol::{Obligations, ProtocolTable};

/// Per-core inter-core coherence activity (all zero on a machine with
/// no shared lines, except `dir_nacks`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoherenceStats {
    /// L3 hits this core scored on a shared line brought in or also held
    /// by another core — the replication traffic the directory saved.
    pub shared_hits: u64,
    /// Invalidation messages this core's writes (and the evictions and
    /// DMA puts it caused) sent to other cores' upper levels.
    pub invalidations_sent: u64,
    /// M-state interventions this core's requests triggered (another
    /// core's dirty line was recalled to serve them).
    pub interventions: u64,
    /// Invalidation messages applied to this core's own L1/L2 (the
    /// receive side of `invalidations_sent`).
    pub upper_invals_applied: u64,
    /// Recalled upper lines that were *dirty* in this core's L1/L2 —
    /// each one charged [`CoherenceConfig::dirty_recall_latency`]
    /// cycles of tile-side port occupancy to the memory operation that
    /// drained the recall.
    pub dirty_recalls: u64,
    /// Directory/bank message NACKs injected by the fault plan on this
    /// core's contended port arbitrations, each recovered by a bounded
    /// backoff re-arbitration (counted for private and shared lines
    /// alike — the bank port is the message fabric either way).
    pub dir_nacks: u64,
}

impl CoherenceStats {
    /// Merges another stats block into this one.
    pub fn merge(&mut self, other: &CoherenceStats) {
        self.shared_hits += other.shared_hits;
        self.invalidations_sent += other.invalidations_sent;
        self.interventions += other.interventions;
        self.upper_invals_applied += other.upper_invals_applied;
        self.dirty_recalls += other.dirty_recalls;
        self.dir_nacks += other.dir_nacks;
    }
}

/// Per-core share of the shared backside's activity: what this core's
/// requests did to the L3, the DRAM channel and the arbitrated bus.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BacksideCoreStats {
    /// This core's L3 activity (same accounting as a private L3 would
    /// report; summing over cores reproduces the shared array's totals).
    pub l3: CacheStats,
    /// DRAM lines moved on behalf of this core.
    pub dram: DramStats,
    /// Arbitrated backside requests issued by this core.
    pub bus_requests: u64,
    /// Cycles this core's requests spent waiting for their L3 bank port
    /// (0 whenever the machine is uncontended or `l3_port_gap` is 0).
    pub bus_wait_cycles: u64,
    /// Requests that found their L3 bank's port busy — the bank-level
    /// contention signal (a strict subset of `bus_requests`, and 0 when
    /// `l3_port_gap` is 0).
    pub bank_conflicts: u64,
    /// Inter-core coherence activity.
    pub coh: CoherenceStats,
}

/// Core-id tag position inside backside line addresses. SM addresses are
/// below the LM window (`< 2^46`), so tagging keeps per-core private
/// lines distinct in the shared arrays — the address-space separation a
/// real machine gets from physical allocation.
const CORE_TAG_SHIFT: u32 = 48;

/// The pseudo-core id tagging cross-core **shared** lines in the shared
/// arrays. Real core ids are below [`SharedBackside::MAX_CORES`], so the
/// tag can never collide with a private line's.
const SHARED_CORE: usize = (1 << 16) - 1;

/// How far ahead of a coherence message's start the home bank's port
/// may be booked, in cycles. The bank's message queue is finite: a
/// message that finds the port booked this far ahead is absorbed without
/// extending the booking, as the DRAM controller's `backlog_window`
/// caps a channel's lead. Without the cap, posted stores that keep
/// recalling one line (four hybrid tiles spinning on a lock word) book
/// the port hundreds of thousands of cycles ahead, and the next demand
/// load to that bank waits out the whole backlog: hybrid `lock` ×4 at
/// Paper scale takes 669 499 cycles under MSI instead of 74 132. The
/// value is the smallest power of two above the deepest backlog a
/// draining workload builds — 24 286 cycles, eight cache-based tiles
/// contending for one lock word under MOESI — so it changes no run whose
/// backlog drains on its own.
pub const BANK_BACKLOG_WINDOW: u64 = 32_768;

/// One bank of the shared L3: its slice of the array, its own arbitrated
/// port, and its slice of the inter-core directory.
struct L3Bank {
    cache: Cache,
    /// When this bank's port frees up (`l3_port_gap` occupancy per
    /// request; never advances when the gap is 0). Coherence messages
    /// the directory sends occupy the port too.
    busy_until: u64,
    /// This bank's directory slice (shared lines homed here).
    dir: DirectorySlice,
}

/// Where one core's line lives in the backside.
struct Home {
    /// Directory-tracked: a registered shared range, one copy for every
    /// core. Private lines are per-core copies.
    shared: bool,
    /// The bank serving the line.
    bank: usize,
    /// The bank-local address: the directory slice's key.
    local: u64,
    /// The bank array's key: `local` tagged with the requester's id, or
    /// [`SHARED_CORE`] for a shared line.
    key: u64,
    /// The DRAM row mapping's key: the full line address, tagged alike.
    /// Distinct cores' private lines are distinct physical lines — they
    /// occupy distinct rows and interfere in the row buffers — while a
    /// shared line is one physical line for every core.
    dram: u64,
    /// The untagged line address, as cores name it.
    line: u64,
}

/// The chip-wide memory backside: a banked shared L3 in front of one
/// DRAM channel with row-buffer state, arbitrated among `n` per-core
/// [`MemSystem`](crate::MemSystem) tiles.
///
/// All per-core tiles of one machine hold an `Rc<RefCell<...>>` to the
/// same backside; the lock-step multi-core driver ticks cores in a
/// rotating (round-robin) order, so same-cycle requests to one bank's
/// port resolve round-robin-fairly while requests to different banks
/// proceed in parallel. Every method takes the requesting core's id and
/// attributes activity to its [`BacksideCoreStats`] (see the module
/// docs for the exact-partitioning invariant).
pub struct SharedBackside {
    /// Address-interleaved L3 banks.
    banks: Vec<L3Bank>,
    /// Line-interleaved DRAM channels (length is a power of two; 1
    /// reproduces the single-channel backside bit for bit).
    channels: Vec<DramController>,
    l3_port_gap: u64,
    l3_latency: u64,
    /// Line-offset bits (`log2(line_bytes)`).
    line_shift: u32,
    /// Bank-index bits (`log2(banks)`), taken from the line number's
    /// low end so consecutive lines rotate through the banks.
    bank_bits: u32,
    per_core: Vec<BacksideCoreStats>,
    /// Per-core residency-event queues (coherence tracking); `None`
    /// queues collect nothing.
    events: Vec<Option<Vec<CacheEvent>>>,
    /// Inter-core protocol and message timings.
    coherence: CoherenceConfig,
    /// The guarded-action rule table the directory slices step.
    table: ProtocolTable,
    /// Byte ranges registered as cross-core shared (`[start, end)`).
    shared_ranges: Vec<(u64, u64)>,
    /// Per-core queues of back-invalidation messages (global line
    /// addresses) the directory sent; each tile drains its queue into
    /// its L1/L2 at its next memory operation.
    pending_upper_inval: Vec<Vec<u64>>,
    /// Deterministic directory/bank-NACK roller. Owned by the backside
    /// (not the tiles): port arbitrations happen in deterministic
    /// simulated order, so the draw sequence is independent of host
    /// scheduling.
    nack_faults: FaultRoller,
}

impl SharedBackside {
    /// The most tiles one backside serves: the directory's sharer
    /// bitset is one `u64`. Machine builders check it up front and
    /// return a typed error.
    pub const MAX_CORES: usize = 64;

    /// Builds a backside for `n_cores` tiles from the shared slice of a
    /// memory configuration.
    ///
    /// Panics on a geometry the arrays cannot represent and on more
    /// than [`SharedBackside::MAX_CORES`] cores.
    pub fn new(cfg: &MemConfig, n_cores: usize) -> Self {
        assert!(n_cores >= 1, "backside needs at least one core");
        assert!(
            n_cores <= Self::MAX_CORES,
            "{n_cores} cores overflow the directory's 64-bit sharer bitset"
        );
        let n_banks = cfg.l3_geometry.banks;
        assert!(
            n_banks.is_power_of_two(),
            "L3 bank count must be a power of two"
        );
        assert!(
            n_banks <= cfg.l3.num_sets(),
            "more L3 banks than sets ({n_banks} banks, {} sets)",
            cfg.l3.num_sets()
        );
        let bank_cfg = CacheConfig {
            size_bytes: cfg.l3.size_bytes / n_banks as u64,
            ..cfg.l3.clone()
        };
        assert!(
            cfg.dram_channels.is_power_of_two(),
            "DRAM channel count must be a power of two"
        );
        SharedBackside {
            banks: (0..n_banks)
                .map(|_| L3Bank {
                    cache: Cache::new(bank_cfg.clone()),
                    busy_until: 0,
                    dir: DirectorySlice::default(),
                })
                .collect(),
            channels: (0..cfg.dram_channels)
                .map(|ch| DramController::with_faults(cfg.dram.clone(), &cfg.fault, ch as u64))
                .collect(),
            l3_port_gap: cfg.l3_port_gap,
            l3_latency: cfg.l3.latency,
            line_shift: cfg.l3.line_bytes.trailing_zeros(),
            bank_bits: n_banks.trailing_zeros(),
            per_core: vec![BacksideCoreStats::default(); n_cores],
            events: (0..n_cores).map(|_| None).collect(),
            coherence: cfg.coherence.clone(),
            table: ProtocolTable::new(cfg.coherence.mode),
            shared_ranges: Vec::new(),
            pending_upper_inval: (0..n_cores).map(|_| Vec::new()).collect(),
            nack_faults: FaultRoller::new(&cfg.fault, FaultSite::DirNack, 0),
        }
    }

    /// Number of cores sharing this backside.
    pub fn n_cores(&self) -> usize {
        self.per_core.len()
    }

    /// This core's share of the backside activity.
    pub fn core_stats(&self, core: usize) -> BacksideCoreStats {
        self.per_core[core]
    }

    /// Aggregate L3 statistics summed over all banks. The per-core
    /// shares in [`BacksideCoreStats`] partition this exactly.
    pub fn l3_total_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for b in &self.banks {
            total.merge(&b.cache.stats);
        }
        total
    }

    /// Aggregate DRAM statistics summed over all channels (all cores).
    pub fn dram_total_stats(&self) -> DramStats {
        let mut total = DramStats::default();
        for ch in &self.channels {
            total.merge(&ch.stats);
        }
        total
    }

    /// Aggregate inter-core coherence statistics summed over the
    /// per-core shares (which partition them exactly, like every other
    /// backside counter).
    pub fn coherence_total_stats(&self) -> CoherenceStats {
        let mut total = CoherenceStats::default();
        for s in &self.per_core {
            total.merge(&s.coh);
        }
        total
    }

    /// Which DRAM channel serves `line_addr`: the line-number bits
    /// directly above the bank-select bits, so lines stripe over L3
    /// banks first and channels second. Core tags (bit 48 and up) never
    /// reach these bits.
    #[inline]
    fn channel_of(&self, line_addr: u64) -> usize {
        (((line_addr >> self.line_shift) >> self.bank_bits) & (self.channels.len() as u64 - 1))
            as usize
    }

    /// Registers `[start, start + bytes)` as cross-core shared data:
    /// its lines drop the per-core tag and are tracked by the per-bank
    /// directory slices. Duplicate registrations (every tile registers
    /// the same shard layout) are idempotent.
    pub fn mark_shared_range(&mut self, start: u64, bytes: u64) {
        if bytes == 0 || self.shared_ranges.contains(&(start, start + bytes)) {
            return;
        }
        self.shared_ranges.push((start, start + bytes));
    }

    /// Resolves where `core`'s `line_addr` lives. A line is shared when
    /// a registered range holds it.
    #[inline]
    fn home(&self, core: usize, line_addr: u64) -> Home {
        let shared = self
            .shared_ranges
            .iter()
            .any(|&(s, e)| line_addr >= s && line_addr < e);
        let tag_core = if shared { SHARED_CORE } else { core };
        // The low line-number bits select the bank; stripping them
        // leaves the address looked up in that bank's array (so each
        // bank uses all of its sets).
        let line_no = line_addr >> self.line_shift;
        let local = (line_no >> self.bank_bits) << self.line_shift;
        Home {
            shared,
            bank: (line_no & (self.banks.len() as u64 - 1)) as usize,
            local,
            key: Self::tag(tag_core, local),
            dram: Self::tag(tag_core, line_addr),
            line: line_addr,
        }
    }

    /// Drains the back-invalidation messages addressed to `core`'s upper
    /// levels, counting their application.
    pub fn take_upper_invals(&mut self, core: usize) -> Vec<u64> {
        let lines = std::mem::take(&mut self.pending_upper_inval[core]);
        self.per_core[core].coh.upper_invals_applied += lines.len() as u64;
        lines
    }

    /// Whether any back-invalidation is pending for `core` (lets tiles
    /// skip the drain borrow on the hot path).
    pub fn has_upper_invals(&self, core: usize) -> bool {
        !self.pending_upper_inval[core].is_empty()
    }

    /// Records that `n` of the back-invalidations `core` just applied
    /// recalled *dirty* L1/L2 lines (the tile charges itself
    /// `dirty_recall_latency` port-occupancy cycles per line; the count
    /// lands in the victim core's coherence share).
    pub fn note_dirty_recalls(&mut self, core: usize, n: u64) {
        self.per_core[core].coh.dirty_recalls += n;
    }

    /// The per-dirty-line recall occupancy tiles charge themselves when
    /// a back-invalidation drops a dirty L1/L2 copy.
    pub fn dirty_recall_latency(&self) -> u64 {
        self.coherence.dirty_recall_latency
    }

    /// Sends one back-invalidation for the global line `line` to every
    /// core in the `sharers` bitset (the caller excludes any core that
    /// keeps its copy), charging the messages to `from` and raising
    /// eviction residency events for the recipients.
    fn recall_sharers(&mut self, sharers: u64, from: usize, line: u64) {
        let mut rest = sharers;
        while rest != 0 {
            let s = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            self.pending_upper_inval[s].push(line);
            self.per_core[from].coh.invalidations_sent += 1;
            self.push_event(s, line, false);
        }
    }

    /// Occupies `bank`'s port for `cycles` starting no earlier than
    /// `start` — the channel cost of coherence messages the directory
    /// sends — booking it at most [`BANK_BACKLOG_WINDOW`] cycles past
    /// `start`. Ideally-ported configurations (`l3_port_gap == 0`) have
    /// an ideal coherence channel too, mirroring the request-port model.
    fn occupy_bank(&mut self, bank: usize, start: u64, cycles: u64) {
        if self.l3_port_gap == 0 || cycles == 0 {
            return;
        }
        let b = &mut self.banks[bank];
        b.busy_until = (b.busy_until.max(start) + cycles).min(start + BANK_BACKLOG_WINDOW);
        debug_assert!(
            b.busy_until - start <= BANK_BACKLOG_WINDOW,
            "bank {bank}'s port is booked more than the backlog window past {start}"
        );
    }

    /// Reconstructs the line address of a bank-local one (the inverse of
    /// [`Self::home`]'s split).
    #[inline]
    fn global_addr(&self, local: u64, bank: usize) -> u64 {
        (((local >> self.line_shift) << self.bank_bits) | bank as u64) << self.line_shift
    }

    #[inline]
    fn tag(core: usize, line: u64) -> u64 {
        debug_assert!(line < 1 << CORE_TAG_SHIFT, "address overflows the core tag");
        line | (core as u64) << CORE_TAG_SHIFT
    }

    #[inline]
    fn untag(tagged: u64) -> (usize, u64) {
        (
            (tagged >> CORE_TAG_SHIFT) as usize,
            tagged & ((1 << CORE_TAG_SHIFT) - 1),
        )
    }

    fn push_event(&mut self, core: usize, line: u64, fill: bool) {
        if let Some(q) = &mut self.events[core] {
            q.push(CacheEvent { line, fill });
        }
    }

    /// A timed DRAM line read at `at`, charged (with its row outcome and
    /// any ECC retries) to `core`. Returns its latency.
    fn dram_read(&mut self, core: usize, at: u64, dram_key: u64) -> u64 {
        let ch = self.channel_of(dram_key);
        let (latency, outcome, ecc_retries) = self.channels[ch].read(at, dram_key);
        let s = &mut self.per_core[core].dram;
        s.reads += 1;
        s.ecc_retries += ecc_retries;
        s.count_row(outcome);
        latency
    }

    /// Posts one line write to the DRAM controller and mirrors the
    /// channel totals into per-core shares: the write itself is charged
    /// to `core` (whoever the backside attributes the post to — the
    /// requester, or the recalled owner for an M-intervention
    /// write-back, flagged by `intervention`), and the row outcome of a
    /// drained write belongs to the core that originally posted it. A
    /// queue-full stall is charged to `core` — unless the *drained*
    /// victim was an M-intervention write-back, in which case the drain
    /// serviced the recalled owner's dirty data and both the stall and
    /// the `intervention_drain_stalls` split land on that owner instead
    /// of the innocent poster (directory-aware DRAM attribution).
    fn post_dram_write(&mut self, now: u64, tagged_line: u64, core: usize, intervention: bool) {
        self.per_core[core].dram.writes += 1;
        let ch = self.channel_of(tagged_line);
        if let Some((owner, outcome, victim_iv)) =
            self.channels[ch].write_posted(now, tagged_line, core, intervention)
        {
            let stall_core = if victim_iv { owner } else { core };
            self.per_core[stall_core].dram.queue_stalls += 1;
            if victim_iv {
                self.per_core[owner].dram.intervention_drain_stalls += 1;
            }
            self.per_core[owner].dram.count_row(outcome);
        }
    }

    /// Pays what a directory transition on the shared line `home` owes
    /// on `core`'s behalf, the messages leaving the home slice at `at`:
    /// the dirty owner's recall (an intervention round trip, plus the
    /// DRAM write-back charged to the owner unless the table shares the
    /// data cache-to-cache), one invalidation round covering every
    /// recalled sharer, and MSI's memory re-read (sharers cannot
    /// forward, so the requester re-fetches the just-written-back
    /// line). Every message occupies the home bank's port.
    ///
    /// Returns the latency the transition adds and whether it was an
    /// intervention (the MSHR flag). `timed` is the demand hit, which
    /// waits that latency and re-reads through the DRAM timing model;
    /// posted stores (fire-and-forget) and DMA snoops (timed by the
    /// DMAC) only count the re-read's channel traffic.
    fn discharge(
        &mut self,
        ob: Obligations,
        home: &Home,
        core: usize,
        at: u64,
        timed: bool,
    ) -> (u64, bool) {
        let mut latency = 0;
        if ob.intervention {
            let iv_lat = self.coherence.intervention_latency;
            latency += iv_lat;
            self.per_core[core].coh.interventions += 1;
            if ob.writeback {
                self.post_dram_write(at, home.dram, ob.old_owner, true);
            }
            self.occupy_bank(home.bank, at, iv_lat);
        }
        if ob.shared_hit {
            self.per_core[core].coh.shared_hits += 1;
        }
        if ob.invalidate != 0 {
            let inv_lat = self.coherence.inval_latency;
            latency += inv_lat;
            self.recall_sharers(ob.invalidate, core, home.line);
            self.occupy_bank(home.bank, at, inv_lat);
        }
        if ob.memory_read {
            if timed {
                latency += self.dram_read(core, at, home.dram);
            } else {
                self.note_dram_read(core, home.dram);
            }
        }
        (latency, ob.intervention)
    }

    /// Handles an L3 bank's evicted line.
    ///
    /// Private (core-tagged) victims: a residency event goes to the
    /// victim's owner; dirty victims post to DRAM, charged to the
    /// requesting core whose fill caused the eviction (matching the
    /// pre-banking attribution).
    ///
    /// Shared victims: the directory entry is
    /// retired and every upper copy recalled (back-invalidation messages
    /// charged to the evicting requester — the sharer-eviction race the
    /// protocol must close). The write-back of a dirty-state victim is
    /// charged to its *owner*, whose dirty data it is; a merely
    /// L3-dirty victim is charged to the requester like a private one.
    fn victim(&mut self, bank: usize, ev: Evicted, now: u64, core: usize) {
        let (owner, local) = Self::untag(ev.addr);
        let global = self.global_addr(local, bank);
        let dram_key = Self::tag(owner, global);
        if owner != SHARED_CORE {
            self.push_event(owner, global, false);
        } else {
            // Evicting the home copy: the table's Evict row decides
            // what the recall owes (a dirty state additionally writes
            // the owner's data back).
            let ob = self.banks[bank].dir.retire(local, &self.table);
            self.recall_sharers(ob.invalidate, core, global);
            if ob.invalidate != 0 {
                self.occupy_bank(bank, now, self.coherence.inval_latency);
            }
            if ob.writeback {
                // The L3 copy is stale against the owner's: recall and
                // write back the owner's data, charged to the owner. The
                // bank array only counted a write-back if its own copy
                // was dirty; mirror the recall into the aggregate so the
                // per-core shares keep partitioning it exactly.
                self.post_dram_write(now, dram_key, ob.old_owner, true);
                self.per_core[ob.old_owner].l3.writebacks_out += 1;
                if !ev.dirty {
                    self.banks[bank].cache.stats.writebacks_out += 1;
                }
                return;
            }
        }
        if ev.dirty {
            self.post_dram_write(now, dram_key, core, false);
            self.per_core[core].l3.writebacks_out += 1;
        }
    }

    /// Enables residency-event collection for one core.
    pub fn enable_events(&mut self, core: usize) {
        self.events[core] = Some(Vec::new());
    }

    /// Drains the events queued for one core.
    pub fn take_events(&mut self, core: usize) -> Vec<CacheEvent> {
        match &mut self.events[core] {
            Some(q) => std::mem::take(q),
            None => Vec::new(),
        }
    }

    /// Arbitrates one L3 bank's port: the request starts once the port
    /// is free, and the wait (plus a bank-conflict count when it was
    /// non-zero) is charged to the requesting core.
    ///
    /// Fault site: a *contended* arbitration (the port was busy — there
    /// is a message to lose) may be NACKed by the fault plan. Each NACK
    /// re-arbitrates after an exponential backoff, charged to the
    /// requester as port wait and counted in
    /// [`CoherenceStats::dir_nacks`]; the retry budget is the livelock
    /// watchdog — past it the request is served unconditionally, so
    /// even rate 1.0 makes forward progress.
    fn arbitrate(&mut self, core: usize, now: u64, bank: usize) -> u64 {
        self.per_core[core].bus_requests += 1;
        if self.l3_port_gap == 0 {
            return now; // ideally-ported banks: no occupancy, no waits
        }
        let mut start = now.max(self.banks[bank].busy_until);
        let contended = start > now;
        let mut nacks = 0u32;
        if contended {
            while nacks < MAX_RETRIES && self.nack_faults.roll() {
                start += backoff_delay(nacks);
                nacks += 1;
            }
        }
        self.banks[bank].busy_until = start + self.l3_port_gap;
        let s = &mut self.per_core[core];
        if contended {
            s.bank_conflicts += 1;
        }
        s.coh.dir_nacks += nacks as u64;
        s.bus_wait_cycles += start - now;
        start
    }

    /// An L3 bank lookup (and, on miss, the DRAM walk) for `line_addr`
    /// on behalf of `core`. `now` is the cycle the request reaches the
    /// L3 (after the L2 latency). Returns the latency beyond the L2, the
    /// serving level, and whether the access paid an M-state
    /// intervention (always `false` for a private line; the tile flags
    /// the MSHR entry with it so merge stalls can be attributed to
    /// cross-core sharing). A hit on a shared line steps
    /// the home slice's record; what the transition owes leaves after
    /// the L3 lookup and adds its latency.
    pub fn access(
        &mut self,
        core: usize,
        now: u64,
        line_addr: u64,
        kind: AccessKind,
    ) -> (u64, Level, bool) {
        let home = self.home(core, line_addr);
        let start = self.arbitrate(core, now, home.bank);
        let wait = start - now;
        let l3_latency = self.l3_latency;
        let write = kind == AccessKind::Write;
        let hit = self.banks[home.bank].cache.access(home.key, kind);
        self.per_core[core].l3.count_access(kind, hit);
        if hit {
            let (coh_extra, intervention) = if home.shared {
                let ob = self.banks[home.bank]
                    .dir
                    .access(home.local, &self.table, core, write)
                    .expect("resident shared line must have a directory entry");
                self.discharge(ob, &home, core, start + l3_latency, true)
            } else {
                (0, false)
            };
            return (wait + l3_latency + coh_extra, Level::L3, intervention);
        }
        let dram_latency = self.dram_read(core, start + l3_latency, home.dram);
        let prefetched = kind == AccessKind::Prefetch;
        if let Some(ev) = self.banks[home.bank]
            .cache
            .fill(home.key, false, prefetched)
        {
            self.victim(home.bank, ev, start, core);
        }
        {
            let s = &mut self.per_core[core].l3;
            s.fills += 1;
            if prefetched {
                s.prefetch_fills += 1;
            }
        }
        if home.shared {
            self.banks[home.bank]
                .dir
                .fill(home.local, &self.table, core, write);
        }
        self.push_event(core, line_addr, true);
        (wait + l3_latency + dram_latency, Level::Dram, false)
    }

    /// Accepts a dirty line written back by a core's L2 (eviction
    /// cascade); dirty L3 victims continue to DRAM. For a shared line
    /// the write-back also means the core evicted its upper copy: its
    /// sharer bit is cleared, and an M-owner's write-back demotes the
    /// entry (`Shared` if others still hold it, else no upper copies).
    pub fn accept_writeback(&mut self, core: usize, now: u64, line_addr: u64) {
        let home = self.home(core, line_addr);
        let had = self.banks[home.bank].cache.probe(home.key);
        if let Some(ev) = self.banks[home.bank].cache.writeback_fill(home.key) {
            self.victim(home.bank, ev, now, core);
        }
        if home.shared {
            self.banks[home.bank].dir.writeback_from(home.local, core);
        }
        let s = &mut self.per_core[core].l3;
        s.writebacks_in += 1;
        if !had {
            // The write-back allocated a line (the bank's array counts
            // this as a fill inside `writeback_fill`).
            s.fills += 1;
            self.push_event(core, line_addr, true);
        }
    }

    /// A write-through store that missed the core's L2: updates the L3
    /// copy when resident, otherwise posts the write to DRAM. Writing a
    /// resident shared line claims M ownership and recalls other
    /// sharers' copies.
    pub fn writethrough(&mut self, core: usize, now: u64, line_addr: u64) {
        let home = self.home(core, line_addr);
        self.per_core[core].l3.writethrough_writes += 1;
        if self.banks[home.bank]
            .cache
            .writethrough_from_above(home.key)
        {
            if home.shared {
                self.posted_store(&home, core, now);
            }
        } else {
            self.post_dram_write(now, home.dram, core, false);
        }
    }

    /// Notes a store by `core` that *hit* its private L2 on `line_addr`
    /// without descending here. Private lines need nothing; for a
    /// resident shared line the directory still has to learn about the
    /// write — ownership moves to the writer and other sharers are
    /// recalled. No latency is charged to the store (write-through posts
    /// are fire-and-forget); the recall messages occupy the home bank's
    /// port.
    pub fn note_shared_store(&mut self, core: usize, now: u64, line_addr: u64) {
        let home = self.home(core, line_addr);
        if home.shared {
            self.posted_store(&home, core, now);
        }
    }

    /// Steps a fire-and-forget write by `core` to the shared line `home`
    /// (if the directory tracks it) and pays what the transition owes.
    fn posted_store(&mut self, home: &Home, core: usize, now: u64) {
        let slice = &mut self.banks[home.bank].dir;
        if let Some(ob) = slice.access(home.local, &self.table, core, true) {
            self.discharge(ob, home, core, now, false);
        }
    }

    /// A `dma-get` bus-request snoop that missed the core's L1/L2. A hit
    /// on a shared line held dirty (`Modified`/`Owned`) by *another*
    /// core is the in-flight-DMA intervention: the owner's dirty data is
    /// recalled per the protocol table (so the transfer reads current
    /// data) — written back and downgraded under MESI/MESIF, kept
    /// dirty-shared under MOESI, re-read from memory under MSI.
    pub fn snoop(&mut self, core: usize, now: u64, line_addr: u64) -> bool {
        let home = self.home(core, line_addr);
        self.per_core[core].l3.snoops += 1;
        let present = self.banks[home.bank].cache.snoop(home.key);
        if home.shared && present {
            let slice = &mut self.banks[home.bank].dir;
            if let Some(ob) = slice.snoop_recall(home.local, &self.table, core) {
                self.discharge(ob, &home, core, now, false);
            }
        }
        present
    }

    /// A `dma-put` bus-request invalidation. Returns whether the line was
    /// resident. Invalidating a shared line retires its directory entry
    /// and recalls every *other* core's upper copy (the requester
    /// invalidates its own L1/L2 as part of the `dma-put` walk); no
    /// write-back, whatever the table's Evict row owes — the DMA data
    /// supersedes any cached copy (§2.1).
    pub fn invalidate(&mut self, core: usize, line_addr: u64) -> bool {
        let home = self.home(core, line_addr);
        self.per_core[core].l3.invalidations += 1;
        let present = self.banks[home.bank].cache.invalidate(home.key).is_some();
        if home.shared {
            let retired = self.banks[home.bank].dir.retire(home.local, &self.table);
            self.recall_sharers(retired.invalidate & !(1 << core), core, line_addr);
        }
        if present {
            self.push_event(core, line_addr, false);
        }
        present
    }

    /// Counts a DRAM line read with no timing (DMA transfers are timed by
    /// the DMAC; the channel accounting still belongs here). `line_addr`
    /// selects the channel the line is charged to.
    pub fn note_dram_read(&mut self, core: usize, line_addr: u64) {
        let ch = self.channel_of(line_addr);
        self.channels[ch].stats.reads += 1;
        self.per_core[core].dram.reads += 1;
    }

    /// Counts a DRAM line write with no timing (DMA write-back traffic).
    pub fn note_dram_write(&mut self, core: usize, line_addr: u64) {
        let ch = self.channel_of(line_addr);
        self.channels[ch].stats.writes += 1;
        self.per_core[core].dram.writes += 1;
    }

    /// Whether `line_addr` (a core-local address) is resident in the
    /// shared L3 on behalf of `core` (for a shared line: on behalf of
    /// every core).
    pub fn probe(&self, core: usize, line_addr: u64) -> bool {
        let home = self.home(core, line_addr);
        self.banks[home.bank].cache.probe(home.key)
    }
}

#[cfg(test)]
mod tests;
