//! The memory system: per-core L1I/L1D/L2 + TLB + prefetcher + LM + DMAC
//! in front of a **shared L3 + DRAM backside**.
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
//! The L3 and the DRAM channel live in [`SharedBackside`], which one or
//! more per-core [`MemSystem`] tiles share (the paper's §3 multicore
//! integration: everything above the L3 — and the whole LM/directory
//! apparatus — is strictly per core, while the last-level cache and
//! memory channel are chip-wide resources). The backside is **banked**:
//! the shared L3 is a vector of address-interleaved banks, each with its
//! own arbitrated port, in front of one [`DramController`] with
//! per-DRAM-bank row buffers and a posted-write queue. Requests to different L3 banks
//! proceed in parallel; requests to one bank serialize on its port in
//! the rotating round-robin order the machine ticks cores in.
//! Single-core systems embed a private one-core backside.
//!
//! ## Inter-core coherence modes
//!
//! How the shared arrays treat the *same* system-memory address on two
//! cores is governed by [`CoherenceMode`]:
//!
//! * [`CoherenceMode::Replicate`] (the default, and the only model of
//!   earlier revisions): every cacheable line is tagged with its core id
//!   in the shared arrays, so cores keep fully private replicas — no
//!   read sharing, no invalidation traffic. Bit-identical to the
//!   pre-directory backside.
//! * [`CoherenceMode::Mesi`]: address ranges registered as cross-core
//!   shared ([`SharedBackside::mark_shared_range`], fed from the kernel
//!   sharder's read-only replicated-whole arrays) drop the core tag.
//!   Each L3 bank owns a **directory slice** tracking, per resident
//!   shared line, the MESI upper-copy state
//!   ([`hsim_coherence::mesi::MesiState`]), a sharer bitset and the
//!   M-owner. Reads are served to multiple cores from one line
//!   (`shared_hits`); a write recalls other sharers' copies with
//!   invalidation messages; a read of another core's Modified line pays
//!   an intervention that writes the owner's data back; evicting a
//!   shared line (capacity or DMA) back-invalidates every upper copy.
//!   Message latencies are charged on the home bank's port, so the
//!   event horizon already covers them. Everything outside the
//!   registered ranges keeps the `Replicate` path.
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
//! * **Horizon monotonicity** — [`SharedBackside::next_event_after`]
//!   covers *every* backside resource that can free up in the future
//!   (all L3 bank ports, the DRAM channel, every DRAM bank). Backside
//!   state changes only inside access calls made by ticking cores, so
//!   between calls the horizon only moves forward and the event-horizon
//!   scheduler can bulk-advance to it without missing an
//!   arbitration-relevant event.

use crate::backing::{DramConfig, DramController, DramStats, RowOutcome};
use crate::cache::{AccessKind, Cache, CacheConfig, CacheStats, Evicted, WritePolicy};
use crate::dma::{DmaConfig, DmaOp, Dmac};
use crate::fault::{backoff_delay, FaultConfig, FaultRoller, FaultSite};
use crate::lm::{LmConfig, LocalMem};
use crate::mshr::{MshrFile, MshrOutcome};
use crate::prefetch::{PrefetchConfig, StreamPrefetcher};
use crate::tlb::{Tlb, TlbConfig};
use hsim_coherence::protocol::{CoherenceProtocol, DirLine, ProtocolTable};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

/// Sentinel for a stale horizon cache: some mutation happened since the
/// last scan, so the next query must recompute. Cycle 0 can never be a
/// real horizon value — events are strictly after the querying `now`,
/// and `now` is unsigned.
const HORIZON_DIRTY: u64 = 0;
/// Sentinel for a *clean* horizon cache with no pending event: the
/// component is provably idle until the next mutation dirties it again.
const HORIZON_NONE: u64 = u64::MAX;

/// Which component served an access (for AMAT and replay accounting).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// L1 data (or instruction) cache.
    L1,
    /// Unified L2.
    L2,
    /// Unified (shared) L3.
    L3,
    /// Main memory.
    Dram,
    /// Local memory (scratchpad).
    Lm,
    /// Store-to-load forwarding inside the LSQ (set by the core).
    Forward,
    /// Non-cacheable MMIO (DMAC registers).
    Mmio,
}

/// A residency change in the data-cache hierarchy, streamed to the
/// coherence tracker when event collection is enabled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheEvent {
    /// Line-aligned address.
    pub line: u64,
    /// True for a line placement, false for an eviction/invalidation.
    pub fill: bool,
}

/// Result of a data access.
#[derive(Clone, Copy, Debug)]
pub struct AccessResponse {
    /// Total latency in cycles, including any TLB penalty.
    pub latency: u64,
    /// The component that served the access.
    pub served: Level,
    /// TLB miss penalty included in `latency` (0 on TLB hit or LM access).
    pub tlb_penalty: u64,
}

/// Geometry of the banked shared L3: the array is split into
/// address-interleaved banks (consecutive line addresses rotate through
/// them), each with its own arbitrated port of `l3_port_gap` occupancy.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct L3Geometry {
    /// Number of banks (power of two, dividing the set count). 1
    /// reproduces the single-ported monolithic L3 of earlier revisions
    /// exactly.
    pub banks: usize,
}

impl Default for L3Geometry {
    fn default() -> Self {
        L3Geometry { banks: 8 }
    }
}

/// Inter-core coherence model of the shared backside (see the module
/// docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoherenceMode {
    /// Per-core address tagging: cores keep private replicas of every
    /// cacheable line (the historical model; bit-identical to the
    /// pre-directory backside).
    Replicate,
    /// Directory slices at the L3 banks stepping the three-state MSI
    /// table (no Exclusive state; dirty recalls re-read memory).
    Msi,
    /// Directory slices stepping the four-state MESI table (PR 4's
    /// protocol, now table-driven; bit-identical to the hand-written
    /// original).
    Mesi,
    /// Directory slices stepping the MOESI table: an Owned state shares
    /// dirty lines cache-to-cache, deferring write-backs to eviction.
    Moesi,
    /// Directory slices stepping the MESIF table: a designated clean
    /// Forwarder answers shared reads.
    Mesif,
}

impl CoherenceMode {
    /// Every mode, in the order benches and CI sweep them.
    pub const ALL: [CoherenceMode; 5] = [
        CoherenceMode::Replicate,
        CoherenceMode::Msi,
        CoherenceMode::Mesi,
        CoherenceMode::Moesi,
        CoherenceMode::Mesif,
    ];

    /// The directory-backed modes (everything but `Replicate`) — the
    /// protocol axis equivalence suites and sweeps iterate.
    pub const DIRECTORY: [CoherenceMode; 4] = [
        CoherenceMode::Msi,
        CoherenceMode::Mesi,
        CoherenceMode::Moesi,
        CoherenceMode::Mesif,
    ];

    /// Reads the mode from the `HSIM_COHERENCE` environment variable
    /// (`msi`, `mesi`, `moesi` or `mesif` select the corresponding
    /// directory protocol; anything else, or the variable being unset,
    /// selects [`CoherenceMode::Replicate`]). This is the CI matrix
    /// knob: the same test and bench-smoke suite runs once per mode.
    /// Tests that pin recorded cycle counts set the mode explicitly
    /// instead of inheriting it from here.
    pub fn from_env() -> Self {
        match std::env::var("HSIM_COHERENCE").as_deref() {
            Ok(v) if v.eq_ignore_ascii_case("msi") => CoherenceMode::Msi,
            Ok(v) if v.eq_ignore_ascii_case("mesi") => CoherenceMode::Mesi,
            Ok(v) if v.eq_ignore_ascii_case("moesi") => CoherenceMode::Moesi,
            Ok(v) if v.eq_ignore_ascii_case("mesif") => CoherenceMode::Mesif,
            _ => CoherenceMode::Replicate,
        }
    }

    /// Whether this mode runs directory slices at the L3 banks (every
    /// mode but `Replicate`).
    pub fn is_directory(self) -> bool {
        self.protocol().is_some()
    }

    /// The protocol table family member this mode steps (`None` under
    /// `Replicate`).
    pub fn protocol(self) -> Option<CoherenceProtocol> {
        match self {
            CoherenceMode::Replicate => None,
            CoherenceMode::Msi => Some(CoherenceProtocol::Msi),
            CoherenceMode::Mesi => Some(CoherenceProtocol::Mesi),
            CoherenceMode::Moesi => Some(CoherenceProtocol::Moesi),
            CoherenceMode::Mesif => Some(CoherenceProtocol::Mesif),
        }
    }

    /// The lower-case knob / report name.
    pub fn name(self) -> &'static str {
        match self {
            CoherenceMode::Replicate => "replicate",
            CoherenceMode::Msi => "msi",
            CoherenceMode::Mesi => "mesi",
            CoherenceMode::Moesi => "moesi",
            CoherenceMode::Mesif => "mesif",
        }
    }
}

/// Coherence-mode configuration: the model plus the message timings the
/// directory charges on the home bank's port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoherenceConfig {
    /// The inter-core model.
    pub mode: CoherenceMode,
    /// Cycles an M-state intervention adds to the requesting access
    /// (recalling the owner's dirty line: probe + transfer).
    pub intervention_latency: u64,
    /// Cycles an invalidation round adds to a writing access that must
    /// recall other sharers' copies (the messages travel in parallel;
    /// one round covers all sharers).
    pub inval_latency: u64,
    /// Cycles a back-invalidation costs the *receiving* tile per dirty
    /// L1/L2 line it recalls: the recalled line's transfer occupies the
    /// tile's cache port, so recall storms couple into the victim
    /// core's timing instead of only dropping its copies for free.
    /// Charged at the memory operation that drains the recall queue.
    pub dirty_recall_latency: u64,
}

impl Default for CoherenceConfig {
    fn default() -> Self {
        CoherenceConfig {
            mode: CoherenceMode::Replicate,
            // An intervention is an L2-probe round trip into another
            // tile plus the line transfer: on the order of an L2 visit
            // both ways.
            intervention_latency: 30,
            // An invalidation round is a one-way multicast plus the
            // combined acknowledgement.
            inval_latency: 12,
            // Recalling a dirty upper line reads it out of the L2 — one
            // L2 visit's worth of port occupancy on the victim tile.
            dirty_recall_latency: 15,
        }
    }
}

impl CoherenceConfig {
    /// The default timings with the mode taken from `HSIM_COHERENCE`
    /// (see [`CoherenceMode::from_env`]).
    pub fn from_env() -> Self {
        CoherenceConfig {
            mode: CoherenceMode::from_env(),
            ..Default::default()
        }
    }
}

/// Per-core inter-core coherence activity (all zero under
/// [`CoherenceMode::Replicate`]).
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
    /// backoff re-arbitration (counted in both coherence modes — the
    /// bank port is the message fabric either way).
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

/// Full memory-system configuration.
#[derive(Clone, Debug)]
pub struct MemConfig {
    /// L1 instruction cache.
    pub l1i: CacheConfig,
    /// L1 data cache.
    pub l1d: CacheConfig,
    /// Unified L2.
    pub l2: CacheConfig,
    /// Unified L3 (shared across cores in a multi-core machine).
    pub l3: CacheConfig,
    /// Banking of the shared L3.
    pub l3_geometry: L3Geometry,
    /// Number of L1D MSHR entries.
    pub mshr_entries: usize,
    /// Prefetcher configuration.
    pub prefetch: PrefetchConfig,
    /// TLB configuration.
    pub tlb: TlbConfig,
    /// DRAM configuration.
    pub dram: DramConfig,
    /// Number of independent DRAM channels behind the L3. Lines are
    /// interleaved across channels by the line-address bits directly
    /// above the L3 bank-select bits, so consecutive lines stripe over
    /// banks first and channels second. Must be a power of two; 1 (the
    /// default) reproduces the single-channel backside bit for bit.
    pub dram_channels: usize,
    /// Occupancy of the shared L3 port per request, in cycles. 0 models
    /// an ideally-ported L3 (the single-core configuration); multi-core
    /// machines raise it to model backside bus contention.
    pub l3_port_gap: u64,
    /// Local memory (absent in the cache-based system).
    pub lm: Option<LmConfig>,
    /// DMA controller configuration.
    pub dma: DmaConfig,
    /// Inter-core coherence model of the shared backside.
    pub coherence: CoherenceConfig,
    /// Deterministic fault-injection plan threaded to every site of the
    /// fabric (DRAM reads, the DMA engine, the bank ports). The default
    /// [`FaultConfig::none`] is bit-identical to a fault-free machine.
    pub fault: FaultConfig,
}

impl MemConfig {
    /// The hybrid memory system of Table 1: 32 KB L1D + 32 KB LM.
    ///
    /// One deviation from Table 1 is documented in DESIGN.md: the paper's
    /// 24-way 256 KB L2 implies a non-power-of-two set count, so we model
    /// a 16-way L2 of the same capacity.
    pub fn hybrid() -> Self {
        MemConfig {
            l1i: CacheConfig {
                name: "L1I",
                size_bytes: 32 * 1024,
                ways: 8,
                line_bytes: 64,
                latency: 2,
                write_policy: WritePolicy::WriteThrough,
            },
            l1d: CacheConfig {
                name: "L1D",
                size_bytes: 32 * 1024,
                ways: 8,
                line_bytes: 64,
                latency: 2,
                write_policy: WritePolicy::WriteThrough,
            },
            l2: CacheConfig {
                name: "L2",
                size_bytes: 256 * 1024,
                ways: 16,
                line_bytes: 64,
                latency: 15,
                write_policy: WritePolicy::WriteBack,
            },
            l3: CacheConfig {
                name: "L3",
                size_bytes: 4 * 1024 * 1024,
                ways: 32,
                line_bytes: 64,
                latency: 40,
                write_policy: WritePolicy::WriteBack,
            },
            l3_geometry: L3Geometry::default(),
            mshr_entries: 48,
            prefetch: PrefetchConfig::default(),
            tlb: TlbConfig::default(),
            dram: DramConfig::default(),
            dram_channels: 1,
            l3_port_gap: 0,
            lm: Some(LmConfig::default()),
            dma: DmaConfig::default(),
            coherence: CoherenceConfig::from_env(),
            fault: FaultConfig::none(),
        }
    }

    /// The cache-based comparison system of §4.3: no LM, and for fairness
    /// the L1D capacity is doubled to 64 KB (32 KB L1 + 32 KB LM in the
    /// hybrid system).
    pub fn cache_based() -> Self {
        let mut cfg = Self::hybrid();
        cfg.l1d.size_bytes = 64 * 1024;
        cfg.lm = None;
        cfg
    }

    /// Whether every cache level of this configuration uses the L3's
    /// line size. The shared backside (and its directory slices) track
    /// residency at L3-line granularity; a tile whose L1/L2 lines were
    /// coarser or finer would fill and evict at mismatched alignments
    /// and leave stale directory state behind.
    pub fn line_sizes_uniform(&self) -> bool {
        let line = self.l3.line_bytes;
        self.l1i.line_bytes == line && self.l1d.line_bytes == line && self.l2.line_bytes == line
    }

    /// Whether two per-tile configurations agree on everything the
    /// *shared* backside is built from: the L3 array and its banking,
    /// the DRAM controller, the L3 port occupancy, the inter-core
    /// coherence model and the fault plan (whose DRAM and NACK sites
    /// live in the shared slice) — and both keep a uniform line size through
    /// their own hierarchy ([`MemConfig::line_sizes_uniform`]), since
    /// the backside tracks residency at L3-line granularity. Tiles of
    /// one heterogeneous machine may differ in anything else above the
    /// L3 (core width, L1/L2 capacity and associativity, LM size or
    /// absence, prefetcher, MSHRs, TLB, DMA engine) — there is only
    /// one L3 and one memory channel per chip.
    pub fn backside_compatible(&self, other: &MemConfig) -> bool {
        self.line_sizes_uniform()
            && other.line_sizes_uniform()
            && self.l3 == other.l3
            && self.l3_geometry == other.l3_geometry
            && self.dram == other.dram
            && self.dram_channels == other.dram_channels
            && self.l3_port_gap == other.l3_port_gap
            && self.coherence == other.coherence
            && self.fault == other.fault
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
    /// Inter-core coherence activity (all zero under
    /// [`CoherenceMode::Replicate`]).
    pub coh: CoherenceStats,
}

/// Core-id tag position inside backside line addresses. SM addresses are
/// below the LM window (`< 2^46`), so tagging keeps per-core private
/// lines distinct in the shared arrays — the address-space separation a
/// real machine gets from physical allocation.
const CORE_TAG_SHIFT: u32 = 48;

/// The pseudo-core id tagging cross-core **shared** lines in the shared
/// arrays under the directory modes. Real core ids are small, so the
/// tag can never collide with a private line's.
const SHARED_CORE: usize = (1 << 16) - 1;

/// The per-bank slice of the inter-core directory: one
/// [`DirLine`] record per resident shared line of this bank (entry
/// existence tracks L3 residency; capacity therefore never exceeds the
/// bank's line count). Empty and untouched under
/// [`CoherenceMode::Replicate`]. The records are stepped generically
/// through whichever [`ProtocolTable`] the backside's
/// [`CoherenceMode`] selects.
#[derive(Default)]
struct DirectorySlice {
    /// Bank-local line address → record.
    entries: HashMap<u64, DirLine>,
}

/// One bank of the shared L3: its slice of the array, its own arbitrated
/// port, and its slice of the inter-core directory.
struct L3Bank {
    cache: Cache,
    /// When this bank's port frees up (`l3_port_gap` occupancy per
    /// request; never advances when the gap is 0). Coherence messages
    /// the directory sends occupy the port too, so the event horizon
    /// covers them through this field.
    busy_until: u64,
    /// This bank's directory slice (shared lines homed here).
    dir: DirectorySlice,
}

/// The chip-wide memory backside: a banked shared L3 in front of one
/// DRAM channel with row-buffer state, arbitrated among `n` per-core
/// [`MemSystem`] tiles.
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
    /// Cached [`SharedBackside::next_event_after`] result:
    /// `HORIZON_DIRTY` after any mutation, `HORIZON_NONE` when the
    /// backside is provably idle, otherwise the next event cycle.
    horizon_cache: Cell<u64>,
    per_core: Vec<BacksideCoreStats>,
    /// Per-core residency-event queues (coherence tracking); `None`
    /// entries collect nothing.
    events: Vec<Option<Vec<CacheEvent>>>,
    /// Inter-core coherence model and message timings.
    coherence: CoherenceConfig,
    /// The guarded-action rule table the directory slices step (the
    /// Mesi table under `Replicate` too, where it is never consulted —
    /// the directory stays empty).
    table: ProtocolTable,
    /// Byte ranges registered as cross-core shared (`[start, end)`);
    /// consulted only under the directory modes.
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
    /// Retry budget per NACKed arbitration — the livelock watchdog.
    fault_max_retries: u32,
    /// Base backoff delay between NACK re-arbitrations.
    fault_backoff_base: u64,
}

impl SharedBackside {
    /// Builds a backside for `n_cores` tiles from the shared slice of a
    /// memory configuration.
    pub fn new(cfg: &MemConfig, n_cores: usize) -> Self {
        assert!(n_cores >= 1, "backside needs at least one core");
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
            n_cores < SHARED_CORE,
            "core count collides with the shared-line tag"
        );
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
            horizon_cache: Cell::new(HORIZON_DIRTY),
            per_core: vec![BacksideCoreStats::default(); n_cores],
            events: (0..n_cores).map(|_| None).collect(),
            coherence: cfg.coherence.clone(),
            table: ProtocolTable::new(
                cfg.coherence
                    .mode
                    .protocol()
                    .unwrap_or(CoherenceProtocol::Mesi),
            ),
            shared_ranges: Vec::new(),
            pending_upper_inval: (0..n_cores).map(|_| Vec::new()).collect(),
            nack_faults: FaultRoller::new(&cfg.fault, FaultSite::DirNack, 0),
            fault_max_retries: cfg.fault.max_retries,
            fault_backoff_base: cfg.fault.backoff_base,
        }
    }

    /// Number of cores sharing this backside.
    pub fn n_cores(&self) -> usize {
        self.per_core.len()
    }

    /// Number of L3 banks.
    pub fn n_banks(&self) -> usize {
        self.banks.len()
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

    /// Number of DRAM channels.
    pub fn n_channels(&self) -> usize {
        self.channels.len()
    }

    /// Which DRAM channel serves `line_addr`: the line-number bits
    /// directly above the bank-select bits, so lines stripe over L3
    /// banks first and channels second. Core tags (bit 48 and up under
    /// [`CoherenceMode::Replicate`]) never reach these bits.
    #[inline]
    fn channel_of(&self, line_addr: u64) -> usize {
        (((line_addr >> self.line_shift) >> self.bank_bits) & (self.channels.len() as u64 - 1))
            as usize
    }

    /// Marks every cached horizon stale. Called at the top of each
    /// public `&mut self` method: any mutation may create or consume a
    /// future backside event.
    #[inline]
    fn touch(&mut self) {
        self.horizon_cache.set(HORIZON_DIRTY);
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

    /// The inter-core coherence model this backside runs.
    pub fn coherence_mode(&self) -> CoherenceMode {
        self.coherence.mode
    }

    /// Registers `[start, start + bytes)` as cross-core shared data:
    /// under the directory modes its lines drop the per-core tag and
    /// are tracked by the per-bank directory slices. Under
    /// [`CoherenceMode::Replicate`] the registration is recorded but
    /// never consulted. Duplicate registrations (every tile registers
    /// the same shard layout) are idempotent.
    pub fn mark_shared_range(&mut self, start: u64, bytes: u64) {
        self.touch();
        if bytes == 0 || self.shared_ranges.contains(&(start, start + bytes)) {
            return;
        }
        self.shared_ranges.push((start, start + bytes));
    }

    /// Whether `line_addr` belongs to a registered shared range under
    /// a directory mode (always `false` under `Replicate`).
    #[inline]
    fn is_shared_line(&self, line_addr: u64) -> bool {
        self.coherence.mode.is_directory()
            && self
                .shared_ranges
                .iter()
                .any(|&(s, e)| line_addr >= s && line_addr < e)
    }

    /// Drains the back-invalidation messages addressed to `core`'s upper
    /// levels, counting their application. Always empty under
    /// `Replicate`.
    pub fn take_upper_invals(&mut self, core: usize) -> Vec<u64> {
        self.touch();
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
        self.touch();
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
    /// sends. Ideally-ported configurations (`l3_port_gap == 0`) have an
    /// ideal coherence channel too, mirroring the request-port model.
    fn occupy_bank(&mut self, bank: usize, start: u64, cycles: u64) {
        if self.l3_port_gap == 0 || cycles == 0 {
            return;
        }
        let b = &mut self.banks[bank];
        b.busy_until = b.busy_until.max(start) + cycles;
    }

    /// The bank serving `line_addr` (low line-number bits).
    #[inline]
    fn bank_of(&self, line_addr: u64) -> usize {
        ((line_addr >> self.line_shift) & (self.banks.len() as u64 - 1)) as usize
    }

    /// Strips the bank bits out of a line address, yielding the
    /// bank-local address looked up in that bank's array (so each bank
    /// uses all of its sets).
    #[inline]
    fn local_addr(&self, line_addr: u64) -> u64 {
        (line_addr >> self.line_shift >> self.bank_bits) << self.line_shift
    }

    /// Inverse of [`Self::local_addr`]: reconstructs the original line
    /// address of a bank-local one.
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

    /// Mirrors one row outcome into a per-core DRAM stat share.
    fn bump_row(d: &mut DramStats, outcome: RowOutcome) {
        match outcome {
            RowOutcome::Hit => d.row_hits += 1,
            RowOutcome::Miss => d.row_misses += 1,
            RowOutcome::Conflict => d.row_conflicts += 1,
        }
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
            Self::bump_row(&mut self.per_core[owner].dram, outcome);
        }
    }

    /// Handles an L3 bank's evicted line.
    ///
    /// Private (core-tagged) victims: a residency event goes to the
    /// victim's owner; dirty victims post to DRAM, charged to the
    /// requesting core whose fill caused the eviction (matching the
    /// pre-banking attribution).
    ///
    /// Shared victims (directory modes): the directory entry is
    /// retired and every upper copy recalled (back-invalidation messages
    /// charged to the evicting requester — the sharer-eviction race the
    /// protocol must close). The write-back of a dirty-state victim is
    /// charged to its *owner*, whose dirty data it is; a merely
    /// L3-dirty victim is charged to the requester like a private one.
    fn victim(&mut self, bank: usize, ev: Evicted, now: u64, core: usize) {
        let (owner, local) = Self::untag(ev.addr);
        let global = self.global_addr(local, bank);
        if owner == SHARED_CORE {
            let entry = self.banks[bank].dir.entries.remove(&local);
            let mut e = entry.unwrap_or(DirLine::empty());
            // Evicting the home copy: the table's Evict row decides
            // what the recall owes (a dirty state additionally writes
            // the owner's data back).
            let ob = e.evict(&self.table);
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
                self.post_dram_write(now, Self::tag(SHARED_CORE, global), ob.old_owner, true);
                self.per_core[ob.old_owner].l3.writebacks_out += 1;
                if !ev.dirty {
                    self.banks[bank].cache.stats.writebacks_out += 1;
                }
            } else if ev.dirty {
                self.post_dram_write(now, Self::tag(SHARED_CORE, global), core, false);
                self.per_core[core].l3.writebacks_out += 1;
            }
            return;
        }
        self.push_event(owner, global, false);
        if ev.dirty {
            self.post_dram_write(now, Self::tag(owner, global), core, false);
            self.per_core[core].l3.writebacks_out += 1;
        }
    }

    /// Enables residency-event collection for one core.
    pub fn enable_events(&mut self, core: usize) {
        self.touch();
        self.events[core] = Some(Vec::new());
    }

    /// Drains the events queued for one core.
    pub fn take_events(&mut self, core: usize) -> Vec<CacheEvent> {
        self.touch();
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
            while nacks < self.fault_max_retries && self.nack_faults.roll() {
                start += backoff_delay(self.fault_backoff_base, nacks);
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
    /// intervention (always `false` under [`CoherenceMode::Replicate`];
    /// the tile flags the MSHR entry with it so merge stalls can be
    /// attributed to cross-core sharing).
    pub fn access(
        &mut self,
        core: usize,
        now: u64,
        line_addr: u64,
        kind: AccessKind,
    ) -> (u64, Level, bool) {
        self.touch();
        let shared = self.is_shared_line(line_addr);
        let tag_core = if shared { SHARED_CORE } else { core };
        let bank = self.bank_of(line_addr);
        let local = self.local_addr(line_addr);
        let a = Self::tag(tag_core, local);
        let start = self.arbitrate(core, now, bank);
        let wait = start - now;
        let l3_latency = self.l3_latency;
        let hit = self.banks[bank].cache.access(a, kind);
        {
            let s = &mut self.per_core[core].l3;
            match (kind, hit) {
                (AccessKind::Read, true) => s.read_hits += 1,
                (AccessKind::Read, false) => s.read_misses += 1,
                (AccessKind::Write, true) => s.write_hits += 1,
                (AccessKind::Write, false) => s.write_misses += 1,
                (AccessKind::Prefetch, true) => s.prefetch_hits += 1,
                (AccessKind::Prefetch, false) => {}
            }
        }
        if hit {
            let (coh_extra, intervention) = if shared {
                self.dir_on_hit(bank, core, line_addr, kind, start + l3_latency)
            } else {
                (0, false)
            };
            return (wait + l3_latency + coh_extra, Level::L3, intervention);
        }
        // The DRAM row mapping sees the tagged full line address: in
        // `Replicate` mode distinct cores' private lines are distinct
        // physical lines, so they occupy distinct rows (and interfere in
        // the row buffers); a shared line is one physical line for every
        // core.
        let tagged = Self::tag(tag_core, line_addr);
        let ch = self.channel_of(tagged);
        let (dram_latency, outcome, ecc_retries) =
            self.channels[ch].read(start + l3_latency, tagged);
        {
            let s = &mut self.per_core[core].dram;
            s.reads += 1;
            s.ecc_retries += ecc_retries;
            Self::bump_row(s, outcome);
        }
        let prefetched = kind == AccessKind::Prefetch;
        if let Some(ev) = self.banks[bank].cache.fill(a, false, prefetched) {
            self.victim(bank, ev, start, core);
        }
        {
            let s = &mut self.per_core[core].l3;
            s.fills += 1;
            if prefetched {
                s.prefetch_fills += 1;
            }
        }
        if shared {
            // A freshly resident shared line: the requester is its sole
            // upper holder, in whatever state the table's Invalid row
            // fills to (Exclusive on reads for MESI-family tables,
            // Shared for MSI, Modified on a write-allocate RFO).
            self.banks[bank].dir.entries.insert(
                local,
                DirLine::fill(&self.table, core, kind == AccessKind::Write),
            );
        }
        self.push_event(core, line_addr, true);
        (wait + l3_latency + dram_latency, Level::Dram, false)
    }

    /// The directory transition for an L3 hit on a shared line: the
    /// home slice steps the protocol table through the [`DirLine`]
    /// bookkeeping and discharges the obligations the transition names —
    /// read sharing, invalidation rounds on writes, dirty-copy recalls
    /// (write-back or MOESI cache-to-cache), and MSI's memory re-read.
    /// Returns the message latency charged to the requesting access and
    /// whether an intervention happened. `msg_start` is the cycle the
    /// messages leave the home slice (after the L3 lookup).
    fn dir_on_hit(
        &mut self,
        bank: usize,
        core: usize,
        line_addr: u64,
        kind: AccessKind,
        msg_start: u64,
    ) -> (u64, bool) {
        let local = self.local_addr(line_addr);
        let iv_lat = self.coherence.intervention_latency;
        let inv_lat = self.coherence.inval_latency;
        let mut e = *self.banks[bank]
            .dir
            .entries
            .get(&local)
            .expect("resident shared line must have a directory entry");
        // The table decides the successor state and the protocol work
        // owed; the line record carries what the state enum cannot —
        // the sharer bitset and the owner.
        let ob = e.access(&self.table, core, kind == AccessKind::Write);
        let mut extra = 0u64;
        if ob.intervention {
            // Another core's dirty copy serves this request: a recall
            // round trip either way, plus the DRAM write-back unless the
            // table shares the dirty data cache-to-cache (MOESI).
            extra += iv_lat;
            self.per_core[core].coh.interventions += 1;
            if ob.writeback {
                self.post_dram_write(
                    msg_start,
                    Self::tag(SHARED_CORE, line_addr),
                    ob.old_owner,
                    true,
                );
            }
            self.occupy_bank(bank, msg_start, iv_lat);
        }
        if ob.shared_hit {
            self.per_core[core].coh.shared_hits += 1;
        }
        if ob.invalidate != 0 {
            // One invalidation round covers every recalled sharer.
            extra += inv_lat;
            self.recall_sharers(ob.invalidate, core, line_addr);
            self.occupy_bank(bank, msg_start, inv_lat);
        }
        if ob.memory_read {
            // MSI: sharers cannot forward, so the just-written-back
            // line is re-fetched from memory to serve the request
            // (timed, charged to the requester).
            let tagged = Self::tag(SHARED_CORE, line_addr);
            let ch = self.channel_of(tagged);
            let (lat, outcome, ecc) = self.channels[ch].read(msg_start, tagged);
            let s = &mut self.per_core[core].dram;
            s.reads += 1;
            s.ecc_retries += ecc;
            Self::bump_row(s, outcome);
            extra += lat;
        }
        self.banks[bank].dir.entries.insert(local, e);
        (extra, ob.intervention)
    }

    /// Accepts a dirty line written back by a core's L2 (eviction
    /// cascade); dirty L3 victims continue to DRAM. For a shared line
    /// the write-back also means the core evicted its upper copy: its
    /// sharer bit is cleared, and an M-owner's write-back demotes the
    /// entry (`Shared` if others still hold it, else no upper copies).
    pub fn accept_writeback(&mut self, core: usize, now: u64, line_addr: u64) {
        self.touch();
        let shared = self.is_shared_line(line_addr);
        let tag_core = if shared { SHARED_CORE } else { core };
        let bank = self.bank_of(line_addr);
        let local = self.local_addr(line_addr);
        let a = Self::tag(tag_core, local);
        let had = self.banks[bank].cache.probe(a);
        if let Some(ev) = self.banks[bank].cache.writeback_fill(a) {
            self.victim(bank, ev, now, core);
        }
        if shared {
            self.banks[bank]
                .dir
                .entries
                .entry(local)
                .or_insert(DirLine::empty())
                .writeback_from(core);
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
        self.touch();
        let shared = self.is_shared_line(line_addr);
        let tag_core = if shared { SHARED_CORE } else { core };
        let bank = self.bank_of(line_addr);
        let local = self.local_addr(line_addr);
        let a = Self::tag(tag_core, local);
        self.per_core[core].l3.writethrough_writes += 1;
        if self.banks[bank].cache.writethrough_from_above(a) {
            if shared {
                self.claim_ownership(bank, core, local, line_addr, now);
            }
        } else {
            self.post_dram_write(now, Self::tag(tag_core, line_addr), core, false);
        }
    }

    /// Notes a store by `core` that *hit* its private L2 on `line_addr`
    /// without descending here. Private lines need nothing; for a
    /// resident shared line the directory still has to learn about the
    /// write — ownership moves to the writer and other sharers are
    /// recalled. No latency is charged to the store (write-through posts
    /// are fire-and-forget); the recall messages occupy the home bank's
    /// port. Cheap no-op under `Replicate` (the tile does not even call
    /// in).
    pub fn note_shared_store(&mut self, core: usize, now: u64, line_addr: u64) {
        self.touch();
        if !self.is_shared_line(line_addr) {
            return;
        }
        let bank = self.bank_of(line_addr);
        let local = self.local_addr(line_addr);
        if self.banks[bank].dir.entries.contains_key(&local) {
            self.claim_ownership(bank, core, local, line_addr, now);
        }
    }

    /// Steps a write by `core` through the table for a resident shared
    /// line (fire-and-forget: stores are write-through posts), recalling
    /// whatever sharers and dirty data the transition obliges.
    fn claim_ownership(&mut self, bank: usize, core: usize, local: u64, line_addr: u64, now: u64) {
        let Some(mut e) = self.banks[bank].dir.entries.get(&local).copied() else {
            return;
        };
        let ob = e.access(&self.table, core, true);
        if ob.invalidate != 0 {
            self.recall_sharers(ob.invalidate, core, line_addr);
            self.occupy_bank(bank, now, self.coherence.inval_latency);
        }
        if ob.intervention {
            // The previous owner's dirty data is recalled (and written
            // back, unless shared cache-to-cache) before the new owner's
            // write supersedes it.
            self.per_core[core].coh.interventions += 1;
            if ob.writeback {
                self.post_dram_write(now, Self::tag(SHARED_CORE, line_addr), ob.old_owner, true);
            }
            self.occupy_bank(bank, now, self.coherence.intervention_latency);
        }
        if ob.memory_read {
            // MSI re-fetch: untimed (the store is fire-and-forget), but
            // the channel traffic is still accounted.
            let tagged = Self::tag(SHARED_CORE, line_addr);
            let ch = self.channel_of(tagged);
            self.channels[ch].stats.reads += 1;
            self.per_core[core].dram.reads += 1;
        }
        self.banks[bank].dir.entries.insert(local, e);
    }

    /// A `dma-get` bus-request snoop that missed the core's L1/L2. A hit
    /// on a shared line held dirty (`Modified`/`Owned`) by *another*
    /// core is the in-flight-DMA intervention: the owner's dirty data is
    /// recalled per the protocol table (so the transfer reads current
    /// data) — written back and downgraded under MESI/MESIF, kept
    /// dirty-shared under MOESI, re-read from memory under MSI.
    pub fn snoop(&mut self, core: usize, now: u64, line_addr: u64) -> bool {
        self.touch();
        let shared = self.is_shared_line(line_addr);
        let tag_core = if shared { SHARED_CORE } else { core };
        let bank = self.bank_of(line_addr);
        let local = self.local_addr(line_addr);
        self.per_core[core].l3.snoops += 1;
        let a = Self::tag(tag_core, local);
        let present = self.banks[bank].cache.snoop(a);
        if shared && present {
            if let Some(mut e) = self.banks[bank].dir.entries.get(&local).copied() {
                // A DMA engine is not a caching reader, so only the
                // dirty-recall transition of the protocol table applies
                // (RemoteRead on a dirty state): the sharer set is left
                // alone and the DMA never joins it.
                if let Some(ob) = e.snoop_recall(&self.table, core) {
                    self.per_core[core].coh.interventions += 1;
                    if ob.writeback {
                        self.post_dram_write(
                            now,
                            Self::tag(SHARED_CORE, line_addr),
                            ob.old_owner,
                            true,
                        );
                    }
                    if ob.memory_read {
                        // MSI: the DMA re-reads the written-back line
                        // from memory (untimed — the DMAC times the
                        // transfer; the channel accounting lands here).
                        let tagged = Self::tag(SHARED_CORE, line_addr);
                        let ch = self.channel_of(tagged);
                        self.channels[ch].stats.reads += 1;
                        self.per_core[core].dram.reads += 1;
                    }
                    self.occupy_bank(bank, now, self.coherence.intervention_latency);
                    self.banks[bank].dir.entries.insert(local, e);
                }
            }
        }
        present
    }

    /// A `dma-put` bus-request invalidation. Returns whether the line was
    /// resident. Invalidating a shared line retires its directory entry
    /// and recalls every *other* core's upper copy (the requester
    /// invalidates its own L1/L2 as part of the `dma-put` walk); no
    /// write-back — the DMA data supersedes any cached copy (§2.1).
    pub fn invalidate(&mut self, core: usize, line_addr: u64) -> bool {
        self.touch();
        let shared = self.is_shared_line(line_addr);
        let tag_core = if shared { SHARED_CORE } else { core };
        let bank = self.bank_of(line_addr);
        let local = self.local_addr(line_addr);
        self.per_core[core].l3.invalidations += 1;
        let a = Self::tag(tag_core, local);
        let present = self.banks[bank].cache.invalidate(a).is_some();
        if shared {
            if let Some(e) = self.banks[bank].dir.entries.remove(&local) {
                self.recall_sharers(e.sharers & !(1 << core), core, line_addr);
            }
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
        self.touch();
        let ch = self.channel_of(line_addr);
        self.channels[ch].stats.reads += 1;
        self.per_core[core].dram.reads += 1;
    }

    /// Counts a DRAM line write with no timing (DMA write-back traffic).
    pub fn note_dram_write(&mut self, core: usize, line_addr: u64) {
        self.touch();
        let ch = self.channel_of(line_addr);
        self.channels[ch].stats.writes += 1;
        self.per_core[core].dram.writes += 1;
    }

    /// Whether `line_addr` (a core-local address) is resident in the
    /// shared L3 on behalf of `core` (for a shared line: on behalf of
    /// every core).
    pub fn probe(&self, core: usize, line_addr: u64) -> bool {
        let tag_core = if self.is_shared_line(line_addr) {
            SHARED_CORE
        } else {
            core
        };
        let bank = self.bank_of(line_addr);
        self.banks[bank]
            .cache
            .probe(Self::tag(tag_core, self.local_addr(line_addr)))
    }

    /// The MESI sharer count of a resident shared line (tests and
    /// reports; `None` when the line is not directory-tracked).
    pub fn sharer_count(&self, line_addr: u64) -> Option<u32> {
        if !self.is_shared_line(line_addr) {
            return None;
        }
        let bank = self.bank_of(line_addr);
        self.banks[bank]
            .dir
            .entries
            .get(&self.local_addr(line_addr))
            .map(|e| e.sharers.count_ones())
    }

    /// The earliest backside resource release strictly after `now` — any
    /// L3 bank port, the DRAM channel, or a DRAM bank freeing up — if
    /// any. Part of the memory-side event horizon: cycle-skipping cores
    /// never jump past it, so arbitration-relevant backside state is
    /// observed at the cycle it changes (see the module docs).
    pub fn next_event_after(&self, now: u64) -> Option<u64> {
        let cached = self.horizon_cache.get();
        if cached == HORIZON_NONE {
            return None;
        }
        if cached != HORIZON_DIRTY && cached > now {
            return Some(cached);
        }
        let next = self
            .banks
            .iter()
            .map(|b| b.busy_until)
            .filter(|&t| t > now)
            .chain(
                self.channels
                    .iter()
                    .filter_map(|ch| ch.next_event_after(now)),
            )
            .min();
        self.horizon_cache.set(next.unwrap_or(HORIZON_NONE));
        next
    }
}

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
    /// Data TLB (bypassed by LM accesses).
    pub tlb: Tlb,
    /// Local memory, when configured.
    pub lm: Option<LocalMem>,
    /// DMA controller.
    pub dmac: Dmac,
    /// Residency event stream for the coherence tracker (`None`
    /// disables collection; benchmarks keep it off).
    pub events: Option<Vec<CacheEvent>>,
    backside: Rc<RefCell<SharedBackside>>,
    core_id: usize,
    /// Cached tile-local horizon (`min` of the MSHR fills and in-flight
    /// DMA): `HORIZON_DIRTY` after any access that can move either,
    /// `HORIZON_NONE` when both are provably idle.
    tile_horizon: Cell<u64>,
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
            tlb: Tlb::new(cfg.tlb.clone()),
            lm: cfg.lm.clone().map(LocalMem::new),
            dmac: Dmac::with_faults(cfg.dma.clone(), &cfg.fault, core_id as u64),
            events: None,
            backside,
            core_id,
            tile_horizon: Cell::new(HORIZON_DIRTY),
            cfg,
        }
    }

    /// The shared backside this tile sits in front of.
    pub fn shared_backside(&self) -> Rc<RefCell<SharedBackside>> {
        Rc::clone(&self.backside)
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

    #[inline]
    fn ev(&mut self, line: u64, fill: bool) {
        if let Some(v) = &mut self.events {
            v.push(CacheEvent { line, fill });
        }
    }

    /// DRAM traffic moved on behalf of this core.
    pub fn dram_stats(&self) -> DramStats {
        self.backside.borrow().core_stats(self.core_id).dram
    }

    /// This core's share of the shared-L3 activity.
    pub fn l3_stats(&self) -> CacheStats {
        self.backside.borrow().core_stats(self.core_id).l3
    }

    /// This core's backside contention statistics.
    pub fn backside_stats(&self) -> BacksideCoreStats {
        self.backside.borrow().core_stats(self.core_id)
    }

    /// Whether this core's `addr` is resident in the shared L3.
    pub fn l3_probe(&self, addr: u64) -> bool {
        let line = self.l2.line_addr(addr);
        self.backside.borrow().probe(self.core_id, line)
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

    /// Applies any back-invalidation messages the directory addressed to
    /// this tile's L1/L2 (recalls of shared lines another core wrote or
    /// evicted), returning the tile-side port occupancy the recalls
    /// cost: each *dirty* line recalled out of the L1/L2 charges
    /// [`CoherenceConfig::dirty_recall_latency`] cycles to the memory
    /// operation draining the queue, so recall storms couple into the
    /// victim core's timing. A cheap no-op under `Replicate` — the
    /// backside is not even consulted.
    fn apply_upper_invals(&mut self) -> u64 {
        if !self.cfg.coherence.mode.is_directory() {
            return 0;
        }
        if !self.backside.borrow().has_upper_invals(self.core_id) {
            return 0;
        }
        let lines = self.backside.borrow_mut().take_upper_invals(self.core_id);
        let mut dirty = 0u64;
        for a in lines {
            // Either level can owe a transfer for a dirty copy. (The
            // shipped Table 1 L1D is write-through and never dirty, but
            // hetero tiles are free to configure a write-back L1D.)
            if let Some(was_dirty) = self.l1d.invalidate(a) {
                self.ev(a, false);
                dirty += u64::from(was_dirty);
            }
            if let Some(was_dirty) = self.l2.invalidate(a) {
                self.ev(a, false);
                dirty += u64::from(was_dirty);
            }
        }
        if dirty == 0 {
            return 0;
        }
        let mut bs = self.backside.borrow_mut();
        bs.note_dirty_recalls(self.core_id, dirty);
        dirty * bs.dirty_recall_latency()
    }

    /// A demand access to system memory from instruction at `pc`.
    pub fn data_access(&mut self, now: u64, pc: u64, addr: u64, write: bool) -> AccessResponse {
        self.tile_horizon.set(HORIZON_DIRTY);
        let recall_penalty = self.apply_upper_invals();
        let tlb_penalty = self.tlb.access(addr);
        let now = now + tlb_penalty + recall_penalty;

        // Train the prefetcher and issue its fills before the demand
        // access so a just-prefetched line does not count as a demand hit
        // for the line that triggered it.
        let line_bytes = self.cfg.l1d.line_bytes;
        let targets = self.prefetcher.observe(pc, addr, line_bytes);
        for t in targets {
            self.prefetch_line(now, t);
        }

        let kind = if write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        if self.l1d.access(addr, kind) {
            if write {
                self.writethrough_below(now, addr);
            }
            // The line may have been placed by a miss whose fetch is still
            // in flight; such accesses wait on the MSHR entry (secondary
            // miss merge).
            let line_addr = self.l1d.line_addr(addr);
            let latency = match self.mshr.pending_ready(line_addr, now) {
                Some(ready) => (ready - now).max(self.cfg.l1d.latency),
                None => self.cfg.l1d.latency,
            };
            return AccessResponse {
                latency: latency + tlb_penalty + recall_penalty,
                served: Level::L1,
                tlb_penalty,
            };
        }

        // L1 miss: allocate or merge in the MSHR file.
        let line_addr = self.l1d.line_addr(addr);
        let (latency, served) = match self.mshr.lookup_or_allocate(line_addr, now) {
            MshrOutcome::Merged { ready_at } => {
                ((ready_at - now).max(self.cfg.l1d.latency), Level::L1)
            }
            MshrOutcome::Allocated { idx, start_at } => {
                let (below, served, intervention) = self.walk_l2(start_at, line_addr, kind);
                let total = (start_at - now) + self.cfg.l1d.latency + below;
                self.mshr.set_ready(idx, now + total);
                if intervention {
                    self.mshr.note_intervention(idx);
                }
                // Place the line in L1 (write-through L1 victims are
                // always clean).
                if let Some(ev) = self.l1d.fill(line_addr, false, false) {
                    self.ev(ev.addr, false);
                }
                self.ev(line_addr, true);
                (total, served)
            }
        };
        if write {
            // Write-allocate + write-through: after the fill, the write
            // updates L1 and is forwarded below.
            self.writethrough_below(now, addr);
        }
        AccessResponse {
            latency: latency + tlb_penalty + recall_penalty,
            served,
            tlb_penalty,
        }
    }

    /// Propagates a write-through store below L1. The walk above
    /// guarantees L2 normally holds the line; when it does not, the write
    /// keeps descending into the shared backside (and is posted to DRAM
    /// at the bottom). Under the directory modes, a store absorbed by
    /// the L2 still notifies the directory when the line is shared, so
    /// ownership tracking stays sound.
    fn writethrough_below(&mut self, now: u64, addr: u64) {
        let a2 = self.l2.line_addr(addr);
        if self.l2.writethrough_from_above(a2) {
            if self.cfg.coherence.mode.is_directory() {
                self.backside
                    .borrow_mut()
                    .note_shared_store(self.core_id, now, a2);
                self.pull_backside_events();
            }
            return;
        }
        self.backside
            .borrow_mut()
            .writethrough(self.core_id, now, a2);
        self.pull_backside_events();
    }

    /// Walks L2 and then the shared L3 → DRAM backside for a missing L1
    /// line. Returns the latency beyond L1, the serving level, and
    /// whether the backside walk paid an M-state intervention.
    fn walk_l2(&mut self, now: u64, line_addr: u64, kind: AccessKind) -> (u64, Level, bool) {
        if self.l2.access(line_addr, kind) {
            return (self.cfg.l2.latency, Level::L2, false);
        }
        let (below, served, intervention) = self.backside.borrow_mut().access(
            self.core_id,
            now + self.cfg.l2.latency,
            line_addr,
            kind,
        );
        self.pull_backside_events();
        // Fill L2; dirty victims cascade into the backside.
        if let Some(ev) = self.l2.fill(line_addr, false, kind == AccessKind::Prefetch) {
            self.ev(ev.addr, false);
            if ev.dirty {
                self.backside
                    .borrow_mut()
                    .accept_writeback(self.core_id, now, ev.addr);
                self.pull_backside_events();
            }
        }
        self.ev(line_addr, true);
        (self.cfg.l2.latency + below, served, intervention)
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
        if let Some(ev) = self.l1d.fill(line, false, true) {
            self.ev(ev.addr, false);
        }
        self.ev(line, true);
        // Record the in-flight window so demand accesses that catch up
        // with this prefetch wait for it.
        if let crate::mshr::MshrOutcome::Allocated { idx, start_at } =
            self.mshr.lookup_or_allocate(line, now)
        {
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
        self.tile_horizon.set(HORIZON_DIRTY);
        // Draining pending recalls first delays the command issue by the
        // dirty-recall port occupancy, like any other memory operation.
        let now = now + self.apply_upper_invals();
        let line = self.cfg.l1d.line_bytes;
        let mut a = sm_addr & !(line - 1);
        while a < sm_addr + bytes {
            // Snoop top-down; stop at the first level holding the line.
            if !self.l1d.snoop(a) && !self.l2.snoop(a) {
                let mut bs = self.backside.borrow_mut();
                if !bs.snoop(self.core_id, now, a) {
                    bs.note_dram_read(self.core_id, a);
                }
            }
            a += line;
        }
        if let Some(lm) = self.lm.as_mut() {
            lm.note_dma_in(bytes);
        }
        self.dmac.issue(DmaOp::Get, bytes, tag, now)
    }

    /// Executes the bus side of a `dma-put`: copies to main memory and
    /// invalidates every matching cache line in the whole hierarchy
    /// (paper §2.1). Returns the command completion cycle.
    pub fn dma_put(&mut self, now: u64, sm_addr: u64, bytes: u64, tag: u8) -> u64 {
        self.tile_horizon.set(HORIZON_DIRTY);
        let now = now + self.apply_upper_invals();
        let line = self.cfg.l1d.line_bytes;
        let mut a = sm_addr & !(line - 1);
        while a < sm_addr + bytes {
            if self.l1d.invalidate(a).is_some() {
                self.ev(a, false);
            }
            if self.l2.invalidate(a).is_some() {
                self.ev(a, false);
            }
            {
                let mut bs = self.backside.borrow_mut();
                bs.invalidate(self.core_id, a);
                bs.note_dram_write(self.core_id, a);
            }
            a += line;
        }
        self.pull_backside_events();
        if let Some(lm) = self.lm.as_mut() {
            lm.note_dma_out(bytes);
        }
        self.dmac.issue(DmaOp::Put, bytes, tag, now)
    }

    /// `dma-synch`: the cycle at which the wait for `tag` ends.
    pub fn dma_synch(&mut self, now: u64, tag: u8) -> u64 {
        self.tile_horizon.set(HORIZON_DIRTY);
        self.dmac.synch(tag, now)
    }

    /// The pending-work horizon of this tile's memory side: the earliest
    /// cycle strictly after `now` at which an outstanding MSHR fill
    /// completes, the DMA engine frees up or lands a transfer, or a
    /// shared backside resource (L3 port, DRAM channel) becomes free —
    /// `None` when nothing is pending. The machine forwards this through
    /// `MemoryPort::next_mem_event_at` so a cycle-skipping core never
    /// jumps past a backside event that could change arbitration.
    pub fn next_event_at(&self, now: u64) -> Option<u64> {
        let cached = self.tile_horizon.get();
        let local = if cached == HORIZON_NONE {
            None
        } else if cached != HORIZON_DIRTY && cached > now {
            Some(cached)
        } else {
            let v = [
                self.mshr.next_ready_after(now),
                self.dmac.next_event_after(now),
            ]
            .into_iter()
            .flatten()
            .min();
            self.tile_horizon.set(v.unwrap_or(HORIZON_NONE));
            v
        };
        match (local, self.backside.borrow().next_event_after(now)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
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
        assert_eq!(m.dram_stats().reads, 1);
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
                dram_before = m.dram_stats().reads;
            }
            if i > 20 {
                assert_eq!(
                    r.served,
                    Level::L1,
                    "stream must hit after training (i={i})"
                );
            }
        }
        assert!(m.dram_stats().reads > dram_before, "prefetches read DRAM");
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
        assert!(!m.l3_probe(0x1000_0000));
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

    // ------------------------------------------------- shared backside

    /// Two tiles in front of one backside, as a multi-core machine
    /// builds them.
    fn shared_pair(l3_port_gap: u64) -> (MemSystem, MemSystem) {
        let mut cfg = MemConfig::hybrid();
        cfg.prefetch.enabled = false;
        cfg.l3_port_gap = l3_port_gap;
        let backside = Rc::new(RefCell::new(SharedBackside::new(&cfg, 2)));
        let a = MemSystem::with_backside(cfg.clone(), Rc::clone(&backside), 0);
        let b = MemSystem::with_backside(cfg, backside, 1);
        (a, b)
    }

    #[test]
    fn same_address_on_two_cores_stays_private_in_shared_l3() {
        let (mut a, mut b) = shared_pair(0);
        a.data_access(0, 0x40, 0x1000_0000, false);
        // Core 1 reading the same (core-local) address must not hit core
        // 0's line: private data is tagged per core in the shared array.
        let r = b.data_access(10_000, 0x40, 0x1000_0000, false);
        assert_eq!(r.served, Level::Dram, "no false sharing across cores");
        assert!(a.l3_probe(0x1000_0000));
        assert!(b.l3_probe(0x1000_0000));
        assert_eq!(a.dram_stats().reads, 1);
        assert_eq!(b.dram_stats().reads, 1);
    }

    #[test]
    fn l3_port_contention_charges_waits_to_the_second_core() {
        let (mut a, mut b) = shared_pair(8);
        // Both cores miss to DRAM at the same cycle: the port serializes
        // them and the second core records the wait.
        a.data_access(0, 0x40, 0x1000_0000, false);
        b.data_access(0, 0x40, 0x1000_0000, false);
        let wait_a = a.backside_stats().bus_wait_cycles;
        let wait_b = b.backside_stats().bus_wait_cycles;
        assert_eq!(wait_a, 0, "first requester never waits");
        assert!(
            wait_b >= 8,
            "second requester waits for the port, got {wait_b}"
        );
        assert_eq!(a.backside_stats().bus_requests, 1);
        assert_eq!(b.backside_stats().bus_requests, 1);
    }

    #[test]
    fn uncontended_port_is_free_even_when_shared() {
        let (mut a, mut b) = shared_pair(8);
        a.data_access(0, 0x40, 0x1000_0000, false);
        // Far apart in time: no wait.
        b.data_access(100_000, 0x40, 0x2000_0000, false);
        assert_eq!(b.backside_stats().bus_wait_cycles, 0);
    }

    #[test]
    fn per_core_l3_stats_sum_to_shared_totals() {
        let (mut a, mut b) = shared_pair(0);
        for i in 0..32u64 {
            a.data_access(i * 500, 0x40, 0x1000_0000 + i * 64, false);
            b.data_access(i * 500 + 7, 0x44, 0x3000_0000 + i * 128, false);
        }
        // Write traffic at a 128 KB stride from both cores lands in one
        // L2 set *and* one (shared) L3 set: dirty L2 victims cascade
        // into the L3 as write-backs, and the other core's pressure
        // evicts some of them from the L3 first, so `accept_writeback`
        // exercises both its resident and its line-allocating paths.
        for i in 0..50u64 {
            a.data_access(20_000 + i * 600, 0x48, 0x5000_0000 + i * 0x20000, true);
            b.data_access(20_000 + i * 600 + 7, 0x4c, 0x6000_0000 + i * 0x20000, true);
        }
        assert!(
            a.l3_stats().writebacks_in > 0 && b.l3_stats().writebacks_in > 0,
            "the write pattern must actually cascade write-backs into the L3"
        );
        let backside = a.shared_backside();
        let total = backside.borrow().l3_total_stats();
        let mut sum = a.l3_stats();
        sum.merge(&b.l3_stats());
        assert_eq!(sum, total, "per-core shares must partition the totals");
        let dram_total = backside.borrow().dram_total_stats();
        let (da, db) = (a.dram_stats(), b.dram_stats());
        assert_eq!(da.reads + db.reads, dram_total.reads);
        assert_eq!(da.writes + db.writes, dram_total.writes);
        assert_eq!(da.row_hits + db.row_hits, dram_total.row_hits);
        assert_eq!(da.row_misses + db.row_misses, dram_total.row_misses);
        assert_eq!(
            da.row_conflicts + db.row_conflicts,
            dram_total.row_conflicts
        );
        assert_eq!(da.queue_stalls + db.queue_stalls, dram_total.queue_stalls);
        assert_eq!(da.ecc_retries + db.ecc_retries, dram_total.ecc_retries);
    }

    #[test]
    fn fault_counters_partition_chip_totals_exactly() {
        // The recovery counters obey the same attribution invariant as
        // every other backside stat: each injected event lands on
        // exactly one core's share.
        let mut cfg = MemConfig::hybrid();
        cfg.prefetch.enabled = false;
        cfg.l3_port_gap = 8;
        cfg.fault = FaultConfig::uniform(77, 0.4);
        let backside = Rc::new(RefCell::new(SharedBackside::new(&cfg, 2)));
        let mut a = MemSystem::with_backside(cfg.clone(), Rc::clone(&backside), 0);
        let mut b = MemSystem::with_backside(cfg, backside, 1);
        for i in 0..64u64 {
            // Same-cycle pairs so the bank ports actually contend (the
            // NACK site only rolls on contended arbitrations).
            a.data_access(i * 300, 0x40, 0x1000_0000 + i * 64, i % 5 == 0);
            b.data_access(i * 300, 0x44, 0x1000_0000 + i * 64 + 16, false);
        }
        let bs = a.shared_backside();
        let total_dram = bs.borrow().dram_total_stats();
        let total_coh = bs.borrow().coherence_total_stats();
        let (sa, sb) = (a.backside_stats(), b.backside_stats());
        assert!(
            total_dram.ecc_retries > 0,
            "rate 0.4 must inject ECC retries"
        );
        assert!(total_coh.dir_nacks > 0, "contended ports must see NACKs");
        assert_eq!(
            sa.dram.ecc_retries + sb.dram.ecc_retries,
            total_dram.ecc_retries
        );
        let mut coh = sa.coh;
        coh.merge(&sb.coh);
        assert_eq!(coh, total_coh, "NACK shares must partition");
    }

    #[test]
    fn shared_dram_channel_queues_across_cores() {
        let (mut a, mut b) = shared_pair(0);
        // Same-cycle DRAM misses share the channel: the second transfer
        // queues at least one burst gap behind the first (and possibly a
        // whole bank occupancy, if the hashed interleave put the two
        // cores' tagged rows in one bank).
        let ra = a.data_access(0, 0x40, 0x1000_0000, false);
        let rb = b.data_access(0, 0x40, 0x1000_0000, false);
        assert_eq!(ra.served, Level::Dram);
        assert_eq!(rb.served, Level::Dram);
        assert!(
            rb.latency >= ra.latency + 12,
            "second DRAM read must queue behind the first ({} vs {})",
            rb.latency,
            ra.latency
        );
        assert_eq!(a.dram_stats().row_misses, 1, "first opens its row");
        assert_eq!(
            b.dram_stats().row_accesses(),
            1,
            "second is row-classified too (tagged rows are distinct)"
        );
        assert_eq!(b.dram_stats().row_hits, 0, "distinct rows cannot hit");
    }

    #[test]
    fn different_l3_banks_do_not_conflict_on_the_port() {
        let (mut a, mut b) = shared_pair(8);
        // Adjacent lines interleave across L3 banks: same-cycle requests
        // to different banks both start immediately.
        a.data_access(0, 0x40, 0x1000_0000, false);
        b.data_access(0, 0x40, 0x1000_0040, false);
        assert_eq!(a.backside_stats().bank_conflicts, 0);
        assert_eq!(b.backside_stats().bank_conflicts, 0);
        assert_eq!(b.backside_stats().bus_wait_cycles, 0);
    }

    #[test]
    fn same_l3_bank_conflicts_and_counts() {
        let (mut a, mut b) = shared_pair(8);
        let backside = a.shared_backside();
        let n_banks = backside.borrow().n_banks() as u64;
        // Two same-cycle requests one bank-stride apart collide on one
        // bank's port; the second is charged the wait and the conflict.
        a.data_access(0, 0x40, 0x1000_0000, false);
        b.data_access(0, 0x44, 0x1000_0000 + n_banks * 64, false);
        assert_eq!(a.backside_stats().bank_conflicts, 0);
        assert_eq!(b.backside_stats().bank_conflicts, 1);
        assert!(b.backside_stats().bus_wait_cycles >= 8);
    }

    #[test]
    fn single_bank_backside_keeps_the_monolithic_geometry() {
        let mut cfg = MemConfig::hybrid();
        cfg.l3_geometry.banks = 1;
        let bs = SharedBackside::new(&cfg, 1);
        assert_eq!(bs.n_banks(), 1);
        assert_eq!(bs.banks[0].cache.cfg.num_sets(), cfg.l3.num_sets());
        // Bank-local addresses are the identity under one bank.
        assert_eq!(bs.local_addr(0x1234_5640), 0x1234_5640);
        assert_eq!(bs.global_addr(0x1234_5640, 0), 0x1234_5640);
    }

    #[test]
    fn bank_address_mapping_round_trips() {
        let cfg = MemConfig::hybrid();
        let bs = SharedBackside::new(&cfg, 1);
        for line in [0u64, 0x40, 0x1000_0000, 0x1000_0040, 0x3fff_ffc0] {
            let bank = bs.bank_of(line);
            assert!(bank < bs.n_banks());
            assert_eq!(bs.global_addr(bs.local_addr(line), bank), line);
        }
        // Adjacent lines rotate through the banks.
        assert_ne!(bs.bank_of(0x1000_0000), bs.bank_of(0x1000_0040));
    }

    // ------------------------------------------------- MESI directory

    /// Two tiles in Mesi mode with `[0x1000_0000, +8 MiB)` registered as
    /// cross-core shared.
    fn mesi_pair(l3_port_gap: u64) -> (MemSystem, MemSystem) {
        let mut cfg = MemConfig::hybrid();
        cfg.prefetch.enabled = false;
        cfg.l3_port_gap = l3_port_gap;
        cfg.coherence.mode = CoherenceMode::Mesi;
        let backside = Rc::new(RefCell::new(SharedBackside::new(&cfg, 2)));
        backside
            .borrow_mut()
            .mark_shared_range(0x1000_0000, 8 << 20);
        let a = MemSystem::with_backside(cfg.clone(), Rc::clone(&backside), 0);
        let b = MemSystem::with_backside(cfg, backside, 1);
        (a, b)
    }

    #[test]
    fn shared_read_is_served_without_replication() {
        let (mut a, mut b) = mesi_pair(0);
        a.data_access(0, 0x40, 0x1000_0000, false);
        // The second core hits the line the first brought in: one DRAM
        // read total, and the directory records two sharers.
        let r = b.data_access(10_000, 0x40, 0x1000_0000, false);
        assert_eq!(r.served, Level::L3, "read sharing must hit the L3");
        assert_eq!(a.dram_stats().reads, 1);
        assert_eq!(b.dram_stats().reads, 0, "no replicated DRAM read");
        assert_eq!(b.backside_stats().coh.shared_hits, 1);
        let bs = a.shared_backside();
        assert_eq!(bs.borrow().sharer_count(0x1000_0000), Some(2));
    }

    #[test]
    fn outside_registered_ranges_mesi_keeps_private_replicas() {
        let (mut a, mut b) = mesi_pair(0);
        a.data_access(0, 0x40, 0x5000_0000, false);
        let r = b.data_access(10_000, 0x40, 0x5000_0000, false);
        assert_eq!(r.served, Level::Dram, "private data stays core-tagged");
        assert_eq!(b.dram_stats().reads, 1);
        assert_eq!(b.backside_stats().coh.shared_hits, 0);
    }

    #[test]
    fn write_recalls_sharers_and_read_back_pays_intervention() {
        let (mut a, mut b) = mesi_pair(0);
        a.data_access(0, 0x40, 0x1000_0000, false);
        b.data_access(10_000, 0x44, 0x1000_0000, false);
        assert!(b.l1d.probe(0x1000_0000), "B holds an upper copy");
        // A stores to the shared line: its L2 absorbs the write-through,
        // and the directory recalls B's copy.
        a.data_access(20_000, 0x48, 0x1000_0004, true);
        assert_eq!(a.backside_stats().coh.invalidations_sent, 1);
        // B's next access first applies the recall (losing its L1/L2
        // copies), then re-misses into the L3, where A's M state forces
        // an intervention: A's dirty data is written back, charged to A.
        let writes_before = a.dram_stats().writes;
        let r = b.data_access(30_000, 0x4c, 0x1000_0000, false);
        assert_eq!(b.backside_stats().coh.upper_invals_applied, 1);
        assert!(!b.l1d.probe(0x1000_0010) || r.served == Level::L3);
        assert_eq!(r.served, Level::L3, "L3 still holds the line");
        assert_eq!(b.backside_stats().coh.interventions, 1);
        assert_eq!(
            a.dram_stats().writes,
            writes_before + 1,
            "the intervention write-back is charged to the owner"
        );
        let bs = a.shared_backside();
        assert_eq!(bs.borrow().sharer_count(0x1000_0000), Some(2));
    }

    #[test]
    fn dma_get_snoop_intervenes_on_remote_modified_line() {
        let (mut a, mut b) = mesi_pair(0);
        // A write-allocates the shared line: Modified, owned by A.
        a.data_access(0, 0x40, 0x1000_0000, true);
        let writes_before = a.dram_stats().writes;
        // B's dma-get over the same line snoops the hierarchy while the
        // line is M elsewhere: the owner's data must be recalled so the
        // transfer reads current data.
        b.dma_get(1000, 0x1000_0000, 64, 0);
        assert_eq!(b.backside_stats().coh.interventions, 1);
        assert_eq!(a.dram_stats().writes, writes_before + 1);
    }

    #[test]
    fn shared_line_eviction_back_invalidates_sharers() {
        let (mut a, mut b) = mesi_pair(0);
        // Both cores share line 0x1000_0000.
        a.data_access(0, 0x40, 0x1000_0000, false);
        b.data_access(1_000, 0x44, 0x1000_0000, false);
        assert!(b.l1d.probe(0x1000_0000));
        // A floods the victim's L3 bank set with other shared lines
        // until 0x1000_0000 is evicted. Bank-local set stride: banks *
        // sets_per_bank * line bytes.
        let bs = a.shared_backside();
        let (banks, ways, sets) = {
            let bs = bs.borrow();
            let ways = bs.banks[0].cache.cfg.ways as u64;
            (
                bs.n_banks() as u64,
                ways,
                bs.banks[0].cache.cfg.num_sets() as u64,
            )
        };
        let stride = banks * sets * 64;
        let mut i = 1u64;
        while bs.borrow().probe(0, 0x1000_0000) {
            a.data_access(10_000 + i * 700, 0x48, 0x1000_0000 + i * stride, false);
            assert!(i <= 2 * ways, "eviction must happen within the set");
            i += 1;
        }
        // The eviction recalled every sharer's copy (the sharer-eviction
        // race): B's next access applies it and re-misses to DRAM.
        assert!(a.backside_stats().coh.invalidations_sent >= 2);
        let r = b.data_access(900_000, 0x4c, 0x1000_0000, false);
        assert!(b.backside_stats().coh.upper_invals_applied >= 1);
        assert_eq!(r.served, Level::Dram, "the shared copy is gone");
    }

    #[test]
    fn dirty_recall_charges_the_victim_tile_port() {
        let (mut a, mut b) = mesi_pair(0);
        // B write-allocates the shared line: its L2 absorbs the
        // write-through and holds the line dirty; B owns it Modified.
        b.data_access(0, 0x40, 0x1000_0000, true);
        assert!(b.l2.probe(0x1000_0000));
        // Warm a private line into B's L1 (and its TLB page) so the
        // post-recall access below is a pure L1 hit.
        b.data_access(1_000, 0x48, 0x5000_0000, false);
        b.data_access(2_000, 0x48, 0x5000_0000, false);
        // A writes the shared line: ownership moves, B's dirty copy is
        // recalled via a queued back-invalidation.
        a.data_access(10_000, 0x44, 0x1000_0000, true);
        assert_eq!(a.backside_stats().coh.invalidations_sent, 1);
        // B's next memory operation drains the recall: the dirty line's
        // transfer occupies B's tile port, so even an unrelated L1 hit
        // pays the recall latency on top of its own.
        let lat = b.shared_backside().borrow().dirty_recall_latency();
        assert!(lat > 0, "default config must charge dirty recalls");
        let r = b.data_access(20_000, 0x4c, 0x5000_0000, false);
        assert_eq!(r.served, Level::L1);
        assert_eq!(r.latency, 2 + lat, "L1 hit + one dirty-recall charge");
        assert_eq!(b.backside_stats().coh.dirty_recalls, 1);
        assert_eq!(b.backside_stats().coh.upper_invals_applied, 1);
        // A clean recall costs nothing: B re-reads the line (Shared),
        // A writes again, and B's next hit pays no occupancy.
        b.data_access(30_000, 0x50, 0x1000_0000, false);
        a.data_access(40_000, 0x54, 0x1000_0004, true);
        let r = b.data_access(50_000, 0x58, 0x5000_0000, false);
        assert_eq!(r.latency, 2, "clean recalls charge no port occupancy");
        assert_eq!(b.backside_stats().coh.dirty_recalls, 1);
    }

    #[test]
    fn mesi_stats_still_partition_chip_totals_exactly() {
        // The satellite invariant: with interventions, recalls and
        // owner-attributed write-backs in play, per-core shares must
        // still sum to the aggregate backside totals for every counter.
        let (mut a, mut b) = mesi_pair(4);
        for i in 0..64u64 {
            a.data_access(i * 500, 0x40, 0x1000_0000 + i * 64, i % 5 == 0);
            b.data_access(i * 500 + 3, 0x44, 0x1000_0000 + i * 64, i % 7 == 0);
            b.data_access(i * 500 + 9, 0x48, 0x5000_0000 + i * 128, false);
        }
        // Force evictions of shared lines with set-conflicting traffic.
        let bs = a.shared_backside();
        let stride = {
            let bs = bs.borrow();
            bs.n_banks() as u64 * bs.banks[0].cache.cfg.num_sets() as u64 * 64
        };
        for i in 0..40u64 {
            a.data_access(100_000 + i * 800, 0x4c, 0x1000_0000 + i * stride, true);
        }
        let total_l3 = bs.borrow().l3_total_stats();
        let total_dram = bs.borrow().dram_total_stats();
        let total_coh = bs.borrow().coherence_total_stats();
        let (sa, sb) = (a.backside_stats(), b.backside_stats());
        let mut l3 = sa.l3;
        l3.merge(&sb.l3);
        assert_eq!(l3, total_l3, "L3 shares must partition the totals");
        assert_eq!(sa.dram.reads + sb.dram.reads, total_dram.reads);
        assert_eq!(sa.dram.writes + sb.dram.writes, total_dram.writes);
        assert_eq!(sa.dram.row_hits + sb.dram.row_hits, total_dram.row_hits);
        assert_eq!(
            sa.dram.row_misses + sb.dram.row_misses,
            total_dram.row_misses
        );
        assert_eq!(
            sa.dram.row_conflicts + sb.dram.row_conflicts,
            total_dram.row_conflicts
        );
        assert_eq!(
            sa.dram.queue_stalls + sb.dram.queue_stalls,
            total_dram.queue_stalls
        );
        // The directory-aware drain split partitions too: a stall whose
        // drained victim was an intervention write-back lands on the
        // owner, every other stall on the poster — one core either way.
        assert_eq!(
            sa.dram.intervention_drain_stalls + sb.dram.intervention_drain_stalls,
            total_dram.intervention_drain_stalls
        );
        assert_eq!(
            sa.dram.ecc_retries + sb.dram.ecc_retries,
            total_dram.ecc_retries
        );
        let mut coh = sa.coh;
        coh.merge(&sb.coh);
        assert_eq!(coh, total_coh, "coherence shares must partition");
        assert!(
            total_coh.shared_hits > 0 && total_coh.invalidations_sent > 0,
            "the workload must actually exercise the directory"
        );
    }

    #[test]
    fn replicate_mode_has_inert_directory_state() {
        let (mut a, mut b) = shared_pair(4);
        for i in 0..32u64 {
            a.data_access(i * 500, 0x40, 0x1000_0000 + i * 64, i % 3 == 0);
            b.data_access(i * 500 + 3, 0x44, 0x1000_0000 + i * 64, false);
        }
        let bs = a.shared_backside();
        assert_eq!(
            bs.borrow().coherence_total_stats(),
            CoherenceStats::default()
        );
        assert_eq!(bs.borrow().sharer_count(0x1000_0000), None);
        assert!(!bs.borrow().has_upper_invals(0));
        assert!(!bs.borrow().has_upper_invals(1));
    }

    #[test]
    fn backside_compatibility_checks_the_shared_slice_and_line_sizes() {
        let a = MemConfig::hybrid();
        // The cache-based system differs only above the L3: compatible.
        assert!(a.backside_compatible(&MemConfig::cache_based()));
        // Disagreeing on the shared slice is not.
        let mut b = MemConfig::hybrid();
        b.l3_geometry.banks = 1;
        assert!(!a.backside_compatible(&b));
        let mut b = MemConfig::hybrid();
        b.dram.gap += 1;
        assert!(!a.backside_compatible(&b));
        // A tile whose L2 line size diverges from the L3 granularity
        // would leave stale directory state behind: rejected even
        // though the L3 configurations match.
        let mut b = MemConfig::hybrid();
        b.l2.line_bytes = 128;
        assert!(!b.line_sizes_uniform());
        assert!(!a.backside_compatible(&b));
        // The fault plan's DRAM and NACK sites live in the shared slice:
        // tiles must agree on it.
        let mut b = MemConfig::hybrid();
        b.fault = FaultConfig::uniform(1, 0.1);
        assert!(!a.backside_compatible(&b));
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
