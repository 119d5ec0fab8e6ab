//! The machine: one simulated core wired to its memory world.
//!
//! [`Machine`] assembles the out-of-order core (`hsim-core`), the memory
//! hierarchy + LM + DMAC (`hsim-mem`), the coherence directory
//! (`hsim-coherence`) and the functional backing store into the three
//! systems of the evaluation:
//!
//! * [`SysMode::HybridCoherent`] — the paper's proposal: guarded accesses
//!   look up the directory in the AGU and are diverted to the LM on a
//!   hit (stalling on unset presence bits); `dma-get` updates the
//!   directory; potentially incoherent writes arrive as double stores.
//! * [`SysMode::HybridOracle`] — Figure 8's baseline: same LM and DMA,
//!   but no directory hardware; oracle-routed accesses are served by the
//!   memory holding the valid copy at zero cost.
//! * [`SysMode::CacheBased`] — §4.3's comparison system: no LM, 64 KB
//!   L1D.
//!
//! When coherence tracking is enabled, every functional access, DMA
//! command and cache residency change is replayed through the
//! `hsim-coherence` tracker, asserting the §3.4 invariants for the whole
//! run.

use hsim_coherence::{DirConfig, Directory, Tracker};
use hsim_compiler::{CodegenMode, CompiledKernel, Kernel, ShardError};
use hsim_core::pipeline::SimError;
use hsim_core::{
    Core, CoreConfig, DmaKind, HostProfile, MemSide, MemoryPort, PortDiagnostics, RouteInfo,
    Scheduler, Tile,
};
use hsim_isa::memmap::{MemoryMap, Region};
use hsim_isa::{Program, Route, Width};
use hsim_mem::{Level, MemConfig, MemSystem, PagedMem, SharedBackside};
use std::cell::RefCell;
use std::rc::Rc;

/// Which of the evaluation's three systems to simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SysMode {
    /// The proposal: hybrid memory system + coherence protocol.
    HybridCoherent,
    /// The incoherent hybrid with an oracle compiler (Figure 8 baseline).
    HybridOracle,
    /// The cache-based system (§4.3 comparison).
    CacheBased,
}

impl SysMode {
    /// The matching code-generation mode.
    pub fn codegen(self) -> CodegenMode {
        match self {
            SysMode::HybridCoherent => CodegenMode::HybridCoherent,
            SysMode::HybridOracle => CodegenMode::HybridOracle,
            SysMode::CacheBased => CodegenMode::CacheBased,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SysMode::HybridCoherent => "Hybrid coherent",
            SysMode::HybridOracle => "Hybrid oracle",
            SysMode::CacheBased => "Cache-based",
        }
    }

    /// All three modes.
    pub const ALL: [SysMode; 3] = [
        SysMode::HybridCoherent,
        SysMode::HybridOracle,
        SysMode::CacheBased,
    ];
}

/// Full machine configuration.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Core parameters (Table 1).
    pub core: CoreConfig,
    /// Memory-system parameters (Table 1).
    pub mem: MemConfig,
    /// System mode.
    pub mode: SysMode,
    /// Run the coherence tracker (tests; costs time).
    pub track_coherence: bool,
    /// Extra AGU cycles charged per directory lookup (0 per §3.2's CACTI
    /// argument; the `ablate_dir_latency` bench raises it).
    pub dir_lookup_extra_cycles: u64,
}

impl MachineConfig {
    /// The standard configuration for a mode.
    pub fn for_mode(mode: SysMode) -> Self {
        let mem = match mode {
            SysMode::CacheBased => MemConfig::cache_based(),
            _ => MemConfig::hybrid(),
        };
        MachineConfig {
            core: CoreConfig::default(),
            mem,
            mode,
            track_coherence: false,
            dir_lookup_extra_cycles: 0,
        }
    }

    /// Disables event-horizon cycle skipping (the `lockstep: true`
    /// escape hatch): `run` walks every cycle through the per-stage tick
    /// loop. Reports are bit-identical either way; the equivalence tests
    /// pin that claim against this mode.
    pub fn with_lockstep(mut self) -> Self {
        self.core.lockstep = true;
        self
    }

    /// Selects the inter-core protocol of the shared backside (default
    /// MESI), which steps the directory-tracked lines that serve the
    /// sharder's replicated-whole arrays and the communication arrays.
    /// Committed architectural state is identical under every protocol
    /// — each tile's functional backing store is private — only timing
    /// and traffic differ.
    pub fn with_coherence(mut self, mode: hsim_core::config::CoherenceProtocol) -> Self {
        self.mem.coherence.mode = mode;
        self
    }

    /// Installs a deterministic fault-injection plan
    /// ([`hsim_mem::FaultConfig`]): seeded transient DRAM read errors,
    /// DMA timeouts and directory NACKs, recovered by bounded
    /// retry/backoff. Faults perturb timing only — architectural
    /// results are identical at any rate, and `FaultConfig::none()`
    /// (the default) is bit-identical to a machine with no plan at all;
    /// the fault-injection proptests pin both claims.
    pub fn with_faults(mut self, fault: hsim_mem::FaultConfig) -> Self {
        self.mem.fault = fault;
        self
    }
}

/// Everything the core's [`MemoryPort`] needs (split from the core for
/// borrow reasons).
pub struct World {
    /// The memory hierarchy, LM and DMAC.
    pub mem: MemSystem,
    /// The coherence directory (hybrid modes only).
    pub dir: Option<Directory>,
    /// The functional backing store: this tile's own memory, though its
    /// initial data sits in pages borrowed copy-on-write from the
    /// kernel's buffers, which other tiles may borrow too.
    pub backing: PagedMem,
    /// The runtime coherence checker, when enabled.
    pub tracker: Option<Tracker>,
    mmap: MemoryMap,
    mode: SysMode,
    dir_extra: u64,
}

/// A simulated machine: core + world.
pub struct Machine {
    /// The out-of-order core.
    pub core: Core,
    /// The memory world.
    pub world: World,
    /// The configuration it was built with.
    pub cfg: MachineConfig,
}

impl Machine {
    /// Builds a single-core machine executing `program` (private L3 +
    /// DRAM backside).
    pub fn new(cfg: MachineConfig, program: Program) -> Self {
        let backside = Rc::new(RefCell::new(SharedBackside::new(&cfg.mem, 1)));
        Machine::with_backside(cfg, program, backside, 0)
    }

    /// Builds one core (tile) of a machine whose L3/DRAM backside is
    /// shared with other cores. The coherence hardware — LM, directory,
    /// tracker — stays strictly per core (§3).
    pub fn with_backside(
        cfg: MachineConfig,
        program: Program,
        backside: Rc<RefCell<SharedBackside>>,
        core_id: usize,
    ) -> Self {
        let mmap = MemoryMap::default();
        let mut mem = MemSystem::with_backside(cfg.mem.clone(), backside, core_id);
        let has_lm = cfg.mem.lm.is_some();
        let dir = has_lm.then(|| Directory::new(DirConfig::default()));
        let track = cfg.track_coherence && has_lm;
        if track {
            mem.enable_events();
        }
        let tracker =
            track.then(|| Tracker::new(dir.as_ref().map(|d| d.buf_size()).unwrap_or(1024)));
        Machine {
            core: Core::new(cfg.core.clone(), program, mmap.clone()),
            world: World {
                mem,
                dir,
                backing: PagedMem::new(),
                tracker,
                mmap,
                mode: cfg.mode,
                dir_extra: cfg.dir_lookup_extra_cycles,
            },
            cfg,
        }
    }

    /// Builds a machine for a compiled kernel and loads its initial data.
    pub fn for_kernel(cfg: MachineConfig, ck: &CompiledKernel, kernel: &Kernel) -> Self {
        assert_eq!(
            cfg.mode.codegen(),
            ck.mode,
            "machine mode must match the kernel's codegen mode"
        );
        let mut m = Machine::new(cfg, ck.program.clone());
        m.load_data(ck, kernel);
        m
    }

    /// Maps the kernel's initial array data into the backing store
    /// ([`PagedMem::map_words`]): whole pages are borrowed from the
    /// kernel's buffers, only each array's partial last page is copied.
    pub fn load_data(&mut self, ck: &CompiledKernel, kernel: &Kernel) {
        for (init, array) in kernel.init.iter().zip(&ck.layout.arrays) {
            self.world.backing.map_words(array.base, init);
        }
    }

    /// Runs to completion.
    pub fn run(&mut self) -> Result<(), SimError> {
        self.core.run(&mut self.world)
    }

    /// Runs to completion, attributing host time to scheduler phases
    /// (see [`HostProfile`]).
    pub fn run_profiled(&mut self, prof: &mut HostProfile) -> Result<(), SimError> {
        self.core.run_profiled(&mut self.world, prof)
    }

    /// Reads back an array's contents (raw element bits).
    pub fn read_array(&self, ck: &CompiledKernel, kernel: &Kernel, id: usize) -> Vec<u64> {
        let base = ck.layout.arrays[id].base;
        (0..kernel.arrays[id].len)
            .map(|i| self.world.backing.read_u64(base + i * 8))
            .collect()
    }

    /// Coherence violations recorded by the tracker (0 when disabled).
    pub fn violations(&self) -> usize {
        self.world
            .tracker
            .as_ref()
            .map(|t| t.violations.len())
            .unwrap_or(0)
    }

    /// Builds an `n`-core machine — per-core tiles (pipeline, L1/L2, TLB,
    /// prefetcher, LM, DMAC and coherence directory) in front of one
    /// shared L3 + DRAM backside; see [`MultiMachine`] for the execution
    /// model. Tile `i` is configured by `cfgs[i]` and runs `programs[i]`
    /// (`vec![cfg; n]` is the homogeneous machine). Tiles may differ in anything
    /// private to a tile — core parameters, `SysMode` (hybrid and
    /// cache-based tiles coexist on one chip), L1/L2 geometry, LM size
    /// or absence, prefetcher, MSHRs, DMA engine — but must agree on
    /// the *shared* backside slice (L3 array and banking, DRAM
    /// controller, port occupancy, inter-core coherence model), because
    /// there is only one L3 and one memory channel per chip
    /// ([`hsim_mem::MemConfig::backside_compatible`]; violations
    /// panic, as do more than [`SharedBackside::MAX_CORES`] tiles,
    /// whose sharer bitset is one `u64`).
    /// Per-core stat partitioning and the event horizons are
    /// geometry-independent, so everything the homogeneous machine
    /// guarantees — exact per-core shares, bit-identical cycle skipping
    /// — holds for mixed chips too.
    ///
    /// Any tile whose `l3_port_gap` is 0 (the single-core default, an
    /// ideally-ported L3) is raised to
    /// [`MultiMachine::DEFAULT_L3_PORT_GAP`] so the shared port is a real
    /// contended resource; set it explicitly to model anything else.
    pub fn new_multi_hetero(mut cfgs: Vec<MachineConfig>, programs: Vec<Program>) -> MultiMachine {
        let n = cfgs.len();
        assert!(n >= 1, "a machine needs at least one core");
        assert_eq!(programs.len(), n, "one program per core");
        for cfg in &mut cfgs {
            if cfg.mem.l3_port_gap == 0 {
                cfg.mem.l3_port_gap = MultiMachine::DEFAULT_L3_PORT_GAP;
            }
        }
        for (i, cfg) in cfgs.iter().enumerate().skip(1) {
            assert!(
                cfgs[0].mem.backside_compatible(&cfg.mem),
                "tile {i}'s configuration disagrees with tile 0 on the shared \
                 backside slice (L3 geometry/banking, DRAM, port gap, coherence); \
                 heterogeneous tiles may only differ above the L3"
            );
        }
        let backside = Rc::new(RefCell::new(SharedBackside::new(&cfgs[0].mem, n)));
        let tiles = cfgs
            .into_iter()
            .zip(programs)
            .enumerate()
            .map(|(core_id, (cfg, p))| {
                Machine::with_backside(cfg, p, Rc::clone(&backside), core_id)
            })
            .collect();
        MultiMachine {
            tiles,
            backside,
            replication_fallbacks: 0,
            sched: Scheduler::default(),
        }
    }
}

/// An `n`-core machine: per-core [`Machine`] tiles sharing one L3 + DRAM
/// backside.
///
/// The execution model is lock-step: every machine cycle, each non-halted
/// core ticks once, in rotation from `cycle % n`, so backside port
/// conflicts resolve round-robin rather than always favoring core 0.
/// [`MultiMachine::run`] drives that model event-style — each tile ticks
/// only on the cycles it is due, and its clock is brought up to date
/// when it next is — with results bit-identical to ticking every cycle
/// (see its docs).
/// Everything the paper's protocol adds — LM, directory, guarded AGU
/// path, DMAC — is private per tile and never interacts across cores
/// (§3: the protocol "does not interact with the inter-core cache
/// coherence protocol"). A *real* inter-core protocol runs below the
/// tiles — per-L3-bank directory slices serving the sharder's
/// replicated-whole arrays and the communication arrays from shared
/// lines — and the §3 claim is demonstrated against it: the per-tile
/// hybrid machinery is untouched by the protocol, and the
/// coherence-tracker invariants hold identically on a machine whose
/// tables stay private (pinned by the `mesi_directory` integration
/// tests).
pub struct MultiMachine {
    /// The per-core tiles, indexed by core id.
    pub tiles: Vec<Machine>,
    backside: Rc<RefCell<SharedBackside>>,
    /// Shared-marked arrays whose shard layouts diverged, so they were
    /// not registered as coherent shared ranges (see
    /// [`MultiMachine::replication_fallbacks`]).
    replication_fallbacks: u64,
    /// Carried across [`MultiMachine::run_until`] calls.
    sched: Scheduler,
}

impl MultiMachine {
    /// Shared-L3 port occupancy (cycles per request) used when the
    /// caller's configuration left the single-core ideal port in place.
    pub const DEFAULT_L3_PORT_GAP: u64 = 4;

    /// Builds an `n`-core machine from compiled kernels: tile `i` runs
    /// `shards[i]`'s program with its data loaded. Use
    /// [`hsim_compiler::Kernel::shard`] to slice one kernel across cores.
    pub fn for_kernels(cfg: MachineConfig, shards: &[(CompiledKernel, Kernel)]) -> MultiMachine {
        MultiMachine::try_for_kernels_hetero(vec![cfg; shards.len()], shards)
            .expect("communication-array layouts diverge across the kernels")
    }

    /// The heterogeneous form of [`MultiMachine::for_kernels`]: tile
    /// `i` is built from `cfgs[i]` and runs `shards[i]`, whose codegen
    /// mode must match that tile's `SysMode` (compile each shard for
    /// its tile — [`crate::experiments::compile_for_tile`]). Use
    /// [`hsim_compiler::Kernel::shard_weighted`] to match iteration
    /// counts to tile strength. Shared-range registration works across
    /// mixed modes: the data layout is mode-independent, so a
    /// cache-based tile and a hybrid tile can serve one read-only array
    /// from the same directory-tracked lines under
    /// the same directory.
    ///
    /// Surfaces the construction failures that must not be papered
    /// over: more kernels than a backside's directory can name as
    /// sharers ([`ShardError::TooManyTiles`], checked before any tile is
    /// built), and a
    /// **communication array** ([`hsim_compiler::ArrayDecl::comm`] —
    /// flags, queue slots, locks, shared request tables) whose layouts
    /// diverge across the per-core kernels. A read-only sharder-derived
    /// shared array that diverges is only counted: each core caches its
    /// own lines of it, so its values are right and only sharing timing
    /// is lost. But caching a *written* comm array per core would
    /// silently turn the
    /// communication pattern into private traffic — a wrong-timing run
    /// masquerading as communication — so it is refused with
    /// [`ShardError::CommLayoutDiverged`] instead.
    pub fn try_for_kernels_hetero(
        cfgs: Vec<MachineConfig>,
        shards: &[(CompiledKernel, Kernel)],
    ) -> Result<MultiMachine, ShardError> {
        assert_eq!(cfgs.len(), shards.len(), "one configuration per shard");
        if shards.len() > SharedBackside::MAX_CORES {
            return Err(ShardError::TooManyTiles {
                tiles: shards.len(),
                max: SharedBackside::MAX_CORES,
            });
        }
        let programs = cfgs
            .iter()
            .zip(shards)
            .enumerate()
            .map(|(i, (cfg, (ck, _)))| {
                assert_eq!(
                    cfg.mode.codegen(),
                    ck.mode,
                    "tile {i}: machine mode must match the kernel's codegen mode"
                );
                ck.program.clone()
            })
            .collect();
        let mut m = Machine::new_multi_hetero(cfgs, programs);
        for (tile, (ck, kernel)) in m.tiles.iter_mut().zip(shards) {
            tile.load_data(ck, kernel);
        }
        m.register_shared_ranges(shards)?;
        Ok(m)
    }

    /// Registers the sharder's read-only replicated-whole arrays
    /// (`ArrayDecl::shared`) as cross-core shared address ranges with
    /// the backside, so the directory serves them from shared lines
    /// instead of per-core replicas.
    ///
    /// An array is only registered when **every** shard's layout places
    /// it at the same base with the same size. Shards with uneven
    /// slice lengths (e.g. from [`hsim_compiler::Kernel::shard_weighted`])
    /// can lay out later arrays at diverging addresses (the per-array
    /// LM-size alignment absorbs most, but not all, length
    /// differences); a range that diverges across shards would alias
    /// one core's table lines with another core's unrelated private
    /// data, so such arrays are left unregistered instead: each core
    /// caches its own private lines of them. Only the
    /// cache lines are per core — the storage is still the kernel's one
    /// buffer, borrowed by every tile. Each such array is counted in
    /// [`MultiMachine::replication_fallbacks`], so the fallback is
    /// visible in reports rather than silent.
    ///
    /// **Communication arrays** ([`hsim_compiler::ArrayDecl::comm`]) are
    /// registered through the same agreement check but get the opposite
    /// failure mode: they may be written, so per-core lines would
    /// produce a wrong-timing run — divergence is a hard
    /// [`ShardError::CommLayoutDiverged`] instead of a counter bump.
    fn register_shared_ranges(
        &mut self,
        shards: &[(CompiledKernel, Kernel)],
    ) -> Result<(), ShardError> {
        let Some((ck0, k0)) = shards.first() else {
            return Ok(());
        };
        let backside = self.backside();
        for (id, decl) in k0.arrays.iter().enumerate() {
            if !decl.shared && !decl.comm {
                continue;
            }
            let slot = (ck0.layout.arrays[id].base, ck0.layout.arrays[id].bytes);
            let agree = shards.iter().all(|(ck, k)| {
                (k.arrays[id].shared || k.arrays[id].comm)
                    && (ck.layout.arrays[id].base, ck.layout.arrays[id].bytes) == slot
            });
            if agree {
                backside.borrow_mut().mark_shared_range(slot.0, slot.1);
            } else if decl.comm {
                return Err(ShardError::CommLayoutDiverged {
                    name: decl.name.clone(),
                });
            } else {
                self.replication_fallbacks += 1;
            }
        }
        Ok(())
    }

    /// How many shared-marked arrays could **not** be registered as
    /// coherent shared ranges because the shards' layouts diverged
    /// (uneven slices moving later arrays): each core caches its own
    /// lines of those arrays instead of sharing directory-tracked ones. Storage is never replicated:
    /// every tile borrows the array's one buffer either way. 0 on
    /// evenly-sharded and single-core machines. Surfaced through
    /// `MultiRunReport::replication_fallbacks` and the `coherence` /
    /// `hetero` bench outputs.
    pub fn replication_fallbacks(&self) -> u64 {
        self.replication_fallbacks
    }

    /// The shared backside (contention statistics, aggregate L3/DRAM).
    pub fn backside(&self) -> Rc<RefCell<SharedBackside>> {
        Rc::clone(&self.backside)
    }

    /// Whether every core has halted.
    pub fn all_halted(&self) -> bool {
        self.tiles.iter().all(|t| t.core.halted())
    }

    /// Runs the whole machine to completion (every core halted) on the
    /// event-horizon [`Scheduler`]: each tile ticks only on the cycles it
    /// is due, with every statistic — and any error, and where it leaves
    /// each tile — bit-identical to ticking every live tile every cycle,
    /// which `lockstep: true` in the core configuration still does.
    pub fn run(&mut self) -> Result<(), SimError> {
        self.run_until(u64::MAX)
    }

    /// [`MultiMachine::run`], attributing host wall-clock time to the
    /// scheduler's tick / advance / horizon-scan phases in `prof` (what
    /// the benchmark's traced pass reads).
    pub fn run_profiled(&mut self, prof: &mut HostProfile) -> Result<(), SimError> {
        self.sched
            .run_until::<_, true>(&mut self.tiles, u64::MAX, prof)
    }

    /// Runs until every core halts **or** the machine cycle reaches
    /// `limit` ([`Scheduler::run_until`]). The scheduler state persists on
    /// the machine, so `run_until(e)` for an increasing sequence of limits
    /// performs the *exact* operation sequence of one `run`, skip counters
    /// included.
    pub fn run_until(&mut self, limit: u64) -> Result<(), SimError> {
        let mut prof = HostProfile::default();
        self.sched
            .run_until::<_, false>(&mut self.tiles, limit, &mut prof)
    }

    /// Total coherence violations over all tiles (tracking runs only).
    pub fn violations(&self) -> usize {
        self.tiles.iter().map(|t| t.violations()).sum()
    }
}

impl Tile for Machine {
    type Port = World;
    fn parts(&mut self) -> (&mut Core, &mut World) {
        (&mut self.core, &mut self.world)
    }
}

impl World {
    /// Resolves the routing of a memory access (the pre-MMU range check
    /// plus, for guarded/oracle accesses, the directory). Inlined into
    /// [`World::exec_mem`], as that is into dispatch.
    #[inline(always)]
    fn route_access(&mut self, addr: u64, route: Route) -> RouteInfo {
        match self.mmap.region(addr) {
            Region::LocalMem => RouteInfo {
                side: MemSide::Lm,
                addr,
                dir_lookup: false,
                dir_hit: false,
                ready_at: 0,
            },
            Region::Mmio | Region::SysMem => {
                let effective = match (route, self.mode) {
                    (Route::Plain, _) | (_, SysMode::CacheBased) => Route::Plain,
                    (r, _) => r,
                };
                match effective {
                    Route::Plain => RouteInfo {
                        side: MemSide::Sm,
                        addr,
                        dir_lookup: false,
                        dir_hit: false,
                        ready_at: 0,
                    },
                    Route::Guarded => {
                        let dir = self.dir.as_mut().expect("guarded access without directory");
                        match dir.lookup(addr) {
                            Some(hit) => RouteInfo {
                                side: MemSide::Lm,
                                addr: hit.lm_addr,
                                dir_lookup: true,
                                dir_hit: true,
                                ready_at: hit.ready_at,
                            },
                            None => RouteInfo {
                                side: MemSide::Sm,
                                addr,
                                dir_lookup: true,
                                dir_hit: false,
                                ready_at: 0,
                            },
                        }
                    }
                    Route::Oracle => {
                        // No hardware: routed by whichever memory holds
                        // the valid copy, which the (functional) mapping
                        // identifies. No stats, no energy, no stalls.
                        let dir = self.dir.as_ref().expect("oracle access without directory");
                        match dir.lookup_quiet(addr) {
                            Some(hit) => RouteInfo {
                                side: MemSide::Lm,
                                addr: hit.lm_addr,
                                dir_lookup: false,
                                dir_hit: true,
                                ready_at: 0,
                            },
                            None => RouteInfo {
                                side: MemSide::Sm,
                                addr,
                                dir_lookup: false,
                                dir_hit: false,
                                ready_at: 0,
                            },
                        }
                    }
                }
            }
        }
    }

    fn read_value(&self, addr: u64, width: Width) -> u64 {
        match width {
            Width::B => self.backing.read_u8(addr) as u64,
            Width::W => self.backing.read_u32(addr) as i32 as i64 as u64,
            Width::D => self.backing.read_u64(addr),
        }
    }

    fn write_value(&mut self, addr: u64, bits: u64, width: Width) {
        match width {
            Width::B => self.backing.write_u8(addr, bits as u8),
            Width::W => self.backing.write_u32(addr, bits as u32),
            Width::D => self.backing.write_u64(addr, bits),
        }
    }

    fn drain_events_into_tracker(&mut self) {
        if self.tracker.is_none() {
            return;
        }
        let events = self.mem.drain_events();
        let t = self.tracker.as_mut().unwrap();
        for e in events {
            if e.fill {
                t.on_cache_fill(e.line);
            } else {
                t.on_cache_evict(e.line);
            }
        }
    }

    /// For an SM access to `addr`: `Some(identical)` when the owning
    /// chunk is LM-mapped (comparing both copies at the access width),
    /// `None` otherwise.
    fn copies_identical(&self, addr: u64, width: Width) -> Option<bool> {
        let dir = self.dir.as_ref()?;
        let hit = dir.lookup_quiet(addr)?;
        Some(self.read_value(addr, width) == self.read_value(hit.lm_addr, width))
    }

    /// The SM chunk currently held by the LM buffer owning `lm_addr`.
    fn lm_mapping_of(&self, lm_addr: u64) -> Option<u64> {
        let dir = self.dir.as_ref()?;
        let idx = dir.buf_index(lm_addr)?;
        dir.mapped_chunk(idx)
    }
}

impl MemoryPort for World {
    /// Inlined into the core's dispatch, so the returned `RouteInfo`
    /// reaches the ROB entry's cold half without a trip through a stack
    /// temporary; plain `#[inline]` leaves it a call.
    #[inline(always)]
    fn exec_mem(
        &mut self,
        _pc: u64,
        addr: u64,
        width: Width,
        route: Route,
        store: Option<u64>,
    ) -> (u64, RouteInfo) {
        let info = self.route_access(addr, route);
        let value = match store {
            Some(bits) => {
                self.write_value(info.addr, bits, width);
                // An oracle store that hits the LM also keeps the SM copy
                // up to date: the magic oracle compiler of Figure 8 never
                // loses data to an unmapped read-only buffer, without
                // paying for a second store. (The coherent machine pays
                // for this with the explicit double store instead.)
                if route == Route::Oracle && info.side == MemSide::Lm {
                    self.write_value(addr, bits, width);
                }
                0
            }
            None => self.read_value(info.addr, width),
        };
        if self.tracker.is_some() {
            match info.side {
                MemSide::Lm => {
                    let chunk = self.lm_mapping_of(info.addr);
                    if let Some(t) = &mut self.tracker {
                        t.check_lm_access(info.addr, chunk);
                    }
                }
                MemSide::Sm => {
                    let identical = self.copies_identical(info.addr, width);
                    if let Some(t) = &mut self.tracker {
                        t.check_sm_access(info.addr, store.is_some(), identical);
                    }
                }
            }
        }
        (value, info)
    }

    fn timing_access(&mut self, now: u64, pc: u64, info: &RouteInfo, write: bool) -> (u64, Level) {
        let extra = if info.dir_lookup { self.dir_extra } else { 0 };
        match info.side {
            MemSide::Lm => {
                let r = self.mem.lm_access(write);
                (r.latency + extra, Level::Lm)
            }
            MemSide::Sm => {
                let r = self.mem.data_access(now, pc, info.addr, write);
                self.drain_events_into_tracker();
                (r.latency + extra, r.served)
            }
        }
    }

    fn exec_dma(&mut self, now: u64, kind: DmaKind, lm: u64, sm: u64, bytes: u64, tag: u8) -> u64 {
        match kind {
            DmaKind::Get => {
                let done = self.mem.dma_get(now, sm, bytes, tag);
                self.drain_events_into_tracker();
                self.backing.copy(lm, sm, bytes);
                if let Some(dir) = &mut self.dir {
                    let old = dir.buf_index(lm).and_then(|i| dir.mapped_chunk(i));
                    dir.update_get(lm, sm, done)
                        .unwrap_or_else(|e| panic!("dma-get: {e}"));
                    if let Some(t) = &mut self.tracker {
                        if let Some(old_chunk) = old {
                            t.on_unmap(old_chunk);
                        }
                        t.on_map(sm);
                    }
                }
                done
            }
            DmaKind::Put => {
                // The writeback semantically precedes its invalidation
                // bus requests.
                if let Some(t) = &mut self.tracker {
                    t.on_writeback(sm & !(self.dir.as_ref().map(|d| d.offset_mask()).unwrap_or(0)));
                }
                let done = self.mem.dma_put(now, sm, bytes, tag);
                self.drain_events_into_tracker();
                self.backing.copy(sm, lm, bytes);
                done
            }
        }
    }

    fn dma_synch(&mut self, now: u64, tag: u8) -> u64 {
        self.mem.dma_synch(now, tag)
    }

    fn dir_configure(&mut self, buf_size: u64) {
        if let Some(dir) = &mut self.dir {
            dir.configure(buf_size)
                .unwrap_or_else(|e| panic!("dir.cfg: {e}"));
        }
        if let Some(t) = &mut self.tracker {
            t.set_chunk_size(buf_size);
        }
    }

    fn fetch_latency(&mut self, now: u64, pc_addr: u64) -> u64 {
        self.mem.inst_fetch(now, pc_addr)
    }

    fn stall_diagnostics(&self, now: u64) -> PortDiagnostics {
        PortDiagnostics {
            core: self.mem.core_id(),
            mshr_in_flight: self.mem.mshr.in_flight(now),
            dma_tags: self.mem.dmac.in_flight_tags(now),
        }
    }
}
