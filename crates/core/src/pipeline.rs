//! The cycle-level out-of-order pipeline.
//!
//! Functional-first, timing-directed: at **dispatch** an instruction
//! executes functionally (register values, memory data via the
//! [`MemoryPort`], DMA side effects), in program order. The timing model
//! then tracks it through issue, execution and commit under the Table 1
//! resource constraints. See the crate docs for the modeling choices.

use crate::branch::{BranchPredictor, Btb, Ras};
use crate::config::CoreConfig;
use crate::port::{DmaKind, MemSide, MemoryPort, RouteInfo};
use crate::stats::{level_index, phase_index, CoreStats};
use hsim_isa::inst::{Inst, Operand, Phase};
use hsim_isa::memmap::MemoryMap;
use hsim_isa::reg::{FReg, Reg};
use hsim_isa::{Program, Route, Width};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Cycles without a commit before the watchdog declares
/// [`SimError::Deadlock`]. The cycle skipper clamps its jumps to
/// `last_commit + DEADLOCK_WINDOW` so the watchdog fires at the same
/// cycle number as the naive per-cycle loop.
pub const DEADLOCK_WINDOW: u64 = 200_000;

/// What the stalled machine looked like when the deadlock watchdog
/// fired: the stalled core, the instruction wedged at the ROB head, and
/// the memory-side work still in flight ([`MemoryPort::stall_diagnostics`]).
/// Derived purely from architectural + timing state at the firing
/// cycle, so the lockstep and cycle-skipping loops produce *equal*
/// reports — the skip-equivalence suites compare them with `==`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockReport {
    /// Tile/core id of the stalled core.
    pub core: usize,
    /// PC of the ROB-head instruction, `None` if the ROB was empty
    /// (front-end wedge).
    pub rob_head_pc: Option<usize>,
    /// Rendered opcode of the ROB-head instruction.
    pub rob_head_op: String,
    /// Outstanding MSHR entries at the firing cycle.
    pub mshr_in_flight: usize,
    /// Bitmask of DMA tags still in flight at the firing cycle.
    pub dma_tags: u8,
}

impl std::fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "core {} stalled at ", self.core)?;
        match self.rob_head_pc {
            Some(pc) => write!(f, "ROB head pc {} `{}`", pc, self.rob_head_op)?,
            None => write!(f, "an empty ROB (front-end wedge)")?,
        }
        write!(
            f,
            "; {} MSHR entr{} outstanding; DMA tags in flight {:#010b}",
            self.mshr_in_flight,
            if self.mshr_in_flight == 1 { "y" } else { "ies" },
            self.dma_tags
        )
    }
}

/// Simulation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// No instruction committed for a long time: a modeling deadlock.
    Deadlock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
        /// Snapshot of the stall (boxed to keep the error small on the
        /// per-tick `Result` path).
        report: Box<DeadlockReport>,
    },
    /// The cycle budget (`CoreConfig::max_cycles`) was exhausted.
    CycleLimit,
    /// `ret` executed with an empty architectural call stack.
    RetWithoutCall {
        /// PC of the offending instruction.
        pc: usize,
    },
    /// Execution ran off the end of the program without `halt`.
    RanOffProgram,
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Deadlock { cycle, report } => {
                write!(f, "pipeline deadlock at cycle {cycle}: {report}")
            }
            SimError::CycleLimit => write!(f, "cycle limit exhausted"),
            SimError::RetWithoutCall { pc } => write!(f, "ret with empty call stack at pc {pc}"),
            SimError::RanOffProgram => write!(f, "execution ran off the end of the program"),
        }
    }
}

impl std::error::Error for SimError {}

/// Host wall-clock attribution for one simulated run, filled by
/// [`Core::run_profiled`]: where the *simulator* spends its time —
/// executing ticks, bulk-advancing over skipped stretches, or scanning
/// for the next event horizon. The benchmark's traced pass (`benchmark/`)
/// reports this per workload so scheduler regressions are diagnosed with
/// data.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HostProfile {
    /// Host seconds spent inside [`Core::tick`].
    pub tick_secs: f64,
    /// Ticks executed.
    pub ticks: u64,
    /// Host seconds spent inside [`Core::advance_to`] (bulk skips).
    pub advance_secs: f64,
    /// Bulk advances performed.
    pub advances: u64,
    /// Host seconds spent computing skip targets (the horizon scan:
    /// [`Core::next_event_at`] plus the memory-side horizon query).
    pub horizon_secs: f64,
    /// Horizon scans performed.
    pub horizon_scans: u64,
}

impl HostProfile {
    /// Merges another profile into this one (summing across cores or
    /// repetitions).
    pub fn merge(&mut self, other: &HostProfile) {
        self.tick_secs += other.tick_secs;
        self.ticks += other.ticks;
        self.advance_secs += other.advance_secs;
        self.advances += other.advances;
        self.horizon_secs += other.horizon_secs;
        self.horizon_scans += other.horizon_scans;
    }
}

/// Runs `f`, charging its wall-clock time to `secs`/`count` when `on`.
/// Monomorphized away entirely when the caller passes a const `false`.
#[inline(always)]
pub fn timed<T>(on: bool, secs: &mut f64, count: &mut u64, f: impl FnOnce() -> T) -> T {
    if on {
        let t0 = std::time::Instant::now();
        let r = f();
        *secs += t0.elapsed().as_secs_f64();
        *count += 1;
        r
    } else {
        f()
    }
}

/// What one [`Core::tick_classified`] tick did, as the cycle-skipping
/// schedulers see it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TickOutcome {
    /// The program halted during the tick.
    Halted,
    /// The pipeline moved something: the core is due again next cycle.
    Busy,
    /// Nothing moved: the core is idle until its next event horizon.
    Quiet,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum EState {
    Waiting,
    Issued,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum FuClass {
    IntAlu,
    FpAlu,
    Mem,
}

#[derive(Clone, Copy)]
struct MemOp {
    info: RouteInfo,
    width: Width,
    route: Route,
}

/// End of a consumer chain.
const NO_LINK: u64 = u64::MAX;

struct RobEntry {
    seq: u64,
    pc: usize,
    state: EState,
    /// Source operands whose producer has not issued yet. At zero a
    /// `Waiting` entry is in `Core::wake` or `Core::ready`.
    pending: u8,
    /// Latest `done_at` over the producers that had issued when this
    /// entry linked to them or was woken by them: once `pending` is
    /// zero, the cycle from which the operands are all available.
    ready_at: u64,
    /// Head of this entry's consumer chain: the entries waiting for it
    /// to issue, each link encoded `consumer seq << 2 | source slot`.
    dep_head: u64,
    /// Per source slot (up to 3: e.g. dma-get reads 3 regs), the next
    /// link on that producer's consumer chain.
    dep_next: [u64; 3],
    /// Producer sequence numbers per source slot, kept for the scan
    /// oracle the wakeup chains are tested against.
    #[cfg(test)]
    srcs: [Option<u64>; 3],
    fu: FuClass,
    /// Execution latency for non-memory instructions.
    latency: u64,
    /// Cycle the result is available (valid once issued).
    done_at: u64,
    is_load: bool,
    is_store: bool,
    is_fp: bool,
    writes_int: bool,
    is_branch: bool,
    mem: Option<MemOp>,
    /// `dma-synch`: may not complete before this cycle.
    synch_until: u64,
    /// Marks the start of an execution phase at commit.
    phase_mark: Option<Phase>,
    is_halt: bool,
    /// This control instruction was mispredicted; fetch restarts at
    /// `redirect_to` once it executes.
    mispredicted: bool,
    redirect_to: usize,
}

struct Fetched {
    pc: usize,
    /// Predicted next PC chosen by the front end.
    predicted_next: usize,
}

/// The out-of-order core.
pub struct Core {
    cfg: CoreConfig,
    program: Program,
    mmap: MemoryMap,

    // Architectural (functional) state.
    int_regs: [i64; 32],
    fp_regs: [f64; 32],
    arch_call_stack: Vec<u64>,

    // Front end.
    fetch_pc: usize,
    fetch_queue: VecDeque<Fetched>,
    fetch_resume_at: u64,
    last_fetch_line: u64,
    /// A mispredicted control instruction is in flight; fetch is stalled
    /// until it executes.
    pending_redirect: Option<u64>,
    fetch_off: bool,
    /// Branch predictor.
    pub bp: BranchPredictor,
    /// Branch target buffer.
    pub btb: Btb,
    /// Return address stack.
    pub ras: Ras,

    // Back end.
    rob: VecDeque<RobEntry>,
    head_seq: u64,
    next_seq: u64,
    last_writer_int: [Option<u64>; 32],
    last_writer_fp: [Option<u64>; 32],
    int_inflight: usize,
    fp_inflight: usize,
    loads_inflight: usize,
    stores_inflight: usize,
    /// `Waiting` entries with no un-issued producer left whose operands
    /// arrive later than the next cycle, keyed `(ready_at, seq)`:
    /// [`Core::issue`] moves the keys that have come due into `ready`.
    wake: BinaryHeap<Reverse<(u64, u64)>>,
    /// Seqs of the `Waiting` entries whose operands are available by the
    /// next select (`ready_at <= now` between ticks), oldest first: the
    /// only entries select looks at.
    ready: Vec<u64>,
    /// Seqs of the in-flight stores, oldest first.
    store_q: VecDeque<u64>,
    /// ROB entries the back end has looked up by seq.
    #[cfg(test)]
    rob_visits: std::cell::Cell<u64>,

    now: u64,
    cur_phase: Phase,
    halted: bool,
    last_commit_cycle: u64,
    /// Statistics.
    pub stats: CoreStats,
}

impl Core {
    /// Builds a core ready to execute `program` from PC 0.
    pub fn new(cfg: CoreConfig, program: Program, mmap: MemoryMap) -> Self {
        Core {
            bp: BranchPredictor::new(
                cfg.gshare_entries,
                cfg.bimodal_entries,
                cfg.selector_entries,
                cfg.ghist_bits,
            ),
            btb: Btb::new(cfg.btb_entries, cfg.btb_ways),
            ras: Ras::new(cfg.ras_entries),
            wake: BinaryHeap::with_capacity(cfg.rob_size),
            ready: Vec::with_capacity(cfg.rob_size),
            store_q: VecDeque::with_capacity(cfg.lsq_stores),
            cfg,
            program,
            mmap,
            int_regs: [0; 32],
            fp_regs: [0.0; 32],
            arch_call_stack: Vec::new(),
            fetch_pc: 0,
            fetch_queue: VecDeque::new(),
            fetch_resume_at: 0,
            last_fetch_line: u64::MAX,
            pending_redirect: None,
            fetch_off: false,
            rob: VecDeque::new(),
            head_seq: 0,
            next_seq: 0,
            last_writer_int: [None; 32],
            last_writer_fp: [None; 32],
            int_inflight: 0,
            fp_inflight: 0,
            loads_inflight: 0,
            stores_inflight: 0,
            #[cfg(test)]
            rob_visits: std::cell::Cell::new(0),
            now: 0,
            cur_phase: Phase::Other,
            halted: false,
            last_commit_cycle: 0,
            stats: CoreStats::default(),
        }
    }

    /// Whether the program has halted.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Current cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Architectural value of an integer register.
    pub fn int_reg(&self, r: Reg) -> i64 {
        self.int_regs[r.index()]
    }

    /// Architectural value of an FP register.
    pub fn fp_reg(&self, r: FReg) -> f64 {
        self.fp_regs[r.index()]
    }

    /// Runs to completion (or error).
    ///
    /// By default the loop is tick → skip-to-horizon → tick: after every
    /// executed cycle the core computes the earliest cycle at which
    /// anything can change ([`Core::next_event_at`], clamped by
    /// [`Core::skip_target`]) and bulk-advances over the provably idle
    /// cycles in between ([`Core::advance_to`]). The result — every
    /// statistic, every port interaction, every error — is bit-identical
    /// to walking each cycle, which `CoreConfig::lockstep` still does.
    pub fn run(&mut self, port: &mut impl MemoryPort) -> Result<(), SimError> {
        self.run_gen::<false>(port, &mut HostProfile::default())
    }

    /// Runs to completion like [`Core::run`], attributing host wall-clock
    /// time to the scheduler's phases in `prof`. The simulated outcome is
    /// identical to `run`; only host-side timing is added.
    pub fn run_profiled(
        &mut self,
        port: &mut impl MemoryPort,
        prof: &mut HostProfile,
    ) -> Result<(), SimError> {
        self.run_gen::<true>(port, prof)
    }

    fn run_gen<const PROF: bool>(
        &mut self,
        port: &mut impl MemoryPort,
        prof: &mut HostProfile,
    ) -> Result<(), SimError> {
        if self.cfg.lockstep {
            while !self.halted {
                timed(PROF, &mut prof.tick_secs, &mut prof.ticks, || {
                    self.tick(port)
                })?;
            }
            return Ok(());
        }
        // Busy ticks assume the pipeline stays busy and skip the horizon
        // scan entirely — idle periods reveal themselves with one quiet
        // tick.
        while !self.halted {
            if self.tick_classified::<PROF>(port, prof)? != TickOutcome::Quiet {
                continue;
            }
            let target = timed(
                PROF,
                &mut prof.horizon_secs,
                &mut prof.horizon_scans,
                || self.skip_target(port.next_mem_event_at(self.now)),
            );
            if target > self.now {
                timed(PROF, &mut prof.advance_secs, &mut prof.advances, || {
                    self.advance_to(target)
                });
            }
        }
        Ok(())
    }

    /// Executes one tick and classifies it for the cycle-skipping
    /// schedulers ([`Core::run`] and the multicore horizon heap): the
    /// one place that decides whether a core is busy or quiet. When
    /// [`Core::progress_certain`] holds, a commit or dispatch is
    /// guaranteed, the fingerprint must change, and both probes are
    /// skipped; otherwise the tick is bracketed by
    /// [`Core::progress_fingerprint`] probes. With `PROF` the tick's host
    /// time is charged to `prof`.
    #[inline(always)]
    pub fn tick_classified<const PROF: bool>(
        &mut self,
        port: &mut impl MemoryPort,
        prof: &mut HostProfile,
    ) -> Result<TickOutcome, SimError> {
        let before = (!self.progress_certain()).then(|| self.progress_fingerprint());
        timed(PROF, &mut prof.tick_secs, &mut prof.ticks, || {
            self.tick(port)
        })?;
        Ok(if self.halted {
            TickOutcome::Halted
        } else if before == Some(self.progress_fingerprint()) {
            TickOutcome::Quiet
        } else {
            TickOutcome::Busy
        })
    }

    /// Whether the ROB head commits on the next tick: it has issued and
    /// its completion time has arrived. Such a tick provably changes the
    /// progress fingerprint, so the run loops skip both fingerprint
    /// probes around it — the dominant case in busy stretches.
    #[inline]
    pub fn commit_ready(&self) -> bool {
        self.rob
            .front()
            .is_some_and(|e| e.state == EState::Issued && e.done_at <= self.now)
    }

    /// Whether the next tick provably changes the progress fingerprint,
    /// so the run loops can skip both probes around it. True when the
    /// ROB head commits ([`Core::commit_ready`]) or the fetch-queue head
    /// clears every dispatch gate: within one tick the gates only loosen
    /// (commit alone shrinks the ROB and the inflight counters), and the
    /// one commit that could flush the fetch queue — a taken
    /// misprediction — bumps `committed` itself, so either way the
    /// fingerprint moves. An off-program head also counts: its tick
    /// raises `RanOffProgram` exactly as the probed path would.
    #[inline]
    pub fn progress_certain(&self) -> bool {
        self.commit_ready()
            || (!self.fetch_queue.is_empty()
                && self.rob.len() < self.cfg.rob_size
                && !self.dispatch_blocked())
    }

    /// A monotone counter that advances whenever a tick moves anything
    /// through the pipeline (fetch, dispatch, issue or commit). The
    /// run loops consult it to spend horizon scans only on cycles that
    /// did nothing — the cheap busy/idle discriminator of the
    /// cycle-skipping scheduler.
    pub fn progress_fingerprint(&self) -> u64 {
        self.stats.fetched + self.stats.dispatched + self.stats.issued + self.stats.committed
    }

    /// The earliest cycle at or after `now` at which *anything* in the
    /// pipeline can change: the ROB head completing (commit), a waiting
    /// instruction's operands becoming ready (issue), or the front end
    /// leaving an I-miss/redirect stall (fetch). Costs the ready list
    /// plus one heap peek — no ROB walk. Returns `now` itself
    /// whenever any stage may make progress this cycle — the
    /// conservative "don't skip" answer. Cycles strictly before the
    /// returned horizon are provable no-ops: no port traffic and no
    /// state change beyond the per-cycle stall accounting that
    /// [`Core::advance_to`] replicates in bulk.
    pub fn next_event_at(&self) -> u64 {
        let now = self.now;
        // Dispatch can drain the fetch queue whenever the ROB has room
        // and the head instruction clears the rename/LSQ gates. A head
        // blocked on those gates unblocks only when an inflight counter
        // drops — which happens at commit, already covered by the
        // ROB-head horizon below.
        if !self.fetch_queue.is_empty()
            && self.rob.len() < self.cfg.rob_size
            && !self.dispatch_blocked()
        {
            return now;
        }
        let mut horizon = u64::MAX;
        // Fetch wakes when the front end leaves its stall — if it has
        // instructions left and somewhere to put them.
        if !self.fetch_off
            && self.pending_redirect.is_none()
            && self.fetch_pc < self.program.len()
            && self.fetch_queue.len() < self.cfg.fetch_queue
        {
            let t = self.fetch_resume_at.max(now);
            if t == now {
                return now;
            }
            horizon = horizon.min(t);
        }
        // Completion matters at the head (commit); elsewhere it is
        // observed through dependents' wake keys below.
        if let Some(head) = self.rob.front() {
            if head.state == EState::Issued {
                horizon = horizon.min(head.done_at.max(now));
            }
        }
        // An entry whose operands are ready can issue now, unless it is
        // a load blocked by memory disambiguation: that one unblocks
        // only when the older store issues or commits — both events of
        // their own, so the blocked load adds no horizon.
        if self.ready.iter().any(|&seq| !self.is_blocked_load(seq)) {
            return now;
        }
        // Entries whose producers have not all issued are in neither
        // list: they wake through those producers' own horizons.
        match self.wake.peek() {
            None => {}
            Some(&Reverse((ready_at, _))) if ready_at > now => horizon = horizon.min(ready_at),
            // Keys that came due since the last select count as ready;
            // the heap does not order them by age, so look at each.
            Some(_) => {
                for &Reverse((ready_at, seq)) in &self.wake {
                    if ready_at > now {
                        horizon = horizon.min(ready_at);
                    } else if !self.is_blocked_load(seq) {
                        return now;
                    }
                }
            }
        }
        horizon
    }

    /// Whether in-flight entry `seq` is a load that memory
    /// disambiguation holds back this cycle.
    fn is_blocked_load(&self, seq: u64) -> bool {
        let i = self.rob_index(seq);
        self.rob[i].is_load && matches!(self.load_disambiguate(i), LoadPath::Blocked)
    }

    /// ROB position of in-flight entry `seq`. Every seq-to-entry lookup
    /// of the back end goes through here, so the test-only visit count
    /// bounds the entries a tick or a horizon query examines.
    #[inline(always)]
    fn rob_index(&self, seq: u64) -> usize {
        #[cfg(test)]
        self.rob_visits.set(self.rob_visits.get() + 1);
        (seq - self.head_seq) as usize
    }

    /// The cycle-skipping target for the current state:
    /// [`Core::next_event_at`] clamped so the jump never crosses a
    /// pending memory-side event (`mem_event`, from
    /// [`MemoryPort::next_mem_event_at`]), the deadlock watchdog, or the
    /// cycle budget. The watchdog fires on the tick *at*
    /// `last_commit + DEADLOCK_WINDOW` and the budget on the tick at
    /// `max_cycles - 1`; ticking exactly there keeps error cycle numbers
    /// identical to the naive loop.
    pub fn skip_target(&self, mem_event: Option<u64>) -> u64 {
        let mut target = self.next_event_at();
        if let Some(m) = mem_event {
            target = target.min(m.max(self.now));
        }
        target = target.min(self.last_commit_cycle + DEADLOCK_WINDOW);
        target = target.min(self.cfg.max_cycles.saturating_sub(1));
        target.max(self.now)
    }

    /// Bulk-advances the clock to `target`, accounting the skipped
    /// cycles exactly as the equivalent run of no-op [`Core::tick`]s
    /// would: per-cycle phase attribution, ROB-full and fetch-stall
    /// counters, no port traffic. Callers must only pass targets at or
    /// below [`Core::skip_target`] for the current state.
    pub fn advance_to(&mut self, target: u64) {
        if target <= self.now {
            return;
        }
        let delta = target - self.now;
        self.stats.phase_cycles[phase_index(self.cur_phase)] += delta;
        if self.rob.len() >= self.cfg.rob_size {
            self.stats.rob_full_stalls += delta;
        }
        if self.fetch_off || self.pending_redirect.is_some() {
            self.stats.fetch_stall_cycles += delta;
        } else {
            // Cycles below `fetch_resume_at` charge a front-end stall;
            // at or above it fetch idles silently (full queue or program
            // end — otherwise the horizon would have stopped the skip).
            self.stats.fetch_stall_cycles +=
                self.fetch_resume_at.clamp(self.now, target) - self.now;
        }
        self.stats.skipped_cycles += delta;
        self.now = target;
        self.stats.cycles = self.now;
    }

    /// Advances the machine one cycle.
    pub fn tick(&mut self, port: &mut impl MemoryPort) -> Result<(), SimError> {
        self.commit(port);
        if self.halted {
            self.end_cycle();
            return Ok(());
        }
        self.issue(port);
        self.dispatch(port)?;
        self.fetch(port);
        self.end_cycle();
        if self.now - self.last_commit_cycle > DEADLOCK_WINDOW {
            return Err(SimError::Deadlock {
                cycle: self.now,
                report: Box::new(self.deadlock_report(port)),
            });
        }
        if self.now >= self.cfg.max_cycles {
            return Err(SimError::CycleLimit);
        }
        Ok(())
    }

    /// Builds the watchdog's stall snapshot from the ROB head and the
    /// port's in-flight memory state. State-derived only, so lockstep
    /// and skipping runs that fire at the same cycle report identically.
    fn deadlock_report(&self, port: &impl MemoryPort) -> DeadlockReport {
        let diag = port.stall_diagnostics(self.now);
        let (rob_head_pc, rob_head_op) = match self.rob.front() {
            Some(e) => (Some(e.pc), format!("{:?}", self.program.insts[e.pc])),
            None => (None, String::new()),
        };
        DeadlockReport {
            core: diag.core,
            rob_head_pc,
            rob_head_op,
            mshr_in_flight: diag.mshr_in_flight,
            dma_tags: diag.dma_tags,
        }
    }

    fn end_cycle(&mut self) {
        self.stats.phase_cycles[phase_index(self.cur_phase)] += 1;
        self.now += 1;
        self.stats.cycles = self.now;
    }

    // --------------------------------------------------------------- commit

    fn commit(&mut self, port: &mut impl MemoryPort) {
        let mut committed = 0;
        let mut store_ports = self.cfg.ls_units;
        let mut last_store: Option<(u64, u64, MemSide)> = None; // (addr, width, side)
        while committed < self.cfg.commit_width {
            let Some(e) = self.rob.front() else { break };
            if e.state != EState::Issued || e.done_at > self.now {
                break;
            }
            if e.is_store && store_ports == 0 {
                break;
            }
            let e = self.rob.pop_front().unwrap();
            self.head_seq = e.seq + 1;
            committed += 1;
            self.stats.committed += 1;
            if e.is_load {
                self.stats.loads += 1;
                self.loads_inflight -= 1;
            }
            if e.is_fp {
                self.stats.fp_ops += 1;
                self.fp_inflight -= 1;
            } else if e.writes_int {
                self.int_inflight -= 1;
            }
            if e.is_branch {
                self.stats.branches += 1;
            }
            if let Some(m) = &e.mem {
                match e.mem_route() {
                    Route::Guarded => self.stats.guarded += 1,
                    Route::Oracle => self.stats.oracle_routed += 1,
                    Route::Plain => {}
                }
                if e.is_store {
                    self.stats.stores += 1;
                    self.stores_inflight -= 1;
                    let oldest = self.store_q.pop_front();
                    debug_assert_eq!(oldest, Some(e.seq), "stores commit in order");
                    store_ports -= 1;
                    let key = (m.info.addr, m.width.bytes(), m.info.side);
                    if last_store == Some(key) {
                        // Store collapsing: the LSQ merges the second
                        // store into the first — one cache access.
                        self.stats.collapsed_stores += 1;
                    } else {
                        let _ = port.timing_access(self.now, self.pc_addr(e.pc), &m.info, true);
                        last_store = Some(key);
                    }
                }
            }
            if let Some(p) = e.phase_mark {
                self.cur_phase = p;
            }
            if e.is_halt {
                self.halted = true;
                self.last_commit_cycle = self.now;
                return;
            }
            self.last_commit_cycle = self.now;
        }
    }

    // ---------------------------------------------------------------- issue

    /// Wakeup and select. `wake` keys that have come due join the
    /// age-ordered `ready` list; select then runs oldest-first over
    /// `ready` alone, losers (no free unit, a disambiguation-blocked
    /// load, no slot left) staying for the next cycle. This picks what
    /// an oldest-first scan of the whole ROB would, on two invariants,
    /// both asserted:
    ///
    /// * every `done_at` assigned at issue is `> now`, so an entry woken
    ///   during this select cannot itself be selectable this cycle —
    ///   draining `wake` once, up front, sees every candidate;
    /// * select visits `ready` in `seq` order, so a store issued earlier
    ///   in the cycle is already `Issued` when a younger load
    ///   disambiguates against it.
    fn issue(&mut self, port: &mut impl MemoryPort) {
        let now = self.now;
        while let Some(&Reverse((ready_at, seq))) = self.wake.peek() {
            if ready_at > now {
                break;
            }
            self.wake.pop();
            let at = self.ready.partition_point(|&s| s < seq);
            self.ready.insert(at, seq);
        }
        if self.ready.is_empty() {
            return;
        }
        debug_assert!(self.ready.windows(2).all(|w| w[0] < w[1]));
        let mut int_free = self.cfg.int_alus;
        let mut fp_free = self.cfg.fp_alus;
        let mut mem_free = self.cfg.ls_units;
        let mut slots = self.cfg.issue_width;

        let mut ready = std::mem::take(&mut self.ready);
        ready.retain(|&seq| {
            if slots == 0 {
                return true;
            }
            let i = self.rob_index(seq);
            // FU availability.
            let fu_free = match self.rob[i].fu {
                FuClass::IntAlu => &mut int_free,
                FuClass::FpAlu => &mut fp_free,
                FuClass::Mem => &mut mem_free,
            };
            if *fu_free == 0 {
                return true;
            }
            let done_at = if self.rob[i].is_load {
                // Loads: memory disambiguation against older stores.
                match self.load_disambiguate(i) {
                    LoadPath::Blocked => return true,
                    LoadPath::Forward => {
                        self.stats.lsq_forwards += 1;
                        self.stats.served[5] += 1;
                        now + 1 + self.cfg.forward_latency
                    }
                    LoadPath::Memory => {
                        let e = &self.rob[i];
                        let info = e.mem.as_ref().unwrap().info;
                        // AGU takes one cycle; the presence bit may delay
                        // the access further (§3.2 double-buffer support).
                        let mut start = now + 1;
                        if info.ready_at > start {
                            self.stats.presence_stalls += 1;
                            start = info.ready_at;
                        }
                        let (lat, served) =
                            port.timing_access(start, self.pc_addr(e.pc), &info, false);
                        self.stats.load_latency_sum += start + lat - (now + 1);
                        self.stats.loads_timed += 1;
                        self.stats.served[level_index(served)] += 1;
                        if matches!(
                            served,
                            hsim_mem::Level::L2 | hsim_mem::Level::L3 | hsim_mem::Level::Dram
                        ) {
                            self.stats.replay_issues += self.cfg.replay_per_miss;
                        }
                        start + lat
                    }
                }
            } else {
                let e = &self.rob[i];
                if e.synch_until > 0 {
                    (now + 1).max(e.synch_until)
                } else {
                    now + e.latency
                }
            };
            debug_assert!(done_at > now, "a result is never ready in its issue cycle");
            *fu_free -= 1;
            slots -= 1;
            let e = &mut self.rob[i];
            e.state = EState::Issued;
            e.done_at = done_at;
            self.stats.issued += 1;
            // A resolved misprediction restarts the front end.
            if e.mispredicted {
                let target = e.redirect_to;
                let resume = done_at + self.cfg.redirect_penalty;
                self.pending_redirect = None;
                self.fetch_pc = target;
                self.fetch_resume_at = self.fetch_resume_at.max(resume);
                self.last_fetch_line = u64::MAX;
            }
            self.wake_dependents(i);
            false
        });
        self.ready = ready;
    }

    /// Entry `i` just issued: walks its consumer chain, folding its
    /// completion time into each consumer's `ready_at`; a consumer whose
    /// last un-issued producer this was enters `wake`.
    fn wake_dependents(&mut self, i: usize) {
        let done_at = self.rob[i].done_at;
        let mut link = std::mem::replace(&mut self.rob[i].dep_head, NO_LINK);
        while link != NO_LINK {
            let (seq, slot) = (link >> 2, (link & 3) as usize);
            let at = self.rob_index(seq);
            let c = &mut self.rob[at];
            c.ready_at = c.ready_at.max(done_at);
            c.pending -= 1;
            if c.pending == 0 {
                self.wake.push(Reverse((c.ready_at, seq)));
            }
            link = c.dep_next[slot];
        }
    }

    fn load_disambiguate(&self, i: usize) -> LoadPath {
        let e = &self.rob[i];
        let m = e.mem.as_ref().unwrap();
        let (a, w) = (m.info.addr, m.width.bytes());
        // Older in-flight stores, youngest first.
        let older = self.store_q.partition_point(|&s| s < e.seq);
        for &s in self.store_q.range(..older).rev() {
            let s = &self.rob[self.rob_index(s)];
            let sm = s.mem.as_ref().unwrap();
            let (sa, sw) = (sm.info.addr, sm.width.bytes());
            let overlap = a < sa + sw && sa < a + w;
            if !overlap {
                continue;
            }
            if s.state == EState::Waiting {
                return LoadPath::Blocked; // store address not generated yet
            }
            if sa == a && sw == w {
                return LoadPath::Forward;
            }
            return LoadPath::Blocked; // partial overlap: wait for commit
        }
        LoadPath::Memory
    }

    // ------------------------------------------------------------- dispatch

    /// Whether the fetch-queue head provably cannot dispatch this cycle:
    /// it fails [`Core::dispatch_gated`], the gate [`Core::dispatch`]
    /// itself applies. An off-program pc counts as *not* blocked — the
    /// impending `RanOffProgram` error must surface on a real tick, never
    /// be skipped over.
    fn dispatch_blocked(&self) -> bool {
        let Some(f) = self.fetch_queue.front() else {
            return true;
        };
        f.pc < self.program.len() && self.dispatch_gated(&self.program.insts[f.pc])
    }

    /// The rename/LSQ gates: whether `inst` must wait for a commit to
    /// free a physical register or a load/store-queue entry.
    fn dispatch_gated(&self, inst: &Inst) -> bool {
        (writes_int(inst) && self.int_inflight >= self.cfg.int_rename_budget())
            || (writes_fp(inst) && self.fp_inflight >= self.cfg.fp_rename_budget())
            || (inst.is_load() && self.loads_inflight >= self.cfg.lsq_loads)
            || (inst.is_store() && self.stores_inflight >= self.cfg.lsq_stores)
    }

    fn dispatch(&mut self, port: &mut impl MemoryPort) -> Result<(), SimError> {
        let mut budget = self.cfg.fetch_width;
        while budget > 0 {
            if self.rob.len() >= self.cfg.rob_size {
                self.stats.rob_full_stalls += 1;
                break;
            }
            let Some(f) = self.fetch_queue.front() else {
                break;
            };
            let pc = f.pc;
            if pc >= self.program.len() {
                return Err(SimError::RanOffProgram);
            }
            let inst = self.program.insts[pc];
            if self.dispatch_gated(&inst) {
                break;
            }
            let f = self.fetch_queue.pop_front().unwrap();
            budget -= 1;
            let seq = self.next_seq;
            self.next_seq += 1;
            self.stats.dispatched += 1;

            let mut entry = RobEntry {
                seq,
                pc,
                state: EState::Waiting,
                pending: 0,
                ready_at: 0,
                dep_head: NO_LINK,
                dep_next: [NO_LINK; 3],
                #[cfg(test)]
                srcs: [None; 3],
                fu: FuClass::IntAlu,
                latency: 1,
                done_at: 0,
                is_load: inst.is_load(),
                is_store: inst.is_store(),
                is_fp: writes_fp(&inst),
                writes_int: writes_int(&inst),
                is_branch: inst.is_cond_branch(),
                mem: None,
                synch_until: 0,
                phase_mark: None,
                is_halt: false,
                mispredicted: false,
                redirect_to: 0,
            };

            // Functional execution + dependence collection.
            let mut srcs = [None; 3];
            let actual_next = self.exec_functional(port, &inst, pc, &mut entry, &mut srcs)?;

            // Wakeup links. A committed producer's value is architectural
            // and an issued one's completion time is known; only a
            // producer still waiting to issue has to wake this entry.
            for (slot, src) in srcs.into_iter().enumerate() {
                let Some(src) = src.filter(|&s| s >= self.head_seq) else {
                    continue;
                };
                let at = self.rob_index(src);
                let producer = &mut self.rob[at];
                if producer.state == EState::Issued {
                    entry.ready_at = entry.ready_at.max(producer.done_at);
                } else {
                    entry.dep_next[slot] = producer.dep_head;
                    producer.dep_head = seq << 2 | slot as u64;
                    entry.pending += 1;
                }
            }
            #[cfg(test)]
            {
                entry.srcs = srcs;
            }

            if entry.writes_int {
                self.int_inflight += 1;
            }
            if entry.is_fp {
                self.fp_inflight += 1;
            }
            if entry.is_load {
                self.loads_inflight += 1;
            }
            if entry.is_store {
                self.stores_inflight += 1;
                self.store_q.push_back(seq);
            }
            if entry.pending == 0 {
                // Due by the next select, whenever that runs: the
                // youngest entry joins `ready` at its tail, in order,
                // without a trip through the heap.
                if entry.ready_at <= self.now + 1 {
                    self.ready.push(seq);
                } else {
                    self.wake.push(Reverse((entry.ready_at, seq)));
                }
            }
            self.rob.push_back(entry);

            // Control-flow resolution: compare against the front end's
            // prediction.
            if actual_next != f.predicted_next {
                self.stats.mispredicts += 1;
                let e = self.rob.back_mut().unwrap();
                e.mispredicted = true;
                e.redirect_to = actual_next;
                self.pending_redirect = Some(seq);
                self.fetch_queue.clear();
                self.bp.repair();
                self.ras.restore_from(&self.arch_call_stack);
                break;
            }
            if matches!(inst, Inst::Halt) {
                self.fetch_off = true;
                self.fetch_queue.clear();
                break;
            }
        }
        Ok(())
    }

    /// Functionally executes `inst`, filling latency/FU class in `entry`
    /// and the producer sequence numbers of its source registers in
    /// `srcs`, and returns the actual next PC.
    fn exec_functional(
        &mut self,
        port: &mut impl MemoryPort,
        inst: &Inst,
        pc: usize,
        entry: &mut RobEntry,
        srcs: &mut [Option<u64>; 3],
    ) -> Result<usize, SimError> {
        use Inst::*;
        let mut next = pc + 1;
        match *inst {
            Alu { op, rd, rs1, src2 } => {
                let a = self.int_regs[rs1.index()];
                let (b, src2_dep) = match src2 {
                    Operand::Reg(r) => (self.int_regs[r.index()], self.last_writer_int[r.index()]),
                    Operand::Imm(i) => (i, None),
                };
                srcs[0] = self.last_writer_int[rs1.index()];
                srcs[1] = src2_dep;
                entry.latency = op.latency() as u64;
                self.write_int(rd, op.eval(a, b), entry);
            }
            Li { rd, imm } => {
                self.write_int(rd, imm, entry);
            }
            Fpu { op, fd, fs1, fs2 } => {
                let a = self.fp_regs[fs1.index()];
                let b = self.fp_regs[fs2.index()];
                srcs[0] = self.last_writer_fp[fs1.index()];
                srcs[1] = self.last_writer_fp[fs2.index()];
                entry.fu = FuClass::FpAlu;
                entry.latency = op.latency() as u64;
                self.write_fp(fd, op.eval(a, b), entry);
            }
            MovIF { fd, rs } => {
                srcs[0] = self.last_writer_int[rs.index()];
                entry.fu = FuClass::FpAlu;
                let v = f64::from_bits(self.int_regs[rs.index()] as u64);
                self.write_fp(fd, v, entry);
            }
            MovFI { rd, fs } => {
                srcs[0] = self.last_writer_fp[fs.index()];
                self.write_int(rd, self.fp_regs[fs.index()].to_bits() as i64, entry);
            }
            CvtIF { fd, rs } => {
                srcs[0] = self.last_writer_int[rs.index()];
                entry.fu = FuClass::FpAlu;
                entry.latency = 3;
                self.write_fp(fd, self.int_regs[rs.index()] as f64, entry);
            }
            CvtFI { rd, fs } => {
                srcs[0] = self.last_writer_fp[fs.index()];
                entry.latency = 3;
                self.write_int(rd, self.fp_regs[fs.index()] as i64, entry);
            }
            Load {
                rd,
                base,
                index,
                offset,
                width,
                route,
            } => {
                srcs[0] = self.last_writer_int[base.index()];
                srcs[1] = index.and_then(|x| self.last_writer_int[x.index()]);
                entry.fu = FuClass::Mem;
                let addr = self.effective_addr(base, index, offset);
                let (bits, info) = port.exec_mem(self.pc_addr(pc), addr, width, route, None);
                entry.mem = Some(MemOp { info, width, route });
                self.write_int(rd, bits as i64, entry);
            }
            Store {
                rs,
                base,
                index,
                offset,
                width,
                route,
            } => {
                srcs[0] = self.last_writer_int[rs.index()];
                srcs[1] = self.last_writer_int[base.index()];
                srcs[2] = index.and_then(|x| self.last_writer_int[x.index()]);
                entry.fu = FuClass::Mem;
                let addr = self.effective_addr(base, index, offset);
                let bits = self.int_regs[rs.index()] as u64;
                let (_, info) = port.exec_mem(self.pc_addr(pc), addr, width, route, Some(bits));
                entry.mem = Some(MemOp { info, width, route });
            }
            FLoad {
                fd,
                base,
                index,
                offset,
                route,
            } => {
                srcs[0] = self.last_writer_int[base.index()];
                srcs[1] = index.and_then(|x| self.last_writer_int[x.index()]);
                entry.fu = FuClass::Mem;
                let addr = self.effective_addr(base, index, offset);
                let (bits, info) = port.exec_mem(self.pc_addr(pc), addr, Width::D, route, None);
                entry.mem = Some(MemOp {
                    info,
                    width: Width::D,
                    route,
                });
                self.write_fp(fd, f64::from_bits(bits), entry);
            }
            FStore {
                fs,
                base,
                index,
                offset,
                route,
            } => {
                srcs[0] = self.last_writer_fp[fs.index()];
                srcs[1] = self.last_writer_int[base.index()];
                srcs[2] = index.and_then(|x| self.last_writer_int[x.index()]);
                entry.fu = FuClass::Mem;
                let addr = self.effective_addr(base, index, offset);
                let bits = self.fp_regs[fs.index()].to_bits();
                let (_, info) = port.exec_mem(self.pc_addr(pc), addr, Width::D, route, Some(bits));
                entry.mem = Some(MemOp {
                    info,
                    width: Width::D,
                    route,
                });
            }
            Branch {
                cond,
                rs1,
                rs2,
                target,
            } => {
                srcs[0] = self.last_writer_int[rs1.index()];
                srcs[1] = self.last_writer_int[rs2.index()];
                let taken = cond.eval(self.int_regs[rs1.index()], self.int_regs[rs2.index()]);
                self.bp.update(self.pc_addr(pc), taken);
                next = if taken { target } else { pc + 1 };
            }
            Jump { target } => {
                next = target;
            }
            Call { target } => {
                self.arch_call_stack.push((pc + 1) as u64);
                next = target;
            }
            Ret => {
                let Some(ra) = self.arch_call_stack.pop() else {
                    return Err(SimError::RetWithoutCall { pc });
                };
                next = ra as usize;
            }
            DmaGet { lm, sm, bytes, tag } => {
                srcs[0] = self.last_writer_int[lm.index()];
                srcs[1] = self.last_writer_int[sm.index()];
                srcs[2] = self.last_writer_int[bytes.index()];
                entry.fu = FuClass::Mem;
                let _ = port.exec_dma(
                    self.now,
                    DmaKind::Get,
                    self.int_regs[lm.index()] as u64,
                    self.int_regs[sm.index()] as u64,
                    self.int_regs[bytes.index()] as u64,
                    tag,
                );
            }
            DmaPut { lm, sm, bytes, tag } => {
                srcs[0] = self.last_writer_int[lm.index()];
                srcs[1] = self.last_writer_int[sm.index()];
                srcs[2] = self.last_writer_int[bytes.index()];
                entry.fu = FuClass::Mem;
                let _ = port.exec_dma(
                    self.now,
                    DmaKind::Put,
                    self.int_regs[lm.index()] as u64,
                    self.int_regs[sm.index()] as u64,
                    self.int_regs[bytes.index()] as u64,
                    tag,
                );
            }
            DmaSynch { tag } => {
                entry.synch_until = port.dma_synch(self.now, tag).max(1);
            }
            DirCfg { rs } => {
                srcs[0] = self.last_writer_int[rs.index()];
                port.dir_configure(self.int_regs[rs.index()] as u64);
            }
            PhaseMark { phase } => {
                entry.phase_mark = Some(phase);
            }
            Halt => {
                entry.is_halt = true;
            }
            Nop => {}
        }
        Ok(next)
    }

    #[inline]
    fn effective_addr(&self, base: Reg, index: Option<Reg>, offset: i64) -> u64 {
        let mut a = self.int_regs[base.index()] as u64;
        if let Some(x) = index {
            a = a.wrapping_add(self.int_regs[x.index()] as u64);
        }
        a.wrapping_add(offset as u64)
    }

    fn write_int(&mut self, rd: Reg, v: i64, entry: &mut RobEntry) {
        self.int_regs[rd.index()] = v;
        self.last_writer_int[rd.index()] = Some(entry.seq);
    }

    fn write_fp(&mut self, fd: FReg, v: f64, entry: &mut RobEntry) {
        self.fp_regs[fd.index()] = v;
        self.last_writer_fp[fd.index()] = Some(entry.seq);
    }

    #[inline]
    fn pc_addr(&self, pc: usize) -> u64 {
        self.mmap.pc_addr(pc)
    }

    // ---------------------------------------------------------------- fetch

    fn fetch(&mut self, port: &mut impl MemoryPort) {
        if self.fetch_off || self.pending_redirect.is_some() {
            self.stats.fetch_stall_cycles += 1;
            return;
        }
        if self.now < self.fetch_resume_at {
            self.stats.fetch_stall_cycles += 1;
            return;
        }
        let mut slots = self.cfg.fetch_width;
        while slots > 0 && self.fetch_queue.len() < self.cfg.fetch_queue {
            let pc = self.fetch_pc;
            if pc >= self.program.len() {
                break; // dispatch will flag RanOffProgram if reached
            }
            // I-cache: charge a bubble when crossing into a line that
            // misses.
            let addr = self.pc_addr(pc);
            let line = addr / 64;
            if line != self.last_fetch_line {
                let lat = port.fetch_latency(self.now, addr);
                self.last_fetch_line = line;
                if lat > 2 {
                    self.fetch_resume_at = self.now + lat;
                    return;
                }
            }
            let inst = self.program.insts[pc];
            let predicted_next = self.predict_next(pc, &inst);
            self.fetch_queue.push_back(Fetched { pc, predicted_next });
            self.stats.fetched += 1;
            slots -= 1;
            self.fetch_pc = predicted_next;
            if predicted_next != pc + 1 {
                break; // taken-control fetch break
            }
            if matches!(inst, Inst::Halt) {
                break;
            }
        }
    }

    /// Front-end next-PC logic: real predictor state, no peeking at
    /// functional outcomes.
    fn predict_next(&mut self, pc: usize, inst: &Inst) -> usize {
        match *inst {
            Inst::Branch { target, .. } => {
                let taken = self.bp.predict(self.pc_addr(pc));
                if taken {
                    if !self.btb.lookup_allocate(self.pc_addr(pc)) {
                        self.stats.btb_bubbles += 1;
                        self.fetch_resume_at = self.now + self.cfg.btb_miss_penalty;
                    }
                    target
                } else {
                    pc + 1
                }
            }
            Inst::Jump { target } => target,
            Inst::Call { target } => {
                self.ras.push((pc + 1) as u64);
                target
            }
            Inst::Ret => match self.ras.pop() {
                Some(ra) => ra as usize,
                None => pc + 1, // cold RAS: will mispredict
            },
            _ => pc + 1,
        }
    }
}

#[derive(Debug, PartialEq, Eq)]
enum LoadPath {
    Blocked,
    Forward,
    Memory,
}

impl RobEntry {
    fn mem_route(&self) -> Route {
        self.mem.map(|m| m.route).unwrap_or(Route::Plain)
    }
}

fn writes_int(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Alu { .. }
            | Inst::Li { .. }
            | Inst::MovFI { .. }
            | Inst::CvtFI { .. }
            | Inst::Load { .. }
    )
}

fn writes_fp(inst: &Inst) -> bool {
    matches!(
        inst,
        Inst::Fpu { .. } | Inst::MovIF { .. } | Inst::CvtIF { .. } | Inst::FLoad { .. }
    )
}

#[cfg(test)]
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::port::ServedLevel;
    use hsim_isa::inst::{AluOp, Cond};
    use hsim_isa::ProgramBuilder;
    use std::collections::HashMap;

    /// A flat test port: all SM accesses hit a 4-cycle memory (or the
    /// latency `latency_at` gives their address); LM window accesses
    /// take 2 cycles; no directory.
    pub(super) struct MockPort {
        mem: HashMap<u64, u64>,
        mmap: MemoryMap,
        pub(super) sm_latency: u64,
        pub(super) latency_at: HashMap<u64, u64>,
        accesses: Vec<(u64, bool)>,
        timed: Vec<(u64, bool)>,
    }

    impl MockPort {
        pub(super) fn new() -> Self {
            MockPort {
                mem: HashMap::new(),
                mmap: MemoryMap::default(),
                sm_latency: 4,
                latency_at: HashMap::new(),
                accesses: Vec::new(),
                timed: Vec::new(),
            }
        }

        fn read64(&self, addr: u64) -> u64 {
            let base = addr & !7;
            let off = (addr - base) * 8;
            let lo = self.mem.get(&base).copied().unwrap_or(0);
            if off == 0 {
                lo
            } else {
                let hi = self.mem.get(&(base + 8)).copied().unwrap_or(0);
                (lo >> off) | (hi << (64 - off))
            }
        }
    }

    impl MemoryPort for MockPort {
        fn exec_mem(
            &mut self,
            _pc: u64,
            addr: u64,
            width: Width,
            _route: Route,
            store: Option<u64>,
        ) -> (u64, RouteInfo) {
            let side = if self.mmap.is_lm(addr) {
                MemSide::Lm
            } else {
                MemSide::Sm
            };
            let info = RouteInfo {
                side,
                addr,
                dir_lookup: false,
                dir_hit: false,
                ready_at: 0,
            };
            self.accesses.push((addr, store.is_some()));
            match store {
                Some(bits) => {
                    // Only 8-byte aligned stores needed by the tests.
                    let mask = match width {
                        Width::B => 0xff,
                        Width::W => 0xffff_ffff,
                        Width::D => u64::MAX,
                    };
                    let old = self.read64(addr & !7);
                    let sh = (addr & 7) * 8;
                    let nv = (old & !(mask << sh)) | ((bits & mask) << sh);
                    self.mem.insert(addr & !7, nv);
                    (0, info)
                }
                None => {
                    let raw = self.read64(addr);
                    let v = match width {
                        Width::B => raw & 0xff,
                        Width::W => (raw & 0xffff_ffff) as u32 as i32 as i64 as u64,
                        Width::D => raw,
                    };
                    (v, info)
                }
            }
        }

        fn timing_access(
            &mut self,
            _now: u64,
            _pc: u64,
            info: &RouteInfo,
            write: bool,
        ) -> (u64, ServedLevel) {
            self.timed.push((info.addr, write));
            match info.side {
                MemSide::Lm => (2, ServedLevel::Lm),
                MemSide::Sm => (
                    *self.latency_at.get(&info.addr).unwrap_or(&self.sm_latency),
                    ServedLevel::L1,
                ),
            }
        }

        fn exec_dma(
            &mut self,
            now: u64,
            _k: DmaKind,
            _lm: u64,
            _sm: u64,
            bytes: u64,
            _tag: u8,
        ) -> u64 {
            now + 10 + bytes / 16
        }

        fn dma_synch(&mut self, now: u64, _tag: u8) -> u64 {
            now + 25
        }

        fn dir_configure(&mut self, _b: u64) {}

        fn fetch_latency(&mut self, _now: u64, _addr: u64) -> u64 {
            2
        }
    }

    fn run_prog(build: impl FnOnce(&mut ProgramBuilder)) -> (Core, MockPort) {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        let p = b.build();
        let mut core = Core::new(CoreConfig::default(), p, MemoryMap::default());
        let mut port = MockPort::new();
        core.run(&mut port).expect("program must halt");
        (core, port)
    }

    #[test]
    fn arithmetic_and_halt() {
        let (core, _) = run_prog(|b| {
            b.li(Reg(1), 6);
            b.li(Reg(2), 7);
            b.alu(AluOp::Mul, Reg(3), Reg(1), Reg(2));
            b.alui(AluOp::Add, Reg(3), Reg(3), 100);
            b.halt();
        });
        assert_eq!(core.int_reg(Reg(3)), 142);
        assert_eq!(core.stats.committed, 5);
        assert!(core.halted());
    }

    #[test]
    fn loop_commits_right_instruction_count() {
        let n = 50;
        let (core, _) = run_prog(|b| {
            let top = b.new_label();
            b.li(Reg(1), 0);
            b.li(Reg(2), n);
            b.bind(top);
            b.addi(Reg(1), Reg(1), 1);
            b.branch(Cond::Lt, Reg(1), Reg(2), top);
            b.halt();
        });
        assert_eq!(core.int_reg(Reg(1)), n);
        // 2 setup + 2*n loop + 1 halt.
        assert_eq!(core.stats.committed, 2 + 2 * n as u64 + 1);
        assert!(core.stats.branches == n as u64);
        // The loop branch should mispredict only a handful of times.
        assert!(
            core.stats.mispredicts <= 4,
            "mispredicts={}",
            core.stats.mispredicts
        );
    }

    #[test]
    fn memory_round_trip_through_port() {
        let (core, port) = run_prog(|b| {
            b.li(Reg(1), 0x1000_0000);
            b.li(Reg(2), 12345);
            b.st(Reg(2), Reg(1), 0);
            b.ld(Reg(3), Reg(1), 0);
            b.halt();
        });
        assert_eq!(core.int_reg(Reg(3)), 12345);
        assert_eq!(port.accesses.len(), 2);
        assert_eq!(core.stats.loads, 1);
        assert_eq!(core.stats.stores, 1);
        // The load forwarded from the in-flight store.
        assert_eq!(core.stats.lsq_forwards, 1);
    }

    #[test]
    fn store_commit_collapsing() {
        // Two back-to-back stores to the same address commit with one
        // cache access (the paper's double-store optimization).
        let (core, port) = run_prog(|b| {
            b.li(Reg(1), 0x1000_0000);
            b.li(Reg(2), 7);
            b.st(Reg(2), Reg(1), 0);
            b.st(Reg(2), Reg(1), 0);
            b.halt();
        });
        assert_eq!(core.stats.stores, 2);
        assert_eq!(core.stats.collapsed_stores, 1);
        let writes = port.timed.iter().filter(|(_, w)| *w).count();
        assert_eq!(writes, 1, "only one timed store access");
    }

    #[test]
    fn different_address_stores_do_not_collapse() {
        let (core, port) = run_prog(|b| {
            b.li(Reg(1), 0x1000_0000);
            b.li(Reg(2), 7);
            b.st(Reg(2), Reg(1), 0);
            b.st(Reg(2), Reg(1), 8);
            b.halt();
        });
        assert_eq!(core.stats.collapsed_stores, 0);
        let writes = port.timed.iter().filter(|(_, w)| *w).count();
        assert_eq!(writes, 2);
    }

    #[test]
    fn dependent_chain_is_serialized() {
        // 20 dependent 1-cycle adds take at least 20 cycles; 20
        // independent ones finish much faster.
        let (dep, _) = run_prog(|b| {
            b.li(Reg(1), 0);
            for _ in 0..20 {
                b.addi(Reg(1), Reg(1), 1);
            }
            b.halt();
        });
        let (indep, _) = run_prog(|b| {
            b.li(Reg(1), 0);
            for i in 0..20 {
                b.li(Reg((1 + (i % 8)) as u8), i);
            }
            b.halt();
        });
        assert_eq!(dep.int_reg(Reg(1)), 20);
        assert!(
            dep.stats.cycles > indep.stats.cycles + 8,
            "dep {} vs indep {}",
            dep.stats.cycles,
            indep.stats.cycles
        );
    }

    #[test]
    fn call_ret_roundtrip() {
        let (core, _) = run_prog(|b| {
            let f = b.new_label();
            let done = b.new_label();
            b.li(Reg(1), 1);
            b.call(f);
            b.addi(Reg(1), Reg(1), 10); // after return
            b.jump(done);
            b.bind(f);
            b.addi(Reg(1), Reg(1), 100);
            b.ret();
            b.bind(done);
            b.halt();
        });
        assert_eq!(core.int_reg(Reg(1)), 111);
    }

    #[test]
    fn ret_without_call_errors() {
        let mut b = ProgramBuilder::new();
        b.ret();
        b.halt();
        let p = b.build();
        let mut core = Core::new(CoreConfig::default(), p, MemoryMap::default());
        let mut port = MockPort::new();
        assert_eq!(core.run(&mut port), Err(SimError::RetWithoutCall { pc: 0 }));
    }

    #[test]
    fn dma_and_synch_complete() {
        let (core, _) = run_prog(|b| {
            b.li(Reg(1), 0x7fff_0000_0000u64 as i64);
            b.li(Reg(2), 0x1000_0000);
            b.li(Reg(3), 1024);
            b.dma_get(Reg(1), Reg(2), Reg(3), 0);
            b.dma_synch(0);
            b.halt();
        });
        assert_eq!(core.stats.committed, 6);
    }

    #[test]
    fn phase_cycles_are_attributed() {
        let (core, _) = run_prog(|b| {
            b.phase(Phase::Control);
            for _ in 0..10 {
                b.nop();
            }
            b.phase(Phase::Work);
            b.li(Reg(1), 0);
            for _ in 0..50 {
                b.addi(Reg(1), Reg(1), 1);
            }
            b.halt();
        });
        assert!(core.stats.phase(Phase::Work) > core.stats.phase(Phase::Control));
        let total: u64 = core.stats.phase_cycles.iter().sum();
        assert_eq!(total, core.stats.cycles);
    }

    #[test]
    fn mispredicts_cost_cycles() {
        // A data-dependent unpredictable branch pattern (period 3 with a
        // short history) vs an always-taken one of the same length.
        let mk = |pattern: bool| {
            move |b: &mut ProgramBuilder| {
                let top = b.new_label();
                let skip = b.new_label();
                b.li(Reg(1), 0);
                b.li(Reg(2), 300);
                b.li(Reg(4), 0); // lfsr-ish state
                b.bind(top);
                if pattern {
                    // r4 = (r4*1103515245 + 12345) >> 16 & 1: pseudo-random
                    b.alui(AluOp::Mul, Reg(4), Reg(4), 1103515245);
                    b.alui(AluOp::Add, Reg(4), Reg(4), 12345);
                    b.alui(AluOp::Srl, Reg(5), Reg(4), 16);
                    b.alui(AluOp::And, Reg(5), Reg(5), 1);
                } else {
                    b.li(Reg(5), 0);
                }
                b.li(Reg(6), 1);
                b.branch(Cond::Eq, Reg(5), Reg(6), skip);
                b.addi(Reg(3), Reg(3), 1);
                b.bind(skip);
                b.addi(Reg(1), Reg(1), 1);
                b.branch(Cond::Lt, Reg(1), Reg(2), top);
                b.halt();
            }
        };
        let (random, _) = run_prog(mk(true));
        let (steady, _) = run_prog(mk(false));
        assert!(random.stats.mispredicts > steady.stats.mispredicts + 20);
    }

    #[test]
    fn deterministic_across_runs() {
        let build = |b: &mut ProgramBuilder| {
            let top = b.new_label();
            b.li(Reg(1), 0);
            b.li(Reg(2), 100);
            b.li(Reg(7), 0x1000_0000);
            b.bind(top);
            b.st(Reg(1), Reg(7), 0);
            b.ld(Reg(3), Reg(7), 0);
            b.addi(Reg(1), Reg(1), 1);
            b.branch(Cond::Lt, Reg(1), Reg(2), top);
            b.halt();
        };
        let (a, _) = run_prog(build);
        let (b2, _) = run_prog(build);
        assert_eq!(a.stats.cycles, b2.stats.cycles);
        assert_eq!(a.stats.committed, b2.stats.committed);
        assert_eq!(a.stats.mispredicts, b2.stats.mispredicts);
    }

    /// Runs the same program in lockstep and skipping configurations and
    /// asserts the statistics are identical (minus the skip counter).
    fn assert_skip_equivalent(build: impl Fn(&mut ProgramBuilder) + Copy) -> (CoreStats, u64) {
        let (result, stats, skipped) =
            assert_skip_equivalent_on(MockPort::new, CoreConfig::default(), build);
        result.expect("program must halt");
        (stats, skipped)
    }

    /// [`assert_skip_equivalent`] on a configured port and core, for
    /// programs that may end in an error: the outcome must be equal too.
    fn assert_skip_equivalent_on(
        mk_port: impl Fn() -> MockPort,
        cfg: CoreConfig,
        build: impl Fn(&mut ProgramBuilder),
    ) -> (Result<(), SimError>, CoreStats, u64) {
        let run = |lockstep: bool| {
            let mut b = ProgramBuilder::new();
            build(&mut b);
            let cfg = CoreConfig {
                lockstep,
                ..cfg.clone()
            };
            let mut core = Core::new(cfg, b.build(), MemoryMap::default());
            let mut port = mk_port();
            let result = core.run(&mut port);
            (result, core, port)
        };
        let (skip_result, skip, skip_port) = run(false);
        let (lock_result, lock, lock_port) = run(true);
        assert_eq!(skip_result, lock_result, "same outcome at the same cycle");
        assert_eq!(lock.stats.skipped_cycles, 0);
        let skipped = skip.stats.skipped_cycles;
        let mut norm = skip.stats.clone();
        norm.skipped_cycles = 0;
        assert_eq!(norm, lock.stats, "stats must be bit-identical");
        assert_eq!(skip_port.accesses, lock_port.accesses);
        assert_eq!(skip_port.timed, lock_port.timed);
        (lock_result, lock.stats, skipped)
    }

    const SM: i64 = 0x1000_0000;

    /// A port whose loads of `SM + 64` take `latency` cycles.
    fn slow_cell(latency: u64) -> impl Fn() -> MockPort {
        move || {
            let mut port = MockPort::new();
            port.latency_at.insert(SM as u64 + 64, latency);
            port
        }
    }

    #[test]
    fn partial_overlap_blocks_the_load_until_the_store_commits() {
        // A byte store inside the word a younger load reads: no
        // forwarding, the load waits for the store to commit — which a
        // 300-cycle load ahead of it in the ROB delays. The blocked load
        // sits in the ready list the whole time and must add no horizon:
        // the wait is skipped, not ticked through.
        let (result, stats, skipped) =
            assert_skip_equivalent_on(slow_cell(300), CoreConfig::default(), |b| {
                b.li(Reg(1), SM);
                b.li(Reg(2), 0xab);
                b.ld(Reg(5), Reg(1), 64);
                b.store(Reg(2), Reg(1), 1, Width::B, Route::Plain);
                b.load(Reg(3), Reg(1), 0, Width::W, Route::Plain);
                b.halt();
            });
        result.expect("program must halt");
        assert_eq!(stats.lsq_forwards, 0);
        assert_eq!(stats.loads_timed, 2, "both loads went to memory");
        assert!(stats.cycles > 300);
        assert!(skipped > 250, "a blocked load is not a horizon ({skipped})");
    }

    #[test]
    fn store_issued_this_cycle_forwards_to_a_load_ready_this_cycle() {
        // The store's and the load's address both wait for one 20-cycle
        // divide, so both become ready in the same cycle. Select runs in
        // age order: the store issues first and the load, disambiguating
        // later in the same select, finds it `Issued` and forwards.
        let build = |b: &mut ProgramBuilder| {
            b.li(Reg(1), SM);
            b.li(Reg(2), 7);
            b.li(Reg(5), 0);
            b.alu(AluOp::Div, Reg(4), Reg(5), Reg(2)); // 0, after 20 cycles
            b.store_x(Reg(2), Reg(1), Reg(4), 0, Width::D, Route::Plain);
            b.load_x(Reg(3), Reg(1), Reg(4), 0, Width::D, Route::Plain);
            b.halt();
        };
        let (stats, _) = assert_skip_equivalent(build);
        assert_eq!(stats.lsq_forwards, 1);
        assert_eq!(stats.loads_timed, 0);

        let mut b = ProgramBuilder::new();
        build(&mut b);
        let mut core = Core::new(CoreConfig::default(), b.build(), MemoryMap::default());
        let mut port = MockPort::new();
        let issued = |core: &Core, pc: usize| {
            let e = core.rob.iter().find(|e| e.pc == pc);
            e.map(|e| e.state == EState::Issued)
        };
        while issued(&core, 4) != Some(true) {
            assert_ne!(issued(&core, 5), Some(true), "the load cannot lead");
            core.tick(&mut port).unwrap();
        }
        assert_eq!(issued(&core, 5), Some(true), "same select, one cycle");
        assert_eq!(core.stats.lsq_forwards, 1);
    }

    #[test]
    fn load_waits_for_a_store_whose_address_arrives_late() {
        // The store's index register comes from a slow load; the younger
        // load of the same cell is ready at once but blocked until the
        // store's address is generated, then forwards from it.
        let build = |b: &mut ProgramBuilder| {
            b.li(Reg(1), SM);
            b.li(Reg(2), 9);
            b.ld(Reg(4), Reg(1), 64); // 0, late
            b.store_x(Reg(2), Reg(1), Reg(4), 0, Width::D, Route::Plain);
            b.ld(Reg(3), Reg(1), 0);
            b.halt();
        };
        let (result, stats, skipped) =
            assert_skip_equivalent_on(slow_cell(500), CoreConfig::default(), build);
        result.expect("program must halt");
        assert_eq!(stats.lsq_forwards, 1);
        assert!(stats.cycles > 500);
        assert!(skipped > 450, "the wait is one jump ({skipped})");

        // The same wait cut short by the cycle budget, then outlasting
        // the watchdog: the error and its cycle are the lockstep loop's.
        let budget = CoreConfig {
            max_cycles: 300,
            ..Default::default()
        };
        let (result, stats, _) = assert_skip_equivalent_on(slow_cell(500), budget, build);
        assert_eq!(result, Err(SimError::CycleLimit));
        assert_eq!(stats.cycles, 300);
        let (result, stats, _) =
            assert_skip_equivalent_on(slow_cell(1_000_000), CoreConfig::default(), build);
        let Err(SimError::Deadlock { cycle, report }) = result else {
            panic!("must deadlock, got {result:?}");
        };
        assert_eq!(cycle, stats.cycles);
        assert_eq!(report.rob_head_pc, Some(2), "the slow load is the head");
    }

    #[test]
    fn a_full_rob_behind_one_load_costs_nothing_per_tick() {
        // One 10 000-cycle load, then enough dependent work to fill the
        // ROB: a chain of adds on its result, a store whose address
        // waits for it, and a ready load of the stored cell that stays
        // blocked — the one entry select has to look at. While the load
        // is outstanding a tick and a horizon query may examine the
        // ready list and what issue moves, never the waiting ROB.
        let mut b = ProgramBuilder::new();
        b.li(Reg(1), SM);
        b.li(Reg(2), 9);
        b.ld(Reg(4), Reg(1), 64);
        b.store_x(Reg(2), Reg(1), Reg(4), 0, Width::D, Route::Plain);
        b.ld(Reg(3), Reg(1), 0);
        for _ in 0..400 {
            b.addi(Reg(4), Reg(4), 1);
        }
        b.halt();
        let cfg = CoreConfig {
            lockstep: true,
            ..Default::default()
        };
        let mut core = Core::new(cfg.clone(), b.build(), MemoryMap::default());
        let mut port = slow_cell(10_000)();
        // Until the ROB is full behind the load and fetch has topped up
        // its queue: from there on nothing can move.
        while core.rob.len() < cfg.rob_size || core.fetch_queue.len() < cfg.fetch_queue {
            core.tick(&mut port).unwrap();
        }
        assert_eq!(core.rob[0].pc, 2);
        let load_done = core.rob[0].done_at;
        assert!(load_done > 10_000);
        for _ in 0..2_000 {
            let before = core.rob_visits.get();
            core.tick(&mut port).unwrap();
            let tick_visits = core.rob_visits.get() - before;
            assert_eq!(core.rob.len(), cfg.rob_size);
            // Per candidate: itself and, for a load, the older stores.
            let bound = (cfg.issue_width + core.ready.len() * (1 + core.store_q.len())) as u64;
            assert!(
                tick_visits <= bound,
                "a tick examined {tick_visits} ROB entries, ready list {:?}",
                core.ready
            );
            let before = core.rob_visits.get();
            assert_eq!(core.next_event_at(), load_done);
            let horizon_visits = core.rob_visits.get() - before;
            assert!(
                horizon_visits <= bound,
                "next_event_at examined {horizon_visits} ROB entries"
            );
        }
        assert_eq!(core.ready, [4], "only the blocked load is ready");
        assert_eq!(core.wake.len(), 2, "the store and the first add");
    }

    #[test]
    fn skipping_matches_lockstep_on_mixed_program() {
        let (stats, skipped) = assert_skip_equivalent(|b| {
            let top = b.new_label();
            b.li(Reg(1), 0);
            b.li(Reg(2), 40);
            b.li(Reg(7), 0x1000_0000);
            b.bind(top);
            b.st(Reg(1), Reg(7), 0);
            b.ld(Reg(3), Reg(7), 8);
            b.addi(Reg(1), Reg(1), 1);
            b.branch(Cond::Lt, Reg(1), Reg(2), top);
            b.li(Reg(4), 0x7fff_0000_0000u64 as i64);
            b.li(Reg(5), 0x1000_0000);
            b.li(Reg(6), 4096);
            b.dma_get(Reg(4), Reg(5), Reg(6), 2);
            b.dma_synch(2);
            b.halt();
        });
        assert!(stats.cycles > 0);
        assert!(skipped > 0, "the dma-synch wait must be skipped");
    }

    #[test]
    fn deadlock_watchdog_fires_at_the_same_cycle_with_skipping() {
        // A dma-synch completing far beyond the watchdog window starves
        // commit; the skipper's horizon must clamp to
        // `last_commit + DEADLOCK_WINDOW` so the watchdog fires at the
        // same cycle number as the naive loop.
        struct FarSynch(MockPort);
        impl MemoryPort for FarSynch {
            fn exec_mem(
                &mut self,
                pc: u64,
                addr: u64,
                width: Width,
                route: Route,
                store: Option<u64>,
            ) -> (u64, RouteInfo) {
                self.0.exec_mem(pc, addr, width, route, store)
            }
            fn timing_access(
                &mut self,
                now: u64,
                pc: u64,
                info: &RouteInfo,
                write: bool,
            ) -> (u64, ServedLevel) {
                self.0.timing_access(now, pc, info, write)
            }
            fn exec_dma(
                &mut self,
                now: u64,
                k: DmaKind,
                lm: u64,
                sm: u64,
                bytes: u64,
                tag: u8,
            ) -> u64 {
                self.0.exec_dma(now, k, lm, sm, bytes, tag)
            }
            fn dma_synch(&mut self, _now: u64, _tag: u8) -> u64 {
                1_000_000
            }
            fn dir_configure(&mut self, b: u64) {
                self.0.dir_configure(b)
            }
            fn fetch_latency(&mut self, now: u64, addr: u64) -> u64 {
                self.0.fetch_latency(now, addr)
            }
        }
        let run = |lockstep: bool| {
            let mut b = ProgramBuilder::new();
            b.li(Reg(1), 1);
            b.dma_synch(0);
            b.halt();
            let p = b.build();
            let cfg = CoreConfig {
                lockstep,
                ..Default::default()
            };
            let mut core = Core::new(cfg, p, MemoryMap::default());
            let mut port = FarSynch(MockPort::new());
            let err = core.run(&mut port).expect_err("must deadlock");
            (err, core.stats.cycles, core.stats.skipped_cycles)
        };
        let (skip_err, skip_cycles, skipped) = run(false);
        let (lock_err, lock_cycles, lock_skipped) = run(true);
        let SimError::Deadlock { report, .. } = &skip_err else {
            panic!("must be a deadlock, got {skip_err:?}");
        };
        assert_eq!(
            report.rob_head_pc,
            Some(1),
            "dma-synch wedged at the ROB head"
        );
        assert!(
            report.rob_head_op.contains("DmaSynch"),
            "report names the wedged opcode: {}",
            report.rob_head_op
        );
        let shown = skip_err.to_string();
        assert!(
            shown.contains("DmaSynch") && shown.contains("MSHR"),
            "Display carries the report: {shown}"
        );
        assert_eq!(skip_err, lock_err, "same error at the same cycle");
        assert_eq!(skip_cycles, lock_cycles);
        assert_eq!(lock_skipped, 0);
        assert!(
            skipped > DEADLOCK_WINDOW / 2,
            "the dead window must be jumped, not walked ({skipped})"
        );
    }

    #[test]
    fn cycle_limit_fires_at_the_same_cycle_with_skipping() {
        // An infinite loop exhausts `max_cycles`; the horizon clamps to
        // `max_cycles - 1` so both runs report the limit at the same
        // simulated cycle.
        let run = |lockstep: bool| {
            let mut b = ProgramBuilder::new();
            let top = b.new_label();
            b.bind(top);
            b.addi(Reg(1), Reg(1), 1);
            b.jump(top);
            let p = b.build();
            let cfg = CoreConfig {
                max_cycles: 20_000,
                lockstep,
                ..Default::default()
            };
            let mut core = Core::new(cfg, p, MemoryMap::default());
            let mut port = MockPort::new();
            let err = core.run(&mut port).expect_err("must hit the limit");
            (err, core.stats.cycles)
        };
        let (skip_err, skip_cycles) = run(false);
        let (lock_err, lock_cycles) = run(true);
        assert_eq!(skip_err, SimError::CycleLimit);
        assert_eq!(skip_err, lock_err);
        assert_eq!(skip_cycles, lock_cycles);
    }

    #[test]
    fn presence_bit_stalls_load() {
        // A port that reports the LM mapping ready only at cycle 500.
        struct StallPort(MockPort);
        impl MemoryPort for StallPort {
            fn exec_mem(
                &mut self,
                pc: u64,
                addr: u64,
                width: Width,
                route: Route,
                store: Option<u64>,
            ) -> (u64, RouteInfo) {
                let (v, mut info) = self.0.exec_mem(pc, addr, width, route, store);
                if route == Route::Guarded {
                    info.ready_at = 500;
                }
                (v, info)
            }
            fn timing_access(
                &mut self,
                now: u64,
                pc: u64,
                info: &RouteInfo,
                write: bool,
            ) -> (u64, ServedLevel) {
                self.0.timing_access(now, pc, info, write)
            }
            fn exec_dma(
                &mut self,
                now: u64,
                k: DmaKind,
                lm: u64,
                sm: u64,
                bytes: u64,
                tag: u8,
            ) -> u64 {
                self.0.exec_dma(now, k, lm, sm, bytes, tag)
            }
            fn dma_synch(&mut self, now: u64, tag: u8) -> u64 {
                self.0.dma_synch(now, tag)
            }
            fn dir_configure(&mut self, b: u64) {
                self.0.dir_configure(b)
            }
            fn fetch_latency(&mut self, now: u64, addr: u64) -> u64 {
                self.0.fetch_latency(now, addr)
            }
        }
        let mut b = ProgramBuilder::new();
        b.li(Reg(1), 0x1000_0000);
        b.load(Reg(2), Reg(1), 0, Width::D, Route::Guarded);
        b.halt();
        let p = b.build();
        let mut core = Core::new(CoreConfig::default(), p, MemoryMap::default());
        let mut port = StallPort(MockPort::new());
        core.run(&mut port).unwrap();
        assert!(
            core.stats.cycles >= 500,
            "guarded load must wait for the presence bit"
        );
        assert_eq!(core.stats.presence_stalls, 1);
    }
}
