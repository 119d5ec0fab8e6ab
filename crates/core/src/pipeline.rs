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
use crate::sched::Scheduler;
use crate::stats::{level_index, phase_index, CoreStats};
use hsim_isa::inst::{Inst, Operand, Phase};
use hsim_isa::memmap::MemoryMap;
use hsim_isa::reg::{FReg, Reg};
use hsim_isa::{Program, Route, Width};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// What a deadlocked core looked like at the quiet tick that found it
/// with no next event: the core, the instruction wedged at the ROB head,
/// and the memory-side work still in flight
/// ([`MemoryPort::stall_diagnostics`]). Derived purely from the
/// architectural and timing state at that cycle, so the lockstep and
/// cycle-skipping loops produce *equal* reports — the skip-equivalence
/// suites compare them with `==`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockReport {
    /// Tile/core id of the stalled core.
    pub core: usize,
    /// PC of the ROB-head instruction, `None` if the ROB was empty
    /// (front-end wedge).
    pub rob_head_pc: Option<usize>,
    /// Rendered opcode of the ROB-head instruction.
    pub rob_head_op: String,
    /// Outstanding MSHR entries at the deadlock cycle.
    pub mshr_in_flight: usize,
    /// Bitmask of DMA tags still in flight at the deadlock cycle.
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
    /// A live core ticked quiet and has no next event: every wait it is
    /// in has no end, so it can never move again (a modeling deadlock).
    Deadlock {
        /// Cycle of the quiet tick that found it.
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
    /// Host seconds spent ticking cores.
    pub tick_secs: f64,
    /// Ticks executed.
    pub ticks: u64,
    /// Host seconds spent bulk-advancing core clocks over skipped cycles.
    pub advance_secs: f64,
    /// Bulk advances performed: one catch-up per wake-up of a core from
    /// a quiet tick, on one tile or many ([`Scheduler`]).
    pub advances: u64,
    /// Host seconds spent computing skip targets (the horizon scan).
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
pub(crate) fn timed<T>(on: bool, secs: &mut f64, count: &mut u64, f: impl FnOnce() -> T) -> T {
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

/// What one [`Core::tick_classified`] tick did, as the scheduler sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TickOutcome {
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

/// Functional-unit class; `as usize` indexes the per-class arrays.
#[derive(Clone, Copy, PartialEq, Eq)]
enum FuClass {
    IntAlu,
    FpAlu,
    Mem,
}

/// What memory disambiguation found the first time it looked at the
/// stores older than a load (see [`Core::load_disambiguate`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum Blocker {
    /// Not asked yet.
    #[default]
    Unasked,
    /// No older in-flight store overlaps the load; none ever will.
    Clear,
    /// The youngest older store that overlaps the load; `partial`
    /// unless it writes exactly the bytes the load reads.
    Store { seq: u64, partial: bool },
}

#[derive(Clone, Copy)]
struct MemOp {
    info: RouteInfo,
    width: Width,
    route: Route,
}

/// End of a consumer chain.
const NO_LINK: u32 = u32::MAX;

/// The hot half of an in-flight instruction: what dispatch, wakeup,
/// select and commit read for every entry. The ROB is a ring of these
/// indexed by slot (`seq & slot_mask`), written in place at dispatch and
/// left behind at commit; each fills one cache line of its own, so a
/// wakeup or select that looks at an entry touches one line, and the
/// 256 slots of Table 1's ROB take 16 KiB.
#[derive(Clone, Copy)]
#[repr(align(64))]
struct RobEntry {
    seq: u64,
    /// Latest `done_at` over the producers that had issued when this
    /// entry linked to them or was woken by them: once `pending` is
    /// zero, the cycle from which the operands are all available.
    ready_at: u64,
    /// Cycle the result is available (valid once issued).
    done_at: u64,
    pc: u32,
    /// Execution latency for non-memory instructions.
    latency: u32,
    /// Head of this entry's consumer chain: the entries waiting for it
    /// to issue, each link encoded `consumer slot << 2 | source slot`.
    /// A slot names its consumer for as long as the link exists: a
    /// linked consumer is in flight until it issues, and nothing is ever
    /// squashed.
    dep_head: u32,
    /// Per source slot (up to 3: e.g. dma-get reads 3 regs), the next
    /// link on that producer's consumer chain.
    dep_next: [u32; 3],
    /// The decode bits ([`decode`]) plus [`decode::MISPREDICTED`].
    flags: u16,
    state: EState,
    /// Source operands whose producer has not issued yet. At zero a
    /// `Waiting` entry is in `Core::ready`, `Core::wheel` or `Core::far`.
    pending: u8,
    fu: FuClass,
}

const _: () = assert!(std::mem::size_of::<RobEntry>() <= 64);

/// A slot no instruction has occupied yet.
const VACANT: RobEntry = RobEntry {
    seq: 0,
    ready_at: 0,
    done_at: 0,
    pc: 0,
    latency: 1,
    dep_head: NO_LINK,
    dep_next: [NO_LINK; 3],
    flags: 0,
    state: EState::Issued,
    pending: 0,
    fu: FuClass::IntAlu,
};

/// The cold half, in a slot-indexed array of its own: only loads and
/// stores, `dma-synch` and mispredicted control instructions write or
/// read it, each the fields its decode bits say it has.
#[derive(Clone, Default)]
struct ColdEntry {
    /// A load's or store's access.
    mem: Option<MemOp>,
    /// A load's disambiguation memo; a `Cell` because the horizon query,
    /// which only borrows the core, asks too.
    blocker: Cell<Blocker>,
    /// `dma-synch`: may not complete before this cycle.
    synch_until: u64,
    /// A mispredicted control instruction: where fetch restarts.
    redirect_to: usize,
    /// Producer sequence numbers per source slot, kept for the scan
    /// oracle the wakeup chains are tested against.
    #[cfg(test)]
    srcs: [Option<u64>; 3],
}

impl ColdEntry {
    /// The access of the load or store in this slot.
    #[inline]
    fn mem(&self) -> &MemOp {
        self.mem.as_ref().expect("a load or store has its access")
    }
}

/// The out-of-order core.
pub struct Core {
    pub(crate) cfg: CoreConfig,
    /// The program, decoded once: `pc` indexes it.
    decoded: Box<[Decoded]>,
    mmap: MemoryMap,

    // Architectural (functional) state.
    int_regs: [i64; 32],
    fp_regs: [f64; 32],
    arch_call_stack: Vec<u64>,

    // Front end.
    fetch_pc: usize,
    fetch_queue: VecDeque<(usize, usize)>,
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

    // Back end. The seqs `head_seq..next_seq` are in flight, entry `seq`
    // in slot `seq & slot_mask` of both halves.
    rob: Box<[RobEntry]>,
    cold: Box<[ColdEntry]>,
    head_seq: u64,
    next_seq: u64,
    last_writer_int: [Option<u64>; 32],
    last_writer_fp: [Option<u64>; 32],
    int_inflight: usize,
    fp_inflight: usize,
    loads_inflight: usize,
    stores_inflight: usize,
    /// `seq & slot_mask` is an in-flight entry's slot: the ROB size
    /// rounded up to a power of two, minus one.
    slot_mask: u64,
    /// Slots of the `Waiting` entries whose operands are available by
    /// the next select (`ready_at <= now` between ticks): the only
    /// entries select looks at.
    ready: SlotSet,
    /// Slots of the `Waiting` entries per [`FuClass`], operands ready or
    /// not: what select masks out of its walk once a class's units are
    /// spent.
    waiting: [SlotSet; 3],
    /// `Waiting` entries with no un-issued producer left whose operands
    /// arrive within the wheel's span, bucketed by that cycle:
    /// [`Core::issue`] moves the bucket of `now` into `ready`.
    wheel: WakeWheel,
    /// The same for operands further out (L3/DRAM misses, DMA waits),
    /// keyed `(ready_at, seq)`.
    far: BinaryHeap<Reverse<(u64, u64)>>,
    /// Seqs of the in-flight stores, oldest first.
    store_q: VecDeque<u64>,
    /// Which 8-byte granules the stores of `store_q` write.
    store_filter: StoreFilter,
    /// ROB entries the back end has looked up by seq or slot.
    #[cfg(test)]
    rob_visits: Cell<u64>,
    /// `store_q` entries disambiguation has walked over.
    #[cfg(test)]
    store_q_visits: Cell<u64>,
    /// Seqs the current cycle's select issued, in issue order.
    #[cfg(test)]
    selected: Vec<u64>,

    now: u64,
    cur_phase: Phase,
    halted: bool,
    /// Statistics.
    pub stats: CoreStats,
}

impl Core {
    /// Builds a core ready to execute `program` from PC 0.
    pub fn new(cfg: CoreConfig, program: Program, mmap: MemoryMap) -> Self {
        let slots = cfg.rob_size.next_power_of_two();
        // Slot links are `u32`s with two bits of source slot; pcs are
        // `u32`s.
        assert!(slots <= 1 << 29, "ROB of {} entries", cfg.rob_size);
        assert!(
            program.len() < u32::MAX as usize,
            "program of {} instructions",
            program.len()
        );
        Core {
            bp: BranchPredictor::new(
                cfg.gshare_entries,
                cfg.bimodal_entries,
                cfg.selector_entries,
                cfg.ghist_bits,
            ),
            btb: Btb::new(cfg.btb_entries, cfg.btb_ways),
            ras: Ras::new(cfg.ras_entries),
            slot_mask: slots as u64 - 1,
            ready: SlotSet::new(slots),
            waiting: [(); 3].map(|()| SlotSet::new(slots)),
            wheel: WakeWheel::new(slots),
            far: BinaryHeap::new(),
            store_q: VecDeque::with_capacity(cfg.lsq_stores),
            store_filter: StoreFilter::new(cfg.lsq_stores),
            fetch_queue: VecDeque::with_capacity(cfg.fetch_queue),
            cfg,
            decoded: program.insts.into_iter().map(decode).collect(),
            mmap,
            int_regs: [0; 32],
            fp_regs: [0.0; 32],
            arch_call_stack: Vec::new(),
            fetch_pc: 0,
            fetch_resume_at: 0,
            last_fetch_line: u64::MAX,
            pending_redirect: None,
            fetch_off: false,
            rob: vec![VACANT; slots].into(),
            cold: vec![ColdEntry::default(); slots].into(),
            head_seq: 0,
            next_seq: 0,
            last_writer_int: [None; 32],
            last_writer_fp: [None; 32],
            int_inflight: 0,
            fp_inflight: 0,
            loads_inflight: 0,
            stores_inflight: 0,
            #[cfg(test)]
            rob_visits: Cell::new(0),
            #[cfg(test)]
            store_q_visits: Cell::new(0),
            #[cfg(test)]
            selected: Vec::new(),
            now: 0,
            cur_phase: Phase::Other,
            halted: false,
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

    /// Runs to completion (or error): the one-tile case of the
    /// event-horizon [`Scheduler`]. After a quiet tick the core computes
    /// the earliest cycle at which anything can change and bulk-advances
    /// over the provably idle cycles in between. The result — every
    /// statistic, every port interaction, every error — is bit-identical
    /// to walking each cycle, which `CoreConfig::lockstep` still does.
    pub fn run(&mut self, port: &mut impl MemoryPort) -> Result<(), SimError> {
        let mut prof = HostProfile::default();
        Scheduler::default().run_until::<_, false>(&mut [(self, port)], u64::MAX, &mut prof)
    }

    /// Runs to completion like [`Core::run`], attributing host wall-clock
    /// time to the scheduler's phases in `prof`. The simulated outcome is
    /// identical to `run`; only host-side timing is added.
    pub fn run_profiled(
        &mut self,
        port: &mut impl MemoryPort,
        prof: &mut HostProfile,
    ) -> Result<(), SimError> {
        Scheduler::default().run_until::<_, true>(&mut [(self, port)], u64::MAX, prof)
    }

    /// Executes one tick and classifies it for the [`Scheduler`]: the one
    /// place that decides whether a core is busy or quiet. When
    /// [`Core::progress_certain`] holds, a commit or dispatch is
    /// guaranteed, the fingerprint must change, and both probes are
    /// skipped; otherwise the tick is bracketed by
    /// [`Core::progress_fingerprint`] probes. With `PROF` the tick's host
    /// time is charged to `prof`.
    #[inline(always)]
    pub(crate) fn tick_classified<const PROF: bool>(
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
    pub(crate) fn commit_ready(&self) -> bool {
        self.rob_head()
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
    pub(crate) fn progress_certain(&self) -> bool {
        self.commit_ready()
            || (!self.fetch_queue.is_empty()
                && self.rob_len() < self.cfg.rob_size
                && !self.dispatch_blocked())
    }

    /// A monotone counter that advances whenever a tick moves anything
    /// through the pipeline (fetch, dispatch, issue or commit). The
    /// run loops consult it to spend horizon scans only on cycles that
    /// did nothing — the cheap busy/idle discriminator of the
    /// cycle-skipping scheduler.
    pub(crate) fn progress_fingerprint(&self) -> u64 {
        self.stats.fetched + self.stats.dispatched + self.stats.issued + self.stats.committed
    }

    /// The earliest cycle at or after `now` at which *anything* in the
    /// pipeline can change: the ROB head completing (commit), a waiting
    /// instruction's operands becoming ready (issue), or the front end
    /// leaving an I-miss/redirect stall (fetch). Costs the blocked loads
    /// in `ready`, one wheel bucket and one heap peek — no ROB walk, no
    /// store-queue walk. Returns `now` itself
    /// whenever any stage may make progress this cycle — the
    /// conservative "don't skip" answer. Cycles strictly before the
    /// returned horizon are provable no-ops: no port traffic and no
    /// state change beyond the per-cycle stall accounting that
    /// [`Core::advance_to`] replicates in bulk. `u64::MAX` when nothing
    /// the core holds can ever change: the core is deadlocked.
    pub(crate) fn next_event_at(&self) -> u64 {
        let now = self.now;
        // Dispatch can drain the fetch queue whenever the ROB has room
        // and the head instruction clears the rename/LSQ gates. A head
        // blocked on those gates unblocks only when an inflight counter
        // drops — which happens at commit, already covered by the
        // ROB-head horizon below.
        if !self.fetch_queue.is_empty()
            && self.rob_len() < self.cfg.rob_size
            && !self.dispatch_blocked()
        {
            return now;
        }
        let mut horizon = u64::MAX;
        // Fetch wakes when the front end leaves its stall — if it has
        // an instruction (or an off-program pc) left to queue and
        // somewhere to put it.
        if !self.fetch_off
            && self.pending_redirect.is_none()
            && !self.fetch_parked()
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
        if let Some(head) = self.rob_head() {
            if head.state == EState::Issued {
                horizon = horizon.min(head.done_at.max(now));
            }
        }
        // An entry whose operands are ready can issue now, unless it is
        // a load blocked by memory disambiguation: that one unblocks
        // only when the older store issues or commits — both events of
        // their own, so the blocked load adds no horizon. The bucket of
        // `now` holds the keys that came due since the last select.
        if slots_of(&self.ready.words)
            .chain(slots_of(self.wheel.bucket(now)))
            .any(|slot| !self.is_blocked_load(slot))
        {
            return now;
        }
        // Entries whose producers have not all issued are in no list:
        // they wake through those producers' own horizons.
        if let Some(t) = self.wheel.next_after(now) {
            horizon = horizon.min(t);
        }
        match self.far.peek() {
            None => {}
            Some(&Reverse((ready_at, _))) if ready_at > now => horizon = horizon.min(ready_at),
            // Due keys count as ready; the heap does not order the rest,
            // so look at each.
            Some(_) => {
                for &Reverse((ready_at, seq)) in &self.far {
                    if ready_at > now {
                        horizon = horizon.min(ready_at);
                    } else if !self.is_blocked_load(self.slot(seq)) {
                        return now;
                    }
                }
            }
        }
        horizon
    }

    /// Whether the in-flight entry in `slot` is a load that memory
    /// disambiguation holds back this cycle.
    fn is_blocked_load(&self, slot: usize) -> bool {
        let slot = self.visit(slot);
        self.rob[slot].flags & decode::LOAD != 0
            && self.load_disambiguate(slot) == LoadPath::Blocked
    }

    /// The slot of in-flight entry `seq`, looked up by the back end
    /// (see [`Core::visit`]).
    #[inline(always)]
    fn rob_index(&self, seq: u64) -> usize {
        self.visit(self.slot(seq))
    }

    /// `slot`, whose entry the back end is about to examine. Every
    /// lookup of an entry by seq or slot goes through here, so the
    /// test-only visit count bounds the entries a tick or a horizon
    /// query examines.
    #[inline(always)]
    fn visit(&self, slot: usize) -> usize {
        #[cfg(test)]
        self.rob_visits.set(self.rob_visits.get() + 1);
        slot
    }

    /// The number of in-flight entries.
    #[inline(always)]
    fn rob_len(&self) -> usize {
        (self.next_seq - self.head_seq) as usize
    }

    /// The oldest in-flight entry.
    #[inline]
    fn rob_head(&self) -> Option<&RobEntry> {
        (self.head_seq != self.next_seq).then(|| &self.rob[self.slot(self.head_seq)])
    }

    #[inline]
    fn pc_addr(&self, pc: usize) -> u64 {
        self.mmap.pc_addr(pc)
    }

    /// The cycle-skipping target for the current state:
    /// [`Core::next_event_at`] clamped so the jump never crosses the
    /// cycle budget, whose error fires on the tick at `max_cycles - 1`;
    /// ticking exactly there keeps its cycle identical to the naive loop.
    /// `None` when the core has no next event. Nothing on the memory side
    /// is asked: every port call hands its completion back when it is
    /// made ([`MemoryPort`]), so the core's own horizon is complete.
    pub(crate) fn skip_target(&self) -> Option<u64> {
        let (horizon, budget) = (self.next_event_at(), self.cfg.max_cycles.saturating_sub(1));
        (horizon != u64::MAX).then(|| horizon.min(budget).max(self.now))
    }

    /// Bulk-advances the clock to `target`, accounting the skipped
    /// cycles exactly as the equivalent run of no-op [`Core::tick`]s
    /// would: per-cycle phase attribution, ROB-full and fetch-stall
    /// counters, no port traffic. Callers must only pass targets at or
    /// below [`Core::skip_target`] for the current state.
    pub(crate) fn advance_to(&mut self, target: u64) {
        if target <= self.now {
            return;
        }
        // The one bucket a skip can leave behind: loads due this cycle
        // that disambiguation blocks, which the horizon rightly ignored.
        self.wheel.drain_into(self.now, &mut self.ready);
        let delta = target - self.now;
        self.stats.phase_cycles[phase_index(self.cur_phase)] += delta;
        if self.rob_len() >= self.cfg.rob_size {
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
    pub(crate) fn tick(&mut self, port: &mut impl MemoryPort) -> Result<(), SimError> {
        self.commit(port);
        if self.halted {
            self.end_cycle();
            return Ok(());
        }
        self.issue(port);
        self.dispatch(port)?;
        self.fetch(port);
        self.end_cycle();
        if self.now >= self.cfg.max_cycles {
            return Err(SimError::CycleLimit);
        }
        Ok(())
    }

    /// The [`SimError::Deadlock`] of a core whose quiet tick at `cycle`
    /// left it with no next event, with the stall snapshot taken from the
    /// ROB head and the port's in-flight memory state at that cycle.
    /// State-derived only, so lockstep and skipping runs report
    /// identically.
    pub(crate) fn deadlock(&self, port: &impl MemoryPort, cycle: u64) -> SimError {
        let diag = port.stall_diagnostics(cycle);
        let (rob_head_pc, rob_head_op) = match self.rob_head() {
            Some(e) => (
                Some(e.pc as usize),
                format!("{:?}", self.decoded[e.pc as usize].inst),
            ),
            None => (None, String::new()),
        };
        SimError::Deadlock {
            cycle,
            report: Box::new(DeadlockReport {
                core: diag.core,
                rob_head_pc,
                rob_head_op,
                mshr_in_flight: diag.mshr_in_flight,
                dma_tags: diag.dma_tags,
            }),
        }
    }

    fn end_cycle(&mut self) {
        self.stats.phase_cycles[phase_index(self.cur_phase)] += 1;
        self.now += 1;
        self.stats.cycles = self.now;
    }

    // --------------------------------------------------------------- commit

    /// Retires up to the commit width of completed entries from the
    /// head: a retired entry's slot is simply left behind.
    fn commit(&mut self, port: &mut impl MemoryPort) {
        use decode::{COND_BRANCH, HALT, LOAD, PHASE, STORE, WRITES_FP, WRITES_INT};
        let mut committed = 0;
        let mut store_ports = self.cfg.ls_units;
        let mut last_store: Option<(u64, u64, MemSide)> = None; // (addr, width, side)
        while committed < self.cfg.commit_width {
            let Some(e) = self.rob_head() else { break };
            if e.state != EState::Issued || e.done_at > self.now {
                break;
            }
            let (flags, pc) = (e.flags, e.pc as usize);
            if flags & STORE != 0 && store_ports == 0 {
                break;
            }
            let slot = self.slot(self.head_seq);
            self.head_seq += 1;
            committed += 1;
            self.stats.committed += 1;
            if flags & LOAD != 0 {
                self.stats.loads += 1;
                self.loads_inflight -= 1;
            }
            if flags & WRITES_FP != 0 {
                self.stats.fp_ops += 1;
                self.fp_inflight -= 1;
            } else if flags & WRITES_INT != 0 {
                self.int_inflight -= 1;
            }
            if flags & COND_BRANCH != 0 {
                self.stats.branches += 1;
            }
            if flags & (LOAD | STORE) != 0 {
                let m = *self.cold[slot].mem();
                match m.route {
                    Route::Guarded => self.stats.guarded += 1,
                    Route::Oracle => self.stats.oracle_routed += 1,
                    Route::Plain => {}
                }
                if flags & STORE != 0 {
                    self.stats.stores += 1;
                    self.stores_inflight -= 1;
                    let oldest = self.store_q.pop_front();
                    debug_assert_eq!(oldest, Some(self.head_seq - 1), "stores commit in order");
                    self.store_filter.remove(m.info.addr, m.width.bytes());
                    store_ports -= 1;
                    let key = (m.info.addr, m.width.bytes(), m.info.side);
                    if last_store == Some(key) {
                        // Store collapsing: the LSQ merges the second
                        // store into the first — one cache access.
                        self.stats.collapsed_stores += 1;
                    } else {
                        let _ = port.timing_access(self.now, self.pc_addr(pc), &m.info, true);
                        last_store = Some(key);
                    }
                }
            }
            if flags & PHASE != 0 {
                if let Inst::PhaseMark { phase } = self.decoded[pc].inst {
                    self.cur_phase = phase;
                }
            }
            if flags & HALT != 0 {
                self.halted = true;
                return;
            }
        }
    }
}

mod decode;
mod frontend;
mod issue;
use decode::{decode, Decoded};
use issue::{slots_of, LoadPath, SlotSet, StoreFilter, WakeWheel};

#[cfg(test)]
mod oracle;
#[cfg(test)]
pub(crate) mod tests;
