//! The O(ROB) scans the event-driven issue stage replaced, kept as the
//! reference it is tested against: readiness re-derived per entry from
//! its producers, the horizon walk over every entry, disambiguation by
//! walking the ROB backwards, and select as an oldest-first walk of the
//! whole ROB. [`Core::check_against_scan`] compares them with the slot
//! sets, wake wheel, far heap, consumer chains, store queue, store
//! filter and blocker memos, and [`Core::scan_select`] predicts what
//! each cycle's select issues; the property below runs both on every
//! tick of generated programs.

use super::issue::WHEEL_SPAN;
use super::tests::MockPort;
use super::*;
use hsim_isa::inst::{AluOp, Cond, FpuOp};
use hsim_isa::ProgramBuilder;
use proptest::prelude::*;

impl Core {
    /// The in-flight entries, oldest first.
    pub(super) fn in_flight(&self) -> impl Iterator<Item = &RobEntry> {
        (self.head_seq..self.next_seq).map(|seq| &self.rob[self.slot(seq)])
    }

    /// In-flight entry `seq`, without counting a visit.
    fn entry(&self, seq: u64) -> &RobEntry {
        assert!((self.head_seq..self.next_seq).contains(&seq));
        &self.rob[self.slot(seq)]
    }

    /// Earliest cycle entry `seq`'s operands can all be ready: `None`
    /// while a producer has not issued, otherwise the latest `done_at`
    /// over its in-flight producers (0 when every producer committed).
    fn scan_operand_ready_at(&self, seq: u64) -> Option<u64> {
        let mut ready_at = 0u64;
        for &s in self.cold[self.slot(seq)].srcs.iter().flatten() {
            if s < self.head_seq {
                continue; // producer committed
            }
            let p = self.entry(s);
            if p.state != EState::Issued {
                return None;
            }
            ready_at = ready_at.max(p.done_at);
        }
        Some(ready_at)
    }

    /// Disambiguation by walking the ROB backwards from load `seq`, the
    /// stores in `issued_now` counting as issued.
    fn scan_load_disambiguate(&self, seq: u64, issued_now: &[u64]) -> LoadPath {
        let m = self.cold[self.slot(seq)].mem();
        let (a, w) = (m.info.addr, m.width.bytes());
        for j in (self.head_seq..seq).rev() {
            let s = self.entry(j);
            if s.flags & decode::STORE == 0 {
                continue;
            }
            let sm = self.cold[self.slot(j)].mem();
            let (sa, sw) = (sm.info.addr, sm.width.bytes());
            // Byte by byte, on the wrapping address space.
            if !(0..w).any(|k| a.wrapping_add(k).wrapping_sub(sa) < sw) {
                continue;
            }
            if s.state == EState::Waiting && !issued_now.contains(&s.seq) {
                return LoadPath::Blocked;
            }
            if sa == a && sw == w {
                return LoadPath::Forward;
            }
            return LoadPath::Blocked;
        }
        LoadPath::Memory
    }

    /// Select as it was before any structure: an oldest-first walk of
    /// the whole ROB under the issue width and the unit counts. Returns
    /// the seqs this cycle issues, in order.
    pub(super) fn scan_select(&self) -> Vec<u64> {
        let mut free = [self.cfg.int_alus, self.cfg.fp_alus, self.cfg.ls_units];
        let mut picked = Vec::new();
        for e in self.in_flight() {
            if picked.len() == self.cfg.issue_width {
                break;
            }
            if e.state != EState::Waiting
                || free[e.fu as usize] == 0
                || self
                    .scan_operand_ready_at(e.seq)
                    .is_none_or(|t| t > self.now)
                || (e.flags & decode::LOAD != 0
                    && self.scan_load_disambiguate(e.seq, &picked) == LoadPath::Blocked)
            {
                continue;
            }
            free[e.fu as usize] -= 1;
            picked.push(e.seq);
        }
        picked
    }

    /// `next_event_at` as it was: front-end terms, then a walk of the
    /// whole ROB.
    fn scan_next_event_at(&self) -> u64 {
        let now = self.now;
        if !self.fetch_queue.is_empty()
            && self.rob_len() < self.cfg.rob_size
            && !self.dispatch_blocked()
        {
            return now;
        }
        let mut horizon = u64::MAX;
        if !self.fetch_off
            && self.pending_redirect.is_none()
            && self.fetch_pc < self.decoded.len()
            && self.fetch_queue.len() < self.cfg.fetch_queue
        {
            horizon = horizon.min(self.fetch_resume_at.max(now));
        }
        for e in self.in_flight() {
            match e.state {
                EState::Issued => {
                    if e.seq == self.head_seq {
                        horizon = horizon.min(e.done_at.max(now));
                    }
                }
                EState::Waiting => {
                    let Some(ready_at) = self.scan_operand_ready_at(e.seq) else {
                        continue;
                    };
                    let ready_at = ready_at.max(now);
                    if ready_at <= now
                        && e.flags & decode::LOAD != 0
                        && self.scan_load_disambiguate(e.seq, &[]) == LoadPath::Blocked
                    {
                        continue;
                    }
                    horizon = horizon.min(ready_at);
                }
            }
        }
        horizon
    }

    /// The seq of the in-flight entry in `slot`, if one is.
    fn seq_in(&self, slot: usize) -> Option<u64> {
        let age = (slot as u64).wrapping_sub(self.head_seq) & self.slot_mask;
        (age < self.rob_len() as u64).then_some(self.head_seq + age)
    }

    /// The seqs of the in-flight entries whose slots are set in `words`,
    /// oldest first.
    pub(super) fn seqs_of(&self, words: &[u64]) -> Result<Vec<u64>, String> {
        let mut seqs = Vec::new();
        for slot in slots_of(words) {
            let Some(seq) = self.seq_in(slot) else {
                return Err(format!(
                    "cycle {}: slot {slot} is set but holds no in-flight entry",
                    self.now
                ));
            };
            seqs.push(seq);
        }
        seqs.sort_unstable();
        Ok(seqs)
    }

    /// Compares every event-driven structure with what the scans derive
    /// from the ROB at the current cycle.
    pub(super) fn check_against_scan(&self) -> Result<(), String> {
        let (now, head) = (self.now, self.head_seq);
        let fail = |what: &str, seq: u64| Err(format!("cycle {now}: {what} (seq {seq})"));

        // Where each operand-complete entry waits.
        let ready = self.seqs_of(&self.ready.words)?;
        let mut wheel = Vec::new();
        for at in now..now + WHEEL_SPAN {
            let bucket = self.seqs_of(self.wheel.bucket(at))?;
            if (self.wheel.occupied >> (at % WHEEL_SPAN) & 1 != 0) == bucket.is_empty() {
                return Err(format!(
                    "cycle {now}: the occupancy word is wrong about bucket {}",
                    at % WHEEL_SPAN
                ));
            }
            for seq in bucket {
                // The only cycle of `now..now + 64` that maps to this
                // bucket is `at`.
                if self.entry(seq).ready_at != at {
                    return fail("a wheel key is not in the bucket of its cycle", seq);
                }
                wheel.push(seq);
            }
        }
        let far: Vec<(u64, u64)> = self.far.iter().map(|r| r.0).collect();
        let mut listed: Vec<u64> = ready.clone();
        listed.extend(&wheel);
        listed.extend(far.iter().map(|&(_, seq)| seq));
        listed.sort_unstable();
        if listed.windows(2).any(|w| w[0] == w[1]) {
            return Err(format!("cycle {now}: an entry is listed twice: {listed:?}"));
        }

        let mut chained = 0usize;
        let mut selectable = Vec::new();
        let mut waiting: [Vec<u64>; 3] = Default::default();
        for (i, e) in self.in_flight().enumerate() {
            if e.seq != head + i as u64 {
                return fail("the slots do not hold the seqs in flight", e.seq);
            }
            let srcs = &self.cold[self.slot(e.seq)].srcs;
            if e.state == EState::Issued {
                if e.dep_head != NO_LINK || listed.binary_search(&e.seq).is_ok() {
                    return fail("an issued entry still has consumers or is listed", e.seq);
                }
                continue;
            }
            waiting[e.fu as usize].push(e.seq);
            // Every link on the chain is an in-flight consumer naming
            // this producer in that source slot.
            let mut link = e.dep_head;
            while link != NO_LINK {
                let (cslot, src) = ((link >> 2) as usize, (link & 3) as usize);
                let Some(cseq) = self.seq_in(cslot) else {
                    return fail("a chain link names a slot with no entry in flight", e.seq);
                };
                if self.cold[cslot].srcs[src] != Some(e.seq) {
                    return fail("a chain link names the wrong producer", cseq);
                }
                chained += 1;
                link = self.rob[cslot].dep_next[src];
            }
            let unissued = srcs
                .iter()
                .flatten()
                .filter(|&&s| s >= head && self.entry(s).state != EState::Issued)
                .count();
            if e.pending as usize != unissued {
                return fail("pending is not the count of un-issued producers", e.seq);
            }
            match self.scan_operand_ready_at(e.seq) {
                None => {
                    if unissued == 0 || listed.binary_search(&e.seq).is_ok() {
                        return fail("an entry with an un-issued producer is listed", e.seq);
                    }
                }
                Some(ready_at) => {
                    // A committed producer drops out of the scan's
                    // maximum, but only once its result is in the past.
                    if ready_at.max(now) != e.ready_at.max(now) {
                        return fail("ready_at disagrees with the scan", e.seq);
                    }
                    let in_ready = ready.binary_search(&e.seq).is_ok();
                    let in_wheel = wheel.contains(&e.seq);
                    let in_far = far.contains(&(e.ready_at, e.seq));
                    if [in_ready, in_wheel, in_far].iter().filter(|&&x| x).count() != 1
                        || (in_ready && e.ready_at > now)
                    {
                        return fail("an operand-complete entry is not listed once", e.seq);
                    }
                    if ready_at <= now {
                        selectable.push(e.seq);
                    }
                }
            }
            if e.flags & decode::LOAD != 0
                && e.pending == 0
                && self.load_disambiguate(self.slot(e.seq))
                    != self.scan_load_disambiguate(e.seq, &[])
            {
                return fail("memo'd disambiguation disagrees with the ROB walk", e.seq);
            }
        }
        let pending: usize = self.in_flight().map(|e| e.pending as usize).sum();
        if chained != pending {
            return Err(format!(
                "cycle {now}: {chained} chain links for {pending} pending operands"
            ));
        }
        for (class, want) in self.waiting.iter().zip(&waiting) {
            let got = self.seqs_of(&class.words)?;
            if got != *want {
                return Err(format!(
                    "cycle {now}: a class set holds {got:?}, the waiting entries of that class are {want:?}"
                ));
            }
        }

        let mut due = ready;
        due.extend(self.seqs_of(self.wheel.bucket(now))?);
        due.extend(far.iter().filter(|&&(t, _)| t <= now).map(|&(_, seq)| seq));
        due.sort_unstable();
        if due != selectable {
            return Err(format!(
                "cycle {now}: ready ∪ due keys {due:?} != scan's operand-ready set {selectable:?}"
            ));
        }

        let stores: Vec<u64> = self
            .in_flight()
            .filter(|e| e.flags & decode::STORE != 0)
            .map(|e| e.seq)
            .collect();
        if !self.store_q.iter().eq(stores.iter()) {
            return Err(format!(
                "cycle {now}: store_q {:?} != the ROB's stores {stores:?}",
                self.store_q
            ));
        }
        let mut recount = StoreFilter::new(self.cfg.lsq_stores);
        for &seq in &stores {
            let m = self.cold[self.slot(seq)].mem();
            recount.add(m.info.addr, m.width.bytes());
        }
        if recount.counts != self.store_filter.counts {
            return Err(format!(
                "cycle {now}: the store filter's counts are not a recount over store_q"
            ));
        }

        let (got, want) = (self.next_event_at(), self.scan_next_event_at());
        if got != want {
            return Err(format!(
                "cycle {now}: next_event_at {got} != the scan's {want}"
            ));
        }
        Ok(())
    }
}

/// One generated instruction. Register fields index small pools (so
/// dependences are dense), `cell`/`sub`/`width` pick an access inside
/// four adjacent 8-byte cells (so accesses of mixed widths alias).
#[derive(Clone, Debug)]
enum Op {
    Alu {
        op: u8,
        rd: u8,
        rs1: u8,
        rs2: u8,
    },
    Fpu {
        op: u8,
        fd: u8,
        fs1: u8,
        fs2: u8,
    },
    /// `late` routes the address through an index register that is zero
    /// but depends on pool register `late`: the address operand arrives
    /// whenever that register's producer completes.
    Mem {
        store: bool,
        fp: bool,
        reg: u8,
        cell: u8,
        sub: u8,
        width: u8,
        late: Option<u8>,
    },
    DmaGet {
        tag: u8,
    },
    DmaSynch {
        tag: u8,
    },
    /// A data-dependent forward branch over an increment of `a`.
    SkipIfEq {
        a: u8,
        b: u8,
    },
}

const BASE: i64 = 0x1000_0000;
const R_BASE: Reg = Reg(10);
const R_INDEX: Reg = Reg(11);
/// Never written: reads zero and has no producer.
const R_ZERO: Reg = Reg(14);
const R_LM: Reg = Reg(12);
const R_BYTES: Reg = Reg(13);
const R_ITER: Reg = Reg(20);
const R_ITERS: Reg = Reg(21);

fn pool(r: u8) -> Reg {
    Reg(1 + r % 6)
}

fn fpool(r: u8) -> FReg {
    FReg(1 + r % 4)
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let r = || 0u8..6;
    let alu =
        || (0u8..3, r(), r(), r()).prop_map(|(op, rd, rs1, rs2)| Op::Alu { op, rd, rs1, rs2 });
    let mem = || {
        (
            prop::bool::ANY,
            0u8..4,
            (r(), 0u8..4, 0u8..8, 0u8..3),
            0u8..12,
        )
            .prop_map(|(store, fp, (reg, cell, sub, width), late)| Op::Mem {
                store,
                fp: fp == 0,
                reg,
                cell,
                sub,
                width,
                late: (late < 6).then_some(late),
            })
    };
    // ALU and memory operations twice: they carry the dependences.
    prop_oneof![
        alu(),
        alu(),
        (0u8..3, r(), r(), r()).prop_map(|(op, fd, fs1, fs2)| Op::Fpu { op, fd, fs1, fs2 }),
        mem(),
        mem(),
        (0u8..2).prop_map(|tag| Op::DmaGet { tag }),
        (0u8..2).prop_map(|tag| Op::DmaSynch { tag }),
        (r(), r()).prop_map(|(a, b)| Op::SkipIfEq { a, b }),
    ]
}

fn emit(b: &mut ProgramBuilder, op: &Op) {
    match *op {
        Op::Alu { op, rd, rs1, rs2 } => {
            let op = [AluOp::Add, AluOp::Mul, AluOp::Div][op as usize];
            b.alu(op, pool(rd), pool(rs1), pool(rs2));
        }
        Op::Fpu { op, fd, fs1, fs2 } => {
            let op = [FpuOp::FAdd, FpuOp::FDiv, FpuOp::FSqrt][op as usize];
            b.fpu(op, fpool(fd), fpool(fs1), fpool(fs2));
        }
        Op::Mem {
            store,
            fp,
            reg,
            cell,
            sub,
            width,
            late,
        } => {
            let width = if fp {
                Width::D
            } else {
                [Width::B, Width::W, Width::D][width as usize]
            };
            let offset = (cell as u64 * 8 + (sub as u64 & !(width.bytes() - 1))) as i64;
            // Either index register holds zero; only `R_INDEX` has a
            // producer to wait for.
            let index = match late {
                Some(src) => {
                    b.alui(AluOp::And, R_INDEX, pool(src), 0);
                    R_INDEX
                }
                None => R_ZERO,
            };
            match (store, fp) {
                (false, false) => b.load_x(pool(reg), R_BASE, index, offset, width, Route::Plain),
                (true, false) => b.store_x(pool(reg), R_BASE, index, offset, width, Route::Plain),
                (false, true) => b.fload_x(fpool(reg), R_BASE, index, offset, Route::Plain),
                (true, true) => b.fstore_x(fpool(reg), R_BASE, index, offset, Route::Plain),
            }
        }
        Op::DmaGet { tag } => b.dma_get(R_LM, R_BASE, R_BYTES, tag),
        Op::DmaSynch { tag } => b.dma_synch(tag),
        Op::SkipIfEq { a, b: rb } => {
            let over = b.new_label();
            b.branch(Cond::Eq, pool(a), pool(rb), over);
            b.addi(pool(a), pool(a), 1);
            b.bind(over);
        }
    }
}

fn build_program(ops: &[Op], iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    b.li(R_BASE, BASE);
    b.li(R_LM, 0x7fff_0000_0000u64 as i64);
    b.li(R_BYTES, 256);
    for r in 0..6u8 {
        b.li(pool(r), 3 + r as i64);
    }
    b.li(R_ITER, 0);
    b.li(R_ITERS, iters);
    let top = b.new_label();
    b.bind(top);
    for op in ops {
        emit(&mut b, op);
    }
    b.addi(R_ITER, R_ITER, 1);
    b.branch(Cond::Lt, R_ITER, R_ITERS, top);
    b.halt();
    b.build()
}

/// Runs `program` to its halt, checking the structures against the scans
/// after every tick and every bulk advance.
fn run_checked(
    program: &Program,
    (rob_size, issue_width): (usize, usize),
    sm_latency: u64,
    slow_cell_latency: u64,
    lockstep: bool,
) -> Result<CoreStats, TestCaseError> {
    let cfg = CoreConfig {
        rob_size,
        issue_width,
        lockstep,
        ..Default::default()
    };
    let mut core = Core::new(cfg, program.clone(), MemoryMap::default());
    let mut port = MockPort::new();
    port.sm_latency = sm_latency;
    // The last cell is the long-latency one, whatever else the port does.
    for sub in 0..8 {
        port.latency_at
            .insert(BASE as u64 + 24 + sub, slow_cell_latency);
    }
    let mut prof = HostProfile::default();
    let check = |core: &Core| core.check_against_scan().map_err(TestCaseError::fail);
    while !core.halted() {
        let outcome = core
            .tick_classified::<false>(&mut port, &mut prof)
            .map_err(|e| TestCaseError::fail(format!("generated program failed: {e}")))?;
        check(&core)?;
        if !lockstep && outcome == TickOutcome::Quiet {
            let target = core.skip_target().expect("generated programs halt");
            core.advance_to(target);
            check(&core)?;
        }
    }
    Ok(core.stats.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn event_driven_issue_matches_the_scan(
        ops in prop::collection::vec(op_strategy(), 4..70),
        iters in 1i64..4,
        // Table 1's back end; a ROB that fills its ring of 64 slots
        // exactly, under a narrowed width; one that leaves slots unused.
        shape in prop_oneof![Just((224usize, 4usize)), Just((64usize, 2usize)), Just((40usize, 4usize))],
        // 64: a load's consumers wake 65 cycles out, one past the wheel.
        sm_latency in prop_oneof![Just(4u64), Just(35u64), Just(64u64), Just(260u64)],
        slow_cell_latency in prop_oneof![Just(4u64), Just(700u64)],
    ) {
        let program = build_program(&ops, iters);
        let lock = run_checked(&program, shape, sm_latency, slow_cell_latency, true)?;
        let mut skip = run_checked(&program, shape, sm_latency, slow_cell_latency, false)?;
        prop_assert_eq!(lock.skipped_cycles, 0);
        skip.skipped_cycles = 0;
        prop_assert_eq!(skip, lock);
    }
}
