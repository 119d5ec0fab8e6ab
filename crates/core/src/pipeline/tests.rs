//! Unit tests of the pipeline on a flat mock port.

use super::*;
use crate::port::ServedLevel;
use hsim_isa::inst::{AluOp, Cond};
use hsim_isa::ProgramBuilder;
use std::collections::HashMap;

/// A flat test port: all SM accesses hit a 4-cycle memory (or the
/// latency `latency_at` gives their address); LM window accesses
/// take 2 cycles; no directory.
pub(crate) struct MockPort {
    mem: HashMap<u64, u64>,
    mmap: MemoryMap,
    pub(crate) sm_latency: u64,
    pub(crate) latency_at: HashMap<u64, u64>,
    accesses: Vec<(u64, bool)>,
    timed: Vec<(u64, bool)>,
}

impl MockPort {
    pub(crate) fn new() -> Self {
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

    fn exec_dma(&mut self, now: u64, _k: DmaKind, _lm: u64, _sm: u64, bytes: u64, _tag: u8) -> u64 {
        now + 10 + bytes / 16
    }

    fn dma_synch(&mut self, now: u64, _tag: u8) -> u64 {
        now + 25
    }

    fn dir_configure(&mut self, _b: u64) {}

    fn fetch_latency(&mut self, _now: u64, _addr: u64) -> u64 {
        2
    }

    /// Every completion above went back to the core with its call, so
    /// every run on this port — the oracles' included — is a guard.
    fn next_mem_event_at(&self, _now: u64) -> Option<u64> {
        panic!("the core's horizon is complete; nothing asks the memory side")
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

/// A control target off the program — near, or at or past `u32::MAX` —
/// ends the run in `RanOffProgram` when the program really goes there,
/// never wrapping round to an instruction inside the program, and at
/// the same cycle with the same statistics whether cycles are skipped or
/// walked. An off-program pc fetched on a wrong path is flushed with it:
/// the loop's fall-through is fetched while the loop still runs.
#[test]
fn a_control_target_off_the_program_ends_in_ran_off_program() {
    for (src, cycle, committed, mispredicts) in [
        ("jmp @5\nhalt\n", 2, 0, 0),
        ("jmp @4294967296\nhalt\n", 2, 0, 0),
        ("call @4294967296\nhalt\n", 2, 0, 0),
        ("li r1, 1\nbeq r1, r1, @4294967297\nhalt\n", 9, 2, 1),
        ("li r1, 3\nadd r1, r1, -1\nbne r1, r0, @1\n", 26, 7, 3),
    ] {
        let run = |lockstep: bool| {
            let cfg = CoreConfig {
                max_cycles: 10_000,
                lockstep,
                ..CoreConfig::default()
            };
            let p = hsim_isa::asm::assemble(src).unwrap();
            let mut core = Core::new(cfg, p, MemoryMap::default());
            let r = core.run(&mut MockPort::new());
            (r, core)
        };
        let ((skip_r, skip), (lock_r, lock)) = (run(false), run(true));
        assert_eq!(skip_r, Err(SimError::RanOffProgram), "{src:?}");
        assert_eq!(lock_r, skip_r, "{src:?}");
        let mut norm = skip.stats.clone();
        norm.skipped_cycles = 0;
        assert_eq!(norm, lock.stats, "{src:?}");
        let s = &lock.stats;
        assert_eq!(
            (lock.now(), s.committed, s.mispredicts, lock.halted()),
            (cycle, committed, mispredicts, false),
            "{src:?}"
        );
    }
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

pub(crate) const SM: i64 = 0x1000_0000;

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
    // stays set in `ready` the whole time and must add no horizon:
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
        let e = core.in_flight().find(|e| e.pc as usize == pc);
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

    // The same wait cut short by the cycle budget: the error and its
    // cycle are the lockstep loop's.
    let budget = CoreConfig {
        max_cycles: 300,
        ..Default::default()
    };
    let (result, stats, _) = assert_skip_equivalent_on(slow_cell(500), budget, build);
    assert_eq!(result, Err(SimError::CycleLimit));
    assert_eq!(stats.cycles, 300);

    // A wait of a million cycles has an end, so it completes, and it
    // is one jump: the run makes the 500-cycle wait's bulk advances.
    let (result, stats, skipped) =
        assert_skip_equivalent_on(slow_cell(1_000_000), CoreConfig::default(), build);
    result.expect("a finite wait completes");
    assert_eq!(stats.lsq_forwards, 1);
    assert!(skipped > 999_000, "the wait is skipped ({skipped})");
    let advances = |latency| {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        let mut core = Core::new(CoreConfig::default(), b.build(), MemoryMap::default());
        let mut prof = HostProfile::default();
        core.run_profiled(&mut slow_cell(latency)(), &mut prof)
            .expect("the program halts");
        prof.advances
    };
    assert_eq!(advances(1_000_000), advances(500));
}

#[test]
fn a_full_rob_behind_one_load_costs_nothing_per_tick() {
    // One 10 000-cycle load, then enough dependent work to fill the
    // ROB: a chain of adds on its result, a store whose address
    // waits for it, sixteen more stores to other cells, and a ready
    // load of the first store's cell that stays blocked — the one
    // entry select has to look at. While the slow load is outstanding
    // a tick and a horizon query may examine the blocked load and the
    // store it remembers, never the waiting ROB and never the other
    // stores.
    let mut b = ProgramBuilder::new();
    b.li(Reg(1), SM);
    b.li(Reg(2), 9);
    b.ld(Reg(4), Reg(1), 64);
    b.store_x(Reg(2), Reg(1), Reg(4), 0, Width::D, Route::Plain);
    for k in 0..16 {
        b.st(Reg(2), Reg(1), 128 + 8 * k);
    }
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
    while core.rob_len() < cfg.rob_size || core.fetch_queue.len() < cfg.fetch_queue {
        core.tick(&mut port).unwrap();
    }
    assert_eq!(core.rob_head().unwrap().pc, 2);
    let load_done = core.rob_head().unwrap().done_at;
    assert!(load_done > 10_000);
    assert_eq!(core.store_q.len(), 17);
    for _ in 0..2_000 {
        let blocked = slots_of(&core.ready.words).count();
        assert_eq!(blocked, 1, "only the blocked load is ready");
        // Per blocked load: itself and the store it remembers.
        let bound = (cfg.issue_width + 2 * blocked) as u64;
        let before = core.rob_visits.get();
        core.tick(&mut port).unwrap();
        let tick_visits = core.rob_visits.get() - before;
        assert_eq!(core.rob_len(), cfg.rob_size);
        assert!(
            tick_visits <= bound,
            "a tick examined {tick_visits} ROB entries with {blocked} blocked load(s) ready"
        );
        let before = core.rob_visits.get();
        assert_eq!(core.next_event_at(), load_done);
        let horizon_visits = core.rob_visits.get() - before;
        assert!(
            horizon_visits <= bound,
            "next_event_at examined {horizon_visits} ROB entries"
        );
    }
    let blocked_load = core.in_flight().find(|e| e.pc == 20).unwrap().seq;
    assert_eq!(core.seqs_of(&core.ready.words).unwrap(), [blocked_load]);
    assert_eq!(core.wheel.occupied, 0);
    assert_eq!(core.far.len(), 2, "the first store and the first add");
}

#[test]
fn disambiguation_walks_the_store_queue_once_per_blocked_load() {
    // Behind one 10 000-cycle load: a full store queue — the oldest
    // store's address waits for the load, the others write distinct
    // lines —, a load of the oldest store's cell, blocked for the
    // duration, and a stream of loads to yet other lines. (All lines
    // are chosen clear of the store filter's false positives.)
    let cfg = CoreConfig {
        lockstep: true,
        ..Default::default()
    };
    let stores = cfg.lsq_stores as i64;
    let mut b = ProgramBuilder::new();
    b.li(Reg(1), SM);
    b.li(Reg(2), 9);
    b.ld(Reg(4), Reg(1), 64);
    b.store_x(Reg(2), Reg(1), Reg(4), 0, Width::D, Route::Plain);
    for k in 1..stores {
        b.st(Reg(2), Reg(1), 4096 + 64 * k);
    }
    b.ld(Reg(3), Reg(1), 0);
    for j in 0..40 {
        b.ld(Reg(5), Reg(1), (1 << 20) + 64 * j);
    }
    b.halt();
    let mut core = Core::new(cfg.clone(), b.build(), MemoryMap::default());
    let mut port = slow_cell(10_000)();
    // Until the slow load's return is the only event left.
    while core.rob_head().is_none_or(|e| e.pc != 2) || core.next_event_at() < 10_000 {
        core.tick(&mut port).unwrap();
    }
    assert_eq!(core.store_q.len(), cfg.lsq_stores);
    assert_eq!(core.stats.loads_timed, 41, "the stream's loads all issued");
    // The blocked load walked past every store to find the oldest;
    // the filter cleared the stream's loads without a walk.
    assert_eq!(
        core.store_q_visits.get(),
        cfg.lsq_stores as u64,
        "store_q visits: one walk for the blocked load, none for loads of other lines"
    );
    for _ in 0..2_000 {
        core.tick(&mut port).unwrap();
        assert!(core.next_event_at() > 10_000);
    }
    assert_eq!(
        core.store_q_visits.get(),
        cfg.lsq_stores as u64,
        "a load that stays blocked re-asks its memo, not the store queue"
    );
}

#[test]
fn a_skip_takes_the_blocked_loads_due_at_its_departure_cycle_along() {
    // Two loads of a cell whose store waits for a 300-cycle load. Their
    // index operands come from two divides issued a cycle apart, so
    // they come due in consecutive cycles, both blocked. The first's
    // tick is quiet, the horizon rightly ignores the second — due at
    // the very cycle the skip departs from, still in its wheel bucket —
    // and jumps to the slow load's return: the bucket must not stay
    // behind, or the second load would wake a wheel turn late.
    let build = |b: &mut ProgramBuilder| {
        b.li(Reg(1), SM);
        b.li(Reg(2), 7);
        b.li(Reg(5), 0);
        b.ld(Reg(9), Reg(1), 64); // 0, late
        b.alu(AluOp::Div, Reg(4), Reg(5), Reg(2)); // 0, after 20 cycles
        b.addi(Reg(8), Reg(5), 0);
        b.alu(AluOp::Div, Reg(6), Reg(8), Reg(2)); // 0, a cycle later
        b.store_x(Reg(2), Reg(1), Reg(9), 0, Width::D, Route::Plain);
        b.load_x(Reg(3), Reg(1), Reg(4), 0, Width::D, Route::Plain);
        b.load_x(Reg(7), Reg(1), Reg(6), 0, Width::D, Route::Plain);
        b.halt();
    };
    let (result, stats, skipped) =
        assert_skip_equivalent_on(slow_cell(300), CoreConfig::default(), build);
    result.expect("program must halt");
    assert!(stats.cycles > 300);
    assert!(skipped > 250, "the wait is skipped ({skipped})");

    // The same run by hand, to see the departure with a due bucket.
    let mut b = ProgramBuilder::new();
    build(&mut b);
    let mut core = Core::new(CoreConfig::default(), b.build(), MemoryMap::default());
    let mut port = slow_cell(300)();
    let mut prof = HostProfile::default();
    let mut departures_with_a_due_bucket = 0;
    while !core.halted() {
        let outcome = core.tick_classified::<false>(&mut port, &mut prof);
        core.check_against_scan().unwrap();
        if outcome.unwrap() == TickOutcome::Quiet {
            let target = core.skip_target().expect("the program halts");
            if target > core.now() && slots_of(core.wheel.bucket(core.now())).count() > 0 {
                departures_with_a_due_bucket += 1;
            }
            core.advance_to(target);
            core.check_against_scan().unwrap();
        }
    }
    assert_eq!(departures_with_a_due_bucket, 1);
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
fn a_memory_bound_run_never_asks_the_memory_side_for_a_horizon() {
    // Misses of 700 cycles with dependent work behind them, a DMA
    // transfer and its synch: every wait a port can cause, skipped on
    // the completions the calls returned ([`MockPort`] panics if asked
    // for more).
    let port = || {
        let mut port = MockPort::new();
        for k in 0..8 {
            port.latency_at.insert(SM as u64 + 4096 * k, 700);
        }
        port
    };
    let (result, stats, skipped) = assert_skip_equivalent_on(port, CoreConfig::default(), |b| {
        let top = b.new_label();
        b.li(Reg(1), SM);
        b.li(Reg(2), 0);
        b.li(Reg(3), 8);
        b.li(Reg(4), 0x7fff_0000_0000u64 as i64);
        b.li(Reg(5), 4096);
        b.bind(top);
        b.ld(Reg(6), Reg(1), 0);
        b.alu(AluOp::Add, Reg(7), Reg(7), Reg(6));
        b.st(Reg(7), Reg(1), 8);
        b.dma_get(Reg(4), Reg(1), Reg(5), 1);
        b.dma_synch(1);
        b.addi(Reg(1), Reg(1), 4096);
        b.addi(Reg(2), Reg(2), 1);
        b.branch(Cond::Lt, Reg(2), Reg(3), top);
        b.halt();
    });
    result.expect("program must halt");
    assert!(
        skipped * 10 > stats.cycles * 9,
        "memory-bound: {skipped} of {} cycles skipped",
        stats.cycles
    );
}

/// A [`MockPort`] whose `dma-synch` completes at cycle `until`.
pub(crate) struct FarSynch {
    pub(crate) port: MockPort,
    pub(crate) until: u64,
}

impl MemoryPort for FarSynch {
    fn exec_mem(
        &mut self,
        pc: u64,
        addr: u64,
        width: Width,
        route: Route,
        store: Option<u64>,
    ) -> (u64, RouteInfo) {
        self.port.exec_mem(pc, addr, width, route, store)
    }
    fn timing_access(
        &mut self,
        now: u64,
        pc: u64,
        info: &RouteInfo,
        write: bool,
    ) -> (u64, ServedLevel) {
        self.port.timing_access(now, pc, info, write)
    }
    fn exec_dma(&mut self, now: u64, k: DmaKind, lm: u64, sm: u64, bytes: u64, tag: u8) -> u64 {
        self.port.exec_dma(now, k, lm, sm, bytes, tag)
    }
    fn dma_synch(&mut self, _now: u64, _tag: u8) -> u64 {
        self.until
    }
    fn dir_configure(&mut self, b: u64) {
        self.port.dir_configure(b)
    }
    fn fetch_latency(&mut self, now: u64, addr: u64) -> u64 {
        self.port.fetch_latency(now, addr)
    }
}

/// `dma-synch 0` between two instructions.
fn synch_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.li(Reg(1), 1);
    b.dma_synch(0);
    b.halt();
    b.build()
}

#[test]
fn a_dma_synch_a_million_cycles_out_completes_in_one_jump() {
    // Nothing commits behind the synch for a million cycles. The wait
    // has an end, so the core is live: both loops run it to the halt,
    // and the skipping one crosses it in one bulk advance.
    let run = |lockstep: bool| {
        let cfg = CoreConfig {
            lockstep,
            ..Default::default()
        };
        let mut core = Core::new(cfg, synch_program(), MemoryMap::default());
        let mut port = FarSynch {
            port: MockPort::new(),
            until: 1_000_000,
        };
        let mut prof = HostProfile::default();
        core.run_profiled(&mut port, &mut prof)
            .expect("a finite wait completes");
        (core.stats, prof.advances)
    };
    let (mut skip, advances) = run(false);
    let (lock, _) = run(true);
    assert!(skip.cycles > 1_000_000);
    assert!(
        skip.skipped_cycles > 999_000,
        "the wait is jumped ({})",
        skip.skipped_cycles
    );
    assert!(advances <= 3, "{advances} bulk advances");
    assert_eq!(lock.skipped_cycles, 0);
    skip.skipped_cycles = 0;
    assert_eq!(skip, lock, "stats must be bit-identical");
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
        fn exec_dma(&mut self, now: u64, k: DmaKind, lm: u64, sm: u64, bytes: u64, tag: u8) -> u64 {
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
