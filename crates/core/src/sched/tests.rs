//! The scheduler on fake tiles: cores on mock ports, one of which never
//! completes its `dma-synch`.

use super::*;
use crate::config::CoreConfig;
use crate::pipeline::tests::{FarSynch, MockPort, SM};
use crate::stats::CoreStats;
use hsim_isa::inst::{AluOp, Cond};
use hsim_isa::memmap::MemoryMap;
use hsim_isa::reg::Reg;
use hsim_isa::{Program, ProgramBuilder};

/// A core on its own port, owned together.
struct FakeTile {
    core: Core,
    port: FarSynch,
}

impl Tile for FakeTile {
    type Port = FarSynch;
    fn parts(&mut self) -> (&mut Core, &mut FarSynch) {
        (&mut self.core, &mut self.port)
    }
}

/// Twenty dependent 300-cycle loads: a tile that sleeps most of its run.
fn sleeper() -> Program {
    let mut b = ProgramBuilder::new();
    let top = b.new_label();
    b.li(Reg(1), SM);
    b.li(Reg(2), 0);
    b.li(Reg(3), 20);
    b.bind(top);
    b.ld(Reg(4), Reg(1), 64);
    b.alu(AluOp::Add, Reg(1), Reg(1), Reg(4)); // + 0: the next address waits
    b.addi(Reg(2), Reg(2), 1);
    b.branch(Cond::Lt, Reg(2), Reg(3), top);
    b.halt();
    b.build()
}

/// `lis` register loads, then `dma-synch 0` and `halt`.
fn synch_after(lis: usize) -> Program {
    let mut b = ProgramBuilder::new();
    for i in 0..lis {
        b.li(Reg(1 + i as u8), 1);
    }
    b.dma_synch(0);
    b.halt();
    b.build()
}

/// A tile whose `dma-synch` completes at `until` and whose loads of
/// `SM + 64` take 300 cycles.
fn tile(program: Program, until: u64, lockstep: bool) -> FakeTile {
    let cfg = CoreConfig {
        lockstep,
        ..Default::default()
    };
    let mut port = MockPort::new();
    port.latency_at.insert(SM as u64 + 64, 300);
    FakeTile {
        core: Core::new(cfg, program, MemoryMap::default()),
        port: FarSynch { port, until },
    }
}

/// The machines: the stuck tile — `synch_after(1)` on a synch that never
/// completes — alone; among two sleepers at every rotation position; and
/// next to a tile that synchs one to three cycles earlier on a transfer
/// that completes, so its quiet tick ends a busy stretch in the cycle of
/// the stuck tile's last busy one. Returns each machine's stuck tile too.
fn machines(lockstep: bool) -> Vec<(Vec<FakeTile>, usize)> {
    let stuck = || tile(synch_after(1), u64::MAX, lockstep);
    let sleeper = || tile(sleeper(), u64::MAX, lockstep);
    let mut all = vec![(vec![stuck()], 0)];
    for at in 0..3 {
        let tiles = (0..3)
            .map(|i| if i == at { stuck() } else { sleeper() })
            .collect();
        all.push((tiles, at));
    }
    for lis in 0..3 {
        all.push((vec![tile(synch_after(lis), 500, lockstep), stuck()], 1));
    }
    all
}

/// Runs `tiles` in one call, or in `run_until` chunks of `chunk` cycles
/// until every core halts or one fails.
fn run(tiles: &mut [FakeTile], chunk: Option<u64>) -> Result<(), SimError> {
    let mut sched = Scheduler::default();
    let mut prof = HostProfile::default();
    let Some(chunk) = chunk else {
        return sched.run_until::<_, false>(tiles, u64::MAX, &mut prof);
    };
    let mut limit = 0;
    while !tiles.iter().all(|t| t.core.halted()) {
        limit += chunk;
        sched.run_until::<_, false>(tiles, limit, &mut prof)?;
    }
    Ok(())
}

/// Every tile's clock and statistics.
fn state(tiles: &[FakeTile]) -> Vec<(u64, CoreStats)> {
    tiles
        .iter()
        .map(|t| (t.core.now(), t.core.stats.clone()))
        .collect()
}

/// [`state`] with the skip accounting zeroed: what lock-step must match.
fn normalized(tiles: &[FakeTile]) -> Vec<(u64, CoreStats)> {
    let mut s = state(tiles);
    for (_, stats) in &mut s {
        stats.skipped_cycles = 0;
    }
    s
}

#[test]
fn a_wait_without_an_end_is_a_deadlock_at_its_quiet_tick() {
    let locks = machines(true);
    for (m, ((mut skip, stuck), (mut lock, _))) in
        machines(false).into_iter().zip(locks).enumerate()
    {
        let what = format!("machine {m} ({} tiles, tile {stuck} stuck)", skip.len());
        let err = run(&mut skip, None).expect_err("the synch never completes");
        let SimError::Deadlock { cycle, report } = &err else {
            panic!("{what}: must be a deadlock, got {err:?}");
        };
        // The quiet tick at `cycle` ran, so the stuck core's clock is
        // one past it, and the tick found the synch at the ROB head.
        assert_eq!(skip[stuck].core.now(), cycle + 1, "{what}");
        assert_eq!(report.rob_head_pc, Some(1), "{what}");
        assert!(report.rob_head_op.contains("DmaSynch"), "{what}: {report}");
        let shown = err.to_string();
        assert!(
            shown.contains("DmaSynch") && shown.contains("MSHR"),
            "{what}: Display carries the report: {shown}"
        );
        assert!(
            *cycle < 100,
            "{what}: reported when its last event drains ({cycle})"
        );

        assert_eq!(run(&mut lock, None), Err(err.clone()), "{what}: lock-step");
        assert_eq!(normalized(&skip), normalized(&lock), "{what}: every tile");

        for chunk in [1, 7, 250] {
            let (mut chunked, _) = machines(false).swap_remove(m);
            assert_eq!(
                run(&mut chunked, Some(chunk)),
                Err(err.clone()),
                "{what}: {chunk}-cycle chunks"
            );
            assert_eq!(
                state(&chunked),
                state(&skip),
                "{what}: {chunk}-cycle chunks, skip counters included"
            );
        }
    }
}

#[test]
fn live_tiles_sleeping_on_slow_loads_are_skipped_to_their_halt() {
    let machine = |lockstep| -> Vec<FakeTile> {
        (0..3)
            .map(|_| tile(sleeper(), u64::MAX, lockstep))
            .collect()
    };
    let (mut skip, mut lock) = (machine(false), machine(true));
    run(&mut skip, None).expect("every tile halts");
    run(&mut lock, None).expect("every tile halts");
    assert_eq!(normalized(&skip), normalized(&lock));
    for t in &skip {
        assert!(t.core.stats.skipped_cycles > 5_000, "the sleep is jumped");
    }
}
