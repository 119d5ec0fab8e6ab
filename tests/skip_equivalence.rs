//! Cycle-skipping equivalence: the event-horizon scheduler must be a
//! pure host-speed optimization. Every run here executes twice — once
//! with skipping (the default) and once with the `lockstep: true`
//! escape hatch — and every observable of the simulation must be
//! bit-identical: cycle counts, per-level hit counts, phase split,
//! backside bus waits, DRAM lines, energy, and the final memory image.
//!
//! The grids mirror the paper's row builders: the Figure 7
//! microbenchmark sweep, Figure 8's coherent-vs-oracle kernel runs, and
//! the Figure 9/10 hybrid-vs-cache comparison, on single-core and
//! 4-core machines in all three `SysMode`s — the multicore ones under
//! every `CoherenceProtocol`.

use hsim::compiler::compile;
use hsim::core::{DmaKind, MemoryPort, RouteInfo};
use hsim::prelude::*;
use hsim_bench::private_tables;
use hsim_workloads::nas;

mod common;
use common::Unskipped;

/// Runs `kernel` in `mode` both ways and checks the reports match.
/// Returns the skipping report for further assertions.
fn check_single(kernel: &hsim_compiler::Kernel, mode: SysMode) -> RunReport {
    let skip = RunSpec::new(kernel)
        .config(MachineConfig::for_mode(mode))
        .run()
        .map(RunOutcome::into_single)
        .expect("skip run");
    let lock = RunSpec::new(kernel)
        .config(MachineConfig::for_mode(mode).with_lockstep())
        .run()
        .map(RunOutcome::into_single)
        .expect("lockstep");
    assert_eq!(skip.unskipped(), lock, "{} {:?}", kernel.name, mode);
    skip
}

#[test]
fn fig7_microbench_grid_is_identical() {
    // The Figure 7 row builder's inputs: every microbenchmark mode at a
    // few guard percentages, on the coherent machine.
    let mut any_skipped = false;
    for mode in [
        MicroMode::Baseline,
        MicroMode::Rd,
        MicroMode::Wr,
        MicroMode::RdWr,
    ] {
        for pct in [0, 50, 100] {
            let k = microbench(&MicrobenchConfig {
                mode,
                guarded_pct: pct,
                n: 2048,
            });
            let r = check_single(&k, SysMode::HybridCoherent);
            any_skipped |= r.skipped_cycles > 0;
        }
    }
    assert!(any_skipped, "the grid must actually exercise skipping");
}

#[test]
fn fig8_rows_are_identical_for_coherent_and_oracle() {
    for k in [nas::is(Scale::Test), nas::cg(Scale::Test)] {
        let coherent = check_single(&k, SysMode::HybridCoherent);
        check_single(&k, SysMode::HybridOracle);
        assert!(
            coherent.skipped_cycles > 0,
            "{}: DMA-phased kernels must have skippable dead time",
            k.name
        );
    }
}

#[test]
fn cache_based_rows_are_identical() {
    check_single(&nas::is(Scale::Test), SysMode::CacheBased);
}

#[test]
fn final_memory_images_match_lockstep() {
    let kernel = nas::is(Scale::Test);
    for mode in SysMode::ALL {
        let ck = compile(&kernel, mode.codegen());
        let mut skip = Machine::for_kernel(MachineConfig::for_mode(mode), &ck, &kernel);
        skip.run().expect("skip run");
        let mut lock =
            Machine::for_kernel(MachineConfig::for_mode(mode).with_lockstep(), &ck, &kernel);
        lock.run().expect("lockstep run");
        for id in 0..kernel.arrays.len() {
            assert_eq!(
                skip.read_array(&ck, &kernel, id),
                lock.read_array(&ck, &kernel, id),
                "{:?}: array {id} image diverged",
                mode
            );
        }
    }
}

/// Every system mode under every inter-core protocol: the multicore
/// tests' configuration grid.
fn every_machine() -> impl Iterator<Item = MachineConfig> {
    SysMode::ALL.into_iter().flat_map(|mode| {
        CoherenceProtocol::ALL.map(|cm| MachineConfig::for_mode(mode).with_coherence(cm))
    })
}

#[test]
fn four_core_machines_are_identical_in_all_modes() {
    let kernel = nas::cg(Scale::Test);
    for cfg in every_machine() {
        let what = format!("cg x4 {:?} {:?}", cfg.mode, cfg.mem.coherence.mode);
        let skip = RunSpec::new(&kernel)
            .cores(4)
            .config(cfg.clone())
            .run()
            .map(RunOutcome::into_multi)
            .expect("4-core skip run");
        let lock = RunSpec::new(&kernel)
            .cores(4)
            .config(cfg.with_lockstep())
            .run()
            .map(RunOutcome::into_multi)
            .expect("4-core lockstep run");
        // Contention statistics included: both runs see the same
        // arbitration order through the jumped round-robin rotation.
        assert_eq!(skip.unskipped(), lock, "{what}");
    }
}

#[test]
fn four_core_mesi_machines_skip_bit_identically() {
    // The directory's message charges, back-invalidation queues and
    // owner-attributed write-backs all live inside access calls, so the
    // event-horizon scheduler must stay bit-identical under
    // `CoherenceProtocol::Mesi` too — on a grid that provably reaches the
    // directory (shared hits > 0).
    let kernel = nas::cg(Scale::Test);
    let cfg =
        MachineConfig::for_mode(SysMode::HybridCoherent).with_coherence(CoherenceProtocol::Mesi);
    let skip = RunSpec::new(&kernel)
        .cores(4)
        .config(cfg.clone())
        .run()
        .map(RunOutcome::into_multi)
        .expect("mesi skip run");
    let lock = RunSpec::new(&kernel)
        .cores(4)
        .config(cfg.with_lockstep())
        .run()
        .map(RunOutcome::into_multi)
        .expect("mesi lockstep run");
    assert_eq!(skip.unskipped(), lock, "mesi cg x4");
    assert!(
        skip.total(|c| c.coh_shared_hits) > 0,
        "the grid must actually exercise the directory"
    );
    assert!(
        skip.total(|c| c.skipped_cycles) > 0,
        "the mesi run must still skip idle cycles"
    );
}

// ---------------------------------------------------- heterogeneous tiles
//
// The hetero constructors must be pure generalizations: N identical
// configurations produce the homogeneous machine bit for bit, and mixed
// chips stay bit-identical under cycle skipping.

#[test]
fn identical_config_hetero_machine_is_bit_identical_to_homogeneous() {
    let kernel = nas::cg(Scale::Test);
    for cfg in every_machine() {
        let (mode, cm) = (cfg.mode, cfg.mem.coherence.mode);
        let homo = RunSpec::new(&kernel)
            .cores(4)
            .config(cfg.clone())
            .run()
            .map(RunOutcome::into_multi)
            .expect("homogeneous run");
        let cfgs = vec![cfg; 4];
        let hetero = RunSpec::new(&kernel)
            .hetero(cfgs.to_vec())
            .weights(&[1, 1, 1, 1])
            .run()
            .map(RunOutcome::into_multi)
            .expect("hetero run");
        assert_eq!(hetero.replication_fallbacks, 0, "{mode:?} {cm:?}");
        // Skip accounting included: both runs use the same scheduler.
        assert_eq!(hetero, homo, "hetero-identity {mode:?} {cm:?}");
    }
}

#[test]
fn mixed_hybrid_cache_chip_skips_bit_identically() {
    // A 2-hybrid/2-cache-based chip: per-tile horizons differ wildly
    // (DMA-phased hybrid tiles skip; cache tiles grind), so this is the
    // sharpest test of the per-tile due cycles and lazy clocks under
    // heterogeneity — under every coherence mode.
    let kernel = nas::cg(Scale::Test);
    for cm in CoherenceProtocol::ALL {
        let cfgs = |lockstep: bool| -> Vec<MachineConfig> {
            [
                SysMode::HybridCoherent,
                SysMode::HybridCoherent,
                SysMode::CacheBased,
                SysMode::CacheBased,
            ]
            .iter()
            .map(|&m| {
                let c = MachineConfig::for_mode(m).with_coherence(cm);
                if lockstep {
                    c.with_lockstep()
                } else {
                    c
                }
            })
            .collect()
        };
        let w = [1u64, 1, 1, 1];
        let skip = RunSpec::new(&kernel)
            .hetero(cfgs(false).to_vec())
            .weights(&w)
            .run()
            .map(RunOutcome::into_multi)
            .expect("skip");
        let lock = RunSpec::new(&kernel)
            .hetero(cfgs(true).to_vec())
            .weights(&w)
            .run()
            .map(RunOutcome::into_multi)
            .expect("lockstep");
        assert!(
            skip.total(|c| c.skipped_cycles) > 0,
            "{cm:?}: the hybrid tiles must still skip idle cycles"
        );
        assert_eq!(skip.unskipped(), lock, "mixed chip {cm:?}");
        assert!(skip.is_mixed_chip());
        assert_eq!(
            skip.mode_summary(),
            "2xHybrid coherent + 2xCache-based",
            "{cm:?}: mode census"
        );
    }
}

// ------------------------------------------------------- pinned cycles
//
// Recorded cycle counts of the default (banked, row-aware) backside
// on private tables: a single machine registers no shared range, and
// the 4-core run clears its shards' `shared` marks, so no line is
// directory-tracked and the goldens hold under every protocol. An
// unintended timing change of the model every experiment runs shows up
// here first; an intended one re-records these constants (and the
// committed `BENCH_*.json`).

/// A default-backside machine.
fn pinned(mode: SysMode) -> MachineConfig {
    MachineConfig::for_mode(mode)
}

/// Recorded cycles of the Figure 7 grid (HybridCoherent, n = 2048).
const FIG7_CYCLES: &[(MicroMode, u32, u64)] = &[
    (MicroMode::Baseline, 0, 36083),
    (MicroMode::Baseline, 50, 36083),
    (MicroMode::Baseline, 100, 36083),
    (MicroMode::Rd, 0, 36083),
    (MicroMode::Rd, 50, 36083),
    (MicroMode::Rd, 100, 36090),
    (MicroMode::Wr, 0, 36083),
    (MicroMode::Wr, 50, 37133),
    (MicroMode::Wr, 100, 40851),
    (MicroMode::RdWr, 0, 36083),
    (MicroMode::RdWr, 50, 37133),
    (MicroMode::RdWr, 100, 40863),
];

#[test]
fn banked_backside_pins_fig7_grid_cycles() {
    for &(mode, pct, want) in FIG7_CYCLES {
        let k = microbench(&MicrobenchConfig {
            mode,
            guarded_pct: pct,
            n: 2048,
        });
        let cfg = pinned(SysMode::HybridCoherent);
        let r = RunSpec::new(&k)
            .config(cfg.clone())
            .run()
            .map(RunOutcome::into_single)
            .expect("pinned run");
        assert_eq!(r.cycles, want, "({mode:?}, {pct}%): recorded cycles");
        let lock = RunSpec::new(&k)
            .config(cfg.with_lockstep())
            .run()
            .map(RunOutcome::into_single)
            .expect("pinned lockstep");
        assert_eq!(r.unskipped(), lock, "pinned {mode:?} {pct}%");
    }
}

#[test]
fn banked_backside_pins_fig8_kernel_cycles() {
    // (kernel index, mode, recorded cycles) for the Figure 8 row
    // builders.
    let want: &[(usize, SysMode, u64)] = &[
        (0, SysMode::HybridCoherent, 319273),
        (0, SysMode::HybridOracle, 304451),
        (1, SysMode::HybridCoherent, 123197),
        (1, SysMode::HybridOracle, 123197),
    ];
    let kernels = [nas::is(Scale::Test), nas::cg(Scale::Test)];
    for &(ki, mode, cycles) in want {
        let r = RunSpec::new(&kernels[ki])
            .config(pinned(mode))
            .run()
            .map(RunOutcome::into_single)
            .expect("pinned run");
        assert_eq!(
            r.cycles, cycles,
            "{} {mode:?}: recorded cycles",
            kernels[ki].name
        );
    }
}

#[test]
fn banked_backside_pins_four_core_cg_runs() {
    // Recorded 4-core CG runs: (mode, makespan, per-core cycles, total
    // bus waits).
    let want: &[(SysMode, u64, [u64; 4], u64)] = &[
        (
            SysMode::HybridCoherent,
            96070,
            [94410, 96049, 93441, 96070],
            372,
        ),
        (
            SysMode::HybridOracle,
            96070,
            [94410, 96049, 93441, 96070],
            372,
        ),
        (
            SysMode::CacheBased,
            239023,
            [238413, 239023, 238593, 238437],
            78686,
        ),
    ];
    let shards = private_tables(nas::cg(Scale::Test).shard(4).expect("CG shards to 4"));
    for &(mode, makespan, per_core, bus_waits) in want {
        let cfg = pinned(mode);
        let r = RunSpec::many(&shards)
            .config(cfg.clone())
            .run()
            .map(RunOutcome::into_multi)
            .expect("pinned 4-core run");
        assert_eq!(r.makespan, makespan, "{mode:?}: makespan");
        let got: Vec<u64> = r.per_core.iter().map(|c| c.cycles).collect();
        assert_eq!(got, per_core, "{mode:?}: per-core cycles");
        assert_eq!(
            r.total(|c| c.bus_wait_cycles),
            bus_waits,
            "{mode:?}: bus waits"
        );
        let lock = RunSpec::many(&shards)
            .config(cfg.with_lockstep())
            .run()
            .map(RunOutcome::into_multi)
            .expect("pinned lockstep");
        assert_eq!(r.unskipped(), lock, "pinned cg x4 {mode:?}");
    }
}

#[test]
fn banked_backside_runs_differ_from_flat_but_partition_stats() {
    // Sanity that the default (banked, row-aware) backside is actually
    // live: it must produce row-classified DRAM traffic, and per-core
    // shares must still partition the shared totals exactly.
    let kernel = nas::cg(Scale::Test);
    for cm in CoherenceProtocol::ALL {
        let r = RunSpec::new(&kernel)
            .cores(4)
            .config(MachineConfig::for_mode(SysMode::HybridCoherent).with_coherence(cm))
            .run()
            .map(RunOutcome::into_multi)
            .expect("banked 4-core run");
        let classified: u64 = r
            .per_core
            .iter()
            .map(|c| c.dram_row_hits + c.dram_row_misses + c.dram_row_conflicts)
            .sum();
        assert!(classified > 0, "{cm:?}: banked backside must classify rows");
        let timed_reads: u64 = r.per_core.iter().map(|c| c.dram_reads).sum();
        let drains: u64 = r.per_core.iter().map(|c| c.dram_queue_stalls).sum();
        assert!(
            classified <= timed_reads + drains,
            "{cm:?}: row classification covers timed reads and drained writes \
             only (DMA lines are not classified)"
        );
    }
}

#[test]
fn cycle_limit_fires_at_the_same_cycle() {
    // A machine that cannot finish within the budget must report the
    // limit after the same number of simulated cycles either way.
    let kernel = nas::cg(Scale::Test);
    let ck = compile(&kernel, SysMode::HybridCoherent.codegen());
    let run = |lockstep: bool| {
        let mut cfg = MachineConfig::for_mode(SysMode::HybridCoherent);
        cfg.core.max_cycles = 5_000;
        if lockstep {
            cfg = cfg.with_lockstep();
        }
        let mut m = Machine::for_kernel(cfg, &ck, &kernel);
        let err = m.run().expect_err("5k cycles cannot finish CG");
        (err, m.core.stats.cycles)
    };
    let (skip_err, skip_cycles) = run(false);
    let (lock_err, lock_cycles) = run(true);
    assert_eq!(skip_err, hsim::core::pipeline::SimError::CycleLimit);
    assert_eq!(skip_err, lock_err);
    assert_eq!(skip_cycles, lock_cycles, "limit must fire at one cycle");
}

/// `kernel` sharded over `cores` tiles of `cfg`, each shard compiled for
/// its tile.
fn sharded(kernel: &hsim_compiler::Kernel, cores: usize, cfg: &MachineConfig) -> MultiMachine {
    let shards: Vec<_> = kernel
        .shard(cores)
        .expect("the kernel shards")
        .into_iter()
        .map(|k| (compile_for_tile(&k, cfg), k))
        .collect();
    MultiMachine::for_kernels(cfg.clone(), &shards)
}

/// Every tile's `(cycle, committed instructions)`.
fn tile_clocks(m: &MultiMachine) -> Vec<(u64, u64)> {
    m.tiles
        .iter()
        .map(|t| (t.core.now(), t.core.stats.committed))
        .collect()
}

#[test]
fn multicore_errors_leave_every_tile_where_lockstep_does() {
    // The multicore twin of `cycle_limit_fires_at_the_same_cycle`: a
    // failing run must stop every tile on the cycle lock-step stops it,
    // including the tiles whose clocks the scheduler had not yet caught
    // up. The limits fail different tiles, early and late in the run.
    use hsim::core::pipeline::SimError;
    let kernel = nas::cg(Scale::Test);
    for (cm, limit) in CoherenceProtocol::ALL
        .into_iter()
        .flat_map(|cm| [5_000, 5_001, 5_002, 7_777].map(|limit| (cm, limit)))
    {
        let run = |lockstep: bool| {
            let mut cfg = MachineConfig::for_mode(SysMode::HybridCoherent).with_coherence(cm);
            cfg.core.max_cycles = limit;
            if lockstep {
                cfg = cfg.with_lockstep();
            }
            let mut m = sharded(&kernel, 4, &cfg);
            let err = m.run().expect_err("CG cannot finish within the budget");
            (err, tile_clocks(&m))
        };
        let what = format!("{cm:?} limit {limit}");
        let skip = run(false);
        assert_eq!(skip.0, SimError::CycleLimit, "{what}");
        assert_eq!(skip, run(true), "{what}: (error, per-tile clocks)");
    }
    // Every live tile reaches a cycle limit on the same cycle, so only a
    // program error can fail a tile that is not first in its cycle's
    // rotation: tile 2 spins, then returns without a call, while the
    // others sleep on a chain of dependent DRAM misses. The spin counts
    // put tile 2 at every rotation position.
    let sleeper = hsim::isa::asm::assemble(&format!(
        "
        li r1, {base}
        li r2, 0
        li r3, 64
    top:
        ld.d r4, 0(r1)
        add r1, r1, r4
        addi r1, r1, 8192
        addi r2, r2, 1
        blt r2, r3, top
        halt
        ",
        base = hsim::isa::memmap::DATA_BASE,
    ))
    .expect("assembles");
    for cm in CoherenceProtocol::ALL {
        let mut positions = Vec::new();
        for spins in 1000..1004 {
            let faulty = hsim::isa::asm::assemble(&format!(
                "
            li r2, 0
            li r3, {spins}
        spin:
            addi r2, r2, 1
            blt r2, r3, spin
            ret
            halt
            "
            ))
            .expect("assembles");
            let run = |lockstep: bool| {
                let mut cfg = MachineConfig::for_mode(SysMode::CacheBased).with_coherence(cm);
                if lockstep {
                    cfg = cfg.with_lockstep();
                }
                let mut programs = vec![sleeper.clone(); 4];
                programs[2] = faulty.clone();
                let mut m = Machine::new_multi_hetero(vec![cfg; 4], programs);
                let err = m.run().expect_err("tile 2 returns without a call");
                (err, tile_clocks(&m))
            };
            let what = format!("{cm:?} {spins} spins");
            let skip = run(false);
            assert_eq!(skip.0, SimError::RetWithoutCall { pc: 4 }, "{what}");
            assert_eq!(skip, run(true), "{what}: (error, per-tile clocks)");
            // The error cuts tile 2's cycle short, so its clock names it.
            let cycle = skip.1[2].0;
            positions.push((2 + 4 - cycle % 4) % 4);
        }
        positions.sort();
        assert_eq!(
            positions,
            [0, 1, 2, 3],
            "{cm:?}: tile 2's rotation positions"
        );
    }
}

#[test]
fn lazy_tile_clocks_advance_only_on_a_wake_up() {
    // A tile's clock moves in bulk only when it wakes from a quiet tick,
    // whose horizon scan set the wake-up cycle: never because another
    // tile executed a cycle. (Advancing every idle tile at every other
    // tile's cycle costs many advances per scan.)
    let kernel = nas::cg(Scale::Test);
    for (cm, cores) in CoherenceProtocol::ALL
        .into_iter()
        .flat_map(|cm| [4, 8].map(|cores| (cm, cores)))
    {
        let cfg = MachineConfig::for_mode(SysMode::HybridCoherent).with_coherence(cm);
        let mut m = sharded(&kernel, cores, &cfg);
        let mut prof = hsim::core::HostProfile::default();
        m.run_profiled(&mut prof).expect("the kernel halts");
        assert!(prof.advances > 0, "cg x{cores} {cm:?}: no tile ever slept");
        assert!(
            prof.advances <= prof.horizon_scans,
            "cg x{cores} {cm:?}: {} bulk advances for {} horizon scans",
            prof.advances,
            prof.horizon_scans
        );
    }
}

/// One timed port call: the cycle it was made at, which call, the
/// address (or DMA tag) it named, and the latency or completion cycle
/// the memory side handed back.
type PortCall = (u64, &'static str, u64, u64);

/// The real [`World`](hsim::World) behind a port that logs every call
/// that returns a completion — and refuses to be asked for a
/// memory-side horizon: those completions are all a core ever waits
/// for.
struct TracingPort {
    world: hsim::World,
    log: Vec<PortCall>,
}

impl MemoryPort for TracingPort {
    fn exec_mem(
        &mut self,
        pc: u64,
        addr: u64,
        width: hsim::isa::Width,
        route: Route,
        store: Option<u64>,
    ) -> (u64, RouteInfo) {
        self.world.exec_mem(pc, addr, width, route, store)
    }

    fn timing_access(
        &mut self,
        now: u64,
        pc: u64,
        info: &RouteInfo,
        write: bool,
    ) -> (u64, hsim::mem::Level) {
        let (lat, served) = self.world.timing_access(now, pc, info, write);
        let call = if write { "store" } else { "load" };
        self.log.push((now, call, info.addr, lat));
        (lat, served)
    }

    fn exec_dma(&mut self, now: u64, kind: DmaKind, lm: u64, sm: u64, bytes: u64, tag: u8) -> u64 {
        let done = self.world.exec_dma(now, kind, lm, sm, bytes, tag);
        let call = match kind {
            DmaKind::Get => "dma-get",
            DmaKind::Put => "dma-put",
        };
        self.log.push((now, call, sm, done));
        done
    }

    fn dma_synch(&mut self, now: u64, tag: u8) -> u64 {
        let until = self.world.dma_synch(now, tag);
        self.log.push((now, "dma-synch", tag as u64, until));
        until
    }

    fn dir_configure(&mut self, buf_size: u64) {
        self.world.dir_configure(buf_size)
    }

    fn fetch_latency(&mut self, now: u64, pc_addr: u64) -> u64 {
        let lat = self.world.fetch_latency(now, pc_addr);
        self.log.push((now, "fetch", pc_addr, lat));
        lat
    }

    fn next_mem_event_at(&self, _now: u64) -> Option<u64> {
        panic!("the core's horizon is complete; nothing asks the memory side")
    }
}

#[test]
fn every_port_call_lands_on_the_same_cycle_without_a_memory_side_horizon() {
    // The end-of-run reports above cannot tell a call that moved by a
    // cycle and was absorbed; the call-by-call log can. Hybrid tiles
    // bring DMA, guarded accesses and presence stalls, the cache-based
    // tile under MESI the miss-bound stream.
    let systems = [
        MachineConfig::for_mode(SysMode::HybridCoherent),
        MachineConfig::for_mode(SysMode::CacheBased).with_coherence(CoherenceProtocol::Mesi),
    ];
    for kernel in [nas::cg(Scale::Test), nas::is(Scale::Test)] {
        for cfg in &systems {
            let ck = compile(&kernel, cfg.mode.codegen());
            let trace = |cfg: MachineConfig| {
                let Machine {
                    mut core, world, ..
                } = Machine::for_kernel(cfg, &ck, &kernel);
                let mut port = TracingPort {
                    world,
                    log: Vec::new(),
                };
                core.run(&mut port).expect("the kernel halts");
                (port.log, core.stats.skipped_cycles)
            };
            let what = format!("{} {:?}", kernel.name, cfg.mode);
            let (skip, skipped) = trace(cfg.clone());
            let (lock, _) = trace(cfg.clone().with_lockstep());
            assert!(skipped > 0, "{what}: nothing was skipped");
            assert_eq!(skip.len(), lock.len(), "{what}: port calls made");
            for (i, (s, l)) in skip.iter().zip(&lock).enumerate() {
                assert_eq!(s, l, "{what}: port call {i} (cycle, call, address, result)");
            }
            for call in ["load", "store", "fetch"] {
                assert!(skip.iter().any(|c| c.1 == call), "{what}: no {call}");
            }
            if cfg.mode == SysMode::HybridCoherent {
                for call in ["dma-get", "dma-synch"] {
                    assert!(skip.iter().any(|c| c.1 == call), "{what}: no {call}");
                }
            }
        }
    }
}
