//! Fault injection and recovery: the robustness contracts.
//!
//! The fault plan ([`FaultConfig`]) must be a *pure timing
//! perturbation*, deterministic in its seed:
//!
//! 1. **Timing-only** — final memory images, committed instruction
//!    counts and coherence cleanliness are identical at any fault rate;
//!    injected DRAM errors, DMA timeouts and directory NACKs only move
//!    cycles around.
//! 2. **Skip-invisible** — the event-horizon scheduler and the naive
//!    per-cycle loop agree on every observable *with faults injected*:
//!    every injected delay lands inside a backside horizon.
//! 3. **Zero-rate transparency** — `FaultConfig::none()` (with any
//!    seed) is bit-identical to a machine with no plan at all.
//! 4. **Deterministic** — equal seeds replay equal fault sequences,
//!    regardless of host threading (clustered runs included).
//!
//! Plus the degradation contracts of clustered runs: a panic inside one
//! cluster's driver, or a cluster that exhausts its cycle budget,
//! fails only that cluster with a structured [`ClusterFailure`]
//! carrying the surviving clusters' reports.

use hsim::cluster::{run_clusters, ClusterConfig, ClusterTopology};
use hsim::compiler::compile;
use hsim::core::SimError;
use hsim::experiments::MultiRunError;
use hsim::machine::MultiMachine;
use hsim::prelude::*;
use hsim_workloads::nas;
use proptest::prelude::*;

/// Full-report equality, bit for bit: core stats (skip counters
/// included), every backside counter, the recovery counters and the
/// energy bits.
fn assert_reports_identical(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.core, b.core, "{what}: core stats");
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.skipped_cycles, b.skipped_cycles, "{what}: skipped");
    assert_eq!(a.committed, b.committed, "{what}: committed");
    assert_eq!(a.amat.to_bits(), b.amat.to_bits(), "{what}: AMAT");
    assert_eq!(a.l1_accesses, b.l1_accesses, "{what}: L1");
    assert_eq!(a.l2_accesses, b.l2_accesses, "{what}: L2");
    assert_eq!(a.l3_accesses, b.l3_accesses, "{what}: L3");
    assert_eq!(a.lm_accesses, b.lm_accesses, "{what}: LM");
    assert_eq!(a.bus_requests, b.bus_requests, "{what}: bus requests");
    assert_eq!(a.bus_wait_cycles, b.bus_wait_cycles, "{what}: bus waits");
    assert_eq!(a.dram_reads, b.dram_reads, "{what}: DRAM reads");
    assert_eq!(a.dram_writes, b.dram_writes, "{what}: DRAM writes");
    assert_eq!(a.dram_row_hits, b.dram_row_hits, "{what}: row hits");
    assert_eq!(a.ecc_retries, b.ecc_retries, "{what}: ECC retries");
    assert_eq!(a.dma_retries, b.dma_retries, "{what}: DMA retries");
    assert_eq!(a.dir_nacks, b.dir_nacks, "{what}: dir NACKs");
    assert_eq!(a.escalations, b.escalations, "{what}: escalations");
    assert_eq!(
        a.energy_total().to_bits(),
        b.energy_total().to_bits(),
        "{what}: energy"
    );
}

/// A random but well-formed kernel: 1-2 arrays, one loop with a mix of
/// strided read-modify-writes, scalar accumulates, indirect scatters
/// and copies — enough aliasing variety to exercise guarded accesses,
/// DMA traffic and the backside under faults.
fn arb_kernel() -> impl Strategy<Value = Kernel> {
    (
        2u64..300,                           // n
        1usize..3,                           // value arrays
        prop::collection::vec(0u8..4, 1..4), // statement shapes
        any::<u64>(),                        // data seed
    )
        .prop_map(|(n, n_arrays, shapes, seed)| {
            let mut kb = KernelBuilder::new("fault-prop");
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let arrays: Vec<_> = (0..n_arrays)
                .map(|k| {
                    let init: Vec<i64> = (0..n + 2).map(|_| (next() % 1000) as i64).collect();
                    kb.array_i64_init(&format!("a{k}"), &init)
                })
                .collect();
            let idx_init: Vec<i64> = (0..n).map(|_| (next() % n) as i64).collect();
            let idx = kb.array_i64_init("idx", &idx_init);
            let scal = kb.array_i64_init("s", &[3, 5]);
            kb.begin_loop(n);
            let ridx = kb.ref_affine(idx, 1, 0);
            for (si, shape) in shapes.iter().enumerate() {
                let a = arrays[si % arrays.len()];
                match shape {
                    0 => {
                        let r0 = kb.ref_affine(a, 1, 0);
                        let r1 = kb.ref_affine(a, 1, (si as i64 % 3).min(2));
                        kb.stmt(r1, Expr::add(Expr::Ref(r0), Expr::ConstI(1)));
                    }
                    1 => {
                        let r0 = kb.ref_affine(a, 1, 0);
                        let rs = kb.ref_affine(scal, 0, 0);
                        kb.stmt(rs, Expr::add(Expr::Ref(rs), Expr::Ref(r0)));
                    }
                    2 => {
                        let rg = kb.ref_indirect(arrays[0], ridx, 0);
                        kb.stmt(rg, Expr::add(Expr::Ref(rg), Expr::ConstI(2)));
                    }
                    _ => {
                        let r0 = kb.ref_affine(arrays[(si + 1) % arrays.len()], 1, 0);
                        let r1 = kb.ref_affine(a, 1, 0);
                        kb.stmt(r1, Expr::sub(Expr::Ref(r0), Expr::ConstI(1)));
                    }
                }
            }
            kb.end_loop();
            kb.build().expect("generated kernel must validate")
        })
}

/// Final array images, indexed `[shard][array][element]`.
type Images = Vec<Vec<Vec<u64>>>;

/// Shards `kernel` over `n` cores under a fault plan and coherence mode
/// and returns (final images, report); `None` when it does not shard.
fn run_multi(
    kernel: &Kernel,
    n: usize,
    fault: FaultConfig,
    cm: CoherenceProtocol,
) -> Option<(Images, MultiRunReport)> {
    let shards = kernel.shard(n).ok()?;
    let cfg = MachineConfig::for_mode(SysMode::HybridCoherent)
        .with_coherence(cm)
        .with_faults(fault);
    let compiled: Vec<_> = shards
        .iter()
        .map(|s| (compile(s, cfg.mode.codegen()), s.clone()))
        .collect();
    let mut m = MultiMachine::for_kernels(cfg, &compiled);
    m.run().expect("fault runs must still complete");
    let images = m
        .tiles
        .iter()
        .zip(&compiled)
        .map(|(tile, (ck, shard))| {
            (0..shard.arrays.len())
                .map(|id| tile.read_array(ck, shard, id))
                .collect()
        })
        .collect();
    let cks: Vec<_> = compiled.iter().map(|(ck, _)| ck.clone()).collect();
    let report = MultiRunReport::collect(&m, &cks);
    Some((images, report))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Contract 2: cycle skipping stays invisible with faults injected —
    /// every injected delay registers in the event horizons, so the
    /// skipping and lockstep machines agree on every observable,
    /// recovery counters included.
    #[test]
    fn cycle_skipping_is_invisible_under_faults(
        kernel in arb_kernel(),
        seed in any::<u64>(),
        rate_pct in 0u32..61,
    ) {
        let fault = FaultConfig::uniform(seed, rate_pct as f64 / 100.0);
        let cfg = MachineConfig::for_mode(SysMode::HybridCoherent).with_faults(fault);
        let skip = RunSpec::new(&kernel).config(cfg.clone()).run().map(RunOutcome::into_single).unwrap();
        let lock = RunSpec::new(&kernel).config(cfg.with_lockstep()).run().map(RunOutcome::into_single).unwrap();
        prop_assert_eq!(lock.skipped_cycles, 0);
        let mut a = skip.core.clone();
        a.skipped_cycles = 0;
        prop_assert_eq!(&a, &lock.core, "core stats diverged under faults");
        prop_assert_eq!(skip.cycles, lock.cycles);
        prop_assert_eq!(skip.bus_wait_cycles, lock.bus_wait_cycles);
        prop_assert_eq!(skip.dram_reads, lock.dram_reads);
        prop_assert_eq!(skip.ecc_retries, lock.ecc_retries);
        prop_assert_eq!(skip.dma_retries, lock.dma_retries);
        prop_assert_eq!(skip.dir_nacks, lock.dir_nacks);
        prop_assert_eq!(skip.escalations, lock.escalations);
    }

    /// Contract 1: the fault rate never changes architectural state —
    /// final memory images and committed instruction counts match the
    /// fault-free run at any rate, under every inter-core protocol.
    #[test]
    fn fault_rate_never_changes_architectural_state(
        kernel in arb_kernel(),
        seed in any::<u64>(),
        rate_pct in 1u32..61,
        mode_idx in 0usize..CoherenceProtocol::ALL.len(),
    ) {
        let cm = CoherenceProtocol::ALL[mode_idx];
        let Some((clean_img, clean)) = run_multi(&kernel, 2, FaultConfig::none(), cm) else {
            return Ok(());
        };
        let fault = FaultConfig::uniform(seed, rate_pct as f64 / 100.0);
        let (fault_img, faulted) =
            run_multi(&kernel, 2, fault, cm).expect("shardability cannot depend on faults");
        prop_assert_eq!(clean_img, fault_img, "memory images diverged under faults");
        prop_assert_eq!(
            clean.total(|c| c.committed),
            faulted.total(|c| c.committed),
            "committed work diverged under faults"
        );
    }

    /// Contract 4, clustered: under a fault plan, the threaded cluster
    /// driver is bit-identical to the serial oracle for any topology
    /// and coherence mode — fault draws depend on simulated order only,
    /// never on host scheduling.
    #[test]
    fn clustered_fault_runs_are_host_schedule_invariant(
        kernel in arb_kernel(),
        clusters in 1usize..3,
        per in 1usize..3,
        seed in any::<u64>(),
        rate_pct in 1u32..51,
        mode_idx in 0usize..CoherenceProtocol::ALL.len(),
    ) {
        let topo = ClusterTopology::new(clusters, per);
        let fault = FaultConfig::uniform(seed, rate_pct as f64 / 100.0);
        let run = |serial: bool| {
            let mut cluster = ClusterConfig::new(topo);
            if serial {
                cluster = cluster.serial();
            }
            let cfg = MachineConfig::for_mode(SysMode::HybridCoherent)
                .with_coherence(CoherenceProtocol::ALL[mode_idx])
                .with_faults(fault.clone());
            match RunSpec::new(&kernel).clustered(&cluster).config(cfg).run().map(RunOutcome::into_clusters) {
                Ok(r) => Some(r),
                Err(MultiRunError::Shard(_)) => None,
                Err(e) => panic!("fault run failed: {e}"),
            }
        };
        let Some(serial) = run(true) else { return Ok(()); };
        let threaded = run(false).expect("shardability cannot depend on threading");
        prop_assert_eq!(serial.makespan, threaded.makespan, "makespan");
        prop_assert_eq!(serial.total(|c| c.ecc_retries), threaded.total(|c| c.ecc_retries));
        prop_assert_eq!(serial.total(|c| c.dma_retries), threaded.total(|c| c.dma_retries));
        prop_assert_eq!(serial.total(|c| c.dir_nacks), threaded.total(|c| c.dir_nacks));
        prop_assert_eq!(serial.total(|c| c.escalations), threaded.total(|c| c.escalations));
        for (ca, cb) in serial.per_cluster.iter().zip(&threaded.per_cluster) {
            for (ra, rb) in ca.per_core.iter().zip(&cb.per_core) {
                prop_assert_eq!(&ra.core, &rb.core, "core stats diverged across drivers");
                prop_assert_eq!(ra.ecc_retries, rb.ecc_retries);
                prop_assert_eq!(ra.dma_retries, rb.dma_retries);
                prop_assert_eq!(ra.dir_nacks, rb.dir_nacks);
            }
        }
    }
}

/// Contract 3: a zero-rate plan — regardless of its seed — is
/// bit-identical to the no-plan default, every observable included.
#[test]
fn zero_rate_plan_is_bit_identical_to_no_plan() {
    for kernel in nas::all_nas(Scale::Test).iter().take(3) {
        let base = MachineConfig::for_mode(SysMode::HybridCoherent);
        let plain = RunSpec::new(kernel)
            .config(base.clone())
            .run()
            .map(RunOutcome::into_single)
            .expect("plain run");
        let seeded_zero = base.with_faults(FaultConfig {
            seed: 0xDEAD_BEEF,
            ..FaultConfig::none()
        });
        let zeroed = RunSpec::new(kernel)
            .config(seeded_zero)
            .run()
            .map(RunOutcome::into_single)
            .expect("zero-rate run");
        assert_reports_identical(&plain, &zeroed, &kernel.name);
        assert_eq!(zeroed.ecc_retries, 0, "{}: no injections", kernel.name);
        assert_eq!(zeroed.dma_retries, 0, "{}: no injections", kernel.name);
        assert_eq!(zeroed.dir_nacks, 0, "{}: no injections", kernel.name);
        assert_eq!(zeroed.escalations, 0, "{}: no injections", kernel.name);
    }
}

/// Contract 4, flat: equal seeds replay equal fault sequences — two
/// runs of the same plan are bit-identical, and a different seed moves
/// timing without touching architectural counters.
#[test]
fn fault_runs_are_deterministic_per_seed() {
    let kernel = &nas::all_nas(Scale::Test)[0];
    let cfg = |seed: u64| {
        MachineConfig::for_mode(SysMode::HybridCoherent)
            .with_faults(FaultConfig::uniform(seed, 0.3))
    };
    let a = RunSpec::new(kernel)
        .config(cfg(7))
        .run()
        .map(RunOutcome::into_single)
        .expect("run a");
    let b = RunSpec::new(kernel)
        .config(cfg(7))
        .run()
        .map(RunOutcome::into_single)
        .expect("run b");
    assert_reports_identical(&a, &b, "same seed");
    assert!(
        a.ecc_retries + a.dma_retries + a.dir_nacks > 0,
        "rate 0.3 must inject something"
    );
    let c = RunSpec::new(kernel)
        .config(cfg(8))
        .run()
        .map(RunOutcome::into_single)
        .expect("run c");
    assert_eq!(a.committed, c.committed, "seed is timing-only");
}

/// Saturated injection: at rate 1.0 every retry loop runs to its cap,
/// the DMA site escalates (counted, structured), and the run still
/// completes with the same architectural results — no livelock at the
/// pathological corner.
#[test]
fn saturated_fault_rate_recovers_and_escalates_without_hanging() {
    let kernel = &nas::all_nas(Scale::Test)[0];
    let clean = RunSpec::new(kernel)
        .config(MachineConfig::for_mode(SysMode::HybridCoherent))
        .run()
        .map(RunOutcome::into_single)
        .expect("clean run");
    let hot = RunSpec::new(kernel)
        .config(
            MachineConfig::for_mode(SysMode::HybridCoherent)
                .with_faults(FaultConfig::uniform(3, 1.0)),
        )
        .run()
        .map(RunOutcome::into_single)
        .expect("saturated run must terminate");
    assert_eq!(
        hot.committed, clean.committed,
        "architectural work identical"
    );
    assert!(hot.ecc_retries > 0, "every DRAM read pays ECC replays");
    assert!(
        hot.escalations > 0,
        "rate 1.0 DMA always exhausts its budget"
    );
    assert!(
        hot.cycles >= clean.cycles,
        "injected delays can only lengthen the run"
    );
}

/// The acceptance test for host-level degradation: a panic inside one
/// cluster's driver — here cluster 0's shard compiled for the
/// cache-based machine, which trips the machine's codegen-mode assert
/// while that cluster builds its hybrid tile — terminates the run with a
/// structured [`ClusterFailure::Panic`] naming the cluster, and the
/// surviving cluster's completed report rides along. The serial oracle
/// fails identically (ClusterError equality is failure-based).
#[test]
fn injected_cluster_panic_degrades_gracefully() {
    let kernel = nas::all_nas(Scale::Test)
        .into_iter()
        .find(|k| k.shard(2).is_ok())
        .expect("some NAS kernel shards 2 ways");
    let shards = kernel.shard(2).unwrap();
    let topo = ClusterTopology::new(2, 1);
    for cm in CoherenceProtocol::ALL {
        let cfg = MachineConfig::for_mode(SysMode::HybridCoherent).with_coherence(cm);
        let lanes: Vec<Vec<_>> = shards
            .iter()
            .enumerate()
            .map(|(c, shard)| {
                let mode = if c == 0 {
                    CodegenMode::CacheBased
                } else {
                    cfg.mode.codegen()
                };
                vec![(compile(shard, mode), shard.clone())]
            })
            .collect();
        let mut errors = Vec::new();
        for serial in [false, true] {
            let mut cluster = ClusterConfig::new(topo);
            if serial {
                cluster = cluster.serial();
            }
            let e = run_clusters(&cfg, &cluster, &lanes, 0)
                .expect_err("a panicking cluster must fail the run");
            assert_eq!(e.failures.len(), 1, "exactly the panicking cluster fails");
            let (c, cause) = &e.failures[0];
            assert_eq!(*c, 0, "the panicking cluster is named");
            let ClusterFailure::Panic(msg) = cause else {
                panic!("expected a contained panic, got {cause}");
            };
            assert!(
                msg.contains("machine mode must match the kernel's codegen mode"),
                "panic payload survives: {msg}"
            );
            assert_eq!(e.completed.len(), 1, "the surviving cluster completed");
            let (survivor, report) = &e.completed[0];
            assert_eq!(*survivor, 1);
            assert!(
                report.total(|c| c.committed) > 0,
                "partial results carry real work"
            );
            assert!(
                e.to_string().contains("cluster 0"),
                "display names the cluster"
            );
            errors.push(e);
        }
        assert_eq!(
            errors[0], errors[1],
            "{cm:?}: threaded and serial fail identically"
        );
    }
}

/// The per-core cycle budget is the runaway bound of a clustered run:
/// with a budget between a short and a long kernel's runtimes, the
/// cluster running the long kernel fails with `SimError::CycleLimit`,
/// the other completes, and both drivers fail identically.
#[test]
fn over_budget_cluster_fails_alone() {
    let micro = |n| {
        microbench(&MicrobenchConfig {
            mode: MicroMode::Baseline,
            guarded_pct: 0,
            n,
        })
    };
    let kernels = [micro(256), micro(8 * 1024)];
    let topo = ClusterTopology::new(2, 1);
    for cm in CoherenceProtocol::ALL {
        let run = |cluster: &ClusterConfig, max_cycles: u64| {
            let mut cfg = MachineConfig::for_mode(SysMode::HybridCoherent).with_coherence(cm);
            cfg.core.max_cycles = max_cycles;
            RunSpec::many(&kernels).clustered(cluster).config(cfg).run()
        };
        let free = run(&ClusterConfig::new(topo), u64::MAX)
            .expect("both kernels halt without a budget")
            .into_clusters();
        let (short, long) = (free.per_cluster[0].makespan, free.per_cluster[1].makespan);
        assert!(short < long, "kernel sizes order the runtimes");
        let budget = short + (long - short) / 2;
        let mut errors = Vec::new();
        for cluster in [ClusterConfig::new(topo), ClusterConfig::new(topo).serial()] {
            let err = run(&cluster, budget).expect_err("the long cluster exceeds the budget");
            let MultiRunError::Cluster(e) = err else {
                panic!("expected a structured cluster error, got {err}");
            };
            assert_eq!(
                e.failures,
                [(1, ClusterFailure::Sim(SimError::CycleLimit))],
                "only the over-budget cluster fails"
            );
            assert_eq!(e.completed.len(), 1, "the short cluster completed");
            assert_eq!(e.completed[0].0, 0);
            assert_eq!(e.completed[0].1.makespan, short, "the budget never bit");
            errors.push(e);
        }
        assert_eq!(
            errors[0], errors[1],
            "{cm:?}: threaded and serial fail identically"
        );
    }
}
