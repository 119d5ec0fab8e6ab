//! Cluster-machine equivalence: running the clusters on host threads
//! must be a pure host-speed optimization, exactly like the cycle
//! skipper.
//!
//! Three identities are asserted bit for bit, skip counters included:
//!
//! 1. **threaded == serial**: one host thread per cluster produces
//!    exactly the stats of running the clusters one after another on
//!    the calling thread (`ClusterConfig::serial`);
//! 2. **serial == lockstep**: the cluster driver over a skipping machine
//!    matches the naive per-cycle loop (`MachineConfig::with_lockstep`);
//! 3. **1 cluster == flat machine**: a 1×n cluster topology with one
//!    DRAM channel reproduces the flat `RunSpec::new(k).cores(n)` run exactly — the
//!    cluster layer adds nothing when there is nothing to slice.
//!
//! Plus the resumable contract of `MultiMachine::run_until` (a chunked
//! run equals one `run`), and the accounting contracts: cross-cluster
//! replication fallbacks are counted (never silently free), and the
//! multi-channel DRAM backside conserves line traffic while
//! partitioning it.
//!
//! Every contract holds under every inter-core protocol, so each test
//! iterates [`CoherenceProtocol::ALL`] (the NAS grids through
//! [`protocols`]).

use hsim::cluster::{cross_cluster_fallbacks, ClusterConfig, ClusterTopology};
use hsim::compiler::compile;
use hsim::prelude::*;
use hsim_workloads::nas;

/// Every observable of two per-core reports must match bit for bit —
/// including the skip accounting, which chunking must preserve.
fn assert_cores_equal(a: &RunReport, b: &RunReport, what: &str) {
    assert_eq!(a.core, b.core, "{what}: core stats (incl. skip counters)");
    assert_eq!(a.cycles, b.cycles, "{what}: cycles");
    assert_eq!(a.skipped_cycles, b.skipped_cycles, "{what}: skipped");
    assert_eq!(a.committed, b.committed, "{what}: committed");
    assert_eq!(a.phase_cycles, b.phase_cycles, "{what}: phases");
    assert_eq!(a.amat.to_bits(), b.amat.to_bits(), "{what}: AMAT");
    assert_eq!(a.l1_accesses, b.l1_accesses, "{what}: L1");
    assert_eq!(a.l2_accesses, b.l2_accesses, "{what}: L2");
    assert_eq!(a.l3_accesses, b.l3_accesses, "{what}: L3");
    assert_eq!(a.lm_accesses, b.lm_accesses, "{what}: LM");
    assert_eq!(a.bus_requests, b.bus_requests, "{what}: bus requests");
    assert_eq!(a.bus_wait_cycles, b.bus_wait_cycles, "{what}: bus waits");
    assert_eq!(
        a.l3_bank_conflicts, b.l3_bank_conflicts,
        "{what}: conflicts"
    );
    assert_eq!(a.dram_reads, b.dram_reads, "{what}: DRAM reads");
    assert_eq!(a.dram_writes, b.dram_writes, "{what}: DRAM writes");
    assert_eq!(a.dram_row_hits, b.dram_row_hits, "{what}: row hits");
    assert_eq!(a.dram_row_misses, b.dram_row_misses, "{what}: row misses");
    assert_eq!(
        a.dram_row_conflicts, b.dram_row_conflicts,
        "{what}: row conflicts"
    );
    assert_eq!(
        a.dram_queue_stalls, b.dram_queue_stalls,
        "{what}: queue stalls"
    );
    assert_eq!(a.coh_shared_hits, b.coh_shared_hits, "{what}: shared hits");
    assert_eq!(a.coh_invalidations, b.coh_invalidations, "{what}: invals");
    assert_eq!(a.coh_interventions, b.coh_interventions, "{what}: intervs");
    assert_eq!(a.ecc_retries, b.ecc_retries, "{what}: ECC retries");
    assert_eq!(a.dma_retries, b.dma_retries, "{what}: DMA retries");
    assert_eq!(a.dir_nacks, b.dir_nacks, "{what}: dir NACKs");
    assert_eq!(a.escalations, b.escalations, "{what}: escalations");
}

/// Two cluster reports must agree on everything: shape, per-core stats,
/// fallback accounting.
fn assert_cluster_reports_equal(
    a: &hsim::ClusterRunReport,
    b: &hsim::ClusterRunReport,
    what: &str,
) {
    assert_eq!(a.makespan, b.makespan, "{what}: makespan");
    assert_eq!(
        a.cross_cluster_fallbacks, b.cross_cluster_fallbacks,
        "{what}: cluster fallbacks"
    );
    assert_eq!(a.per_cluster.len(), b.per_cluster.len(), "{what}: clusters");
    for (c, (ca, cb)) in a.per_cluster.iter().zip(&b.per_cluster).enumerate() {
        assert_multi_equal(ca, cb, &format!("{what}: cluster {c}"));
    }
}

/// Every per-core statistic of two multicore reports must agree.
fn assert_multi_equal(a: &MultiRunReport, b: &MultiRunReport, what: &str) {
    assert_eq!(a.makespan, b.makespan, "{what}: makespan");
    assert_eq!(
        a.replication_fallbacks, b.replication_fallbacks,
        "{what}: repl fallbacks"
    );
    assert_eq!(a.per_core.len(), b.per_core.len(), "{what}: cores");
    for (i, (ra, rb)) in a.per_core.iter().zip(&b.per_core).enumerate() {
        assert_cores_equal(ra, rb, &format!("{what} core {i}"));
    }
}

/// The protocols the `i`-th kernel of a NAS grid runs under: all of
/// them in release builds; in debug builds, where the whole grid under
/// every protocol takes many minutes, only `ALL[i % ALL.len()]`, so
/// each protocol still runs some kernels.
fn protocols(i: usize) -> Vec<CoherenceProtocol> {
    let all = CoherenceProtocol::ALL;
    if cfg!(debug_assertions) {
        vec![all[i % all.len()]]
    } else {
        all.to_vec()
    }
}

/// Every NAS kernel at `Scale::Test`, paired with the protocols it runs
/// under ([`protocols`]).
fn nas_grid() -> Vec<(hsim::compiler::Kernel, CoherenceProtocol)> {
    let kernels = nas::all_nas(Scale::Test).into_iter().enumerate();
    kernels
        .flat_map(|(i, k)| protocols(i).into_iter().map(move |cm| (k.clone(), cm)))
        .collect()
}

/// The hybrid-coherent machine under `cm`.
fn hybrid(cm: CoherenceProtocol) -> MachineConfig {
    MachineConfig::for_mode(SysMode::HybridCoherent).with_coherence(cm)
}

fn run(
    kernel: &hsim::compiler::Kernel,
    cm: CoherenceProtocol,
    topo: ClusterTopology,
    serial: bool,
    channels: usize,
    lockstep: bool,
) -> Option<hsim::ClusterRunReport> {
    let mut cluster = ClusterConfig::new(topo);
    if serial {
        cluster = cluster.serial();
    }
    let mut cfg = hybrid(cm);
    cfg.mem.dram_channels = channels;
    if lockstep {
        cfg = cfg.with_lockstep();
    }
    match RunSpec::new(kernel)
        .clustered(&cluster)
        .config(cfg)
        .run()
        .map(RunOutcome::into_clusters)
    {
        Ok(r) => Some(r),
        Err(hsim::experiments::MultiRunError::Shard(_)) => None,
        Err(e) => panic!("simulation failed: {e}"),
    }
}

/// Identity 1: threaded clusters == serial clusters, for every NAS
/// kernel across topologies and channel counts.
#[test]
fn threaded_clusters_match_serial_oracle() {
    for (kernel, cm) in nas_grid() {
        for (clusters, per) in [(1, 2), (2, 1), (2, 2), (4, 1)] {
            for channels in [1usize, 2] {
                let topo = ClusterTopology::new(clusters, per);
                let Some(serial) = run(&kernel, cm, topo, true, channels, false) else {
                    continue;
                };
                let threaded = run(&kernel, cm, topo, false, channels, false)
                    .expect("shardability cannot depend on threading");
                assert_cluster_reports_equal(
                    &serial,
                    &threaded,
                    &format!("{} {cm:?} {clusters}x{per} ch{channels}", kernel.name),
                );
            }
        }
    }
}

/// The resumable contract of `MultiMachine::run_until`: driving a
/// machine to completion in chunks of 1 or of 500 cycles performs the
/// operations of one `run`, so every statistic — skip counters included
/// — equals the uninterrupted run's.
#[test]
fn run_until_chunks_match_one_run() {
    let kernel = nas::cg(Scale::Test);
    for cm in CoherenceProtocol::ALL {
        let cfg = hybrid(cm);
        let shards: Vec<_> = kernel
            .shard(4)
            .expect("CG shards 4 ways")
            .into_iter()
            .map(|s| (compile_for_tile(&s, &cfg), s))
            .collect();
        let cks: Vec<_> = shards.iter().map(|(ck, _)| ck.clone()).collect();
        let run = |chunk: Option<u64>| {
            let mut m = hsim::MultiMachine::for_kernels(cfg.clone(), &shards);
            match chunk {
                None => m.run().expect("CG halts"),
                Some(chunk) => {
                    let mut limit = 0;
                    while !m.all_halted() {
                        limit += chunk;
                        m.run_until(limit).expect("CG halts");
                    }
                }
            }
            MultiRunReport::collect(&m, &cks)
        };
        let whole = run(None);
        assert!(whole.total(|c| c.skipped_cycles) > 0, "CG must skip cycles");
        for chunk in [1, 500] {
            let what = format!("CG x4 {cm:?} in {chunk}-cycle chunks");
            assert_multi_equal(&whole, &run(Some(chunk)), &what);
        }
    }
}

/// Identity 2: the skipping machine == the per-cycle lockstep machine,
/// inside the cluster driver (the skip counters are compared in
/// identity 1; here the *timing* is pinned to the naive loop).
#[test]
fn epoch_chunked_skipping_matches_lockstep() {
    for (kernel, cm) in nas_grid() {
        let topo = ClusterTopology::new(2, 2);
        let Some(skip) = run(&kernel, cm, topo, true, 1, false) else {
            continue;
        };
        let lock =
            run(&kernel, cm, topo, true, 1, true).expect("shardability cannot depend on lockstep");
        assert_eq!(
            skip.makespan, lock.makespan,
            "{} {cm:?}: skipping changed the makespan",
            kernel.name
        );
        assert_eq!(skip.total(|c| c.committed), lock.total(|c| c.committed));
        assert_eq!(skip.total(|c| c.dram_reads), lock.total(|c| c.dram_reads));
        assert_eq!(
            lock.total(|c| c.skipped_cycles),
            0,
            "lockstep must not skip"
        );
        for (a, b) in skip
            .per_cluster
            .iter()
            .flat_map(|c| &c.per_core)
            .zip(lock.per_cluster.iter().flat_map(|c| &c.per_core))
        {
            let mut core = a.core.clone();
            core.skipped_cycles = 0;
            assert_eq!(core, b.core, "{} {cm:?}: core stats diverged", kernel.name);
        }
    }
}

/// Identity 3: a 1×n topology on one DRAM channel is the flat n-core
/// machine, stat for stat — the cluster layer is invisible when there
/// is a single cluster.
#[test]
fn one_cluster_matches_flat_multimachine() {
    for (kernel, cm) in nas_grid() {
        for n in [1usize, 2, 4] {
            let topo = ClusterTopology::new(1, n);
            let Some(clustered) = run(&kernel, cm, topo, false, 1, false) else {
                continue;
            };
            let flat = RunSpec::new(&kernel)
                .cores(n)
                .config(hybrid(cm))
                .run()
                .map(RunOutcome::into_multi)
                .expect("shards as 1xn");
            assert_eq!(clustered.per_cluster.len(), 1);
            assert_eq!(
                clustered.makespan, flat.makespan,
                "{} {cm:?} 1x{n}: makespan",
                kernel.name
            );
            assert_eq!(
                clustered.per_cluster[0].replication_fallbacks,
                flat.replication_fallbacks
            );
            for (i, (a, b)) in clustered.per_cluster[0]
                .per_core
                .iter()
                .zip(&flat.per_core)
                .enumerate()
            {
                assert_cores_equal(a, b, &format!("{} {cm:?} 1x{n} core {i}", kernel.name));
            }
        }
    }
}

/// Cross-cluster sharing is never silently free: a kernel with shared
/// arrays split across k clusters reports `shared × (k − 1)` replication
/// fallbacks, and a 1-cluster split reports none.
#[test]
fn cross_cluster_fallbacks_are_counted() {
    let kernel = nas::all_nas(Scale::Test)
        .into_iter()
        .find(|k| k.name == "CG")
        .expect("CG exists");
    // `shared` is marked on shards, not the source kernel: count it the
    // way the sharder sees a 2-way split.
    let shared = kernel.shard(2).expect("CG shards")[0]
        .arrays
        .iter()
        .filter(|a| a.shared)
        .count() as u64;
    assert!(shared > 0, "CG's gathered table is shared-marked");
    assert_eq!(cross_cluster_fallbacks(&kernel, 1), 0);
    assert_eq!(cross_cluster_fallbacks(&kernel, 2), shared);
    assert_eq!(cross_cluster_fallbacks(&kernel, 4), 3 * shared);
    for cm in CoherenceProtocol::ALL {
        let report = run(&kernel, cm, ClusterTopology::new(2, 2), false, 1, false)
            .expect("CG shards to 2x2");
        assert_eq!(report.cross_cluster_fallbacks, shared, "{cm:?}");
        let one = run(&kernel, cm, ClusterTopology::new(1, 4), false, 1, false)
            .expect("CG shards to 1x4");
        assert_eq!(one.cross_cluster_fallbacks, 0, "{cm:?}");
    }
}

/// Multi-channel DRAM conserves line traffic: striping lines across 2 or
/// 4 channels moves accesses between controllers but reads/writes the
/// same lines, and committed work is architecture-invariant.
#[test]
fn dram_channels_conserve_line_traffic() {
    for (kernel, cm) in nas_grid() {
        let topo = ClusterTopology::new(1, 2);
        let Some(one) = run(&kernel, cm, topo, false, 1, false) else {
            continue;
        };
        for channels in [2usize, 4] {
            let multi = run(&kernel, cm, topo, false, channels, false)
                .expect("shardability cannot depend on channels");
            assert_eq!(
                one.total(|c| c.committed),
                multi.total(|c| c.committed),
                "{} {cm:?} ch{channels}: committed work",
                kernel.name
            );
            assert_eq!(
                one.total(|c| c.dram_reads),
                multi.total(|c| c.dram_reads),
                "{} {cm:?} ch{channels}: DRAM line reads",
                kernel.name
            );
        }
    }
}

/// The partition invariant, stated once at report level: for every
/// backside counter, `ClusterRunReport::total` is the sum of the
/// clusters' `MultiRunReport::total`s, and each of those is what that
/// cluster's own backside counted (`dram_total_stats` /
/// `l3_total_stats`) — per-core shares never lose or double-count an
/// event, whatever the machine shape.
#[test]
fn report_totals_partition_the_backsides_of_a_clustered_run() {
    use hsim::mem::{CacheStats, DramStats};
    type Counter = (
        &'static str,
        fn(&RunReport) -> u64,
        fn(&DramStats, &CacheStats) -> u64,
    );
    let counters: [Counter; 7] = [
        ("dram_reads", |r| r.dram_reads, |d, _| d.reads),
        ("dram_writes", |r| r.dram_writes, |d, _| d.writes),
        ("dram_row_hits", |r| r.dram_row_hits, |d, _| d.row_hits),
        (
            "dram_row_misses",
            |r| r.dram_row_misses,
            |d, _| d.row_misses,
        ),
        (
            "dram_row_conflicts",
            |r| r.dram_row_conflicts,
            |d, _| d.row_conflicts,
        ),
        (
            "dram_queue_stalls",
            |r| r.dram_queue_stalls,
            |d, _| d.queue_stalls,
        ),
        (
            "l3_accesses",
            |r| r.l3_accesses,
            |_, l3| l3.total_accesses(),
        ),
    ];

    let kernel = nas::cg(Scale::Test);
    for cm in CoherenceProtocol::ALL {
        let cfg = hybrid(cm);
        let report =
            run(&kernel, cm, ClusterTopology::new(2, 2), true, 1, false).expect("CG shards 2x2");
        // Clusters share nothing, so each one's machine can be rebuilt and
        // run on its own to read its backside directly.
        let backsides: Vec<(DramStats, CacheStats)> = kernel
            .shard_clustered(2, 2)
            .expect("CG shards 2x2")
            .into_iter()
            .map(|shards| {
                let compiled: Vec<_> = shards
                    .into_iter()
                    .map(|s| (compile_for_tile(&s, &cfg), s))
                    .collect();
                let mut m = hsim::MultiMachine::for_kernels(cfg.clone(), &compiled);
                m.run().expect("cluster machine halts");
                let bs = m.backside();
                let bs = bs.borrow();
                (bs.dram_total_stats(), bs.l3_total_stats())
            })
            .collect();

        for (name, per_core, backside) in counters {
            let per_cluster: Vec<u64> = report
                .per_cluster
                .iter()
                .map(|m| m.total(per_core))
                .collect();
            let counted: Vec<u64> = backsides.iter().map(|(d, l3)| backside(d, l3)).collect();
            assert_eq!(
                per_cluster, counted,
                "{cm:?} {name}: cluster totals vs backsides"
            );
            assert_eq!(
                report.total(per_core),
                per_cluster.iter().sum::<u64>(),
                "{cm:?} {name}: machine total vs cluster totals"
            );
        }
        assert!(report.total(|c| c.dram_reads) > 0, "the run must use DRAM");
    }
}

/// The two-level sharder nests exactly: `shard_clustered(c, p)` is
/// `shard(c)` then `shard(p)` per superslice, covering the iteration
/// space with valid kernels.
#[test]
fn clustered_sharding_nests_and_covers() {
    for kernel in nas::all_nas(Scale::Test) {
        let Ok(sliced) = kernel.shard_clustered(2, 2) else {
            continue;
        };
        assert_eq!(sliced.len(), 2);
        let total: u64 = sliced
            .iter()
            .flat_map(|c| c.iter())
            .map(|s| s.loops[0].n)
            .sum();
        assert_eq!(total, kernel.loops[0].n, "{}: coverage", kernel.name);
        for shard in sliced.iter().flat_map(|c| c.iter()) {
            assert!(shard.validate().is_ok());
            assert!(!compile(shard, SysMode::HybridCoherent.codegen())
                .program
                .is_empty());
        }
    }
}
