//! Cluster-machine equivalence: host-parallel epoch execution must be a
//! pure host-speed optimization, exactly like the cycle skipper.
//!
//! Three identities are asserted bit for bit, skip counters included:
//!
//! 1. **threaded == serial**: one host thread per cluster with
//!    double-barrier epoch synchronization produces exactly the stats of
//!    the serial round-robin epoch loop (`ClusterConfig::serial`);
//! 2. **serial == lockstep**: the epoch-chunked `run_until` driver over
//!    a skipping machine matches the naive per-cycle loop
//!    (`MachineConfig::with_lockstep`), so chunking at epoch boundaries
//!    never perturbs the event-horizon scheduler;
//! 3. **1 cluster == flat machine**: a 1×n cluster topology with one
//!    DRAM channel reproduces the flat `RunSpec::new(k).cores(n)` run exactly — the
//!    cluster layer adds nothing when there is nothing to slice.
//!
//! Plus the accounting contracts: cross-cluster replication fallbacks
//! are counted (never silently free), and the multi-channel DRAM
//! backside conserves line traffic while partitioning it.

use hsim::cluster::{cross_cluster_fallbacks, ClusterConfig, ClusterTopology};
use hsim::compiler::compile;
use hsim::prelude::*;
use hsim_workloads::nas;

/// Every observable of two per-core reports must match bit for bit —
/// including the skip accounting, which epoch chunking must preserve.
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

/// Two cluster reports must agree on everything: shape, epochs, per-core
/// stats, fallback accounting.
fn assert_cluster_reports_equal(
    a: &hsim::ClusterRunReport,
    b: &hsim::ClusterRunReport,
    what: &str,
) {
    assert_eq!(a.makespan, b.makespan, "{what}: makespan");
    assert_eq!(a.epochs, b.epochs, "{what}: epochs");
    assert_eq!(a.epoch_cycles, b.epoch_cycles, "{what}: epoch length");
    assert_eq!(
        a.cross_cluster_fallbacks, b.cross_cluster_fallbacks,
        "{what}: cluster fallbacks"
    );
    assert_per_cluster_equal(a, b, what);
}

/// The simulated side of two cluster reports — every per-cluster,
/// per-core statistic — must agree (the epoch bookkeeping may differ).
fn assert_per_cluster_equal(a: &hsim::ClusterRunReport, b: &hsim::ClusterRunReport, what: &str) {
    assert_eq!(a.per_cluster.len(), b.per_cluster.len(), "{what}: clusters");
    for (c, (ca, cb)) in a.per_cluster.iter().zip(&b.per_cluster).enumerate() {
        assert_eq!(ca.makespan, cb.makespan, "{what}: cluster {c} makespan");
        assert_eq!(
            ca.replication_fallbacks, cb.replication_fallbacks,
            "{what}: cluster {c} repl fallbacks"
        );
        assert_eq!(ca.per_core.len(), cb.per_core.len(), "{what}: cores");
        for (i, (ra, rb)) in ca.per_core.iter().zip(&cb.per_core).enumerate() {
            assert_cores_equal(ra, rb, &format!("{what}: cluster {c} core {i}"));
        }
    }
}

fn run(
    kernel: &hsim::compiler::Kernel,
    topo: ClusterTopology,
    serial: bool,
    channels: usize,
    lockstep: bool,
) -> Option<hsim::ClusterRunReport> {
    let mut cluster = ClusterConfig::new(topo);
    if serial {
        cluster = cluster.serial();
    }
    let mut cfg = MachineConfig::for_mode(SysMode::HybridCoherent);
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

/// Identity 1: threaded epoch execution == serial epoch execution, for
/// every NAS kernel across topologies and channel counts.
#[test]
fn threaded_clusters_match_serial_oracle() {
    for kernel in nas::all_nas(Scale::Test) {
        for (clusters, per) in [(1, 2), (2, 1), (2, 2), (4, 1)] {
            for channels in [1usize, 2] {
                let topo = ClusterTopology::new(clusters, per);
                let Some(serial) = run(&kernel, topo, true, channels, false) else {
                    continue;
                };
                let threaded = run(&kernel, topo, false, channels, false)
                    .expect("shardability cannot depend on threading");
                assert_cluster_reports_equal(
                    &serial,
                    &threaded,
                    &format!("{} {clusters}x{per} ch{channels}", kernel.name),
                );
            }
        }
    }
}

/// The epoch length is a host-side synchronization grain, not a
/// simulated quantity: a 1-cycle inter-cluster latency (one epoch per
/// cycle) must reproduce the default 500-cycle run's per-cluster
/// reports exactly. Regression: with the default `max_cycles` of
/// `u64::MAX`, the derived watchdog bound `max_cycles / 1 + 2` wrapped
/// to 1 (release) or overflow-panicked (debug), failing every cluster
/// after its first epoch.
#[test]
fn one_cycle_epochs_match_the_default_epoch_length() {
    let kernel = nas::cg(Scale::Test);
    let cfg = MachineConfig::for_mode(SysMode::HybridCoherent);
    let run = |latency: u64| {
        let mut cluster = ClusterConfig::new(ClusterTopology::new(2, 2)).serial();
        cluster.inter_cluster_latency = latency;
        assert!(cluster.effective_max_epochs(&cfg) > 2);
        RunSpec::new(&kernel)
            .clustered(&cluster)
            .config(cfg.clone())
            .run()
            .map(RunOutcome::into_clusters)
            .unwrap_or_else(|e| panic!("latency {latency}: {e}"))
    };
    let (fine, default) = (run(1), run(500));
    assert_eq!(fine.makespan, default.makespan);
    assert_eq!(fine.epoch_cycles, 1);
    assert!(fine.epochs > default.epochs);
    assert_per_cluster_equal(&fine, &default, "CG 2x2 latency 1 vs 500");
}

/// Identity 2: the epoch-chunked skipping machine == the per-cycle
/// lockstep machine, inside the cluster driver. Chunked `run_until`
/// must not perturb the event-horizon scheduler's decisions (the skip
/// counters are compared in identity 1; here the *timing* is pinned to
/// the naive loop).
#[test]
fn epoch_chunked_skipping_matches_lockstep() {
    for kernel in nas::all_nas(Scale::Test) {
        let topo = ClusterTopology::new(2, 2);
        let Some(skip) = run(&kernel, topo, true, 1, false) else {
            continue;
        };
        let lock =
            run(&kernel, topo, true, 1, true).expect("shardability cannot depend on lockstep");
        assert_eq!(
            skip.makespan, lock.makespan,
            "{}: chunked skipping changed the makespan",
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
            assert_eq!(core, b.core, "{}: core stats diverged", kernel.name);
        }
    }
}

/// Identity 3: a 1×n topology on one DRAM channel is the flat n-core
/// machine, stat for stat — the cluster layer is invisible when there
/// is a single cluster.
#[test]
fn one_cluster_matches_flat_multimachine() {
    for kernel in nas::all_nas(Scale::Test) {
        for n in [1usize, 2, 4] {
            let topo = ClusterTopology::new(1, n);
            let Some(clustered) = run(&kernel, topo, false, 1, false) else {
                continue;
            };
            let flat = RunSpec::new(&kernel)
                .cores(n)
                .config(MachineConfig::for_mode(SysMode::HybridCoherent))
                .run()
                .map(RunOutcome::into_multi)
                .expect("shards as 1xn");
            assert_eq!(clustered.per_cluster.len(), 1);
            assert_eq!(
                clustered.makespan, flat.makespan,
                "{} 1x{n}: makespan",
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
                assert_cores_equal(a, b, &format!("{} 1x{n} core {i}", kernel.name));
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
    let report =
        run(&kernel, ClusterTopology::new(2, 2), false, 1, false).expect("CG shards to 2x2");
    assert_eq!(report.cross_cluster_fallbacks, shared);
    let one = run(&kernel, ClusterTopology::new(1, 4), false, 1, false).expect("CG shards to 1x4");
    assert_eq!(one.cross_cluster_fallbacks, 0);
}

/// Multi-channel DRAM conserves line traffic: striping lines across 2 or
/// 4 channels moves accesses between controllers but reads/writes the
/// same lines, and committed work is architecture-invariant.
#[test]
fn dram_channels_conserve_line_traffic() {
    for kernel in nas::all_nas(Scale::Test) {
        let topo = ClusterTopology::new(1, 2);
        let Some(one) = run(&kernel, topo, false, 1, false) else {
            continue;
        };
        for channels in [2usize, 4] {
            let multi = run(&kernel, topo, false, channels, false)
                .expect("shardability cannot depend on channels");
            assert_eq!(
                one.total(|c| c.committed),
                multi.total(|c| c.committed),
                "{} ch{channels}: committed work",
                kernel.name
            );
            assert_eq!(
                one.total(|c| c.dram_reads),
                multi.total(|c| c.dram_reads),
                "{} ch{channels}: DRAM line reads",
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
    let cfg = MachineConfig::for_mode(SysMode::HybridCoherent);
    let report = run(&kernel, ClusterTopology::new(2, 2), true, 1, false).expect("CG shards 2x2");
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
        assert_eq!(per_cluster, counted, "{name}: cluster totals vs backsides");
        assert_eq!(
            report.total(per_core),
            per_cluster.iter().sum::<u64>(),
            "{name}: machine total vs cluster totals"
        );
    }
    assert!(report.total(|c| c.dram_reads) > 0, "the run must use DRAM");
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
