//! The JSON-writing sweeps. Each one picks its grid (full, or the
//! `--smoke` CI guard grid) in one place, runs the driver from
//! `hsim::experiments`, prints the table and writes `BENCH_<name>.json`
//! from one column declaration, and asserts the shapes the results must
//! keep. The `*_cols` functions are public so the artefact-schema test
//! can compare them against the committed files.

use crate::shapes::{
    all_hybrid_is_homogeneous, comm_orderings, mixed_chip_interpolates, protocol_family_ordering,
};
use crate::{jstr, print_table, Col, Flags, SweepJson, Val};
use hsim::cluster::{ClusterConfig, ClusterTopology};
use hsim::prelude::*;
use std::time::Instant;

const PAR: Parallelism = Parallelism::HostThreads;

/// Columns of the `backside` sweep.
pub fn backside_cols() -> Vec<Col<BacksideSweepRow>> {
    type C = Col<BacksideSweepRow>;
    let total = |header, width, key, counter| C::total(header, width, key, |r| &r.report, counter);
    vec![
        C::both("kernel", 6, "kernel", |r| (&r.kernel).into()),
        C::both("cores", 5, "cores", |r| r.cores.into()),
        C::both("makespan", 10, "makespan", |r| r.report.makespan.into()),
        total("rhits", 9, "dram_row_hits", |c| c.dram_row_hits),
        total("rmisses", 9, "dram_row_misses", |c| c.dram_row_misses),
        total("rconfl", 9, "dram_row_conflicts", |c| c.dram_row_conflicts),
        C::both("rowhit%", 8, "dram_row_hit_rate", |r| {
            r.report.dram_row_hit_rate().into()
        })
        .decimals(1, 2)
        .after("makespan"),
        total("bankcfl", 9, "bank_conflicts", |c| c.l3_bank_conflicts),
        total("buswait", 10, "bus_wait_cycles", |c| c.bus_wait_cycles),
        total("qstall", 8, "dram_queue_stalls", |c| c.dram_queue_stalls),
    ]
}

/// Backside-sensitivity sweep: DRAM row-buffer locality and L3 bank
/// contention per NAS kernel and core count, on the hybrid-coherent
/// machine with the default (banked, row-aware) backside — the
/// contention structure the paper's §3 multicore argument attributes to
/// the shared last-level cache and memory channel.
pub fn backside(flags: Flags) {
    let scale = flags.sweep_scale();
    let kernels = flags.sweep_kernels(&["CG", "EP"]);
    let core_counts: &[usize] = flags.pick(&[1, 2], &[1, 2, 4, 8]);

    let rows = backside_sweep(&kernels, core_counts, SysMode::HybridCoherent, PAR)
        .expect("backside sweep failed");

    println!("BACKSIDE: row-buffer locality and L3 bank contention ({scale:?} scale)");
    println!("(hybrid-coherent machine, default banked L3 + row-aware DRAM controller)");
    println!();
    print_table(&backside_cols(), &rows);
    println!();

    // Locality and contention must actually vary across the grid, or
    // the model has gone flat.
    let rate = |r: &BacksideSweepRow| r.report.dram_row_hit_rate();
    let varies = rows.iter().any(|r| rate(r) != rate(&rows[0]));
    println!(
        "row-hit rate {} across the grid; total bank conflicts {}",
        if varies { "varies" } else { "is constant" },
        rows.iter()
            .map(|r| r.report.total(|c| c.l3_bank_conflicts))
            .sum::<u64>(),
    );
    assert!(
        varies || rows.len() < 2,
        "row-hit rate must vary across kernels/core counts"
    );

    SweepJson::new(scale)
        .meta("mode", jstr("HybridCoherent"))
        .rows("rows", &backside_cols(), &rows)
        .write("BENCH_backside.json");
}

/// Columns of the `scaling` sweep.
pub fn scaling_cols() -> Vec<Col<ScalingRow>> {
    type C = Col<ScalingRow>;
    let total = |header, width, key, counter| C::total(header, width, key, |r| &r.report, counter);
    vec![
        C::both("kernel", 6, "kernel", |r| (&r.kernel).into()),
        C::both("cores", 5, "cores", |r| r.cores.into()),
        C::both("makespan", 10, "makespan", |r| r.report.makespan.into()),
        C::both("speedup", 7, "speedup", |r| r.speedup.into()).decimals(2, 3),
        C::json("committed", |r| r.report.total(|c| c.committed).into()),
        C::both("ipc", 8, "aggregate_ipc", |r| {
            r.report.aggregate_ipc().into()
        })
        .decimals(2, 3),
        total("buswait", 9, "bus_wait_cycles", |c| c.bus_wait_cycles),
        total("bankcfl", 9, "bank_conflicts", |c| c.l3_bank_conflicts),
        C::both("rowhit%", 8, "dram_row_hit_rate", |r| {
            r.report.dram_row_hit_rate().into()
        })
        .decimals(1, 2),
        total("dramR", 9, "dram_reads", |c| c.dram_reads),
    ]
}

/// The scaling experiment: speedup-vs-cores curves per NAS kernel —
/// the makespan, the speedup against the kernel's own 1-core run, and
/// where the lost scaling went (L3 bank-port waits, bank conflicts,
/// DRAM row locality).
pub fn scaling(flags: Flags) {
    let scale = flags.sweep_scale();
    let kernels = flags.sweep_kernels(&["CG", "EP"]);
    let core_counts: &[usize] = flags.pick(&[1, 2, 4], &[1, 2, 4, 8]);

    let cfg = MachineConfig::for_mode(SysMode::HybridCoherent);
    let rows = scaling_sweep(&kernels, core_counts, &cfg, PAR).expect("scaling sweep failed");

    println!(
        "SCALING: speedup vs cores per kernel ({scale:?} scale, {:?} coherence)",
        cfg.mem.coherence.mode
    );
    println!();
    print_table(&scaling_cols(), &rows);
    println!();

    // The 1-core point of every curve is exactly 1.0 by construction,
    // and the grid actually varies. Strict monotonicity only holds
    // below the memory-bandwidth knee (DRAM-bound kernels like CG and
    // IS degrade at high core counts on the single channel);
    // `figshapes` asserts the rising-curve shape on the grid where it
    // must hold.
    for r in rows.iter().filter(|r| r.cores == 1) {
        assert!(
            (r.speedup - 1.0).abs() < 1e-12,
            "{}: 1-core speedup must be 1.0",
            r.kernel
        );
    }
    assert!(
        rows.iter().any(|r| r.speedup > 1.2),
        "someone must actually scale"
    );

    SweepJson::new(scale)
        .meta("mode", jstr("HybridCoherent"))
        .rows("rows", &scaling_cols(), &rows)
        .write("BENCH_scaling.json");
}

/// Columns of the `coherence` sweep's Replicate-vs-Mesi table.
pub fn coherence_cols() -> Vec<Col<CoherenceSweepRow>> {
    type C = Col<CoherenceSweepRow>;
    let replicate =
        |header, width, key, counter| C::total(header, width, key, |r| &r.replicate, counter);
    let mesi = |header, width, key, counter| C::total(header, width, key, |r| &r.mesi, counter);
    vec![
        C::both("kernel", 6, "kernel", |r| (&r.kernel).into()),
        C::both("cores", 5, "cores", |r| r.cores.into()),
        C::both("mk.rep", 10, "makespan_replicate", |r| {
            r.replicate.makespan.into()
        }),
        C::both("mk.mesi", 10, "makespan_mesi", |r| r.mesi.makespan.into()),
        replicate("dramR.rep", 9, "dram_reads_replicate", |c| c.dram_reads),
        mesi("dramR.mesi", 9, "dram_reads_mesi", |c| c.dram_reads),
        mesi("shrhits", 9, "shared_hits", |c| c.coh_shared_hits),
        mesi("invals", 8, "invalidations", |c| c.coh_invalidations),
        mesi("intervs", 8, "interventions", |c| c.coh_interventions),
        C::json("committed", |r| r.replicate.total(|c| c.committed).into()),
        C::both("replfall", 8, "replication_fallbacks", |r| {
            r.mesi.replication_fallbacks.into()
        }),
        C::both("clufall", 8, "cluster_fallbacks", |r| {
            r.cluster_fallbacks.into()
        }),
    ]
}

/// Columns of the `coherence` sweep's protocol-family table.
pub fn protocol_cols() -> Vec<Col<ProtocolSweepRow>> {
    type C = Col<ProtocolSweepRow>;
    let total = |header, width, key, counter| C::total(header, width, key, |r| &r.report, counter);
    vec![
        C::both("kernel", 6, "kernel", |r| (&r.kernel).into()),
        C::both("cores", 5, "cores", |r| r.cores.into()),
        C::both("proto", 9, "protocol", |r| (&r.protocol).into()),
        C::both("makespan", 10, "makespan", |r| r.report.makespan.into()),
        total("dramR", 9, "dram_reads", |c| c.dram_reads),
        total("shrhits", 9, "shared_hits", |c| c.coh_shared_hits),
        total("invals", 8, "invalidations", |c| c.coh_invalidations),
        total("intervs", 8, "interventions", |c| c.coh_interventions),
        C::json("committed", |r| r.report.total(|c| c.committed).into()),
    ]
}

/// Coherence comparison: `Replicate` (per-core private replicas of
/// every cacheable line) vs the directory protocol family
/// (`Msi`/`Mesi`/`Moesi`/`Mesif`, serving the sharder's
/// replicated-whole tables from shared, directory-tracked lines at the
/// L3 banks) on the same sharded kernels. The headline is DRAM read
/// traffic: under a directory protocol a shared table is fetched once
/// per chip instead of once per core. The grid always includes CG at 4
/// cores, whose gathered `x` table is the acceptance case.
pub fn coherence(flags: Flags) {
    let scale = flags.sweep_scale();
    // Smoke: CG plus one double-store kernel.
    let kernels = flags.sweep_kernels(&["CG", "IS"]);
    let core_counts: &[usize] = flags.pick(&[1, 2, 4], &[1, 2, 4, 8]);

    // One simulation per point and mode; the Replicate-vs-Mesi table is
    // a view of the protocol sweep's rows.
    let proto_rows = protocol_sweep(&kernels, core_counts, SysMode::HybridCoherent, PAR)
        .expect("protocol sweep failed");
    let rows = coherence_rows(&kernels, &proto_rows);

    println!("COHERENCE: Replicate vs Mesi on the shared backside ({scale:?} scale)");
    println!("(hybrid-coherent machine; dramR = total DRAM line reads)");
    println!();
    print_table(&coherence_cols(), &rows);
    println!();
    let fallbacks: u64 = rows.iter().map(|r| r.mesi.replication_fallbacks).sum();
    if fallbacks > 0 {
        println!(
            "note: {fallbacks} shared-marked array(s) fell back to per-core \
             replication (diverged shard layouts) and were not served from \
             shared lines under Mesi."
        );
        println!();
    }
    if rows.iter().any(|r| r.cluster_fallbacks > 0) {
        println!(
            "note: clufall counts shared-marked array(s) that a 2-cluster \
             split of the same kernel would replicate per cluster (directory \
             slices do not span clusters in v1) — cross-cluster sharing is \
             counted, never silently free."
        );
        println!();
    }

    // The acceptance shape: sharded CG at 4 cores must read less DRAM
    // under Mesi than under Replicate (the gathered x table is fetched
    // once per chip, not once per core).
    if let Some(cg4) = rows.iter().find(|r| r.kernel == "CG" && r.cores == 4) {
        let reads_replicate = cg4.replicate.total(|c| c.dram_reads);
        let reads_mesi = cg4.mesi.total(|c| c.dram_reads);
        let shared_hits = cg4.mesi.total(|c| c.coh_shared_hits);
        println!(
            "CG x4 DRAM reads: {reads_replicate} (Replicate) vs {reads_mesi} (Mesi), \
             {shared_hits} shared hits"
        );
        assert!(
            reads_mesi < reads_replicate,
            "CG x4 must read less DRAM under Mesi ({reads_mesi} vs {reads_replicate})"
        );
        assert!(shared_hits > 0, "CG x4 must score shared hits");
    }
    // Single-core points must be mode-invariant (nothing is shared).
    for r in rows.iter().filter(|r| r.cores == 1) {
        assert_eq!(
            r.replicate.makespan, r.mesi.makespan,
            "{}: a lone core has nothing to share",
            r.kernel
        );
    }

    // The protocol axis: the same grid, every family member side by
    // side.
    println!();
    println!("PROTOCOL FAMILY: protocol x kernel x cores ({scale:?} scale)");
    println!();
    print_table(&protocol_cols(), &proto_rows);
    println!();

    // Every point contributes one row per coherence mode, contiguously.
    for point in proto_rows.chunks(CoherenceMode::ALL.len()) {
        if point[0].cores > 1 {
            protocol_family_ordering(point);
        }
    }

    SweepJson::new(scale)
        .meta("mode", jstr("HybridCoherent"))
        .rows("rows", &coherence_cols(), &rows)
        .rows("protocol_rows", &protocol_cols(), &proto_rows)
        .write("BENCH_coherence.json");
}

/// Columns of the `hetero` sweep.
pub fn hetero_cols() -> Vec<Col<HeteroSweepRow>> {
    type C = Col<HeteroSweepRow>;
    let total = |header, width, key, counter| C::total(header, width, key, |r| &r.report, counter);
    vec![
        C::both("kernel", 6, "kernel", |r| (&r.kernel).into()),
        C::both("shape", 12, "shape", |r| (&r.label).into()),
        C::json("hybrid_tiles", |r| r.hybrid_tiles.into()),
        C::json("small_lm_tiles", |r| r.small_lm_tiles.into()),
        C::json("weights", |r| {
            let weights: Vec<String> = r.weights.iter().map(|w| w.to_string()).collect();
            Val::Json(format!("[{}]", weights.join(", ")))
        }),
        C::both("makespan", 10, "makespan", |r| r.report.makespan.into()),
        total("committed", 10, "committed", |c| c.committed),
        total("dramR", 10, "dram_reads", |c| c.dram_reads),
        total("buswait", 9, "bus_wait_cycles", |c| c.bus_wait_cycles),
        total("shrhits", 8, "shared_hits", |c| c.coh_shared_hits),
        C::both("replfall", 9, "replication_fallbacks", |r| {
            r.report.replication_fallbacks.into()
        }),
    ]
}

/// Heterogeneous-chip sweep: every NAS kernel on every machine shape of
/// [`hsim::experiments::hetero_sweep`] — all hybrid:cache tile ratios at
/// one core count (even shards), an all-hybrid chip with half the tiles
/// at a quarter LM budget, and a weighted mixed chip whose hybrid tiles
/// take double iteration shares.
pub fn hetero(flags: Flags) {
    let scale = flags.sweep_scale();
    let kernels = flags.sweep_kernels(&["CG", "IS"]);
    let cores = 4;

    let rows = hetero_sweep(&kernels, cores, PAR).expect("hetero sweep failed");

    println!("HETERO: mixed hybrid/cache chips, LM asymmetry, weighted shards ({scale:?} scale)");
    println!("(shape xH+yC = x hybrid + y cache-based tiles; lm/4xN = N tiles at a quarter LM)");
    println!();
    print_table(&hetero_cols(), &rows);
    println!();

    for k in &kernels {
        let row = |label: &str| rows.iter().find(|r| r.kernel == k.name && r.label == label);
        let (Some(all_h), Some(all_c)) =
            (row(&format!("{cores}H+0C")), row(&format!("0H+{cores}C")))
        else {
            continue; // kernel does not shard to this core count
        };

        // 1. The all-hybrid shape is the homogeneous machine, exactly.
        let homo = RunSpec::new(k)
            .cores(cores)
            .run()
            .expect("homogeneous run")
            .into_multi();
        all_hybrid_is_homogeneous(&k.name, all_h.report.makespan, homo.makespan);
        assert_eq!(
            all_h.report.total(|c| c.committed),
            homo.total(|c| c.committed),
            "{}",
            k.name
        );

        // 2. Mixed ratios interpolate the endpoints.
        for h in 1..cores {
            if let Some(mix) = row(&format!("{h}H+{}C", cores - h)) {
                mixed_chip_interpolates(
                    &format!("{} {}", k.name, mix.label),
                    mix.report.makespan,
                    all_h.report.makespan,
                    all_c.report.makespan,
                );
            }
        }

        // 3. Weighted shards beat the even split on the mixed chip —
        //    but only where the weights actually match tile strength:
        //    the gate is the even split itself sitting well above the
        //    all-hybrid endpoint (the cache tiles are the long pole).
        //    On kernels where the even mixed chip already runs near
        //    the hybrid endpoint (compute-bound EP: per-tile speeds
        //    converge on the shared backside), a 2:1 split is the
        //    *wrong* weighting and legitimately loses.
        let h = cores - cores / 2;
        if let (Some(even), Some(weighted)) = (
            row(&format!("{h}H+{}C", cores - h)),
            row(&format!("{h}H+{}C w2:1", cores / 2)),
        ) {
            let (even, weighted) = (even.report.makespan, weighted.report.makespan);
            if even as f64 > all_h.report.makespan as f64 * 1.3 {
                assert!(
                    weighted < even,
                    "{}: 2:1 weights ({weighted}) must beat the even split ({even})",
                    k.name
                );
            }
        }
    }
    println!("hetero shapes OK (all-hybrid == homogeneous, mixed interpolates, weights help)");

    SweepJson::new(scale)
        .meta("cores", cores)
        .rows("rows", &hetero_cols(), &rows)
        .write("BENCH_hetero.json");
}

/// One point of the `clusters` sweep: the simulated results (asserted
/// identical between the drivers) and both host wall-clocks.
pub struct ClusterRow {
    /// Kernel name.
    pub kernel: String,
    /// Clusters × cores per cluster.
    pub topo: ClusterTopology,
    /// DRAM channels.
    pub channels: usize,
    /// The threaded run's report.
    pub report: ClusterRunReport,
    /// Best host wall-clock of the serial driver.
    pub host_secs_serial: f64,
    /// Best host wall-clock of the threaded driver.
    pub host_secs_threaded: f64,
}

impl ClusterRow {
    fn thread_speedup(&self) -> f64 {
        self.host_secs_serial / self.host_secs_threaded.max(1e-9)
    }
}

/// Columns of the `clusters` sweep.
pub fn clusters_cols() -> Vec<Col<ClusterRow>> {
    type C = Col<ClusterRow>;
    vec![
        C::both("kernel", 6, "kernel", |r| (&r.kernel).into()),
        C::both("clus", 5, "clusters", |r| r.topo.clusters.into()),
        C::both("cores", 5, "cores_per_cluster", |r| {
            r.topo.cores_per_cluster.into()
        }),
        C::both("ch", 3, "dram_channels", |r| r.channels.into()),
        C::both("makespan", 10, "makespan", |r| r.report.makespan.into()),
        C::both("epochs", 7, "epochs", |r| r.report.epochs.into()),
        C::json("committed", |r| r.report.total(|c| c.committed).into()),
        C::json("skipped_cycles", |r| {
            r.report.total(|c| c.skipped_cycles).into()
        }),
        C::both("dramR", 9, "dram_reads", |r| {
            r.report.total(|c| c.dram_reads).into()
        }),
        C::both("clufall", 8, "cross_cluster_fallbacks", |r| {
            r.report.cross_cluster_fallbacks.into()
        }),
        C::both("ser(s)", 9, "host_seconds_serial", |r| {
            r.host_secs_serial.into()
        })
        .decimals(3, 4),
        C::both("thr(s)", 9, "host_seconds_threaded", |r| {
            r.host_secs_threaded.into()
        })
        .decimals(3, 4),
        C::both("speedup", 8, "thread_speedup", |r| {
            r.thread_speedup().into()
        })
        .decimals(2, 3)
        .suffix("x"),
    ]
}

/// Hierarchical-cluster sweep: channels × clusters × cores per cluster.
/// Every point runs the epoch-synchronized cluster machine twice —
/// serially (the lock-step oracle, `ClusterConfig::serial`) and with
/// one host thread per cluster — asserts the two runs are
/// **bit-identical**, and reports both wall-clocks. The simulated side
/// shows where extra DRAM channels un-saturate the bandwidth-bound
/// kernels (CG, FT); the host side shows the threading speedup, which
/// tracks `host_parallelism` (recorded so the artefact is interpretable
/// on a single-CPU host too).
pub fn clusters(flags: Flags) {
    /// Repetitions per configuration; the minimum wall-clock is
    /// reported (deterministic runs, so the minimum is the cleanest
    /// host-cost estimate).
    const REPS: usize = 3;

    // One point, `REPS` times in one threading mode: the last report
    // and the best host seconds, or `None` when the kernel does not
    // shard to the topology.
    fn run_point(
        kernel: &hsim_compiler::Kernel,
        topo: ClusterTopology,
        channels: usize,
        serial: bool,
    ) -> Option<(ClusterRunReport, f64)> {
        let mut cluster = ClusterConfig::new(topo);
        if serial {
            cluster = cluster.serial();
        }
        let mut cfg = MachineConfig::for_mode(SysMode::HybridCoherent);
        cfg.mem.dram_channels = channels;
        let mut best = f64::INFINITY;
        let mut last = None;
        for _ in 0..REPS {
            let start = Instant::now();
            let spec = RunSpec::new(kernel).clustered(&cluster).config(cfg.clone());
            let out = MultiRunError::skip_unshardable(spec.run())
                .unwrap_or_else(|e| panic!("simulation failed: {e}"))?;
            best = best.min(start.elapsed().as_secs_f64());
            last = Some(out.into_clusters());
        }
        last.map(|report| (report, best))
    }

    let scale = flags.sweep_scale();
    // Smoke: the two bandwidth-bound kernels (the channel-scaling
    // cases).
    let kernels = flags.sweep_kernels(&["CG", "FT"]);
    let topologies: &[(usize, usize)] = flags.pick(
        &[(1, 2), (2, 1), (2, 2)],
        &[(1, 4), (2, 2), (2, 4), (4, 2), (4, 4)],
    );
    let channel_counts: &[usize] = flags.pick(&[1, 2], &[1, 2, 4]);
    let host_parallelism = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    let mut rows = Vec::new();
    for kernel in &kernels {
        for &(clusters, per) in topologies {
            let topo = ClusterTopology::new(clusters, per);
            for &channels in channel_counts {
                let Some((serial, host_secs_serial)) = run_point(kernel, topo, channels, true)
                else {
                    println!(
                        "note: {} does not shard to {}x{}; skipped",
                        kernel.name, clusters, per
                    );
                    continue;
                };
                let (threaded, host_secs_threaded) = run_point(kernel, topo, channels, false)
                    .expect("shardability cannot depend on threading");

                // The acceptance invariant: the threaded run is
                // bit-identical to the serial oracle, skip counters
                // included.
                assert_eq!(
                    serial.makespan, threaded.makespan,
                    "{} {}x{} ch{}: threading changed the makespan",
                    kernel.name, clusters, per, channels
                );
                assert_eq!(serial.epochs, threaded.epochs);
                for counter in [
                    |c: &RunReport| c.committed,
                    |c: &RunReport| c.skipped_cycles,
                    |c: &RunReport| c.dram_reads,
                ] {
                    assert_eq!(serial.total(counter), threaded.total(counter));
                }

                rows.push(ClusterRow {
                    kernel: kernel.name.clone(),
                    topo,
                    channels,
                    report: threaded,
                    host_secs_serial,
                    host_secs_threaded,
                });
            }
        }
    }

    println!("CLUSTERS: channels x clusters x cores sweep ({scale:?} scale)");
    println!(
        "(threaded runs asserted bit-identical to the serial oracle; \
         host parallelism = {host_parallelism})"
    );
    println!();
    print_table(&clusters_cols(), &rows);
    println!();
    if rows.iter().any(|r| r.report.cross_cluster_fallbacks > 0) {
        println!(
            "note: clufall counts shared-marked array(s) replicated per \
             cluster because their sharers span clusters (v1 fallback) — \
             cross-cluster sharing is counted, never silently free."
        );
        println!();
    }

    // Channel scaling: for the bandwidth-bound kernels, report where the
    // second channel stops helping (the un-saturation point).
    for name in ["CG", "FT"] {
        let points: Vec<&ClusterRow> = rows
            .iter()
            .filter(|r| r.kernel == name && r.topo.total_cores() >= 4)
            .collect();
        for w in points.windows(2) {
            if w[0].topo == w[1].topo && w[1].channels > w[0].channels {
                let gain = w[0].report.makespan as f64 / w[1].report.makespan.max(1) as f64;
                println!(
                    "{} {}x{}: {} -> {} channels shrinks makespan {:.3}x",
                    name,
                    w[0].topo.clusters,
                    w[0].topo.cores_per_cluster,
                    w[0].channels,
                    w[1].channels,
                    gain
                );
            }
        }
    }

    SweepJson::new(scale)
        .meta("mode", jstr("HybridCoherent"))
        .meta("host_parallelism", host_parallelism)
        .rows("rows", &clusters_cols(), &rows)
        .write("BENCH_clusters.json");
}

/// One point of the `faults` sweep.
pub struct FaultRow {
    /// Kernel name.
    pub kernel: String,
    /// Uniform fault probability of all three sites.
    pub rate: f64,
    /// The run's report.
    pub report: MultiRunReport,
    /// Makespan of the same kernel's rate-0 run.
    pub baseline: u64,
}

/// Columns of the `faults` sweep.
pub fn faults_cols() -> Vec<Col<FaultRow>> {
    type C = Col<FaultRow>;
    let total = |header, width, key, counter| C::total(header, width, key, |r| &r.report, counter);
    vec![
        C::both("kernel", 6, "kernel", |r| (&r.kernel).into()),
        C::both("rate", 7, "rate", |r| r.rate.into()),
        C::both("makespan", 10, "makespan", |r| r.report.makespan.into()),
        C::json("committed", |r| r.report.total(|c| c.committed).into()),
        total("skipped", 7, "skipped_cycles", |c| c.skipped_cycles).after("degr"),
        total("eccRetry", 9, "ecc_retries", |c| c.ecc_retries),
        total("dmaRtry", 7, "dma_retries", |c| c.dma_retries),
        total("dirNack", 7, "dir_nacks", |c| c.dir_nacks),
        total("escal", 7, "escalations", |c| c.escalations),
        C::table("degr", 5, |r| {
            (r.report.makespan as f64 / r.baseline.max(1) as f64).into()
        })
        .decimals(3, 3)
        .suffix("x"),
    ]
}

/// Fault-injection sweep: for every NAS kernel and each uniform fault
/// rate (all three sites — DRAM ECC retries, DMA timeouts, directory
/// NACKs — at the same probability), runs a 4-core machine under a
/// seeded [`FaultConfig`] and reports the makespan degradation curve
/// plus the recovery counters. Asserted at every point: faults perturb
/// *when*, never *what* (committed totals equal the fault-free run's),
/// the same seed replays bit-identically, and rate 0.0 bit-identically
/// matches a machine with no fault plan at all. CI additionally runs
/// the sweep twice and `cmp`s the two artefacts byte for byte.
pub fn faults(flags: Flags) {
    /// Seed of every swept fault plan.
    const SEED: u64 = 0x5EED_FA17;
    const CORES: usize = 4;

    fn run_point(kernel: &hsim_compiler::Kernel, fault: FaultConfig) -> Option<MultiRunReport> {
        let cfg = MachineConfig::for_mode(SysMode::HybridCoherent).with_faults(fault);
        let spec = RunSpec::new(kernel).cores(CORES).config(cfg);
        MultiRunError::skip_unshardable(spec.run())
            .unwrap_or_else(|e| panic!("simulation failed: {e}"))
            .map(RunOutcome::into_multi)
    }

    let scale = flags.sweep_scale();
    // Smoke: one bandwidth-bound kernel (DRAM/ECC pressure) and one
    // DMA-heavy kernel (timeout/backoff pressure).
    let kernels = flags.sweep_kernels(&["CG", "IS"]);
    let rates: &[f64] = flags.pick(&[0.0, 0.01, 0.2], &[0.0, 0.0001, 0.001, 0.01, 0.05, 0.2]);

    let mut rows = Vec::new();
    for kernel in &kernels {
        // The fault-free oracle: no plan object at all.
        let Some(clean) = run_point(kernel, FaultConfig::none()) else {
            println!(
                "note: {} does not shard to {CORES} cores; skipped",
                kernel.name
            );
            continue;
        };
        for &rate in rates {
            let fault = FaultConfig::uniform(SEED, rate);
            let report = run_point(kernel, fault.clone()).expect("shardability is fault-blind");
            let replay = run_point(kernel, fault).expect("shardability is fault-blind");

            // Determinism: same seed, same everything.
            assert_eq!(
                report.makespan, replay.makespan,
                "{} rate {rate}: replay changed the makespan",
                kernel.name
            );
            for counter in [
                |c: &RunReport| c.skipped_cycles,
                |c: &RunReport| c.ecc_retries,
                |c: &RunReport| c.dma_retries,
                |c: &RunReport| c.dir_nacks,
                |c: &RunReport| c.escalations,
            ] {
                assert_eq!(report.total(counter), replay.total(counter));
            }

            // Timing-only: faults never change architectural progress.
            assert_eq!(
                report.total(|c| c.committed),
                clean.total(|c| c.committed),
                "{} rate {rate}: faults changed the committed-instruction total",
                kernel.name
            );
            if rate == 0.0 {
                // A zero-rate plan is bit-identical to no plan.
                assert_eq!(report.makespan, clean.makespan);
                assert_eq!(
                    report.total(|c| c.skipped_cycles),
                    clean.total(|c| c.skipped_cycles)
                );
                assert_eq!(report.total(|c| c.ecc_retries), 0);
            }

            rows.push(FaultRow {
                kernel: kernel.name.clone(),
                rate,
                report,
                baseline: clean.makespan,
            });
        }
    }

    println!("FAULTS: fault rate x kernel degradation sweep ({scale:?} scale)");
    println!(
        "(every point replayed with the same seed and asserted \
         bit-identical; committed totals asserted fault-invariant)"
    );
    println!();
    print_table(&faults_cols(), &rows);
    println!();
    println!(
        "note: degr is makespan relative to the kernel's rate-0 run; \
         escalations count DMA transfers that exhausted the retry \
         budget (completed, flagged) — recovery is paid in cycles, \
         never in lost work."
    );

    SweepJson::new(scale)
        .meta("mode", jstr("HybridCoherent"))
        .meta("cores", CORES)
        .meta("seed", SEED)
        .rows("rows", &faults_cols(), &rows)
        .write("BENCH_faults.json");
}

/// Columns of the `comm` sweep's microbenchmark table.
pub fn comm_cols() -> Vec<Col<CommSweepRow>> {
    type C = Col<CommSweepRow>;
    let total = |header, width, key, counter| C::total(header, width, key, |r| &r.report, counter);
    vec![
        C::both("workload", 9, "workload", |r| (&r.workload).into()),
        C::both("cores", 5, "cores", |r| r.cores.into()),
        C::table("system", 7, |r| {
            Val::text(match r.mode {
                SysMode::CacheBased => "cache",
                _ => "hybrid",
            })
        }),
        C::json("mode", |r| Val::text(format!("{:?}", r.mode))),
        C::both("proto", 9, "protocol", |r| (&r.protocol).into()),
        C::json("rounds", |r| r.rounds.into()),
        C::both("makespan", 10, "makespan", |r| r.report.makespan.into()),
        C::both("rt/rnd", 8, "round_cycles", |r| r.round_cycles.into()).decimals(1, 2),
        total("dramR", 8, "dram_reads", |c| c.dram_reads),
        total("shrhits", 8, "shared_hits", |c| c.coh_shared_hits),
        total("invals", 8, "invalidations", |c| c.coh_invalidations),
        total("intervs", 8, "interventions", |c| c.coh_interventions),
        total("recalls", 8, "dirty_recalls", |c| c.coh_dirty_recalls),
        C::json("committed", |r| r.report.total(|c| c.committed).into()),
    ]
}

/// Fields of the `comm` sweep's `request_serving` rows (the printed
/// form is [`RequestServingReport::render`]).
pub fn request_serving_cols() -> Vec<Col<RequestServingReport>> {
    type C = Col<RequestServingReport>;
    vec![
        C::json("cores", |r| r.cores.into()),
        C::json("mode", |r| Val::text(format!("{:?}", r.mode))),
        C::json("requests", |r| r.requests.into()),
        C::json("service_cycles", |r| r.service_cycles.into()),
        C::json("mean_interarrival", |r| r.mean_interarrival.into()),
        C::json("span_cycles", |r| r.span_cycles.into()),
        C::json("p50", |r| r.latency.p50().into()),
        C::json("p95", |r| r.latency.p95().into()),
        C::json("p99", |r| r.latency.p99().into()),
        C::json("mean", |r| r.latency.mean().into()),
        C::json("max", |r| r.latency.max().into()),
        C::json("requests_per_sec", |r| r.requests_per_sec().into()),
        C::json("load_permille", |r| r.offered_load_permille().into()),
    ]
}

/// Communication & request-serving workloads: the traffic *between*
/// cores as the measured quantity. First the comm microbenchmarks
/// ([`hsim::comm_sweep`]: ping-pong, multi-buffered queue, lock and
/// barrier contention on hybrid and cache-based chips, plus the full
/// protocol family on the cache-based queue hand-off) — the headline is
/// cycles per hand-off (`rt/rnd`); then request serving
/// ([`hsim::request_serving_sweep`]: many short gather kernels against
/// one shared read-mostly table, replayed through a deterministic
/// open-loop arrival process).
pub fn comm(flags: Flags) {
    /// Open-loop offered load as a fraction of measured chip capacity
    /// (permille). 700 keeps the system stable (ρ < 1) while producing
    /// a visible queueing tail.
    const LOAD_PERMILLE: u64 = 700;
    /// Arrival-stream seed; any nonzero value works, the report pins
    /// byte-identical output per seed.
    const SEED: u64 = 0xC0_FFEE;

    let scale = flags.sweep_scale();
    let core_counts: &[usize] = flags.pick(&[2, 4], &[2, 4, 8]);

    let rows = comm_sweep(scale, core_counts, PAR).expect("comm sweep failed");

    println!("COMM: communication microbenchmarks ({scale:?} scale)");
    println!("(rt/rnd = cycles per hand-off; hybrid = LM+DMA payload, coherent flags)");
    println!();
    print_table(&comm_cols(), &rows);
    println!();

    for &cores in core_counts {
        let [hybrid, cache, ..] = comm_orderings(&rows, cores);
        println!(
            "pingpong x{cores}: hybrid {:.1} vs cache {:.1} cycles/round",
            hybrid.round_cycles, cache.round_cycles
        );
    }
    println!();
    println!("comm shapes OK (hybrid RTT < cache RTT; MSI >= MOESI/MESIF queue dramR)");
    println!();

    let reports = request_serving_sweep(scale, core_counts, SEED, LOAD_PERMILLE, PAR)
        .expect("request-serving sweep failed");

    println!(
        "REQUEST SERVING: open-loop gather service ({scale:?} scale, \
         load {LOAD_PERMILLE} permille, seed {SEED:#x})"
    );
    println!();
    for rep in &reports {
        print!("{}", rep.render());
        println!();
    }

    SweepJson::new(scale)
        .meta("seed", SEED)
        .meta("load_permille", LOAD_PERMILLE)
        .rows("rows", &comm_cols(), &rows)
        .rows("request_serving", &request_serving_cols(), &reports)
        .write("BENCH_comm.json");
}
