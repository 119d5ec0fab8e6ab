//! `clusters`: hierarchical clusters — channels × clusters × cores per
//! cluster, threaded runs asserted bit-identical to the serial oracle.

use crate::{jstr, print_table, ratio, Col, Flags, SweepJson};
use hsim::cluster::{ClusterConfig, ClusterTopology};
use hsim::prelude::*;

/// A `clusters` point: `(kernel, clusters × cores per cluster, DRAM
/// channels)` and its threaded run (asserted identical to the serial
/// one).
pub type ClusterRow<'k> = ((&'k Kernel, ClusterTopology, usize), ClusterRunReport);

/// Columns of the `clusters` sweep.
pub fn clusters_cols<'k>() -> Vec<Col<ClusterRow<'k>>> {
    type C<'k> = Col<ClusterRow<'k>>;
    vec![
        C::both("kernel", 6, "kernel", |((k, ..), _)| (&k.name).into()),
        C::both("clus", 5, "clusters", |((_, topo, _), _)| {
            topo.clusters.into()
        }),
        C::both("cores", 5, "cores_per_cluster", |((_, topo, _), _)| {
            topo.cores_per_cluster.into()
        }),
        C::both("ch", 3, "dram_channels", |((.., ch), _)| (*ch).into()),
        C::both("makespan", 10, "makespan", |(_, r)| r.makespan.into()),
        C::json("committed", |(_, r)| r.total(|c| c.committed).into()),
        C::json("skipped_cycles", |(_, r)| {
            r.total(|c| c.skipped_cycles).into()
        }),
        C::both("dramR", 9, "dram_reads", |(_, r)| {
            r.total(|c| c.dram_reads).into()
        }),
        C::both("clufall", 8, "cross_cluster_fallbacks", |(_, r)| {
            r.cross_cluster_fallbacks.into()
        }),
    ]
}

/// Hierarchical-cluster sweep: channels × clusters × cores per cluster.
/// Every point runs the cluster machine twice — serially
/// (`ClusterConfig::serial`) and with one host thread per cluster — and
/// asserts the two runs are **bit-identical**. The table shows where
/// extra DRAM channels un-saturate the bandwidth-bound kernels (CG,
/// FT).
pub fn clusters(flags: Flags) {
    // One point on one driver, or `None` when the kernel does not shard
    // to the topology.
    let run_point = |kernel: &Kernel,
                     topo: ClusterTopology,
                     channels: usize,
                     serial: bool|
     -> Option<ClusterRunReport> {
        let mut cluster = ClusterConfig::new(topo);
        if serial {
            cluster = cluster.serial();
        }
        let mut cfg = flags.config(SysMode::HybridCoherent);
        cfg.mem.dram_channels = channels;
        let spec = RunSpec::new(kernel).clustered(&cluster).config(cfg);
        MultiRunError::skip_unshardable(spec.run())
            .unwrap_or_else(|e| panic!("simulation failed: {e}"))
            .map(RunOutcome::into_clusters)
    };

    let scale = flags.sweep_scale();
    // Smoke: the two bandwidth-bound kernels (the channel-scaling
    // cases).
    let kernels = flags.sweep_kernels(&["CG", "FT"]);
    let topologies: &[(usize, usize)] = flags.pick(
        &[(1, 2), (2, 1), (2, 2)],
        &[(1, 4), (2, 2), (2, 4), (4, 2), (4, 4)],
    );
    let channel_counts: &[usize] = flags.pick(&[1, 2], &[1, 2, 4]);

    let mut rows = Vec::new();
    for kernel in &kernels {
        for &(clusters, per) in topologies {
            let topo = ClusterTopology::new(clusters, per);
            for &channels in channel_counts {
                let Some(serial) = run_point(kernel, topo, channels, true) else {
                    println!(
                        "note: {} does not shard to {}x{}; skipped",
                        kernel.name, clusters, per
                    );
                    continue;
                };
                let threaded = run_point(kernel, topo, channels, false)
                    .expect("shardability cannot depend on threading");

                // The acceptance invariant: the threaded run is
                // bit-identical to the serial oracle, skip counters
                // included.
                assert_eq!(
                    serial.makespan, threaded.makespan,
                    "{} {}x{} ch{}: threading changed the makespan",
                    kernel.name, clusters, per, channels
                );
                for counter in [
                    |c: &RunReport| c.committed,
                    |c: &RunReport| c.skipped_cycles,
                    |c: &RunReport| c.dram_reads,
                ] {
                    assert_eq!(serial.total(counter), threaded.total(counter));
                }

                rows.push(((kernel, topo, channels), threaded));
            }
        }
    }

    println!("CLUSTERS: channels x clusters x cores sweep ({scale:?} scale)");
    println!("(threaded runs asserted bit-identical to the serial oracle)");
    println!();
    print_table(&clusters_cols(), &rows);
    println!();
    if rows.iter().any(|(_, r)| r.cross_cluster_fallbacks > 0) {
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
            .filter(|((k, topo, _), _)| k.name == name && topo.total_cores() >= 4)
            .collect();
        for w in points.windows(2) {
            let [((_, topo, ch0), r0), ((_, topo1, ch1), r1)] = [w[0], w[1]];
            if topo == topo1 && ch1 > ch0 {
                println!(
                    "{} {}x{}: {} -> {} channels shrinks makespan {:.3}x",
                    name,
                    topo.clusters,
                    topo.cores_per_cluster,
                    ch0,
                    ch1,
                    ratio(r0.makespan, r1.makespan)
                );
            }
        }
    }

    SweepJson::new(scale)
        .meta("mode", jstr("HybridCoherent"))
        .rows("rows", &clusters_cols(), &rows)
        .write("BENCH_clusters.json");
}
