//! `coherence`: `Replicate` vs `Mesi` side by side, then the whole
//! protocol family, on the same sharded kernels.

use crate::shapes::protocol_family_ordering;
use crate::{grid, jstr, print_table, sweep, Col, Flags, SweepJson, Val};
use hsim::cluster::cross_cluster_fallbacks;
use hsim::prelude::*;

/// A protocol-family point: `(kernel, cores, protocol)` and its run.
pub type ProtocolRow<'k> = ((&'k Kernel, usize, CoherenceMode), MultiRunReport);

/// A `Replicate`-vs-`Mesi` row: `(kernel, cores)` and its `[replicate,
/// mesi]` runs. The `Mesi` run commits exactly the instructions of the
/// `Replicate` one — the modes may only change timing.
pub type CoherenceRow<'k> = ((&'k Kernel, usize), [MultiRunReport; 2]);

/// Runs every kernel × core-count point on `mode` machines under every
/// [`CoherenceMode`] in turn (one job per point, one row per mode, in
/// [`CoherenceMode::ALL`] order) and asserts that no protocol changes
/// the committed-instruction count. Points a kernel cannot shard to are
/// skipped.
pub fn protocol_points<'k>(
    kernels: &'k [Kernel],
    core_counts: &[usize],
    mode: SysMode,
) -> Result<Vec<ProtocolRow<'k>>, MultiRunError> {
    let points = sweep(
        grid(kernels, core_counts.iter().copied()),
        |&(kernel, cores)| {
            let mut runs: Vec<ProtocolRow> = Vec::new();
            for cm in CoherenceMode::ALL {
                let cfg = MachineConfig::for_mode(mode).with_coherence(cm);
                let spec = RunSpec::new(kernel).cores(cores).config(cfg);
                let Some(out) = MultiRunError::skip_unshardable(spec.run())? else {
                    return Ok(None);
                };
                let report = out.into_multi();
                if let Some((_, first)) = runs.first() {
                    assert_eq!(
                        first.total(|c| c.committed),
                        report.total(|c| c.committed),
                        "{} x{cores}: {} changed committed work",
                        kernel.name,
                        cm.name()
                    );
                }
                runs.push(((kernel, cores, cm), report));
            }
            Ok(Some(runs))
        },
    )?;
    Ok(points.into_iter().flat_map(|(_, runs)| runs).collect())
}

/// The `Replicate`-vs-`Mesi` view of [`protocol_points`]' rows: one row
/// per point, so every point is simulated once whichever table reports
/// it.
pub fn coherence_view<'k>(proto: &[ProtocolRow<'k>]) -> Vec<CoherenceRow<'k>> {
    proto
        .chunks(CoherenceMode::ALL.len())
        .map(|point| {
            let run = |cm| {
                let row = point.iter().find(|((.., m), _)| *m == cm);
                row.expect("every mode ran").1.clone()
            };
            let (kernel, cores, _) = point[0].0;
            let runs = [run(CoherenceMode::Replicate), run(CoherenceMode::Mesi)];
            ((kernel, cores), runs)
        })
        .collect()
}

/// Shared-marked arrays of the row's kernel that would fall back to
/// per-cluster replication if it were split across a 2-cluster machine
/// ([`cross_cluster_fallbacks`]): cross-cluster sharing is never
/// silently free, so the sweep surfaces the cost a clustered run of the
/// same kernel would pay.
fn cluster_fallbacks(((kernel, _), _): &CoherenceRow) -> u64 {
    cross_cluster_fallbacks(kernel, 2)
}

/// Columns of the `coherence` sweep's Replicate-vs-Mesi table.
pub fn coherence_cols<'k>() -> Vec<Col<CoherenceRow<'k>>> {
    type C<'k> = Col<CoherenceRow<'k>>;
    let replicate =
        |header, width, key, counter| C::total(header, width, key, |r| &r.1[0], counter);
    let mesi = |header, width, key, counter| C::total(header, width, key, |r| &r.1[1], counter);
    vec![
        C::both("kernel", 6, "kernel", |((k, _), _)| (&k.name).into()),
        C::both("cores", 5, "cores", |((_, cores), _)| (*cores).into()),
        C::both("mk.rep", 10, "makespan_replicate", |(_, [rep, _])| {
            rep.makespan.into()
        }),
        C::both("mk.mesi", 10, "makespan_mesi", |(_, [_, mesi])| {
            mesi.makespan.into()
        }),
        replicate("dramR.rep", 9, "dram_reads_replicate", |c| c.dram_reads),
        mesi("dramR.mesi", 9, "dram_reads_mesi", |c| c.dram_reads),
        mesi("shrhits", 9, "shared_hits", |c| c.coh_shared_hits),
        mesi("invals", 8, "invalidations", |c| c.coh_invalidations),
        mesi("intervs", 8, "interventions", |c| c.coh_interventions),
        C::json("committed", |(_, [rep, _])| {
            rep.total(|c| c.committed).into()
        }),
        C::both("replfall", 8, "replication_fallbacks", |(_, [_, mesi])| {
            mesi.replication_fallbacks.into()
        }),
        C::both("clufall", 8, "cluster_fallbacks", |r| {
            cluster_fallbacks(r).into()
        }),
    ]
}

/// Columns of the `coherence` sweep's protocol-family table.
pub fn protocol_cols<'k>() -> Vec<Col<ProtocolRow<'k>>> {
    type C<'k> = Col<ProtocolRow<'k>>;
    let total = |header, width, key, counter| C::total(header, width, key, |r| &r.1, counter);
    vec![
        C::both("kernel", 6, "kernel", |((k, ..), _)| (&k.name).into()),
        C::both("cores", 5, "cores", |((_, cores, _), _)| (*cores).into()),
        C::both("proto", 9, "protocol", |((.., cm), _)| Val::text(cm.name())),
        C::both("makespan", 10, "makespan", |(_, r)| r.makespan.into()),
        total("dramR", 9, "dram_reads", |c| c.dram_reads),
        total("shrhits", 9, "shared_hits", |c| c.coh_shared_hits),
        total("invals", 8, "invalidations", |c| c.coh_invalidations),
        total("intervs", 8, "interventions", |c| c.coh_interventions),
        C::json("committed", |(_, r)| r.total(|c| c.committed).into()),
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
    // a view of the protocol rows.
    let proto_rows = protocol_points(&kernels, core_counts, SysMode::HybridCoherent)
        .expect("protocol sweep failed");
    let rows = coherence_view(&proto_rows);

    println!("COHERENCE: Replicate vs Mesi on the shared backside ({scale:?} scale)");
    println!("(hybrid-coherent machine; dramR = total DRAM line reads)");
    println!();
    print_table(&coherence_cols(), &rows);
    println!();
    let fallbacks: u64 = rows
        .iter()
        .map(|(_, [_, mesi])| mesi.replication_fallbacks)
        .sum();
    if fallbacks > 0 {
        println!(
            "note: {fallbacks} shared-marked array(s) fell back to per-core \
             replication (diverged shard layouts) and were not served from \
             shared lines under Mesi."
        );
        println!();
    }
    if rows.iter().any(|r| cluster_fallbacks(r) > 0) {
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
    let cg4 = rows
        .iter()
        .find(|((k, cores), _)| k.name == "CG" && *cores == 4);
    if let Some((_, [replicate, mesi])) = cg4 {
        let reads_replicate = replicate.total(|c| c.dram_reads);
        let reads_mesi = mesi.total(|c| c.dram_reads);
        let shared_hits = mesi.total(|c| c.coh_shared_hits);
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
    for ((k, _), [replicate, mesi]) in rows.iter().filter(|((_, cores), _)| *cores == 1) {
        assert_eq!(
            replicate.makespan, mesi.makespan,
            "{}: a lone core has nothing to share",
            k.name
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
        if point[0].0 .1 > 1 {
            protocol_family_ordering(point);
        }
    }

    SweepJson::new(scale)
        .meta("mode", jstr("HybridCoherent"))
        .rows("rows", &coherence_cols(), &rows)
        .rows("protocol_rows", &protocol_cols(), &proto_rows)
        .write("BENCH_coherence.json");
}
