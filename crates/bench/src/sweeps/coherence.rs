//! `coherence`: the private-tables baseline vs `Mesi` side by side,
//! then the whole protocol family, on the same sharded kernels.

use crate::shapes::protocol_family_ordering;
use crate::{grid, jstr, print_table, private_tables, sweep, Col, Flags, SweepJson, Val};
use hsim::cluster::cross_cluster_fallbacks;
use hsim::prelude::*;

/// A protocol-family point: `(kernel, cores, protocol)` and its run.
/// Protocol `None` is the point's [`private_tables`] baseline.
pub type ProtocolRow<'k> = (
    (&'k Kernel, usize, Option<CoherenceProtocol>),
    MultiRunReport,
);

/// The rows [`protocol_points`] keeps per point: the private-tables
/// baseline, then every protocol.
const ROWS_PER_POINT: usize = 1 + CoherenceProtocol::ALL.len();

/// A private-tables-vs-`Mesi` row: `(kernel, cores)` and its `[private,
/// mesi]` runs. The `Mesi` run commits exactly the instructions of the
/// private one — sharing may only change timing.
pub type CoherenceRow<'k> = ((&'k Kernel, usize), [MultiRunReport; 2]);

/// Runs every kernel × core-count point on `mode` machines, first as
/// its [`private_tables`] baseline and then under every
/// [`CoherenceProtocol`] in turn (one job per point, one row per run in
/// that order), and asserts that no run changes the
/// committed-instruction count. Points a kernel cannot shard to are
/// skipped.
pub fn protocol_points<'k>(
    kernels: &'k [Kernel],
    core_counts: &[usize],
    mode: SysMode,
) -> Result<Vec<ProtocolRow<'k>>, MultiRunError> {
    let points = sweep(
        grid(kernels, core_counts.iter().copied()),
        |&(kernel, cores)| {
            let shards = kernel.shard(cores).map_err(MultiRunError::from);
            let Some(shards) = MultiRunError::skip_unshardable(shards)? else {
                return Ok(None);
            };
            let cfg = MachineConfig::for_mode(mode);
            let private = RunSpec::many(&private_tables(shards.clone()))
                .config(cfg.clone())
                .run()?
                .into_multi();
            let committed = private.total(|c| c.committed);
            let mut runs: Vec<ProtocolRow> = vec![((kernel, cores, None), private)];
            for cm in CoherenceProtocol::ALL {
                let spec = RunSpec::many(&shards).config(cfg.clone().with_coherence(cm));
                let report = spec.run()?.into_multi();
                assert_eq!(
                    committed,
                    report.total(|c| c.committed),
                    "{} x{cores}: {} changed committed work",
                    kernel.name,
                    cm.name()
                );
                runs.push(((kernel, cores, Some(cm)), report));
            }
            Ok(Some(runs))
        },
    )?;
    Ok(points.into_iter().flat_map(|(_, runs)| runs).collect())
}

/// The private-tables-vs-`Mesi` view of [`protocol_points`]' rows: one
/// row per point, so every point is simulated once whichever table
/// reports it.
pub fn coherence_view<'k>(proto: &[ProtocolRow<'k>]) -> Vec<CoherenceRow<'k>> {
    proto
        .chunks(ROWS_PER_POINT)
        .map(|point| {
            let run = |cm| {
                let row = point.iter().find(|((.., m), _)| *m == cm);
                row.expect("every run of the point is kept").1.clone()
            };
            let (kernel, cores, _) = point[0].0;
            let runs = [run(None), run(Some(CoherenceProtocol::Mesi))];
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

/// Columns of the `coherence` sweep's private-tables-vs-Mesi table.
pub fn coherence_cols<'k>() -> Vec<Col<CoherenceRow<'k>>> {
    type C<'k> = Col<CoherenceRow<'k>>;
    let private = |header, width, key, counter| C::total(header, width, key, |r| &r.1[0], counter);
    let mesi = |header, width, key, counter| C::total(header, width, key, |r| &r.1[1], counter);
    vec![
        C::both("kernel", 6, "kernel", |((k, _), _)| (&k.name).into()),
        C::both("cores", 5, "cores", |((_, cores), _)| (*cores).into()),
        C::both("mk.priv", 10, "makespan_private", |(_, [private, _])| {
            private.makespan.into()
        }),
        C::both("mk.mesi", 10, "makespan_mesi", |(_, [_, mesi])| {
            mesi.makespan.into()
        }),
        private("dramR.priv", 10, "dram_reads_private", |c| c.dram_reads),
        mesi("dramR.mesi", 10, "dram_reads_mesi", |c| c.dram_reads),
        mesi("shrhits", 9, "shared_hits", |c| c.coh_shared_hits),
        mesi("invals", 8, "invalidations", |c| c.coh_invalidations),
        mesi("intervs", 8, "interventions", |c| c.coh_interventions),
        C::json("committed", |(_, [private, _])| {
            private.total(|c| c.committed).into()
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
        C::both("proto", 9, "protocol", |((.., cm), _)| {
            Val::text(cm.map_or("private", CoherenceProtocol::name))
        }),
        C::both("makespan", 10, "makespan", |(_, r)| r.makespan.into()),
        total("dramR", 9, "dram_reads", |c| c.dram_reads),
        total("shrhits", 9, "shared_hits", |c| c.coh_shared_hits),
        total("invals", 8, "invalidations", |c| c.coh_invalidations),
        total("intervs", 8, "interventions", |c| c.coh_interventions),
        C::json("committed", |(_, r)| r.total(|c| c.committed).into()),
    ]
}

/// Coherence comparison: the private-tables baseline (the same shards
/// with their `shared` marks cleared, so every core caches private
/// lines of the sharder's replicated-whole tables) vs the directory
/// protocol family (`Msi`/`Mesi`/`Moesi`/`Mesif`, serving those tables
/// from shared, directory-tracked lines at the L3 banks) on the same
/// sharded kernels. The headline is DRAM read traffic: a shared table
/// is fetched once per chip instead of once per core. The grid always
/// includes CG at 4 cores, whose gathered `x` table is the acceptance
/// case.
pub fn coherence(flags: Flags) {
    let scale = flags.sweep_scale();
    // Smoke: CG plus one double-store kernel.
    let kernels = flags.sweep_kernels(&["CG", "IS"]);
    let core_counts: &[usize] = flags.pick(&[1, 2, 4], &[1, 2, 4, 8]);

    // One simulation per point and run; the private-vs-Mesi table is a
    // view of the protocol rows.
    let proto_rows = protocol_points(&kernels, core_counts, SysMode::HybridCoherent)
        .expect("protocol sweep failed");
    let rows = coherence_view(&proto_rows);

    println!("COHERENCE: private tables vs Mesi on the shared backside ({scale:?} scale)");
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
    // under Mesi than with private tables (the gathered x table is
    // fetched once per chip, not once per core).
    let cg4 = rows
        .iter()
        .find(|((k, cores), _)| k.name == "CG" && *cores == 4);
    if let Some((_, [private, mesi])) = cg4 {
        let reads_private = private.total(|c| c.dram_reads);
        let reads_mesi = mesi.total(|c| c.dram_reads);
        let shared_hits = mesi.total(|c| c.coh_shared_hits);
        println!(
            "CG x4 DRAM reads: {reads_private} (private tables) vs {reads_mesi} (Mesi), \
             {shared_hits} shared hits"
        );
        assert!(
            reads_mesi < reads_private,
            "CG x4 must read less DRAM under Mesi ({reads_mesi} vs {reads_private})"
        );
        assert!(shared_hits > 0, "CG x4 must score shared hits");
    }
    // Single-core points must be invariant (nothing is shared).
    for ((k, _), [private, mesi]) in rows.iter().filter(|((_, cores), _)| *cores == 1) {
        assert_eq!(
            private.makespan, mesi.makespan,
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

    // Every point contributes its rows contiguously.
    for point in proto_rows.chunks(ROWS_PER_POINT) {
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
