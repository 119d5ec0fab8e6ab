//! `backside`: DRAM row-buffer locality and L3 bank contention per
//! kernel and core count.

use crate::{grid, jstr, print_table, sweep, Col, Flags, SweepJson};
use hsim::prelude::*;

/// A `backside` point: `(kernel, cores)` and its run.
pub type BacksideRow<'k> = ((&'k Kernel, usize), MultiRunReport);

/// Runs every kernel × core count on machines built from `cfg`. The
/// 1-core point is the plain single machine, wrapped as a one-core
/// report; points a kernel cannot shard to are skipped.
pub fn backside_points<'k>(
    kernels: &'k [Kernel],
    core_counts: &[usize],
    cfg: &MachineConfig,
) -> Result<Vec<BacksideRow<'k>>, MultiRunError> {
    sweep(
        grid(kernels, core_counts.iter().copied()),
        |&(kernel, cores)| {
            let spec = RunSpec::new(kernel).config(cfg.clone());
            if cores != 1 {
                let run = spec.cores(cores).run().map(RunOutcome::into_multi);
                return MultiRunError::skip_unshardable(run);
            }
            let r = spec.run()?.into_single();
            Ok(Some(MultiRunReport {
                makespan: r.cycles,
                per_core: vec![r],
                replication_fallbacks: 0,
            }))
        },
    )
}

/// Columns of the `backside` sweep.
pub fn backside_cols<'k>() -> Vec<Col<BacksideRow<'k>>> {
    type C<'k> = Col<BacksideRow<'k>>;
    let total = |header, width, key, counter| C::total(header, width, key, |r| &r.1, counter);
    vec![
        C::both("kernel", 6, "kernel", |((k, _), _)| (&k.name).into()),
        C::both("cores", 5, "cores", |((_, cores), _)| (*cores).into()),
        C::both("makespan", 10, "makespan", |(_, r)| r.makespan.into()),
        total("rhits", 9, "dram_row_hits", |c| c.dram_row_hits),
        total("rmisses", 9, "dram_row_misses", |c| c.dram_row_misses),
        total("rconfl", 9, "dram_row_conflicts", |c| c.dram_row_conflicts),
        C::both("rowhit%", 8, "dram_row_hit_rate", |(_, r)| {
            r.dram_row_hit_rate().into()
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

    let cfg = flags.config(SysMode::HybridCoherent);
    let rows = backside_points(&kernels, core_counts, &cfg).expect("backside sweep failed");

    println!("BACKSIDE: row-buffer locality and L3 bank contention ({scale:?} scale)");
    println!("(hybrid-coherent machine, default banked L3 + row-aware DRAM controller)");
    println!();
    print_table(&backside_cols(), &rows);
    println!();

    // Locality and contention must actually vary across the grid, or
    // the model has gone flat.
    let rate = |(_, r): &BacksideRow| r.dram_row_hit_rate();
    let varies = rows.iter().any(|r| rate(r) != rate(&rows[0]));
    println!(
        "row-hit rate {} across the grid; total bank conflicts {}",
        if varies { "varies" } else { "is constant" },
        rows.iter()
            .map(|(_, r)| r.total(|c| c.l3_bank_conflicts))
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
