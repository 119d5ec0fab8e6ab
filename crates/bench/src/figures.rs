//! The paper's §4 artefacts: Tables 1–3, Figures 7–10 and the
//! design-choice ablations. Each prints the paper-reported values next
//! to the measured ones; none writes a file. A figure row pairs its
//! axes with the `[measured, reference]` runs a bar is normalized by.

use crate::{
    grid, paper_energy_overhead, paper_speedup, paper_table3, paper_time_overhead, print_table,
    ratio, sweep, Col, Flags, Table, Val,
};
use hsim::machine::{MachineConfig, SysMode};
use hsim::metrics::RunReport;
use hsim::prelude::*;
use hsim_isa::asm::format_inst;
use hsim_isa::Inst;
use hsim_workloads::nas;

/// A row of Figures 8–10 and Table 3: the kernel and its `[measured,
/// reference]` runs.
pub type FigRow<'k> = (&'k Kernel, [RunReport; 2]);

/// A point of Figure 7: `(mode, % guarded)` and its `[measured,
/// Baseline-mode]` runs.
pub type Fig7Row = ((MicroMode, u32), [RunReport; 2]);

/// Figure 8's systems: the hybrid-coherent machine against the
/// incoherent oracle.
pub const VS_ORACLE: [SysMode; 2] = [SysMode::HybridCoherent, SysMode::HybridOracle];

/// The systems of Figures 9 and 10 and Table 3: the hybrid-coherent
/// machine against the cache-based one.
pub const VS_CACHE: [SysMode; 2] = [SysMode::HybridCoherent, SysMode::CacheBased];

/// Runs every kernel on the `[measured, reference]` systems `modes`,
/// one job per kernel.
pub fn two_systems(
    kernels: &[Kernel],
    modes: [SysMode; 2],
) -> Result<Vec<FigRow<'_>>, MultiRunError> {
    sweep(kernels.iter().collect(), |&k| {
        let run = |mode| {
            RunSpec::new(k)
                .mode(mode)
                .run()
                .map(RunOutcome::into_single)
        };
        Ok(Some([run(modes[0])?, run(modes[1])?]))
    })
}

/// Measured cycles over reference cycles: Figure 8's time overhead,
/// Figure 9's bar.
pub fn time_ratio([run, reference]: &[RunReport; 2]) -> f64 {
    ratio(run.cycles, reference.cycles)
}

/// Reference cycles over measured cycles: Figure 9's speedup of the
/// hybrid system.
pub fn speedup([run, reference]: &[RunReport; 2]) -> f64 {
    ratio(reference.cycles, run.cycles)
}

/// Measured energy over reference energy: Figure 8's energy overhead,
/// Figure 10's bar.
pub fn energy_ratio([run, reference]: &[RunReport; 2]) -> f64 {
    run.energy_total() / reference.energy_total()
}

/// Figure 7's microbenchmark sweep: the RD / WR / RD+WR modes at every
/// `step` percent (a multiple of 10) of guarded references, `n`
/// iterations each. The Baseline-mode run goes first (every point is
/// normalized by it), then every (mode, pct) point is one job.
pub fn fig7_points(n: u64, step: u32) -> Result<Vec<Fig7Row>, MultiRunError> {
    let run = |mode, guarded_pct| {
        let k = microbench(&MicrobenchConfig {
            mode,
            guarded_pct,
            n,
        });
        RunSpec::new(&k).run().map(RunOutcome::into_single)
    };
    let base = run(MicroMode::Baseline, 0)?;
    let modes = [MicroMode::Rd, MicroMode::Wr, MicroMode::RdWr];
    let pcts = (0..=100).step_by(step.max(10) as usize);
    sweep(grid(modes, pcts), |&(mode, pct)| {
        Ok(Some([run(mode, pct)?, base.clone()]))
    })
}

/// Work-phase cycles against the Baseline mode's: Figure 7's overhead.
///
/// The work phase isolates the cost of the guards and double stores,
/// which is what the paper's microbenchmark measures; the control phase
/// additionally differs because a buffer that is only written through
/// guarded stores is mapped read-only and skips its `dma-put`s.
pub fn overhead((_, [run, base]): &Fig7Row) -> f64 {
    ratio(run.phase(Phase::Work), base.phase(Phase::Work))
}

/// Committed instructions against the Baseline mode's.
pub fn inst_ratio((_, [run, base]): &Fig7Row) -> f64 {
    ratio(run.committed, base.committed)
}

/// Table 1: the simulated core and memory configuration.
pub fn table1(_: Flags) {
    let core = hsim_core::CoreConfig::default();
    let mem = hsim_mem::MemConfig::hybrid();
    let cache_line = |c: &hsim_mem::CacheConfig| {
        format!(
            "{} KB, {}-way set-associative, {:?}, {} cycles latency",
            c.size_bytes / 1024,
            c.ways,
            c.write_policy,
            c.latency
        )
    };
    let lm = mem.lm.as_ref().expect("the hybrid system has an LM");

    println!("TABLE 1: simulator configuration parameters");
    println!("(paper values in parentheses where they differ)");
    println!();
    let rows: Vec<(&str, String)> = vec![
        (
            "Pipeline",
            format!("Out-of-order, {} instructions wide", core.fetch_width),
        ),
        (
            "Branch predictor",
            format!(
                "Hybrid {}K selector, {}K G-share, {}K Bimodal",
                core.selector_entries / 1024,
                core.gshare_entries / 1024,
                core.bimodal_entries / 1024
            ),
        ),
        (
            "",
            format!(
                "{}K BTB {}-way, RAS {} entries",
                core.btb_entries / 1024,
                core.btb_ways,
                core.ras_entries
            ),
        ),
        (
            "Functional units",
            format!(
                "{} INT ALUs, {} FP ALUs, {} load/store units",
                core.int_alus, core.fp_alus, core.ls_units
            ),
        ),
        (
            "Register file",
            format!(
                "{} INT registers, {} FP registers",
                core.int_phys_regs, core.fp_phys_regs
            ),
        ),
        (
            "Window",
            format!(
                "{}-entry ROB, {} load / {} store queue entries",
                core.rob_size, core.lsq_loads, core.lsq_stores
            ),
        ),
        ("L1 I-cache", cache_line(&mem.l1i)),
        ("L1 D-cache", cache_line(&mem.l1d)),
        (
            "L2 cache",
            format!("{} (paper: 24-way)", cache_line(&mem.l2)),
        ),
        ("L3 cache", cache_line(&mem.l3)),
        (
            "Prefetcher",
            format!(
                "IP-based stream prefetcher to L1, L2 and L3 ({}-entry table, degree {}, distance {})",
                mem.prefetch.table_entries, mem.prefetch.degree, mem.prefetch.distance
            ),
        ),
        (
            "Local memory",
            format!("{} KB, {} cycles latency", lm.size_bytes / 1024, lm.latency),
        ),
        (
            "Directory",
            "32-entry CAM, lookup folded into the AGU cycle".into(),
        ),
        (
            "DMA controller",
            format!(
                "pipelined, {} B/cycle, {}-cycle setup, {}-cycle first data",
                mem.dma.bytes_per_cycle, mem.dma.setup_latency, mem.dma.first_data_latency
            ),
        ),
        (
            "DRAM",
            format!(
                "{} cycles latency, {}-cycle line gap",
                mem.dram.timing.t_rcd + mem.dram.timing.t_cas,
                mem.dram.gap
            ),
        ),
    ];
    for (name, desc) in rows {
        println!("{:18} {}", name, desc);
    }
}

/// Table 2: the microbenchmark scheme — the four modes and the assembly
/// the compiler emits for each (the inner work loop).
pub fn table2(_: Flags) {
    println!("TABLE 2: microbenchmark scheme");
    println!("int a[N]; int c;");
    println!("for(i=0; i<N-1; i++) {{ a[i+1] = a[i] + c; }}");
    println!();
    println!(
        "(one chain shown; the sweep runs {} such chains and guards",
        hsim_workloads::microbench::CHAINS
    );
    println!("a fraction of them — see `fig7`)");
    for mode in [
        MicroMode::Baseline,
        MicroMode::Rd,
        MicroMode::Wr,
        MicroMode::RdWr,
    ] {
        let k = microbench(&MicrobenchConfig {
            mode,
            guarded_pct: 100,
            n: 256,
        });
        let ck = compile(&k, CodegenMode::HybridCoherent);
        println!("\n=== mode {} ===", mode.name());
        // Show the first chain's statement instructions from the main
        // work-loop body, which starts at the Work phase marker.
        let insts = &ck.program.insts;
        let start = insts
            .iter()
            .position(|i| matches!(i, Inst::PhaseMark { phase: Phase::Work }))
            .expect("work phase");
        let mut shown = 0;
        let names = std::collections::HashMap::new();
        for inst in &insts[start..] {
            if inst.is_mem() || matches!(inst, Inst::Alu { .. } | Inst::Li { .. }) {
                println!("    {}", format_inst(inst, &names));
                shown += 1;
                // One chain: load, add(+1), store(s); stop after the
                // first chain's plain store.
                if inst.is_store() && inst.route() == Some(Route::Plain) && shown > 2 {
                    break;
                }
                if shown > 8 {
                    break;
                }
            }
        }
        let guarded = ck.program.count_route(Route::Guarded);
        println!("    ; guarded instructions in program: {guarded}");
    }
}

/// Table 3: activity in the memory subsystem for the hybrid and
/// cache-based systems (guarded references, AMAT, L1 hit ratio, and
/// access counts per component in thousands).
pub fn table3(flags: Flags) {
    let kernels = nas::all_nas(flags.scale());
    let rows = two_systems(&kernels, VS_CACHE).expect("simulation failed");
    let k = |x: u64| format!("{}", x / 1000);

    println!("TABLE 3: activity in the memory subsystem (counts in thousands)");
    println!();
    let t = Table::new(&[4, 15, 12, 6, 8, 9, 9, 9, 9, 9]);
    t.row(&[
        "Name", "Mode", "Guarded", "AMAT", "L1 hit%", "L1 acc", "L2 acc", "L3 acc", "LM acc",
        "Dir acc",
    ]);
    t.sep();
    for (kernel, [hybrid, cache]) in &rows {
        let g = format!(
            "{}/{} ({:.0}%)",
            hybrid.guarded_refs,
            hybrid.total_refs,
            100.0 * hybrid.guarded_refs as f64 / hybrid.total_refs.max(1) as f64
        );
        t.row(&[
            kernel.name.clone(),
            "Hybrid coherent".into(),
            g,
            format!("{:.2}", hybrid.amat),
            format!("{:.2}", hybrid.l1d_hit_ratio),
            k(hybrid.l1_accesses),
            k(hybrid.l2_accesses),
            k(hybrid.l3_accesses),
            k(hybrid.lm_accesses),
            k(hybrid.dir_accesses),
        ]);
        t.row(&[
            kernel.name.clone(),
            "Cache-based".into(),
            "0".into(),
            format!("{:.2}", cache.amat),
            format!("{:.2}", cache.l1d_hit_ratio),
            k(cache.l1_accesses),
            k(cache.l2_accesses),
            k(cache.l3_accesses),
            "0".into(),
            "0".into(),
        ]);
        if let Some((pg, ha, hl1, ca, cl1)) = paper_table3(&kernel.name) {
            let mut paper = vec![String::new(); 10];
            paper[1] = "(paper)".into();
            paper[2] = pg.into();
            paper[3] = format!("{ha:.2}/{ca:.2}");
            paper[4] = format!("{hl1:.1}/{cl1:.1}");
            t.row(&paper);
        }
        t.sep();
    }
    println!(
        "\n'(paper)' rows give the paper's guarded ratio, then hybrid/cache AMAT and L1 hit%."
    );
    println!("Access counts depend on the workload sizes and are not directly comparable;");
    println!("the ratios and orderings are.");
}

/// Columns of Figure 7's table.
pub fn fig7_cols() -> Vec<Col<Fig7Row>> {
    type C = Col<Fig7Row>;
    vec![
        C::table("mode", 6, |((mode, _), _)| Val::text(mode.name())),
        C::table("%", 6, |((_, pct), _)| u64::from(*pct).into()),
        C::table("overhead", 10, |p| overhead(p).into()).decimals(3, 3),
        C::table("insts", 10, |p| inst_ratio(p).into()).decimals(3, 3),
    ]
}

/// Figure 7: microbenchmark overhead in all modes as the share of
/// potentially incoherent references grows.
pub fn fig7(flags: Flags) {
    let n = match flags.scale() {
        Scale::Test => 8 * 1024,
        Scale::Paper => 64 * 1024,
    };
    let pts = fig7_points(n, 10).expect("simulation failed");
    println!("FIGURE 7: work-phase overhead vs % of guarded references");
    println!("(paper: RD flat at 1.00; WR and RD/WR linear up to ~1.28 at 100%,");
    println!(" driven by a ~26% instruction increase from the double store)");
    println!();
    print_table(&fig7_cols(), &pts);
    // Headline claims.
    let rd_max = pts
        .iter()
        .filter(|((mode, _), _)| *mode == MicroMode::Rd)
        .map(overhead)
        .fold(0.0, f64::max);
    let wr100 = pts
        .iter()
        .find(|(axes, _)| *axes == (MicroMode::Wr, 100))
        .expect("the WR sweep ends at 100%");
    println!();
    println!("RD max overhead: {:.3} (paper: 1.00)", rd_max);
    println!(
        "WR @100%: overhead {:.3}, insts {:.3} (paper: 1.28, 1.26)",
        overhead(wr100),
        inst_ratio(wr100)
    );
}

/// Columns of Figure 8's table.
pub fn fig8_cols<'k>() -> Vec<Col<FigRow<'k>>> {
    type C<'k> = Col<FigRow<'k>>;
    fn pct(ratio: f64) -> Val {
        Val::text(format!("{:+.2}%", (ratio - 1.0) * 100.0))
    }
    vec![
        C::table("", 4, |(k, _)| (&k.name).into()),
        C::table("time ovh", 12, |(_, r)| pct(time_ratio(r))),
        C::table("energy ovh", 12, |(_, r)| pct(energy_ratio(r))),
        C::table("paper time", 14, |(k, _)| {
            Val::text(format!("{:+.2}%", paper_time_overhead(&k.name)))
        }),
        C::table("paper energy", 14, |(k, _)| {
            Val::text(format!("~{:+.1}%", paper_energy_overhead(&k.name)))
        }),
    ]
}

/// Figure 8: overhead of the coherence protocol on the real benchmarks,
/// against the incoherent hybrid with an oracle compiler.
pub fn fig8(flags: Flags) {
    let kernels = nas::all_nas(flags.scale());
    let rows = two_systems(&kernels, VS_ORACLE).expect("simulation failed");
    println!("FIGURE 8: coherence-protocol overhead vs the oracle baseline");
    println!();
    let t = print_table(&fig8_cols(), &rows);
    t.sep();
    let avg = |f: fn(&[RunReport; 2]) -> f64| {
        let overhead = rows.iter().map(|(_, r)| f(r) - 1.0).sum::<f64>() / rows.len() as f64;
        format!("{:+.2}%", overhead * 100.0)
    };
    t.row(&[
        "AVG".into(),
        avg(time_ratio),
        avg(energy_ratio),
        "+0.26%".to_string(),
        "+2.03%".to_string(),
    ]);
    println!();
    println!("Directory accesses (coherent runs):");
    for (k, [coherent, _]) in &rows {
        println!(
            "  {:4} {:10} lookups+updates; collapsed double stores: {}",
            k.name, coherent.dir_accesses, coherent.core.collapsed_stores
        );
    }
}

/// Columns of Figure 9's table.
pub fn fig9_cols<'k>() -> Vec<Col<FigRow<'k>>> {
    type C<'k> = Col<FigRow<'k>>;
    vec![
        C::table("", 4, |(k, _)| (&k.name).into()),
        C::table("time", 10, |(_, r)| time_ratio(r).into()).decimals(3, 3),
        C::table("work", 8, |(_, [h, c])| {
            ratio(h.phase_cycles[3], c.cycles).into()
        })
        .decimals(3, 3),
        C::table("synch", 8, |(_, [h, c])| {
            ratio(h.phase_cycles[2], c.cycles).into()
        })
        .decimals(3, 3),
        C::table("control", 8, |(_, [h, c])| {
            ratio(h.phase_cycles[1], c.cycles).into()
        })
        .decimals(3, 3),
        C::table("other", 8, |(_, [h, c])| {
            ratio(h.phase_cycles[0], c.cycles).into()
        })
        .decimals(3, 3),
        C::table("speedup", 10, |(_, r)| speedup(r).into())
            .decimals(2, 2)
            .suffix("x"),
        C::table("paper", 12, |(k, _)| paper_speedup(&k.name).into())
            .decimals(2, 2)
            .suffix("x"),
    ]
}

/// Figure 9: execution-time reduction of the coherent hybrid memory
/// system vs the cache-based system, with the work / synch / control
/// phase split.
pub fn fig9(flags: Flags) {
    let kernels = nas::all_nas(flags.scale());
    let rows = two_systems(&kernels, VS_CACHE).expect("simulation failed");
    println!("FIGURE 9: execution time normalized to the cache-based system");
    println!();
    print_table(&fig9_cols(), &rows).sep();
    println!(
        "average speedup: {:.2}x (paper: 1.38x)",
        rows.iter().map(|(_, r)| speedup(r)).sum::<f64>() / rows.len() as f64
    );
}

/// Columns of Figure 10's table.
pub fn fig10_cols<'k>() -> Vec<Col<FigRow<'k>>> {
    type C<'k> = Col<FigRow<'k>>;
    vec![
        C::table("", 4, |(k, _)| (&k.name).into()),
        C::table("total", 8, |(_, r)| energy_ratio(r).into()).decimals(3, 3),
        C::table("cpu", 8, |(_, [h, c])| {
            (h.energy.cpu / c.energy_total()).into()
        })
        .decimals(3, 3),
        C::table("caches", 8, |(_, [h, c])| {
            (h.energy.caches / c.energy_total()).into()
        })
        .decimals(3, 3),
        C::table("lm", 8, |(_, [h, c])| {
            (h.energy.lm / c.energy_total()).into()
        })
        .decimals(3, 3),
        C::table("others", 8, |(_, [h, c])| {
            (h.energy.others / c.energy_total()).into()
        })
        .decimals(3, 3),
        C::table("saving", 12, |(_, r)| {
            ((1.0 - energy_ratio(r)) * 100.0).into()
        })
        .decimals(1, 1)
        .suffix("%"),
    ]
}

/// Figure 10: energy-consumption reduction of the coherent hybrid
/// memory system vs the cache-based system, with the CPU / caches / LM
/// / others component split.
pub fn fig10(flags: Flags) {
    let kernels = nas::all_nas(flags.scale());
    let rows = two_systems(&kernels, VS_CACHE).expect("simulation failed");
    println!("FIGURE 10: energy normalized to the cache-based system");
    println!("(component split of the hybrid bar; paper reports 12%-41% savings, avg 27%)");
    println!();
    print_table(&fig10_cols(), &rows).sep();
    println!(
        "average saving: {:.1}% (paper: 27%)",
        (1.0 - rows.iter().map(|(_, r)| energy_ratio(r)).sum::<f64>() / rows.len() as f64) * 100.0
    );
    println!();
    println!("Cache-based component split, for reference:");
    for (k, [_, cache]) in &rows {
        let ct = cache.energy_total();
        let e = &cache.energy;
        println!(
            "  {:4} cpu={:.3} caches={:.3} others={:.3}",
            k.name,
            e.cpu / ct,
            e.caches / ct,
            e.others / ct
        );
    }
}

/// Ablations of the design choices the reproduction made: +1/+2 cycle
/// directory lookup (vs the paper's in-AGU-cycle argument), an unbounded
/// prefetcher history table, the prefetcher off, a serialized
/// (non-pipelined) DMA engine — approximated by raising the per-command
/// setup latency — and what store collapsing saves.
pub fn ablate(flags: Flags) {
    fn run_with(
        kernel: &hsim_compiler::Kernel,
        mut cfg: MachineConfig,
        f: impl Fn(&mut MachineConfig),
    ) -> RunReport {
        f(&mut cfg);
        let out = RunSpec::new(kernel).config(cfg).run();
        out.expect("run failed").into_single()
    }
    let (hybrid, cache) = (
        flags.config(SysMode::HybridCoherent),
        flags.config(SysMode::CacheBased),
    );
    let delta =
        |r: &RunReport, base: &RunReport| (r.cycles as f64 / base.cycles as f64 - 1.0) * 100.0;

    let scale = flags.scale();
    println!("ABLATIONS (cycles, relative to the default configuration)\n");

    // 1. Directory lookup latency: the paper argues the 32-entry CAM fits
    // in the AGU cycle. Charge +1 and +2 cycles on IS (the most
    // directory-intensive kernel).
    let is = nas::is(scale);
    let base = run_with(&is, hybrid.clone(), |_| {});
    for extra in [1u64, 2] {
        let r = run_with(&is, hybrid.clone(), |c| c.dir_lookup_extra_cycles = extra);
        println!(
            "IS, +{extra} cycle directory lookup:  {:+.2}% time (paper assumes 0: in-cycle CAM)",
            delta(&r, &base)
        );
    }

    // 2. Prefetcher history-table size on SP (497 streams).
    let sp = nas::sp(scale);
    let sp_cache = run_with(&sp, cache.clone(), |_| {});
    let sp_huge = run_with(&sp, cache.clone(), |c| c.mem.prefetch.table_entries = 4096);
    println!(
        "SP cache-based, 4096-entry prefetch table: {:+.2}% time (collisions removed)",
        delta(&sp_huge, &sp_cache)
    );

    // 3. Prefetcher disabled entirely (cache-based MG).
    let mg = nas::mg(scale);
    let mg_cache = run_with(&mg, cache.clone(), |_| {});
    let mg_nopf = run_with(&mg, cache.clone(), |c| c.mem.prefetch.enabled = false);
    println!(
        "MG cache-based, prefetcher off:            {:+.2}% time",
        delta(&mg_nopf, &mg_cache)
    );

    // 4. DMA pipelining: serialize commands by folding the first-data
    // latency into every transfer (SP is the most DMA-intensive).
    let sp_hyb = run_with(&sp, hybrid.clone(), |_| {});
    let sp_slow = run_with(&sp, hybrid.clone(), |c| {
        c.mem.dma.setup_latency += c.mem.dma.first_data_latency;
    });
    println!(
        "SP hybrid, serialized DMA commands:        {:+.2}% time",
        delta(&sp_slow, &sp_hyb)
    );

    // 5. Store collapsing: every collapsed pair is one cache access
    // saved.
    println!(
        "IS, store collapsing saves {} cache accesses ({} double stores emitted)",
        base.core.collapsed_stores, base.core.collapsed_stores
    );
}
