//! The `hsim-bench` driver: name resolution, the usage error, the
//! artefact schema pinned against the committed `BENCH_*.json` files,
//! and the one-cell-per-column rule of every table.

use hsim::prelude::*;
use hsim_bench::{commands, json_keys, parse_args, sweeps, table_cells, table_headers, Col, Flags};
use std::process::Command;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

#[test]
fn every_subcommand_name_resolves() {
    let names: Vec<&str> = commands().iter().map(|(n, _)| *n).collect();
    assert_eq!(
        names,
        [
            "table1",
            "table2",
            "table3",
            "fig7",
            "fig8",
            "fig9",
            "fig10",
            "ablate",
            "backside",
            "scaling",
            "coherence",
            "hetero",
            "clusters",
            "faults",
            "comm",
            "figshapes",
            "all"
        ]
    );
    for name in names {
        let (_, flags) = parse_args(&args(&[name])).expect(name);
        assert_eq!(flags, Flags::default());
        let (_, flags) = parse_args(&args(&["--smoke", name, "--test-scale"])).expect(name);
        assert!(flags.smoke && flags.test_scale);
    }
}

#[test]
fn flags_pick_the_grid_and_paper_values_cover_every_kernel() {
    let smoke = Flags {
        smoke: true,
        test_scale: false,
    };
    assert_eq!(smoke.sweep_scale(), Scale::Test);
    assert_eq!(smoke.scale(), Scale::Paper, "figures have no smoke grid");
    let names: Vec<String> = smoke
        .sweep_kernels(&["IS", "CG"])
        .into_iter()
        .map(|k| k.name)
        .collect();
    assert_eq!(names, ["CG", "IS"]);
    let test_scale = Flags {
        smoke: false,
        test_scale: true,
    };
    for k in test_scale.sweep_kernels(&[]) {
        assert!(hsim_bench::paper_speedup(&k.name).is_finite());
        assert!(hsim_bench::paper_table3(&k.name).is_some());
    }
    assert!(hsim_bench::paper_speedup("XX").is_nan());
}

#[test]
fn unknown_names_and_flags_are_usage_errors_listing_every_name() {
    for bad in [
        &["fig11"][..],
        &["fig9", "--profile"],
        &["fig9", "fig10"],
        &["--smoke"],
        &[],
    ] {
        let usage = parse_args(&args(bad)).expect_err("must be rejected");
        for (name, _) in commands() {
            assert!(usage.contains(name), "{bad:?}: usage must list {name}");
        }
    }
    // The binary turns the error into a non-zero exit with the usage on
    // stderr, and runs nothing.
    let out = Command::new(env!("CARGO_BIN_EXE_hsim-bench"))
        .args(["simspeed", "--smoke"])
        .output()
        .expect("spawn hsim-bench");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("simspeed") && stderr.contains("names: table1 table2"));
}

#[test]
fn static_tables_run_through_the_binary() {
    for name in ["table1", "table2"] {
        let out = Command::new(env!("CARGO_BIN_EXE_hsim-bench"))
            .arg(name)
            .output()
            .expect("spawn hsim-bench");
        assert!(out.status.success(), "{name}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("TABLE"));
    }
}

/// The keys of the first row object of array `array` in a committed
/// `BENCH_*.json` (one row per line, as `SweepJson` renders them).
fn committed_keys(file: &str, array: &str) -> Vec<String> {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let row = text
        .lines()
        .skip_while(|l| l.trim() != format!("\"{array}\": ["))
        .nth(1)
        .unwrap_or_else(|| panic!("{file}: no `{array}` rows"));
    // Keys are the quoted identifiers directly followed by a colon.
    let mut keys = Vec::new();
    let mut rest = row;
    while let Some(start) = rest.find('"') {
        let tail = &rest[start + 1..];
        let end = tail.find('"').expect("closing quote");
        if tail[end + 1..].starts_with(':') {
            keys.push(tail[..end].to_string());
        }
        rest = &tail[end + 1..];
    }
    keys
}

#[test]
fn column_declarations_match_the_committed_artefact_schemas() {
    fn check<R>(file: &str, array: &str, cols: Vec<Col<R>>) {
        assert_eq!(json_keys(&cols), committed_keys(file, array), "{file}");
    }
    check("BENCH_backside.json", "rows", sweeps::backside_cols());
    check("BENCH_scaling.json", "rows", sweeps::scaling_cols());
    check("BENCH_coherence.json", "rows", sweeps::coherence_cols());
    check(
        "BENCH_coherence.json",
        "protocol_rows",
        sweeps::protocol_cols(),
    );
    check("BENCH_hetero.json", "rows", sweeps::hetero_cols());
    check("BENCH_clusters.json", "rows", sweeps::clusters_cols());
    check("BENCH_faults.json", "rows", sweeps::faults_cols());
    check("BENCH_comm.json", "rows", sweeps::comm_cols());
    check(
        "BENCH_comm.json",
        "request_serving",
        sweeps::request_serving_cols(),
    );
}

#[test]
fn every_table_renders_one_cell_per_header() {
    fn check<R>(cols: Vec<Col<R>>, row: R, headers: usize) {
        assert_eq!(table_headers(&cols).len(), headers);
        assert_eq!(table_cells(&cols, &row).len(), headers);
    }
    let kernel = String::from("CG");
    check(
        sweeps::backside_cols(),
        BacksideSweepRow {
            kernel: kernel.clone(),
            cores: 2,
            makespan: 1,
            dram_row_hits: 1,
            dram_row_misses: 1,
            dram_row_conflicts: 1,
            dram_row_hit_rate: 50.0,
            bank_conflicts: 1,
            bus_wait_cycles: 1,
            dram_queue_stalls: 1,
        },
        10,
    );
    check(
        sweeps::scaling_cols(),
        ScalingRow {
            kernel: kernel.clone(),
            cores: 2,
            makespan: 1,
            speedup: 1.0,
            committed: 1,
            aggregate_ipc: 1.0,
            bus_wait_cycles: 1,
            bank_conflicts: 1,
            dram_row_hit_rate: 50.0,
            dram_reads: 1,
        },
        9,
    );
    check(
        sweeps::coherence_cols(),
        CoherenceSweepRow {
            kernel: kernel.clone(),
            cores: 2,
            makespan_replicate: 1,
            makespan_mesi: 1,
            dram_reads_replicate: 1,
            dram_reads_mesi: 1,
            shared_hits: 1,
            invalidations: 1,
            interventions: 1,
            committed: 1,
            replication_fallbacks: 0,
            cluster_fallbacks: 0,
        },
        11,
    );
    check(
        sweeps::protocol_cols(),
        ProtocolSweepRow {
            kernel: kernel.clone(),
            cores: 2,
            protocol: "mesi".into(),
            makespan: 1,
            dram_reads: 1,
            shared_hits: 1,
            invalidations: 1,
            interventions: 1,
            committed: 1,
        },
        8,
    );
    check(
        sweeps::hetero_cols(),
        HeteroSweepRow {
            kernel: kernel.clone(),
            label: "2H+2C".into(),
            cores: 4,
            hybrid_tiles: 2,
            small_lm_tiles: 0,
            weights: vec![1; 4],
            makespan: 1,
            committed: 1,
            dram_reads: 1,
            bus_wait_cycles: 1,
            shared_hits: 1,
            replication_fallbacks: 0,
        },
        8,
    );
    check(
        sweeps::comm_cols(),
        CommSweepRow {
            workload: "queue".into(),
            cores: 2,
            mode: SysMode::CacheBased,
            protocol: "msi".into(),
            rounds: 1,
            makespan: 1,
            round_cycles: 1.0,
            dram_reads: 1,
            shared_hits: 1,
            invalidations: 1,
            interventions: 1,
            dirty_recalls: 1,
            committed: 1,
        },
        11,
    );
    // The rows of `clusters` and `faults` wrap whole reports; their
    // header lists are still declared once.
    assert_eq!(table_headers(&sweeps::clusters_cols()).len(), 11);
    assert_eq!(table_headers(&sweeps::faults_cols()).len(), 9);
}

#[test]
#[should_panic(expected = "one cell per column")]
fn a_row_with_the_wrong_cell_count_is_rejected() {
    hsim_bench::Table::new(&[4, 4]).row(&["a", "b", "c"]);
}
