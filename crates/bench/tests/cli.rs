//! The `hsim-bench` driver: name resolution, the usage error, the
//! artefact schema pinned against the committed `BENCH_*.json` files,
//! and the one-cell-per-column rule of every table.

use hsim::cluster::{ClusterConfig, ClusterTopology};
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
    // Every row wraps a report; one tiny real run fills them all.
    let mut kb = KernelBuilder::new("axpy");
    let a = kb.array_f64("a", 256);
    kb.begin_loop(256);
    let ra = kb.ref_affine(a, 1, 0);
    kb.stmt(ra, Expr::add(Expr::Ref(ra), Expr::ConstF(1.0)));
    kb.end_loop();
    let kernel = kb.build().unwrap();
    let spec = RunSpec::new(&kernel).cores(2);
    let report = spec.clone().run().unwrap().into_multi();
    let clustered = spec
        .clustered(&ClusterConfig::new(ClusterTopology::new(1, 2)))
        .run()
        .unwrap()
        .into_clusters();
    let name = String::from("axpy");
    check(
        sweeps::backside_cols(),
        BacksideSweepRow {
            kernel: name.clone(),
            cores: 2,
            report: report.clone(),
        },
        10,
    );
    check(
        sweeps::scaling_cols(),
        ScalingRow {
            kernel: name.clone(),
            cores: 2,
            speedup: 1.0,
            report: report.clone(),
        },
        9,
    );
    check(
        sweeps::coherence_cols(),
        CoherenceSweepRow {
            kernel: name.clone(),
            cores: 2,
            replicate: report.clone(),
            mesi: report.clone(),
            cluster_fallbacks: 0,
        },
        11,
    );
    check(
        sweeps::protocol_cols(),
        ProtocolSweepRow {
            kernel: name.clone(),
            cores: 2,
            protocol: "mesi".into(),
            report: report.clone(),
        },
        8,
    );
    check(
        sweeps::hetero_cols(),
        HeteroSweepRow {
            kernel: name.clone(),
            label: "2H+0C".into(),
            hybrid_tiles: 2,
            small_lm_tiles: 0,
            weights: vec![1; 2],
            report: report.clone(),
        },
        8,
    );
    check(
        sweeps::clusters_cols(),
        sweeps::ClusterRow {
            kernel: name.clone(),
            topo: ClusterTopology::new(1, 2),
            channels: 1,
            report: clustered,
            host_secs_serial: 1.0,
            host_secs_threaded: 1.0,
        },
        11,
    );
    check(
        sweeps::faults_cols(),
        sweeps::FaultRow {
            kernel: name,
            rate: 0.0,
            baseline: report.makespan,
            report: report.clone(),
        },
        9,
    );
    check(
        sweeps::comm_cols(),
        CommSweepRow {
            workload: "queue".into(),
            cores: 2,
            mode: SysMode::HybridCoherent,
            protocol: "msi".into(),
            rounds: 1,
            round_cycles: 1.0,
            report,
        },
        11,
    );
}

#[test]
#[should_panic(expected = "one cell per column")]
fn a_row_with_the_wrong_cell_count_is_rejected() {
    hsim_bench::Table::new(&[4, 4]).row(&["a", "b", "c"]);
}
