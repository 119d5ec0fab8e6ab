//! The committed `BENCH_*.json` artefacts as goldens: for each of the
//! seven files, re-derive its cheapest rows in-process — same driver,
//! same `*_cols()` declaration, `Parallelism::Serial` — and require the
//! rendered JSON objects to equal the committed lines. "Every BENCH row
//! must survive a refactor" is a test, not a manual diff.

use hsim::cluster::{ClusterConfig, ClusterTopology};
use hsim::prelude::*;
use hsim_bench::sweeps::{self, ClusterRow, FaultRow};
use hsim_bench::{json_row, Col};
use hsim_workloads::nas;

fn committed(file: &str) -> String {
    let path = format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The value of the top-level metadata field `key` of a committed file.
fn meta(file: &str, key: &str) -> String {
    let text = committed(file);
    let field = format!("  \"{key}\": ");
    let line = text.lines().find(|l| l.starts_with(&field));
    let value = &line.unwrap_or_else(|| panic!("{file}: no `{key}`"))[field.len()..];
    value.trim_end_matches(',').trim_matches('"').to_string()
}

/// Drops the `clusters` host wall-clocks (the only fields of any
/// artefact that are not simulated results) from a rendered row.
fn without_host_timings(row: &str) -> String {
    match row.find(", \"host_seconds_serial\"") {
        Some(at) => format!("{}}}", &row[..at]),
        None => row.to_string(),
    }
}

/// Asserts that `rows`, rendered through `cols`, are the committed rows
/// `first..` of `array` in `file`.
fn assert_rows<R>(file: &str, array: &str, first: usize, cols: &[Col<R>], rows: &[R]) {
    assert_eq!(meta(file, "scale"), "Test", "{file}: recorded scale");
    let text = committed(file);
    let want: Vec<&str> = text
        .lines()
        .skip_while(|l| l.trim() != format!("\"{array}\": ["))
        .skip(1 + first)
        .take(rows.len())
        .map(|l| l.trim().trim_end_matches(','))
        .collect();
    assert_eq!(want.len(), rows.len(), "{file}: `{array}` is too short");
    for (i, (row, want)) in rows.iter().zip(want).enumerate() {
        assert_eq!(
            without_host_timings(&json_row(cols, row)),
            without_host_timings(want),
            "{file}: `{array}` row {}",
            first + i
        );
    }
}

/// One test on purpose: the drivers read `HSIM_COHERENCE` for their
/// default machines, the artefacts were recorded with it unset, and
/// nothing else may run in this process while the variable is pinned.
#[test]
fn committed_artefacts_reproduce_their_cheapest_rows() {
    std::env::set_var("HSIM_COHERENCE", "replicate");
    let par = Parallelism::Serial;
    let mode = SysMode::HybridCoherent;
    let cg = [nas::cg(Scale::Test)];
    let ep = [nas::ep(Scale::Test)];

    // CG on one core is row 0 of the three per-kernel × per-core grids.
    let rows = backside_sweep(&cg, &[1], mode, par).unwrap();
    assert_rows(
        "BENCH_backside.json",
        "rows",
        0,
        &sweeps::backside_cols(),
        &rows,
    );

    let rows = scaling_sweep(&cg, &[1], &MachineConfig::for_mode(mode), par).unwrap();
    assert_rows(
        "BENCH_scaling.json",
        "rows",
        0,
        &sweeps::scaling_cols(),
        &rows,
    );

    let proto = protocol_sweep(&cg, &[1], mode, par).unwrap();
    assert_rows(
        "BENCH_coherence.json",
        "rows",
        0,
        &sweeps::coherence_cols(),
        &coherence_rows(&cg, &proto),
    );
    assert_rows(
        "BENCH_coherence.json",
        "protocol_rows",
        0,
        &sweeps::protocol_cols(),
        &proto,
    );

    // EP (the shortest kernel) on every 4-core shape: rows 7..14.
    let rows = hetero_sweep(&ep, 4, par).unwrap();
    assert_eq!(rows.len(), 7);
    assert_rows(
        "BENCH_hetero.json",
        "rows",
        7,
        &sweeps::hetero_cols(),
        &rows,
    );

    // CG on 1 cluster x 4 cores, one DRAM channel: row 0.
    let topo = ClusterTopology::new(1, 4);
    let report = RunSpec::new(&cg[0])
        .clustered(&ClusterConfig::new(topo))
        .config(MachineConfig::for_mode(mode))
        .run()
        .unwrap()
        .into_clusters();
    let row = ClusterRow {
        kernel: "CG".into(),
        topo,
        channels: 1,
        report,
        host_secs_serial: 0.0,
        host_secs_threaded: 0.0,
    };
    assert_rows(
        "BENCH_clusters.json",
        "rows",
        0,
        &sweeps::clusters_cols(),
        &[row],
    );

    // CG on 4 cores at the highest fault rate (every recovery counter
    // is non-zero there): row 5.
    let seed = meta("BENCH_faults.json", "seed").parse().unwrap();
    let report = RunSpec::new(&cg[0])
        .cores(4)
        .config(MachineConfig::for_mode(mode).with_faults(FaultConfig::uniform(seed, 0.2)))
        .run()
        .unwrap()
        .into_multi();
    let row = FaultRow {
        kernel: "CG".into(),
        rate: 0.2,
        report,
        baseline: 0,
    };
    assert_rows(
        "BENCH_faults.json",
        "rows",
        5,
        &sweeps::faults_cols(),
        &[row],
    );

    // Every comm family and request serving on 2 cores: rows 0..12 and
    // 0..2.
    let rows = comm_sweep(Scale::Test, &[2], par).unwrap();
    assert_eq!(rows.len(), 12);
    assert_rows("BENCH_comm.json", "rows", 0, &sweeps::comm_cols(), &rows);
    let seed = meta("BENCH_comm.json", "seed").parse().unwrap();
    let load = meta("BENCH_comm.json", "load_permille").parse().unwrap();
    let reports = request_serving_sweep(Scale::Test, &[2], seed, load, par).unwrap();
    assert_rows(
        "BENCH_comm.json",
        "request_serving",
        0,
        &sweeps::request_serving_cols(),
        &reports,
    );
}
