//! `hsim-benchmark` — the repo's benchmark.
//!
//! ```text
//! hsim-benchmark --workload W --seed N --seconds S --trace 0|1   one run of one workload
//! hsim-benchmark [--seed N] [--seconds S] [--smoke]              every workload, both runs, result file
//! hsim-benchmark compare A.json B.json                           judge B against A
//! hsim-benchmark --probe                                         re-run the known failure
//! ```
//!
//! `run.sh` builds this binary in release mode and forwards its
//! arguments. See `README.md` for what is measured and why.
//!
//! The simulated machine has no reference results in this repository
//! (no hardware measurements, no more detailed model): the model is
//! **unvalidated**, and the benchmark prints no error figure. Simulated
//! time is reported so that two commits can be compared exactly, not as
//! a claim about real hardware.

mod compare;
mod json;
mod metrics;
mod points;
mod replays;
mod run;
mod spans;
mod stats;
mod workloads;

use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use run::{Checker, Measured, RunPlan};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const UNVALIDATED: &str = "unvalidated: the repository holds no reference results for the \
                           simulated machine, so no error figure is given";

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    probe: bool,
    out_dir: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        seed: 1,
        ..Args::default()
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workload" => a.workload = Some(value(&mut it, arg)?),
            "--seed" => {
                a.seed = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value(&mut it, arg)?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0..=600"));
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.trace = match value(&mut it, arg)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--probe" => a.probe = true,
            "--out-dir" => a.out_dir = Some(PathBuf::from(value(&mut it, arg)?)),
            "compare" => {
                a.compare = Some((
                    PathBuf::from(value(&mut it, "compare")?),
                    PathBuf::from(value(&mut it, "compare")?),
                ))
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(a)
}

/// Seconds one run measures when `--seconds` is not given: the
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 28.0;

fn plan(a: &Args) -> RunPlan {
    if a.smoke {
        RunPlan {
            scale: hsim::workloads::Scale::Test,
            seed: a.seed,
            seconds: 0.0,
            min_passes: 1,
            replay: replays::ReplaySize::smoke(),
        }
    } else {
        RunPlan {
            scale: hsim::workloads::Scale::Paper,
            seed: a.seed,
            seconds: a.seconds.unwrap_or(DEFAULT_SECONDS),
            min_passes: run::MIN_PASSES,
            replay: replays::ReplaySize::full(),
        }
    }
}

/// Writes `doc` on one line to `dir/file`, creating `dir`.
fn write_json(dir: &Path, file: &str, doc: &Json) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, doc.render() + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

fn spans_json(sp: &spans::Spans) -> Json {
    Json::Arr(
        sp.all()
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                ])
            })
            .collect(),
    )
}

/// One run of one workload. Prints every metric by name with its unit,
/// then a `detail:` line (sample ranges, for the result file), then the
/// result object as the last line.
fn run_single(a: &Args, name: &str) -> Result<bool, String> {
    let wl = workloads::find(name).ok_or_else(|| {
        let known: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let plan = plan(a);
    let mut check = Checker::default();
    println!(
        "# {} seed {} scale {:?} — {}",
        wl.name, plan.seed, plan.scale, wl.why
    );
    println!("# simulated model: {UNVALIDATED}");
    let (measured, sp): (Vec<Measured>, spans::Spans) = if a.trace {
        run::per_layer(wl, plan, &mut check)?
    } else {
        run::end_to_end(wl, plan, &mut check)?
    };
    let table: &[metrics::Metric] = if a.trace { &PER_LAYER } else { &END_TO_END };
    assert_eq!(
        measured.len(),
        table.len(),
        "one value per metric of the table"
    );
    for (m, def) in measured.iter().zip(table) {
        assert_eq!(m.name, def.name, "metrics are reported in table order");
        if m.samples > 1 {
            println!(
                "{:<40} {:>16.6} {:<10} {} passes: median {:.6} min {:.6} max {:.6}",
                m.name, m.value, def.unit, m.samples, m.median, m.min, m.max
            );
        } else {
            println!("{:<40} {:>16.6} {}", m.name, m.value, def.unit);
        }
    }
    println!("{:<40} {:>16}", "ops", check.attempted);
    println!("{:<40} {:>16}", "ops_failed", check.failed);
    for f in &check.failures {
        println!("FAILED {f}");
    }
    if let Some(dir) = &a.out_dir {
        let file = format!(
            "spans-{}-seed{}-trace{}.json",
            wl.name,
            plan.seed,
            u8::from(a.trace)
        );
        write_json(dir, &file, &spans_json(&sp))?;
    }
    let detail = Json::obj(measured.iter().zip(table).map(|(m, def)| {
        (
            m.name,
            Json::obj([
                ("value", Json::Num(m.value)),
                ("unit", Json::str(def.unit)),
                ("median", Json::Num(m.median)),
                ("min", Json::Num(m.min)),
                ("max", Json::Num(m.max)),
                ("samples", Json::Num(m.samples as f64)),
            ]),
        )
    }));
    println!("detail: {}", detail.render());
    let result = Json::obj([
        ("correct", Json::Bool(check.failed == 0)),
        ("attempted", Json::Num(check.attempted as f64)),
        ("failed", Json::Num(check.failed as f64)),
        (
            "metrics",
            Json::obj(measured.iter().zip(table).map(|(m, def)| {
                let value = [("value", Json::Num(m.value)), ("unit", Json::str(def.unit))];
                (m.name, Json::obj(value))
            })),
        ),
    ]);
    println!("{}", result.render());
    Ok(check.failed == 0)
}

fn command_line(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Runs `--workload name --trace t` in a child process of this binary
/// and returns its `(detail, result)` documents.
fn child_run(a: &Args, name: &str, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", name, "--seed", &a.seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if let Some(s) = a.seconds {
        cmd.args(["--seconds", &s.to_string()]);
    }
    if a.smoke {
        cmd.arg("--smoke");
    }
    if let Some(d) = &a.out_dir {
        cmd.arg("--out-dir").arg(d);
    }
    let out = cmd
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {name}: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let detail = text
        .lines()
        .find_map(|l| l.strip_prefix("detail: "))
        .ok_or_else(|| format!("{name}: no detail line (exit {})", out.status))?;
    let last = text.lines().last().unwrap_or("");
    Ok((Json::parse(detail)?, Json::parse(last)?))
}

/// Every workload, each run in its own child process; writes the result
/// file `compare` reads.
fn run_suite(a: &Args) -> Result<bool, String> {
    let plan = plan(a);
    let mut all_correct = true;
    let mut rows = Vec::new();
    for wl in &workloads::WORKLOADS {
        let (e2e, r0) = child_run(a, wl.name, false)?;
        let (layers, r1) = child_run(a, wl.name, true)?;
        let count = |r: &Json, k: &str| r.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        let failed = count(&r0, "failed") + count(&r1, "failed");
        all_correct &= failed == 0.0;
        rows.push(Json::obj([
            ("name", Json::str(wl.name)),
            ("why", Json::str(wl.why)),
            (
                "ops",
                Json::Num(count(&r0, "attempted") + count(&r1, "attempted")),
            ),
            ("ops_failed", Json::Num(failed)),
            ("end_to_end", e2e),
            ("per_layer", layers),
        ]));
    }
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let doc = Json::obj([
        (
            "meta",
            Json::obj([
                ("nproc", Json::Num(nproc as f64)),
                ("rustc", Json::str(command_line("rustc", &["--version"]))),
                (
                    "git_rev",
                    Json::str(command_line("git", &["rev-parse", "HEAD"])),
                ),
                ("scale", Json::str(format!("{:?}", plan.scale))),
                ("seed", Json::Num(plan.seed as f64)),
                ("seconds", Json::Num(plan.seconds)),
                ("min_passes", Json::Num(plan.min_passes as f64)),
                ("replay_reps", Json::Num(replays::REPS as f64)),
            ]),
        ),
        ("model_validation", Json::str(UNVALIDATED)),
        ("workloads", Json::Arr(rows)),
    ]);
    let dir = a.out_dir.clone().unwrap_or_else(|| PathBuf::from("."));
    let smoke = if a.smoke { "-smoke" } else { "" };
    let file = write_json(&dir, &format!("result-seed{}{smoke}.json", plan.seed), &doc)?;
    println!("# wrote {}", file.display());
    Ok(all_correct)
}

/// Re-runs the known failure (README, "Known failure"): `lock` on four
/// hybrid-coherent tiles at Paper scale deadlocks under every protocol.
/// Not counted in any `ops`.
fn run_probe() {
    for cm in hsim::core::config::CoherenceMode::DIRECTORY {
        let p = workloads::hybrid_lock_probe(cm);
        match points::run_reference(&p) {
            Ok(_) => println!("{:<32} now_passing", p.name),
            Err(e) => println!("{:<32} still_failing  {e}", p.name),
        }
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = parse_args(&argv)?;
    // `request_serving` takes no machine configuration: it builds the
    // default one for its mode, whose coherence mode comes from this
    // variable. Fix it here so no run inherits the caller's. Every other
    // point pins its mode with `with_coherence`.
    std::env::set_var("HSIM_COHERENCE", "mesi");
    if let Some((pa, pb)) = &a.compare {
        let (table, regressed) = compare::compare(&load(pa)?, &load(pb)?)?;
        print!("{table}");
        return Ok(!regressed);
    }
    if a.probe {
        run_probe();
        return Ok(true);
    }
    match &a.workload {
        Some(name) => run_single(&a, name),
        None => run_suite(&a),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("hsim-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let a = args("--workload comm_dir_4c --seed 42 --seconds 28 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("comm_dir_4c"));
        assert_eq!((a.seed, a.seconds, a.trace), (42, Some(28.0), true));
        let p = plan(&a);
        assert_eq!(
            (p.seed, p.seconds, p.min_passes),
            (42, 28.0, run::MIN_PASSES)
        );
        let s = plan(&args("--smoke").unwrap());
        assert_eq!((s.seconds, s.min_passes), (0.0, 1));
        assert_eq!(plan(&args("").unwrap()).seconds, DEFAULT_SECONDS);
        let manifest = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        assert_eq!(
            manifest.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }

    #[test]
    fn bad_arguments_are_refused() {
        assert!(args("--trace 2").is_err());
        assert!(args("--seed x").is_err());
        assert!(args("--seconds -1").is_err());
        assert!(args("--seconds").is_err());
        assert!(args("--frobnicate").is_err());
        assert!(args("compare a.json").is_err());
        let c = args("compare a.json b.json").unwrap();
        assert_eq!(c.compare, Some(("a.json".into(), "b.json".into())));
    }
}
