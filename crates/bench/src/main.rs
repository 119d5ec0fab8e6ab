//! `hsim-bench <name> [--smoke|--test-scale]` — see the `hsim_bench`
//! crate docs for the names.

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match hsim_bench::parse_args(&args) {
        Ok((run, flags)) => run(flags),
        Err(usage) => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    }
}
