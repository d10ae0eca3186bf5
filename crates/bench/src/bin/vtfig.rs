//! `vtfig` — regenerate the paper's tables and figures.
//!
//! Runs the named experiments (all seventeen, in `run_experiments.sh`'s
//! order, when none is named) through [`vt_bench::experiments::run`]:
//! every distinct simulation cell runs once, on every core, and its final
//! memory image is checked against the `vt-isa` interpreter. Then each
//! experiment prints its table or ASCII figure, writes its JSON record to
//! `--out` and checks its acceptance criterion.
//!
//! ```text
//! cargo run --release -p vt-bench --bin vtfig                         # all, paper scale
//! cargo run --release -p vt-bench --bin vtfig -- fig03_speedup --quick
//! ```
//!
//! Exit codes: 0 every criterion holds, 1 some criterion failed (each
//! failure is listed on stderr), 2 usage error, failed simulation, image
//! mismatch or unwritable record.

use std::path::PathBuf;
use std::process::ExitCode;
use vt_bench::{cli, experiments, Harness};

const USAGE: &str = "\
usage: vtfig [NAME...] [options]

Runs the named experiments (e.g. fig03_speedup, tab01_config; all of
them when none is named), simulating each distinct cell once on every
core. Prints each table, writes each JSON record and exits 1 if any
acceptance criterion fails.

options:
  --quick       reduced scale and shorter sweeps (CI smoke run)
  --out DIR     directory for the JSON records (default results)
  -h, --help    this help";

struct Opts {
    names: Vec<String>,
    quick: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Option<Opts>, String> {
    let mut o = Opts {
        names: Vec::new(),
        quick: false,
        out: PathBuf::from("results"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--quick" => o.quick = true,
            "--out" => o.out = cli::value(&mut args, "--out")?,
            flag if flag.starts_with('-') => return Err(format!("unknown argument `{flag}`")),
            name => o.names.push(name.to_string()),
        }
    }
    Ok(Some(o))
}

/// Runs the experiments, prints their tables, writes their records and
/// reports whether every acceptance criterion held.
fn run(o: &Opts) -> Result<bool, String> {
    std::fs::create_dir_all(&o.out).map_err(|e| format!("{}: {e}", o.out.display()))?;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (outputs, _) = experiments::run(&Harness::new(o.quick), &o.names, workers)?;
    let rule = "=".repeat(62);
    let mut failed = Vec::new();
    for out in outputs {
        println!("{rule}\n== {}\n{rule}\n{}\n", out.name, out.text);
        let path = o.out.join(format!("{}.json", out.name));
        std::fs::write(&path, out.record.pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("  [record: {}]", path.display());
        if let Err(e) = out.verdict {
            failed.push(format!("{}: {e}", out.name));
        }
    }
    for f in &failed {
        eprintln!("vtfig: FAILED {f}");
    }
    Ok(failed.is_empty())
}

fn main() -> ExitCode {
    let o = match cli::parsed("vtfig", USAGE, parse_args()) {
        Ok(o) => o,
        Err(code) => return ExitCode::from(code),
    };
    ExitCode::from(cli::finish("vtfig", run(&o)))
}
