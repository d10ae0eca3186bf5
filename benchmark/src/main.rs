//! Command line of the benchmark; `benchmark/run.sh` builds and runs it.
#![forbid(unsafe_code)]

use std::path::Path;
use std::process::ExitCode;
use vt_perf::report;
use vt_perf::runner::{self, Opts};

const USAGE: &str = "\
usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]
       benchmark/run.sh --compare A.json B.json

With --workload: runs that workload and prints, last, one JSON line with
`correct`, `attempted`, `failed` and `metrics` (end-to-end metrics with
--trace 0, per-layer metrics with --trace 1). Without: runs all six, each
in a process of its own, and writes benchmark/out/results.json (or, with
--trace, layers.json and trace.json). --smoke runs one pass at
Scale { ctas: 30, iters: 2 }. --compare checks B against A within the
bounds BENCHMARK.json declares. Exit status: 0 ok, 1 a check failed, 2 usage.";

enum Cli {
    Help,
    Run { opts: Opts, all: bool },
    Compare(String, String),
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => opts.workload = value("a name")?,
            "--seed" => {
                opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                opts.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                // `--trace` alone means 1, as in `run.sh --trace`.
                opts.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => opts.smoke = true,
            "-h" | "--help" => return Ok(Cli::Help),
            "--compare" => return Ok(Cli::Compare(value("two files")?, value("two files")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.smoke {
        opts.seconds = 0.0;
    }
    let all = opts.workload.is_empty();
    Ok(Cli::Run { opts, all })
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |p: &str| report::read_json(Path::new(p));
    let (ok, table) = report::compare(&read("BENCHMARK.json")?, &read(a)?, &read(b)?)?;
    print!("{table}");
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match parse(&args) {
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
        Ok(Cli::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Ok(Cli::Compare(a, b)) => compare(&a, &b),
        Ok(Cli::Run { opts, all: true }) => report::run_all(&opts),
        Ok(Cli::Run { opts, all: false }) => runner::run(&opts).and_then(|o| {
            report::write_files(&opts, &o)?;
            println!("{}", report::render(&opts, &o));
            Ok(o.correct)
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
