//! `vttrace` — validate and replay accel-sim-style kernel traces.
//!
//! Frontend over the `vt-traces` crate. Two modes:
//!
//! * `vttrace --check FILE...` parses and lowers every file, printing a
//!   one-line verdict per file. Exit 0 when every file is a valid,
//!   lowerable trace; exit 1 when any file is rejected. Malformed input
//!   — truncated files, garbage bytes, out-of-range masks, duplicate
//!   records — produces a diagnostic, never a panic.
//! * `vttrace --run FILE` replays the trace through the simulator with
//!   the recorded launch geometry and prints a deterministic stats
//!   fingerprint (cycles, instruction counts, barriers, and an FNV-1a
//!   digest of the final memory image), so recorded replays can gate
//!   CI.
//!
//! ```text
//! cargo run --release -p vt-bench --bin vttrace -- --check traces/*.trace
//! cargo run --release -p vt-bench --bin vttrace -- --run traces/vecadd.trace --json
//! ```
//!
//! Exit codes: 0 success, 1 a `--check` file was rejected, 2 usage or
//! replay error.

use std::process::ExitCode;
use vt_bench::cli;
use vt_core::{Architecture, GpuConfig, Report, RunRequest, Session};
use vt_traces::parse_file;

const USAGE: &str = "\
usage: vttrace --check FILE...
       vttrace --run FILE [options]

--check parses and lowers each trace, reporting per-file verdicts; it
exits 0 only when every file is valid. --run replays one trace through
the simulator and prints a deterministic stats fingerprint.

options (--run):
  --arch baseline|vt|ideal|memswap   architecture (default vt)
  --sms N               number of SMs (default 4)
  --json                print the fingerprint as JSON
  -h, --help            this help";

enum Mode {
    Check(Vec<String>),
    Run(String),
}

struct Opts {
    mode: Mode,
    arch: Architecture,
    sms: u32,
    json: bool,
}

fn parse_args() -> Result<Option<Opts>, String> {
    let mut mode: Option<Mode> = None;
    let mut arch = Architecture::virtual_thread();
    let mut sms = 4u32;
    let mut json = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--json" => json = true,
            "--check" => {
                let mut files = vec![cli::value(&mut args, "--check")?];
                files.extend(args.by_ref());
                mode = Some(Mode::Check(files));
            }
            "--run" => mode = Some(Mode::Run(cli::value(&mut args, "--run")?)),
            "--arch" => arch = cli::arch(&cli::value::<String>(&mut args, "--arch")?)?,
            "--sms" => sms = cli::value(&mut args, "--sms")?,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let mode = mode.ok_or("one of --check or --run is required")?;
    Ok(Some(Opts {
        mode,
        arch,
        sms,
        json,
    }))
}

/// FNV-1a over the final memory image, a cheap functional digest.
fn mem_digest(report: &Report) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &w in report.mem_image.as_words() {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    }
    h
}

/// Validates every file; true when all are accepted.
fn check(files: &[String]) -> bool {
    let mut ok = true;
    for f in files {
        match parse_file(f).and_then(|t| t.lower().map(|k| (t, k))) {
            Ok((t, k)) => println!(
                "{f}: ok: kernel `{}`, {} CTAs x {} threads, {} records -> {} replay instrs",
                t.name,
                t.grid,
                t.block,
                t.total_records(),
                k.program().len()
            ),
            Err(e) => {
                ok = false;
                println!("{f}: REJECTED: {e}");
            }
        }
    }
    ok
}

fn run(file: &str, o: &Opts) -> Result<(), String> {
    let trace = parse_file(file).map_err(|e| format!("{file}: {e}"))?;
    let kernel = trace.lower().map_err(|e| format!("{file}: {e}"))?;
    let mut cfg = GpuConfig::with_arch(o.arch);
    cfg.core.num_sms = o.sms.max(1);
    let report = Session::new(cfg)
        .run(RunRequest::kernel(&kernel))
        .and_then(|out| out.completed())
        .map_err(|e| format!("{file}: replay failed: {e}"))?
        .remove(0);
    let s = &report.stats;
    let digest = mem_digest(&report);
    if o.json {
        println!(
            "{{\"kernel\": \"{}\", \"arch\": \"{}\", \"sms\": {}, \"cycles\": {}, \
             \"warp_instrs\": {}, \"thread_instrs\": {}, \"barriers\": {}, \
             \"mem_fnv\": \"{digest:016x}\"}}",
            trace.name,
            o.arch.label(),
            o.sms,
            s.cycles,
            s.warp_instrs,
            s.thread_instrs,
            s.barriers
        );
    } else {
        println!(
            "kernel={} arch={} sms={} cycles={} warp_instrs={} thread_instrs={} \
             barriers={} mem_fnv={digest:016x}",
            trace.name, // lowering preserves the recorded kernel name
            o.arch.label(),
            o.sms,
            s.cycles,
            s.warp_instrs,
            s.thread_instrs,
            s.barriers
        );
    }
    Ok(())
}

fn main() -> ExitCode {
    let opts = match cli::parsed("vttrace", USAGE, parse_args()) {
        Ok(o) => o,
        Err(code) => return ExitCode::from(code),
    };
    let result = match &opts.mode {
        Mode::Check(files) => Ok(check(files)),
        Mode::Run(file) => run(file, &opts).map(|()| true),
    };
    ExitCode::from(cli::finish("vttrace", result))
}
