//! `vtbench` — the pinned performance suite and regression gate.
//!
//! Runs the full workload suite under one fixed configuration (test
//! scale, 4 SMs, VT architecture, 512-cycle metric windows), prints a
//! per-kernel table and writes a `BENCH_<n>.json` record: geometric-mean
//! IPC, simulated cycles per wall-clock second, and per-kernel windowed
//! series summaries.
//!
//! `vtbench --diff OLD NEW` compares two records and exits nonzero when
//! the new geometric-mean IPC regresses by more than the threshold
//! (default 2%). IPC is deterministic, so the gate is noise-free; wall
//! clock is recorded but never gated. `--explain` augments the diff
//! with per-kernel CPI-stack attribution: which cycle-accounting bucket
//! the delta landed in (see also the standalone `vtdiff` binary).
//!
//! ```text
//! cargo run --release -p vt-bench --bin vtbench -- --out BENCH_0.json
//! cargo run --release -p vt-bench --bin vtbench -- --diff BENCH_0.json BENCH_1.json
//! ```
//!
//! Exit codes: 0 success, 1 the `--diff` gate tripped, 2 usage error or
//! incomparable records.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use vt_bench::cli;
use vt_bench::cpi::Attribution;
use vt_bench::record::{self, RECORD_VERSION};
use vt_bench::{geomean, Table};
use vt_core::{Architecture, Gpu, GpuConfig};
use vt_json::{req_f64, Json};
use vt_workloads::{full_suite, Scale};

const USAGE: &str = "\
usage: vtbench [options]
       vtbench --diff OLD.json NEW.json [--threshold PCT]
       vtbench --degrade PCT IN.json OUT.json

Runs the pinned kernel suite (test scale, 4 SMs, vt architecture,
512-cycle metric windows), prints a per-kernel table and writes a
BENCH_<n>.json record with geomean IPC, cycles/sec wall throughput and
per-kernel windowed series summaries.

options:
  --out FILE            record path (default: first free BENCH_<n>.json)
  --arch baseline|vt|ideal|memswap   architecture (default vt)
  --sms N               number of SMs (default 4)
  --window N            metric window in cycles (default 512)
  --json                print the record on stdout too
  --diff OLD NEW        compare two records: exit 1 when NEW's geomean
                        IPC is more than the threshold below OLD's,
                        2 when the records are not comparable
  --explain             with --diff: attribute each kernel's cycle delta
                        to CPI-stack buckets (see vtdiff for the full
                        differential report)
  --threshold PCT       --diff regression threshold in percent (default 2)
  --degrade PCT IN OUT  write a copy of IN with every IPC scaled down by
                        PCT percent (exercises the --diff gate)
  -h, --help            this help";

enum Mode {
    Run,
    Diff(String, String),
    Degrade(f64, String, String),
}

struct Opts {
    mode: Mode,
    out: Option<PathBuf>,
    arch: Architecture,
    sms: u32,
    window: u64,
    threshold: f64,
    json: bool,
    explain: bool,
}

fn parse_args() -> Result<Option<Opts>, String> {
    let mut o = Opts {
        mode: Mode::Run,
        out: None,
        arch: Architecture::virtual_thread(),
        sms: 4,
        window: 512,
        threshold: 2.0,
        json: false,
        explain: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--json" => o.json = true,
            "--explain" => o.explain = true,
            "--out" => o.out = Some(cli::value(&mut args, "--out")?),
            "--arch" => o.arch = cli::arch(&cli::value::<String>(&mut args, "--arch")?)?,
            "--sms" => o.sms = cli::value(&mut args, "--sms")?,
            "--window" => o.window = cli::value(&mut args, "--window")?,
            "--threshold" => {
                o.threshold = cli::value(&mut args, "--threshold")?;
                if !o.threshold.is_finite() || o.threshold < 0.0 {
                    return Err("--threshold must be a nonnegative percentage".into());
                }
            }
            "--diff" => {
                let old = cli::value(&mut args, "--diff (OLD)")?;
                let new = cli::value(&mut args, "--diff (NEW)")?;
                o.mode = Mode::Diff(old, new);
            }
            "--degrade" => {
                let pct: f64 = cli::value(&mut args, "--degrade (PCT)")?;
                if !pct.is_finite() || !(0.0..100.0).contains(&pct) {
                    return Err("--degrade PCT must be in [0, 100)".into());
                }
                let input = cli::value(&mut args, "--degrade (IN)")?;
                let output = cli::value(&mut args, "--degrade (OUT)")?;
                o.mode = Mode::Degrade(pct, input, output);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(o))
}

/// The first `BENCH_<n>.json` that does not exist yet.
fn next_record_path() -> PathBuf {
    (0..)
        .map(|n| PathBuf::from(format!("BENCH_{n}.json")))
        .find(|p| !p.exists())
        .expect("some index is free")
}

/// Mean/max/total summaries of one run's windowed series, for the
/// per-kernel record.
fn series_summary(m: &vt_core::MetricsRegistry) -> Json {
    let stat = |name: &str| -> Json {
        match m.get(name, None) {
            Some(s) => Json::object(vec![
                ("mean".into(), Json::Float(s.mean())),
                ("max".into(), Json::UInt(s.max())),
                ("total".into(), Json::UInt(s.total())),
            ]),
            None => Json::Null,
        }
    };
    Json::object(
        [
            "thread_instrs",
            "issue_cycles",
            "resident_ctas",
            "active_ctas",
            "resident_warps",
            "swaps_in",
            "swaps_out",
            "mshr_in_flight",
        ]
        .iter()
        .map(|&n| (n.to_string(), stat(n)))
        .collect(),
    )
}

fn run_suite(o: &Opts) -> Result<(), String> {
    let scale = Scale::test();
    let mut cfg = GpuConfig::with_arch(o.arch);
    cfg.core.num_sms = o.sms.max(1);
    cfg.core.metrics_window = Some(o.window);

    let mut table = Table::new(vec!["kernel", "cycles", "ipc", "windows", "wall ms"]);
    let mut kernels = Vec::new();
    let mut ipcs = Vec::new();
    let mut total_cycles = 0u64;
    let started = Instant::now();
    for w in full_suite(&scale) {
        let t0 = Instant::now();
        let report = Gpu::new(cfg.clone())
            .run(&w.kernel)
            .map_err(|e| format!("{}: {e}", w.name))?;
        let wall = t0.elapsed().as_secs_f64();
        let s = &report.stats;
        let m = s.metrics().expect("metrics enabled");
        total_cycles += s.cycles;
        ipcs.push(s.ipc());
        table.row(vec![
            w.name.to_string(),
            format!("{}", s.cycles),
            format!("{:.3}", s.ipc()),
            format!("{}", m.windows()),
            format!("{:.1}", wall * 1e3),
        ]);
        kernels.push(Json::object(vec![
            ("kernel".into(), Json::Str(w.name.to_string())),
            ("cycles".into(), Json::UInt(s.cycles)),
            ("thread_instrs".into(), Json::UInt(s.thread_instrs)),
            ("ipc".into(), Json::Float(s.ipc())),
            ("wall_s".into(), Json::Float(wall)),
            (
                "cycles_per_sec".into(),
                Json::Float(s.cycles as f64 / wall.max(1e-9)),
            ),
            ("windows".into(), Json::UInt(m.windows())),
            ("cpi".into(), s.cpi_stack().to_json()),
            ("series".into(), series_summary(m)),
        ]));
    }
    let wall = started.elapsed().as_secs_f64();
    let geomean_ipc = geomean(&ipcs);
    let record = Json::object(vec![
        ("version".into(), Json::UInt(RECORD_VERSION)),
        (
            "suite".into(),
            Json::object(vec![
                ("ctas".into(), Json::UInt(u64::from(scale.ctas))),
                ("iters".into(), Json::UInt(u64::from(scale.iters))),
            ]),
        ),
        ("arch".into(), Json::Str(o.arch.label().to_string())),
        ("sms".into(), Json::UInt(u64::from(o.sms))),
        ("metrics_window".into(), Json::UInt(o.window)),
        ("geomean_ipc".into(), Json::Float(geomean_ipc)),
        (
            "cycles_per_sec".into(),
            Json::Float(total_cycles as f64 / wall.max(1e-9)),
        ),
        ("kernels".into(), Json::Array(kernels)),
    ]);

    let path = o.out.clone().unwrap_or_else(next_record_path);
    fs::write(&path, record.pretty()).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    println!("{}", table.render());
    println!(
        "geomean ipc {geomean_ipc:.3}, {total_cycles} cycles in {wall:.2}s \
         ({:.0} cycles/sec) -> {}",
        total_cycles as f64 / wall.max(1e-9),
        path.display()
    );
    if o.json {
        println!("{}", record.pretty());
    }
    Ok(())
}

/// Prints each kernel's cycle delta decomposed into CPI-stack bucket
/// deltas (the `--explain` report). Buckets partition SM-cycles, so the
/// decomposition is exhaustive; only moved buckets are shown.
fn explain(old: &Json, new: &Json) -> Result<(), String> {
    let old_kernels = record::kernels(old)?;
    let new_kernels = record::kernels(new)?;
    println!("cycle-delta attribution (SM-cycles, new - old):");
    for o in &old_kernels {
        let Some(n) = new_kernels.iter().find(|k| k.name == o.name) else {
            continue;
        };
        let a = Attribution::between(&o.cpi, &n.cpi);
        if a.ranked.iter().all(|&(_, d)| d == 0) {
            println!("  {}: no change", o.name);
            continue;
        }
        let moved: Vec<String> = a
            .ranked
            .iter()
            .filter(|&&(_, d)| d != 0)
            .map(|&(b, d)| format!("{b} {d:+}"))
            .collect();
        println!(
            "  {}: {:+} SM-cycles ({:.0}% attributed): {}",
            o.name,
            a.delta,
            a.coverage(),
            moved.join(", ")
        );
    }
    Ok(())
}

fn diff(
    old_path: &str,
    new_path: &str,
    threshold_pct: f64,
    explain_cpi: bool,
) -> Result<bool, String> {
    let old = record::load(old_path)?;
    let new = record::load(new_path)?;
    let (fp_old, fp_new) = (record::fingerprint(&old)?, record::fingerprint(&new)?);
    if fp_old != fp_new {
        return Err(format!(
            "records are not comparable:\n  {old_path}: {fp_old}\n  {new_path}: {fp_new}"
        ));
    }
    let g_old = req_f64(&old, "geomean_ipc")?;
    let g_new = req_f64(&new, "geomean_ipc")?;
    let floor = g_old * (1.0 - threshold_pct / 100.0);

    let mut table = Table::new(vec!["kernel", "old ipc", "new ipc", "delta"]);
    let old_kernels = record::kernels(&old)?;
    let new_kernels = record::kernels(&new)?;
    for o in &old_kernels {
        if let Some(n) = new_kernels.iter().find(|k| k.name == o.name) {
            table.row(vec![
                o.name.clone(),
                format!("{:.3}", o.ipc),
                format!("{:.3}", n.ipc),
                format!("{:+.1}%", (n.ipc / o.ipc - 1.0) * 100.0),
            ]);
        }
    }
    println!("{}", table.render());
    if explain_cpi {
        explain(&old, &new)?;
    }
    let delta_pct = (g_new / g_old - 1.0) * 100.0;
    println!(
        "geomean ipc: {g_old:.3} -> {g_new:.3} ({delta_pct:+.2}%), \
         gate: >{threshold_pct}% regression fails"
    );
    if g_new < floor {
        eprintln!(
            "vtbench: REGRESSION: geomean ipc {g_new:.3} is below the \
             {threshold_pct}% floor {floor:.3} (old {g_old:.3})"
        );
        return Ok(false);
    }
    println!("gate: ok");
    Ok(true)
}

/// Scales `ipc`/`geomean_ipc` fields down by `pct` percent, recursively.
fn scale_ipc(j: &Json, factor: f64) -> Json {
    match j {
        Json::Object(fields) => Json::object(
            fields
                .iter()
                .map(|(k, v)| {
                    let v = if k == "ipc" || k == "geomean_ipc" {
                        Json::Float(v.as_f64().unwrap_or(0.0) * factor)
                    } else {
                        scale_ipc(v, factor)
                    };
                    (k.clone(), v)
                })
                .collect(),
        ),
        Json::Array(items) => Json::Array(items.iter().map(|v| scale_ipc(v, factor)).collect()),
        other => other.clone(),
    }
}

fn degrade(pct: f64, input: &str, output: &str) -> Result<(), String> {
    let record = record::load(input)?;
    let scaled = scale_ipc(&record, 1.0 - pct / 100.0);
    fs::write(output, scaled.pretty()).map_err(|e| format!("cannot write {output}: {e}"))?;
    println!("wrote {output} with every IPC scaled down {pct}%");
    Ok(())
}

fn main() -> ExitCode {
    let opts = match cli::parsed("vtbench", USAGE, parse_args()) {
        Ok(o) => o,
        Err(code) => return ExitCode::from(code),
    };
    let result = match &opts.mode {
        Mode::Run => run_suite(&opts).map(|()| true),
        Mode::Diff(old, new) => diff(old, new, opts.threshold, opts.explain),
        Mode::Degrade(pct, input, output) => degrade(*pct, input, output).map(|()| true),
    };
    ExitCode::from(cli::finish("vtbench", result))
}
