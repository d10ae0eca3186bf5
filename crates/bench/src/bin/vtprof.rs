//! `vtprof` — trace-driven profiler for the simulator.
//!
//! Runs suite kernels under a named architecture with event tracing
//! enabled, exports a Chrome-trace-event JSON per run (loadable in
//! Perfetto / `chrome://tracing`) and prints a latency/occupancy metrics
//! summary.
//!
//! ```text
//! cargo run --release -p vt-bench --bin vtprof                 # all kernels
//! cargo run --release -p vt-bench --bin vtprof -- bfs spmv --arch vt
//! cargo run --release -p vt-bench --bin vtprof -- bfs --check  # validate
//! ```
//!
//! Exit codes: 0 success, 1 a `--check` validation failed, 2 usage or
//! simulation error.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;
use vt_bench::cli;
use vt_bench::cpi::{stack_report, CpiRecord};
use vt_bench::hotspot::{self, ProfileRecord};
use vt_core::{Architecture, GpuConfig, RunRequest, Session};
use vt_json::Json;
use vt_trace::{
    to_chrome_json_with, validate, validate_metrics, Gauge, Histogram, RingSink, TimedEvent,
};
use vt_workloads::{suite, Scale, Workload};

const USAGE: &str = "\
usage: vtprof [KERNEL...] [options]

Runs suite kernels with cycle-accurate event tracing, writes one
Chrome-trace JSON per run and prints a metrics summary.

options:
  --arch baseline|vt|ideal|memswap   architecture to run (default vt)
  --scale test|small|paper           problem scale (default test)
  --sms N                            number of SMs (default config's 15)
  --out DIR                          trace output directory (default traces/)
  --ring N                           ring-buffer capacity in events (default 1048576)
  --metrics PATH                     enable windowed metric series and write a
                                     Prometheus text exposition to PATH (the
                                     kernel/arch is inserted before the
                                     extension when profiling several kernels);
                                     series also appear as Perfetto counter
                                     tracks in the Chrome trace
  --window N                         metric window in cycles (default 512)
  --check                            fail (exit 1) on validation errors or
                                     dropped events; with --metrics, also
                                     cross-checks the series against the
                                     event stream
  --cpi                              print each run's cycle-accounting CPI
                                     stack (fig08-style): per bucket the
                                     CPI contribution, share of SM-cycles
                                     and a proportional bar
  --profile                          per-PC hotspot profiling: write a
                                     <kernel>.<arch>.hotspots.json record
                                     (instruction-level CPI attribution,
                                     memory latency, coalescing width,
                                     divergence) next to the trace
  --annotate                         print a perf-annotate-style listing
                                     (disassembly + per-line CPI mini-stack
                                     + observed-vs-static coalescing);
                                     implies --profile
  --flame                            write collapsed-stack flamegraph text
                                     (<kernel>.<arch>.collapsed.txt) and a
                                     per-PC Perfetto counter-track trace
                                     (<kernel>.<arch>.pcs.trace.json);
                                     implies --profile
  --json                             machine-readable metrics on stdout
  --list                             list suite kernel names and exit
  -h, --help                         this help

exit codes: 0 success, 1 a --check validation failed, 2 usage or
simulation error";

struct Opts {
    kernels: Vec<String>,
    arch: Architecture,
    scale: Scale,
    sms: Option<u32>,
    out: PathBuf,
    ring: usize,
    metrics: Option<PathBuf>,
    window: u64,
    check: bool,
    cpi: bool,
    profile: bool,
    annotate: bool,
    flame: bool,
    json: bool,
}

fn parse_args() -> Result<Option<Opts>, String> {
    let mut o = Opts {
        kernels: Vec::new(),
        arch: Architecture::virtual_thread(),
        scale: Scale::test(),
        sms: None,
        out: PathBuf::from("traces"),
        ring: 1 << 20,
        metrics: None,
        window: 512,
        check: false,
        cpi: false,
        profile: false,
        annotate: false,
        flame: false,
        json: false,
    };
    let mut args = std::env::args().skip(1);
    let mut list = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return Ok(None);
            }
            "--list" => list = true,
            "--check" => o.check = true,
            "--cpi" => o.cpi = true,
            "--profile" => o.profile = true,
            "--annotate" => {
                o.profile = true;
                o.annotate = true;
            }
            "--flame" => {
                o.profile = true;
                o.flame = true;
            }
            "--json" => o.json = true,
            "--arch" => o.arch = cli::arch(&cli::value::<String>(&mut args, "--arch")?)?,
            "--scale" => {
                o.scale = match cli::value::<String>(&mut args, "--scale")?.as_str() {
                    "test" => Scale::test(),
                    "small" => Scale::small(),
                    "paper" => Scale::paper(),
                    other => return Err(format!("unknown scale `{other}`")),
                };
            }
            "--sms" => o.sms = Some(cli::value(&mut args, "--sms")?),
            "--out" => o.out = cli::value(&mut args, "--out")?,
            "--metrics" => o.metrics = Some(cli::value(&mut args, "--metrics")?),
            "--window" => o.window = cli::value(&mut args, "--window")?,
            "--ring" => o.ring = cli::value(&mut args, "--ring")?,
            other if other.starts_with('-') => return Err(format!("unknown option `{other}`")),
            name => o.kernels.push(name.to_string()),
        }
    }
    if list {
        for w in suite(&Scale::test()) {
            println!("{}", w.name);
        }
        return Ok(None);
    }
    Ok(Some(o))
}

fn hist_json(h: &Histogram) -> Json {
    Json::object(vec![
        ("count".into(), Json::UInt(h.count)),
        ("mean".into(), Json::Float(h.mean())),
        (
            "min".into(),
            Json::UInt(if h.is_empty() { 0 } else { h.min }),
        ),
        ("p50".into(), Json::UInt(h.percentile(50.0))),
        ("p99".into(), Json::UInt(h.percentile(99.0))),
        ("max".into(), Json::UInt(h.max)),
    ])
}

fn gauge_json(g: &Gauge) -> Json {
    Json::object(vec![
        ("samples".into(), Json::UInt(g.samples)),
        ("mean".into(), Json::Float(g.mean())),
        ("max".into(), Json::UInt(g.max)),
    ])
}

fn hist_line(name: &str, h: &Histogram) -> String {
    if h.is_empty() {
        return format!("  {name:<18} (no samples)");
    }
    format!(
        "  {name:<18} n={:<8} mean={:<9.1} p50={:<7} p99={:<8} max={}",
        h.count,
        h.mean(),
        h.percentile(50.0),
        h.percentile(99.0),
        h.max
    )
}

struct RunOutcome {
    metrics: Json,
    check_failed: bool,
}

/// Where one kernel's Prometheus exposition goes: the `--metrics` path
/// itself for a single kernel, the path with `kernel.arch` inserted
/// before the extension when profiling several.
fn metrics_path(base: &std::path::Path, w: &Workload, arch: Architecture, multi: bool) -> PathBuf {
    if !multi {
        return base.to_path_buf();
    }
    let stem = base
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "metrics".to_string());
    let ext = base
        .extension()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "prom".to_string());
    base.with_file_name(format!("{stem}.{}.{}.{ext}", w.name, arch.label()))
}

fn profile_one(
    w: &Workload,
    opts: &Opts,
    cfg: &GpuConfig,
    multi: bool,
) -> Result<RunOutcome, String> {
    let mut cfg = cfg.clone();
    if opts.metrics.is_some() {
        cfg.core.metrics_window = Some(opts.window);
    }
    if opts.profile {
        cfg.core.profile = true;
    }
    let mut session = Session::new(cfg).with_sink(RingSink::new(opts.ring));
    let report = session
        .run(RunRequest::kernel(&w.kernel))
        .and_then(|o| o.completed())
        .map_err(|e| format!("{}: {e}", w.name))?
        .remove(0);
    let sink = session.into_sink();
    let dropped = sink.dropped();
    let events: Vec<TimedEvent> = sink.into_events();
    let registry = report.stats.metrics();

    // A full ring cannot validate (span begins fell off the front), so
    // only check structure for complete traces; a lossy trace is itself a
    // `--check` failure.
    let complete = dropped == 0;
    let mut issues: Vec<String> = if complete {
        match validate(&events) {
            Ok(_) => Vec::new(),
            Err(errors) => errors,
        }
    } else {
        Vec::new()
    };
    if complete {
        if let Some(m) = registry {
            if let Err(errors) = validate_metrics(&events, m) {
                issues.extend(errors);
            }
        }
    }
    let check_failed = opts.check && !(complete && issues.is_empty());

    fs::create_dir_all(&opts.out).map_err(|e| format!("cannot create {:?}: {e}", opts.out))?;
    let path = opts
        .out
        .join(format!("{}.{}.trace.json", w.name, report.arch.label()));
    fs::write(&path, to_chrome_json_with(&events, registry).compact())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let prom_path = match (&opts.metrics, registry) {
        (Some(base), Some(m)) => {
            let p = metrics_path(base, w, report.arch, multi);
            if let Some(dir) = p.parent().filter(|d| !d.as_os_str().is_empty()) {
                fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
            }
            fs::write(&p, m.to_prometheus())
                .map_err(|e| format!("cannot write {}: {e}", p.display()))?;
            Some(p)
        }
        _ => None,
    };

    // Per-PC hotspot profile: the record itself, plus its annotate /
    // flamegraph renderings when asked for.
    let hotspot_rec = if opts.profile {
        let rec = ProfileRecord::from_run(
            w.name,
            report.arch.label(),
            w.kernel.program(),
            &report.stats,
        )
        .map_err(|e| format!("{}: {e}", w.name))?;
        rec.check_conservation()
            .map_err(|e| format!("{}: per-PC conservation violated: {e}", w.name))?;
        let path = opts
            .out
            .join(format!("{}.{}.hotspots.json", w.name, report.arch.label()));
        fs::write(&path, rec.to_json().pretty())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        Some((rec, path))
    } else {
        None
    };
    let flame_paths = match (&hotspot_rec, opts.flame) {
        (Some((rec, _)), true) => {
            let leaders = hotspot::block_leaders(w.kernel.program());
            let collapsed =
                opts.out
                    .join(format!("{}.{}.collapsed.txt", w.name, report.arch.label()));
            fs::write(&collapsed, hotspot::flame_collapsed(rec, &leaders))
                .map_err(|e| format!("cannot write {}: {e}", collapsed.display()))?;
            let perfetto =
                opts.out
                    .join(format!("{}.{}.pcs.trace.json", w.name, report.arch.label()));
            fs::write(&perfetto, hotspot::flame_perfetto(rec).compact())
                .map_err(|e| format!("cannot write {}: {e}", perfetto.display()))?;
            Some((collapsed, perfetto))
        }
        _ => None,
    };

    let s = &report.stats;
    let metrics = Json::object(vec![
        ("kernel".into(), Json::Str(w.name.to_string())),
        ("arch".into(), Json::Str(report.arch.label().to_string())),
        ("cycles".into(), Json::UInt(s.cycles)),
        ("ipc".into(), Json::Float(s.ipc())),
        ("warp_instrs".into(), Json::UInt(s.warp_instrs)),
        ("ctas_completed".into(), Json::UInt(s.ctas_completed)),
        ("issue_cycles".into(), Json::UInt(s.issue_cycles)),
        ("idle_cycles".into(), Json::UInt(s.idle.total())),
        ("cpi".into(), s.cpi_stack().to_json()),
        ("swaps_out".into(), Json::UInt(s.swaps.swaps_out)),
        ("swaps_in".into(), Json::UInt(s.swaps.swaps_in)),
        ("load_latency".into(), hist_json(&s.mem.load_latency)),
        ("swap_duration".into(), hist_json(&s.swap_duration)),
        ("swap_gap".into(), hist_json(&s.swap_gap)),
        ("barrier_wait".into(), hist_json(&s.barrier_wait)),
        ("mshr_occupancy".into(), gauge_json(&s.mem.mshr_occupancy)),
        ("ldst_queue".into(), gauge_json(&s.ldst_queue)),
        ("events".into(), Json::UInt(events.len() as u64)),
        ("events_dropped".into(), Json::UInt(dropped)),
        (
            "metrics_windows".into(),
            Json::UInt(registry.map_or(0, |m| m.windows())),
        ),
        (
            "metrics".into(),
            prom_path
                .as_ref()
                .map_or(Json::Null, |p| Json::Str(p.display().to_string())),
        ),
        (
            "validation_errors".into(),
            Json::Array(issues.iter().cloned().map(Json::Str).collect()),
        ),
        ("trace".into(), Json::Str(path.display().to_string())),
        (
            "hotspots".into(),
            hotspot_rec
                .as_ref()
                .map_or(Json::Null, |(_, p)| Json::Str(p.display().to_string())),
        ),
    ]);

    if !opts.json {
        println!(
            "{} [{}]: {} cycles, ipc {:.2}, {} events -> {}",
            w.name,
            report.arch.label(),
            s.cycles,
            s.ipc(),
            events.len(),
            path.display()
        );
        println!("{}", hist_line("load_latency", &s.mem.load_latency));
        println!("{}", hist_line("swap_duration", &s.swap_duration));
        println!("{}", hist_line("swap_gap", &s.swap_gap));
        println!("{}", hist_line("barrier_wait", &s.barrier_wait));
        println!(
            "  {:<18} mean={:<9.1} max={}",
            "mshr_occupancy",
            s.mem.mshr_occupancy.mean(),
            s.mem.mshr_occupancy.max
        );
        println!(
            "  {:<18} mean={:<9.1} max={}",
            "ldst_queue",
            s.ldst_queue.mean(),
            s.ldst_queue.max
        );
        if opts.cpi {
            let rec = CpiRecord::from_stack(&s.cpi_stack());
            println!("  cpi stack ({} SM-cycles):", rec.total());
            for line in stack_report(&rec, s.thread_instrs, 24).lines() {
                println!("    {line}");
            }
        }
        if let (Some(p), Some(m)) = (&prom_path, registry) {
            println!(
                "  {:<18} {} windows of {} cycles -> {}",
                "metrics",
                m.windows(),
                m.window(),
                p.display()
            );
        }
        if let Some((rec, p)) = &hotspot_rec {
            println!(
                "  {:<18} {} PCs -> {}",
                "hotspots",
                rec.pcs.len(),
                p.display()
            );
            if opts.annotate {
                let model = vt_analysis::model(&w.kernel, &vt_analysis::ModelConfig::default());
                for line in hotspot::annotate(rec, &model.mem_sites, 24).lines() {
                    println!("  {line}");
                }
            }
        }
        if let Some((collapsed, perfetto)) = &flame_paths {
            println!(
                "  {:<18} {} + {}",
                "flame",
                collapsed.display(),
                perfetto.display()
            );
        }
        if dropped > 0 {
            println!("  WARNING: ring overflow, {dropped} events dropped (raise --ring)");
        }
        for issue in &issues {
            println!("  INVALID: {issue}");
        }
        if opts.check && issues.is_empty() && dropped == 0 {
            println!("  check: ok ({} events)", events.len());
        }
    }
    Ok(RunOutcome {
        metrics,
        check_failed,
    })
}

fn main() -> ExitCode {
    let opts = match cli::parsed("vtprof", USAGE, parse_args()) {
        Ok(o) => o,
        Err(code) => return ExitCode::from(code),
    };
    let all = suite(&opts.scale);
    let picked = match cli::select(&all, &opts.kernels, |w| w.name) {
        Ok(p) => p,
        Err(e) => return ExitCode::from(cli::finish("vtprof", Err(e))),
    };
    let mut cfg = GpuConfig::with_arch(opts.arch);
    if let Some(sms) = opts.sms {
        cfg.core.num_sms = sms.max(1);
    }
    let mut records = Vec::new();
    let mut failed = false;
    let multi = picked.len() > 1;
    for w in picked {
        match profile_one(w, &opts, &cfg, multi) {
            Ok(out) => {
                failed |= out.check_failed;
                records.push(out.metrics);
            }
            Err(e) => return ExitCode::from(cli::finish("vtprof", Err(e))),
        }
    }
    if opts.json {
        println!("{}", Json::Array(records).pretty());
    }
    if failed {
        eprintln!("vtprof: --check failed");
    }
    ExitCode::from(cli::finish("vtprof", Ok(!failed)))
}
