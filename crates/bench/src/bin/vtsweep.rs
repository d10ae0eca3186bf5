//! `vtsweep` — parallel sweep runner for the experiment grid.
//!
//! Runs the suite-kernels × architectures grid, fanning whole grid cells
//! across the deterministic worker pool. Results are bit-identical to a
//! sequential run at any thread count; `--check` verifies exactly that.
//!
//! Long runs can be bounded and sliced: `--budget` / `--deadline` stop
//! each cell after a cycle or wall-clock allowance, `--checkpoint FILE`
//! saves the truncated simulator state, and `--resume FILE` continues it
//! bit-identically. Such runs simulate one cell at a time on one thread
//! and install a Ctrl-C handler that cancels the active simulation at
//! the next cycle boundary instead of killing the process.
//!
//! ```text
//! cargo run --release -p vt-bench --bin vtsweep                  # full grid
//! cargo run --release -p vt-bench --bin vtsweep -- bfs spmv --threads 4
//! cargo run --release -p vt-bench --bin vtsweep -- --threads 2 --check
//! cargo run --release -p vt-bench --bin vtsweep -- bfs --arch vt \
//!     --budget 5000 --checkpoint bfs.ckpt                        # slice 1
//! cargo run --release -p vt-bench --bin vtsweep -- bfs --arch vt \
//!     --resume bfs.ckpt                                          # finish
//! ```
//!
//! Exit codes: 0 success, 1 a `--check` mismatch, 2 usage or simulation
//! error, 130 cancelled by Ctrl-C.

use std::cell::RefCell;
use std::io::IsTerminal;
use std::process::ExitCode;
use std::rc::Rc;
use std::sync::OnceLock;
use std::time::{Duration, Instant};
use vt_bench::cli;
use vt_core::{
    default_threads, Architecture, CancelToken, Checkpoint, GpuConfig, Pool, Progress, Report,
    RunBudget, RunRequest, RunStats, Session, SessionOutcome, SimError, StopReason, Truncation,
};
use vt_json::Json;
use vt_workloads::{suite, Scale, Workload};

const USAGE: &str = "\
usage: vtsweep [KERNEL...] [options]

Runs the kernels x architectures grid on a deterministic worker pool and
prints one stats line (or JSON record) per cell. Any thread count gives
bit-identical statistics; threading only changes wall-clock time.

options:
  --arch LIST                        comma-separated subset of
                                     baseline,vt,ideal,memswap or `all`
                                     (default all)
  --scale test|small|paper           problem scale (default test)
  --sms N                            number of SMs (default config's 15)
  --threads N                        worker threads for the unbudgeted grid
                                     (default $VT_THREADS, else the
                                     machine's parallelism; 1 = fully
                                     sequential). With --budget, --deadline,
                                     --resume or --progress cells run one
                                     at a time on one thread, whatever N
  --budget CYCLES                    stop each cell after CYCLES simulated
                                     cycles, reporting partial stats
  --deadline SECS                    stop each cell after SECS wall-clock
                                     seconds (partial stats are not
                                     deterministic)
  --checkpoint FILE                  write the truncated cell's state to
                                     FILE (requires one kernel, one arch)
  --resume FILE                      continue a checkpointed run from FILE
                                     (requires one kernel, one arch)
  --progress                         live stderr ticker (cycle/budget,
                                     windowed IPC, resident CTAs) for each
                                     cell (automatic when stderr is a
                                     terminal and cells run one at a time)
  --check                            re-run the grid single-threaded and
                                     fail (exit 1) unless every cell is
                                     bit-identical
  --json                             machine-readable results on stdout
  --list                             list suite kernel names and exit
  -h, --help                         this help";

struct Opts {
    kernels: Vec<String>,
    archs: Vec<Architecture>,
    scale: Scale,
    sms: Option<u32>,
    threads: usize,
    budget: Option<u64>,
    deadline: Option<Duration>,
    checkpoint: Option<String>,
    resume: Option<String>,
    progress: bool,
    check: bool,
    json: bool,
}

impl Opts {
    /// Whether this invocation runs cells through a budgeted/cancellable
    /// [`Session`] (as opposed to fanning completed cells across the
    /// pool).
    fn uses_sessions(&self) -> bool {
        self.budget.is_some() || self.deadline.is_some() || self.resume.is_some() || self.progress
    }

    /// Whether cells show a live stderr ticker: `--progress` forces it,
    /// and a session run on an interactive stderr gets it automatically.
    fn wants_ticker(&self) -> bool {
        self.progress || (self.uses_sessions() && std::io::stderr().is_terminal())
    }

    fn run_budget(&self) -> RunBudget {
        let mut b = RunBudget::unlimited();
        if let Some(cycles) = self.budget {
            b = b.with_max_cycles(cycles);
        }
        if let Some(deadline) = self.deadline {
            b = b.with_deadline(deadline);
        }
        b
    }
}

fn parse_archs(list: &str) -> Result<Vec<Architecture>, String> {
    if list == "all" {
        return Ok(Architecture::standard().to_vec());
    }
    list.split(',').map(|a| cli::arch(a.trim())).collect()
}

fn parse_args() -> Result<Option<Opts>, String> {
    let mut o = Opts {
        kernels: Vec::new(),
        archs: Architecture::standard().to_vec(),
        scale: Scale::test(),
        sms: None,
        threads: default_threads(),
        budget: None,
        deadline: None,
        checkpoint: None,
        resume: None,
        progress: false,
        check: false,
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
            "--json" => o.json = true,
            "--arch" => o.archs = parse_archs(&cli::value::<String>(&mut args, "--arch")?)?,
            "--scale" => {
                o.scale = match cli::value::<String>(&mut args, "--scale")?.as_str() {
                    "test" => Scale::test(),
                    "small" => Scale::small(),
                    "paper" => Scale::paper(),
                    other => return Err(format!("unknown scale `{other}`")),
                };
            }
            "--sms" => o.sms = Some(cli::value(&mut args, "--sms")?),
            "--threads" => {
                let n: usize = cli::value(&mut args, "--threads")?;
                o.threads = if n == 0 { default_threads() } else { n };
            }
            "--budget" => {
                let n: u64 = cli::value(&mut args, "--budget")?;
                if n == 0 {
                    return Err("--budget must be at least 1 cycle".to_string());
                }
                o.budget = Some(n);
            }
            "--deadline" => {
                let s: f64 = cli::value(&mut args, "--deadline")?;
                if !s.is_finite() || s <= 0.0 {
                    return Err("--deadline must be positive seconds".to_string());
                }
                o.deadline = Some(Duration::from_secs_f64(s));
            }
            "--checkpoint" => o.checkpoint = Some(cli::value(&mut args, "--checkpoint")?),
            "--resume" => o.resume = Some(cli::value(&mut args, "--resume")?),
            "--progress" => o.progress = true,
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

// ---------------------------------------------------------------- Ctrl-C

/// The token the SIGINT handler flips; installed once per process.
static CANCEL: OnceLock<CancelToken> = OnceLock::new();

extern "C" fn on_sigint(_signum: i32) {
    // Only an atomic store — the engine notices at the next cycle.
    if let Some(token) = CANCEL.get() {
        token.cancel();
    }
}

/// Routes SIGINT to `token` so Ctrl-C truncates the active simulation
/// (with a checkpoint) instead of killing the process.
fn install_ctrl_c(token: CancelToken) {
    if CANCEL.set(token).is_err() {
        return; // already installed
    }
    vt_par::install_sigint(on_sigint);
}

// ------------------------------------------------------------------ grid

/// One grid cell's outcome: completed, or truncated by the budget /
/// Ctrl-C with partial stats and a resumable checkpoint.
enum Cell {
    Done(Box<Report>),
    Cut {
        kernel: String,
        arch: Architecture,
        truncation: Box<Truncation>,
    },
}

impl Cell {
    fn stats(&self) -> &RunStats {
        match self {
            Cell::Done(r) => &r.stats,
            Cell::Cut { truncation, .. } => &truncation.stats,
        }
    }
}

fn reason_label(reason: StopReason) -> &'static str {
    match reason {
        StopReason::CycleBudget => "cycle budget",
        StopReason::Deadline => "deadline",
        StopReason::Cancelled => "cancelled",
    }
}

fn base_config(opts: &Opts) -> GpuConfig {
    let mut cfg = GpuConfig::default();
    if let Some(sms) = opts.sms {
        cfg.core.num_sms = sms.max(1);
    }
    cfg
}

/// Cycles between ticker updates; coarse enough that the stderr writes
/// are invisible in the wall-clock profile.
const TICK_EVERY: u64 = 4096;

/// Runs the full grid, returning cells in kernel-major order. `threads`
/// shards the unbudgeted grid; session cells run one at a time.
fn run_grid(
    opts: &Opts,
    picked: &[&Workload],
    threads: usize,
    resume: Option<&Checkpoint>,
    cancel: Option<&CancelToken>,
    ticker: bool,
) -> Vec<Result<Cell, SimError>> {
    let cfg = base_config(opts);
    if !opts.uses_sessions() {
        let kernels: Vec<_> = picked.iter().map(|w| w.kernel.clone()).collect();
        let session = Session::new(cfg).with_pool(Pool::new(threads));
        return session
            .sweep(&opts.archs, &kernels)
            .into_iter()
            .map(|r| r.map(|r| Cell::Done(Box::new(r))))
            .collect();
    }

    // Budgeted / cancellable path: one session per architecture, each
    // cell run to its budget. The ticker label is
    // shared with every session's callback and rewritten per cell.
    let label: Rc<RefCell<String>> = Rc::default();
    let mut sessions: Vec<Session> = opts
        .archs
        .iter()
        .map(|&arch| {
            let mut s = Session::new(GpuConfig {
                arch,
                ..cfg.clone()
            })
            .with_budget(opts.run_budget());
            if let Some(token) = cancel {
                s = s.with_cancel(token.clone());
            }
            if ticker {
                let label = Rc::clone(&label);
                s = s.with_progress(TICK_EVERY, move |p: &Progress| {
                    let budget = p.budget_cycles.map_or(String::new(), |b| format!("/{b}"));
                    eprint!(
                        "\r\x1b[K  {} cycle {}{}  ipc {:.2} (window {:.2})  resident CTAs {}",
                        label.borrow(),
                        p.cycle,
                        budget,
                        p.ipc,
                        p.window_ipc,
                        p.resident_ctas
                    );
                });
            }
            s
        })
        .collect();
    let mut out = Vec::new();
    for w in picked {
        for (ai, &arch) in opts.archs.iter().enumerate() {
            if ticker {
                *label.borrow_mut() = format!("{} [{}]", w.name, arch.label());
            }
            // After a Ctrl-C every remaining cell truncates after one
            // cycle, so the grid still finishes promptly with one
            // (cheap) truncated record per cell.
            let mut req = RunRequest::kernel(&w.kernel);
            if let Some(ckpt) = resume {
                req = req.resume_from(ckpt);
            }
            let cell = sessions[ai].run(req).map(|outcome| match outcome {
                SessionOutcome::Completed(mut reports) => Cell::Done(Box::new(reports.remove(0))),
                SessionOutcome::Truncated { truncation, .. } => Cell::Cut {
                    kernel: w.name.to_string(),
                    arch,
                    truncation,
                },
            });
            if ticker {
                eprint!("\r\x1b[K"); // clear the cell's last ticker line
            }
            out.push(cell);
        }
    }
    out
}

// ----------------------------------------------------------------- check

/// Names the `RunStats` fields that differ, for a readable `--check`
/// report.
fn diff_stats(got: &RunStats, want: &RunStats) -> Vec<String> {
    let mut out = Vec::new();
    macro_rules! compare {
        ($($field:ident),+) => {$(
            let (a, b) = (format!("{:?}", got.$field), format!("{:?}", want.$field));
            if a != b {
                out.push(format!("{}: {a} != {b}", stringify!($field)));
            }
        )+};
    }
    compare!(
        cycles,
        warp_instrs,
        thread_instrs,
        issue_cycles,
        idle,
        occupancy,
        swaps,
        mem
    );
    if out.is_empty() && got != want {
        out.push("other fields differ (histograms/gauges/metric series)".to_string());
    }
    out
}

fn cell_json(cell: &Cell) -> Json {
    let (kernel, arch, truncated) = match cell {
        Cell::Done(r) => (r.kernel.as_str(), r.arch, None),
        Cell::Cut {
            kernel,
            arch,
            truncation,
        } => (kernel.as_str(), *arch, Some(truncation.reason)),
    };
    let s = cell.stats();
    let mut fields = vec![
        ("kernel".into(), Json::Str(kernel.to_string())),
        ("arch".into(), Json::Str(arch.label().to_string())),
        ("truncated".into(), Json::Bool(truncated.is_some())),
        ("cycles".into(), Json::UInt(s.cycles)),
        ("ipc".into(), Json::Float(s.ipc())),
        ("warp_instrs".into(), Json::UInt(s.warp_instrs)),
        ("ctas_completed".into(), Json::UInt(s.ctas_completed)),
        ("issue_cycles".into(), Json::UInt(s.issue_cycles)),
        ("idle_cycles".into(), Json::UInt(s.idle.total())),
        ("swaps_out".into(), Json::UInt(s.swaps.swaps_out)),
        ("swaps_in".into(), Json::UInt(s.swaps.swaps_in)),
        ("l1_accesses".into(), Json::UInt(s.mem.l1_accesses)),
        ("l2_accesses".into(), Json::UInt(s.mem.l2_accesses)),
        ("dram_reads".into(), Json::UInt(s.mem.dram_reads)),
    ];
    if let Some(reason) = truncated {
        fields.push((
            "stop_reason".into(),
            Json::Str(reason_label(reason).to_string()),
        ));
    }
    Json::object(fields)
}

fn main() -> ExitCode {
    let opts = match cli::parsed("vtsweep", USAGE, parse_args()) {
        Ok(o) => o,
        Err(code) => return ExitCode::from(code),
    };
    let all = suite(&opts.scale);
    let picked = match cli::select(&all, &opts.kernels, |w| w.name) {
        Ok(p) => p,
        Err(e) => return ExitCode::from(cli::finish("vtsweep", Err(e))),
    };
    if (opts.checkpoint.is_some() || opts.resume.is_some())
        && (picked.len() != 1 || opts.archs.len() != 1)
    {
        return ExitCode::from(cli::finish(
            "vtsweep",
            Err(format!(
                "--checkpoint/--resume need exactly one kernel and one \
                 --arch (got {} kernel(s), {} arch(s))",
                picked.len(),
                opts.archs.len()
            )),
        ));
    }
    let resume = match &opts.resume {
        Some(path) => {
            let parsed = std::fs::read_to_string(path)
                .map_err(|e| format!("{path}: {e}"))
                .and_then(|text| Checkpoint::parse(&text).map_err(|e| format!("{path}: {e}")));
            match parsed {
                Ok(c) => Some(c),
                Err(e) => {
                    return ExitCode::from(cli::finish("vtsweep", Err(format!("--resume {e}"))))
                }
            }
        }
        None => None,
    };

    // In the session path, Ctrl-C cancels the running cell cooperatively
    // (yielding partial stats and a checkpoint) instead of killing us.
    let cancel = opts.uses_sessions().then(|| {
        let token = CancelToken::new();
        install_ctrl_c(token.clone());
        token
    });

    // Threads actually used: only the unbudgeted grid is sharded.
    let threads = if opts.uses_sessions() {
        1
    } else {
        opts.threads
    };
    let started = Instant::now();
    let grid = run_grid(
        &opts,
        &picked,
        threads,
        resume.as_ref(),
        cancel.as_ref(),
        opts.wants_ticker(),
    );
    let elapsed = started.elapsed();

    let mut records = Vec::new();
    let mut sim_failed = false;
    let mut cancelled = false;
    for cell in &grid {
        match cell {
            Ok(c) => {
                if !opts.json {
                    match c {
                        Cell::Done(r) => println!(
                            "{:<16} [{:<8}] {:>10} cycles  ipc {:>6.2}  swaps {}",
                            r.kernel,
                            r.arch.label(),
                            r.stats.cycles,
                            r.stats.ipc(),
                            r.stats.swaps.swaps_out,
                        ),
                        Cell::Cut {
                            kernel,
                            arch,
                            truncation,
                        } => println!(
                            "{:<16} [{:<8}] {:>10} cycles  TRUNCATED: {}",
                            kernel,
                            arch.label(),
                            truncation.stats.cycles,
                            reason_label(truncation.reason),
                        ),
                    }
                }
                if let Cell::Cut { truncation, .. } = c {
                    cancelled |= truncation.reason == StopReason::Cancelled;
                    if let Some(path) = &opts.checkpoint {
                        if let Err(e) = std::fs::write(path, truncation.checkpoint.to_text()) {
                            eprintln!("vtsweep: --checkpoint {path}: {e}");
                            sim_failed = true;
                        } else if !opts.json {
                            println!("checkpoint written to {path} (resume with --resume {path})");
                        }
                    }
                }
                records.push(cell_json(c));
            }
            Err(e) => {
                eprintln!("vtsweep: {e}");
                sim_failed = true;
            }
        }
    }
    if sim_failed {
        return ExitCode::from(cli::EXIT_ERROR);
    }
    if opts.json {
        println!("{}", Json::Array(records).pretty());
    } else {
        println!(
            "{} cells, {} thread(s), {:.2}s",
            grid.len(),
            threads,
            elapsed.as_secs_f64()
        );
    }

    if opts.check {
        let reference = run_grid(&opts, &picked, 1, resume.as_ref(), None, false);
        let mut mismatches = 0usize;
        for (got, want) in grid.iter().zip(&reference) {
            match (got, want) {
                (Ok(g), Ok(w)) => {
                    let image_differs = match (g, w) {
                        (Cell::Done(g), Cell::Done(w)) => g.mem_image != w.mem_image,
                        // Truncated cells carry no final image; their
                        // checkpoints must instead be textually identical.
                        (Cell::Cut { truncation: g, .. }, Cell::Cut { truncation: w, .. }) => {
                            g.checkpoint.to_text() != w.checkpoint.to_text()
                        }
                        _ => true,
                    };
                    if g.stats() != w.stats() || image_differs {
                        mismatches += 1;
                        eprintln!("vtsweep: MISMATCH vs sequential:");
                        for line in diff_stats(g.stats(), w.stats()) {
                            eprintln!("  {line}");
                        }
                        if image_differs {
                            eprintln!("  final memory image / checkpoint differs");
                        }
                    }
                }
                (Err(g), Err(w)) if format!("{g}") == format!("{w}") => {}
                _ => mismatches += 1,
            }
        }
        if mismatches > 0 {
            eprintln!(
                "vtsweep: --check failed: {mismatches} cell(s) diverge from the sequential run"
            );
            return ExitCode::from(cli::EXIT_FINDING);
        }
        println!(
            "check: ok ({} cells bit-identical at {} thread(s))",
            grid.len(),
            threads
        );
    }
    if cancelled {
        // Extension to the shared contract: interrupted sweeps report the
        // conventional SIGINT code so shells can distinguish a Ctrl-C'd
        // (checkpointed) sweep from a finished or failed one.
        return ExitCode::from(130);
    }
    ExitCode::from(cli::EXIT_OK)
}
