//! Runs one workload: set-up, reference and warm-up passes, timed
//! passes, and (with `--trace 1`) a pass driven one level below
//! `Session` inside spans, followed by the micro-drivers.

use crate::cells::{self, Built};
use crate::check::{self, ratio, sum, CellRun, Checker, Mode, RawCell};
use crate::drivers;
use crate::metrics::{self, median, Metric, Values};
use crate::span::{Span, Tracer};
use crate::spec::{self, Kind, WorkloadDef};
use std::hint::black_box;
use std::time::Instant;
use vt_core::{
    Architecture, Checkpoint, GpuConfig, Pool, Report, RunBudget, RunOutcome, RunRequest, Session,
    SessionOutcome, SimError,
};
use vt_isa::Kernel;
use vt_prng::Prng;
use vt_sim::{GpuSim, RunResult, SimConfig};
use vt_trace::{NullSink, RingSink, TraceSink};
use vt_workloads::Scale;

/// Times the repeatable part of set-up is run; `setup_s` takes the median.
const SETUP_REPEATS: usize = 3;
/// Window, in cycles, of the metric series `observed_sliced` samples.
pub const METRICS_WINDOW: u64 = 512;
/// Capacity of the event ring `observed_sliced` records into.
pub const RING_EVENTS: usize = 1 << 20;

/// What to run.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name (see [`spec::WORKLOADS`]).
    pub workload: String,
    /// Seeds the cell order and the tail kernels.
    pub seed: u64,
    /// Keep starting timed passes until this many seconds have passed.
    pub seconds: f64,
    /// Also run the traced pass and the drivers; report per-layer metrics.
    pub trace: bool,
    /// `Scale { ctas: 30, iters: 2 }` and no class assertions, for tests.
    pub smoke: bool,
}

/// Everything one run of one workload produced.
#[derive(Debug)]
pub struct Outcome {
    /// No cell failed a check and every design assertion held.
    pub correct: bool,
    /// Cells simulated, reference and warm-up passes included.
    pub attempted: u64,
    /// Cells that returned `Err` or failed a check.
    pub failed: u64,
    /// End-to-end metrics (`trace` off) or per-layer metrics (`trace` on).
    pub metrics: Vec<Metric>,
    /// FNV digest over the fixed cells' stats digests, canonical order.
    pub digest: u64,
    /// Timed passes measured.
    pub passes: usize,
    /// The scale the kernels were built at.
    pub scale: Scale,
    /// Spans of the traced run; empty with `trace` off.
    pub spans: Vec<Span>,
}

struct Pass {
    cells: Vec<CellRun>,
    /// Host nanoseconds of the sweep (grid only; other kinds time cells).
    sweep_ns: u64,
}

impl Pass {
    /// Host nanoseconds a pass is charged: the sweep's wall for the
    /// grid, otherwise the simulator time of the chosen cells.
    fn wall_ns(&self, built: &Built, fixed_only: bool) -> u64 {
        self.sweep_ns
            + self
                .cells
                .iter()
                .filter(|c| !fixed_only || built.kernels[c.kernel].fixed)
                .map(|c| c.wall_ns)
                .sum::<u64>()
    }
}

/// A workload set up and ready to run passes.
struct Bench {
    kind: Kind,
    cfg: GpuConfig,
    archs: Vec<Architecture>,
    built: Built,
    /// Draws each pass's cell order.
    rng: Prng,
    /// Kernel indices in the order the next pass runs them.
    order: Vec<usize>,
    /// Grid only: the kernels in `order`, as `Session::sweep` wants them.
    grid_kernels: Vec<Kernel>,
    /// Holds the pool for the grid and the SM-parallel engine.
    session: Session,
    /// Budget of one slice (sliced only).
    slice: RunBudget,
}

impl Bench {
    /// The repeatable part of set-up: kernels, reference images, seeded
    /// order, pool and session.
    fn new(def: &WorkloadDef, scale: &Scale, opts: &Opts) -> Bench {
        let built = cells::build(def, scale, opts.seed);
        let mut cfg = GpuConfig::with_arch(Architecture::virtual_thread());
        let mut archs = vec![cfg.arch];
        match def.kind {
            Kind::Grid => archs.insert(0, Architecture::Baseline),
            Kind::Sliced => {
                cfg.core.metrics_window = Some(METRICS_WINDOW);
                cfg.core.profile = true;
            }
            Kind::Single | Kind::SmParallel => {}
        }
        let order: Vec<usize> = (0..built.kernels.len()).collect();
        let grid_kernels = if def.kind == Kind::Grid {
            built.kernels.iter().map(|e| e.kernel.clone()).collect()
        } else {
            Vec::new()
        };
        let mut session = Session::new(cfg.clone());
        if spec::workers(def.kind) > 1 {
            session = session.with_pool(Pool::new(spec::workers(def.kind)));
        }
        Bench {
            kind: def.kind,
            cfg,
            archs,
            built,
            rng: Prng::new(opts.seed),
            order,
            grid_kernels,
            session,
            slice: RunBudget::unlimited().with_max_cycles(if opts.smoke { 500 } else { 2000 }),
        }
    }

    /// Draws the next pass's cell order. A new one every pass, so that
    /// within one run a cell meets many predecessors and heap states:
    /// what the order does to a cell's time or to the peak heap then
    /// averages out inside a run instead of separating runs by seed.
    fn reshuffle(&mut self) {
        if self.kind == Kind::Grid {
            let mut both: Vec<(usize, Kernel)> = (self.order.drain(..))
                .zip(self.grid_kernels.drain(..))
                .collect();
            self.rng.shuffle(&mut both);
            (self.order, self.grid_kernels) = both.into_iter().unzip();
        } else {
            self.rng.shuffle(&mut self.order);
        }
    }

    /// One untraced pass through the public `Session` API. Each cell is
    /// validated as soon as its own timed window has closed.
    fn pass(&mut self, checker: &mut Checker, mode: Mode) -> Pass {
        self.reshuffle();
        if self.kind == Kind::Grid {
            let t = Instant::now();
            let results = self.session.sweep(&self.archs, &self.grid_kernels);
            let sweep_ns = t.elapsed().as_nanos() as u64;
            let archs = self.archs.len();
            let raws = results
                .into_iter()
                .enumerate()
                .map(|(i, result)| RawCell {
                    kernel: self.order[i / archs],
                    arch: i % archs,
                    wall_ns: 0,
                    cuts: 0,
                    ckpt_bytes: 0,
                    result,
                })
                .collect();
            let cells = checker.check_all(raws, &self.built, mode);
            return Pass { cells, sweep_ns };
        }
        let mut cells = Vec::with_capacity(self.order.len());
        for &k in &self.order {
            let entry = &self.built.kernels[k];
            let t = Instant::now();
            let (result, cuts, ckpt_bytes) = match (mode, self.kind) {
                (Mode::Main, Kind::Sliced) => run_sliced(&self.cfg, &entry.kernel, self.slice),
                (Mode::Main, _) => (run_whole(&mut self.session, &entry.kernel), 0, 0),
                (Mode::Plain, _) => {
                    let mut plain = Session::new(GpuConfig::with_arch(self.cfg.arch));
                    (run_whole(&mut plain, &entry.kernel), 0, 0)
                }
                (Mode::ObservedWhole, _) => {
                    let mut observed =
                        Session::new(self.cfg.clone()).with_sink(RingSink::new(RING_EVENTS));
                    (run_whole(&mut observed, &entry.kernel), 0, 0)
                }
            };
            let raw = RawCell {
                kernel: k,
                arch: 0,
                wall_ns: t.elapsed().as_nanos() as u64,
                cuts,
                ckpt_bytes,
                result,
            };
            cells.push(checker.check(raw, entry, mode));
        }
        Pass { cells, sweep_ns: 0 }
    }

    /// One pass with every cell driven one level below `Session`, each
    /// call into a layer in its own span.
    fn traced_pass(&self, tr: &mut Tracer, checker: &mut Checker) {
        // Unlike `Bench`, this can cross to a pool worker (a `Session`
        // holds a progress callback, which cannot).
        let ctx = TracedCell {
            built: &self.built,
            cfg: &self.cfg,
            archs: &self.archs,
            sliced: self.kind == Kind::Sliced,
            slice: self.slice,
        };
        if self.kind == Kind::Grid {
            let epoch = tr.epoch();
            let jobs: Vec<_> = self
                .order
                .iter()
                .flat_map(|&k| (0..self.archs.len()).map(move |a| (k, a)))
                .map(|(k, a)| {
                    move || {
                        let mut tr = Tracer::fork(epoch);
                        let raw = tr.span("cell", |tr| ctx.run(tr, k, a, None));
                        (raw, tr)
                    }
                })
                .collect();
            let pool = self.session.pool().expect("the grid attaches a pool");
            let raws: Vec<RawCell> = tr.span("par.sweep", |tr| {
                vt_core::sweep(pool, jobs)
                    .into_iter()
                    .map(|(raw, child)| {
                        tr.adopt(child);
                        raw
                    })
                    .collect()
            });
            tr.span("check", |_| {
                checker.check_all(raws, &self.built, Mode::Main)
            });
            return;
        }
        for &k in &self.order {
            tr.span("cell", |tr| {
                let raw = ctx.run(tr, k, 0, self.session.pool());
                tr.span("check", |_| {
                    checker.check(raw, &self.built.kernels[k], Mode::Main)
                });
            });
        }
    }
}

fn run_whole<S: TraceSink>(session: &mut Session<S>, kernel: &Kernel) -> Result<Report, SimError> {
    session
        .run(RunRequest::kernel(kernel))?
        .completed()
        .map(|mut r| r.remove(0))
}

/// Runs `kernel` in `slice`-sized steps, taking every cut through the
/// checkpoint's text form, as a job that survives restarts would.
/// Returns the result, the cuts taken and their total text bytes.
fn run_sliced(
    cfg: &GpuConfig,
    kernel: &Kernel,
    slice: RunBudget,
) -> (Result<Report, SimError>, u64, u64) {
    let mut session = Session::new(cfg.clone()).with_sink(RingSink::new(RING_EVENTS));
    let mut ckpt: Option<Checkpoint> = None;
    let mut cuts = 0;
    let mut bytes = 0;
    loop {
        let mut req = RunRequest::kernel(kernel).with_budget(slice);
        if let Some(c) = &ckpt {
            req = req.resume_from(c);
        }
        match session.run(req) {
            Err(e) => return (Err(e), cuts, bytes),
            Ok(SessionOutcome::Completed(mut r)) => return (Ok(r.remove(0)), cuts, bytes),
            Ok(SessionOutcome::Truncated { truncation, .. }) => {
                let text = truncation.checkpoint.to_text();
                // The text is all a restarted job would have: the state
                // it was written from is gone before it is parsed.
                drop(truncation);
                cuts += 1;
                bytes += text.len() as u64;
                match Checkpoint::parse(&text) {
                    Ok(c) => ckpt = Some(c),
                    Err(e) => return (Err(e), cuts, bytes),
                }
            }
        }
    }
}

/// What running one cell under spans needs.
#[derive(Clone, Copy)]
struct TracedCell<'a> {
    built: &'a Built,
    cfg: &'a GpuConfig,
    archs: &'a [Architecture],
    sliced: bool,
    slice: RunBudget,
}

impl TracedCell<'_> {
    /// One cell under spans, timed like an untraced one.
    fn run(&self, tr: &mut Tracer, k: usize, a: usize, pool: Option<&Pool>) -> RawCell {
        let t = Instant::now();
        let mut cuts = (0, 0);
        let result = self.simulate(
            tr,
            &self.built.kernels[k].kernel,
            self.archs[a],
            pool,
            &mut cuts,
        );
        RawCell {
            kernel: k,
            arch: a,
            wall_ns: t.elapsed().as_nanos() as u64,
            cuts: cuts.0,
            ckpt_bytes: cuts.1,
            result,
        }
    }

    /// What `Session::run` does for one kernel, spelled out so each step
    /// gets a span: lower the architecture, build the engine, execute,
    /// and assemble the report. `cuts` counts checkpoints and their bytes.
    fn simulate(
        &self,
        tr: &mut Tracer,
        kernel: &Kernel,
        arch: Architecture,
        pool: Option<&Pool>,
        cuts: &mut (u64, u64),
    ) -> Result<Report, SimError> {
        let residency = tr.span("core.lower", |_| {
            arch.residency_for(kernel, &self.cfg.core, &self.cfg.mem)
        });
        let sim_cfg = SimConfig {
            core: self.cfg.core.clone(),
            mem: self.cfg.mem.clone(),
            residency,
        };
        let done = if self.sliced {
            self.slices(tr, &sim_cfg, kernel, pool, cuts)?
        } else {
            let sim = tr.span("sim.new", |_| GpuSim::new(&sim_cfg, kernel))?;
            tr.span("sim.execute", |_| {
                sim.execute(pool, &mut NullSink, &RunBudget::unlimited(), None)
            })?
            .completed()?
        };
        // Session::run clones the image here to seed the next kernel of
        // a chain; kept so the cell's self time is the real glue.
        black_box(done.mem_image.clone());
        Ok(Report {
            kernel: kernel.name().to_string(),
            arch,
            residency,
            stats: done.stats,
            mem_image: done.mem_image,
        })
    }

    /// [`run_sliced`] one level down: every slice, and within it every
    /// call into the engine and the checkpoint codec, in a span.
    fn slices(
        &self,
        tr: &mut Tracer,
        sim_cfg: &SimConfig,
        kernel: &Kernel,
        pool: Option<&Pool>,
        cuts: &mut (u64, u64),
    ) -> Result<RunResult, SimError> {
        let mut sink = RingSink::new(RING_EVENTS);
        let mut ckpt: Option<Checkpoint> = None;
        loop {
            let out = tr.span("slice", |tr| {
                let sim = match &ckpt {
                    None => tr.span("sim.new", |_| GpuSim::new(sim_cfg, kernel))?,
                    Some(c) => tr.span("sim.resume", |_| GpuSim::resume(sim_cfg, kernel, c))?,
                };
                let out = tr.span("sim.execute", |_| {
                    sim.execute(pool, &mut sink, &self.slice, None)
                })?;
                Ok::<_, SimError>(match out {
                    RunOutcome::Completed(done) => Some(done),
                    RunOutcome::Truncated(t) => {
                        let text = tr.span("sim.checkpoint.to_text", |_| t.checkpoint.to_text());
                        drop(t);
                        ckpt = Some(tr.span("sim.checkpoint.parse", |_| Checkpoint::parse(&text))?);
                        cuts.0 += 1;
                        cuts.1 += text.len() as u64;
                        None
                    }
                })
            })?;
            if let Some(done) = out {
                return Ok(done);
            }
        }
    }
}

/// One stderr line per cell of the warm-up pass: what ran, how long it
/// took the host and what the simulated SMs did, so a reader can see
/// which cells carry the workload (and what the seed's tail looks like).
fn describe(bench: &Bench, pass: &Pass) {
    for c in &pass.cells {
        let Some(s) = &c.stats else { continue };
        eprintln!(
            "cell {:<24} {:<8} {:>8.1} ms {:>7} cycles  issued {:.2}  swaps_out {:>6}  cuts {}",
            bench.built.kernels[c.kernel].name,
            bench.archs[c.arch].label(),
            c.wall_ns as f64 / 1e6,
            s.cycles,
            ratio(s.issue_cycles, s.occupancy.sm_cycles),
            s.swaps.swaps_out,
            c.cuts
        );
    }
}

/// Runs one workload as `opts` says.
///
/// # Errors
///
/// Returns a message if the workload name is unknown.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let def = spec::workload(&opts.workload)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
    let scale = if opts.smoke {
        Scale { ctas: 30, iters: 2 }
    } else {
        Scale::paper()
    };
    let mut tr = Tracer::new();
    let mut m = tr.span("run", |tr| {
        let mut m = tr.span("workload", |tr| run_workload(tr, def, scale, opts));
        if opts.trace {
            let unit_costs = tr.span("drivers", |tr| {
                drivers::run(tr, &m.bench.built, &m.bench.cfg, &scale, opts.smoke)
            });
            m.values
                .extend(unit_costs.into_iter().map(|(name, v)| (name, (v, None))));
        }
        m
    });
    let metrics = if opts.trace {
        metrics::from_spans(tr.spans(), def.kind, &m.totals, &mut m.values);
        metrics::collect(spec::PER_LAYER, &m.values, false)
    } else {
        m.values
            .insert("peak_rss_mb", (metrics::peak_rss_mb(), None));
        metrics::collect(spec::END_TO_END, &m.values, true)
    };
    Ok(Outcome {
        correct: m.checker.failed == 0 && m.design_ok,
        attempted: m.checker.attempted,
        failed: m.checker.failed,
        metrics,
        digest: m.digest,
        passes: m.passes,
        scale,
        spans: if opts.trace {
            tr.spans().to_vec()
        } else {
            Vec::new()
        },
    })
}

/// What the `workload` span leaves behind for [`run`].
struct Measured {
    bench: Bench,
    checker: Checker,
    /// Every design assertion and the stored digest held.
    design_ok: bool,
    digest: u64,
    passes: usize,
    values: Values,
    totals: metrics::Totals,
}

/// Everything inside the `workload` span: set-up, reference and warm-up
/// passes, timed passes and (traced) the pass under spans.
fn run_workload(tr: &mut Tracer, def: &'static WorkloadDef, scale: Scale, opts: &Opts) -> Measured {
    let kind = def.kind;
    let mut values = Values::new();

    // ---- set-up, SETUP_REPEATS times: build everything, run one pass ----
    // Like `wall_s`, the pass is charged for its fixed cells only, so
    // set-up does not follow the seed's tail.
    let mut checker = Checker::new(def.name, GpuConfig::default().core.num_sms);
    let (mut bench, warm, repeat_s) = tr.span("setup", |_| {
        let mut times = Vec::new();
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            // Drop the previous repeat first, so two never coexist in
            // `peak_rss_mb`.
            drop(last.take());
            let t = Instant::now();
            let mut bench = Bench::new(def, &scale, opts);
            let build_s = t.elapsed().as_secs_f64();
            let warm = bench.pass(&mut checker, Mode::Main);
            times.push(build_s + warm.wall_ns(&bench.built, true) as f64 / 1e9);
            last = Some((bench, warm));
        }
        let (bench, warm) = last.expect("SETUP_REPEATS > 0");
        (bench, warm, times)
    });
    let setup_s = median(&repeat_s);

    // ---- reference passes: what checks 4 and 5 compare against ---------
    let mut unpooled_ns = 0;
    tr.span("reference", |_| {
        let modes: &[Mode] = match kind {
            Kind::SmParallel => &[Mode::Plain],
            Kind::Sliced => &[Mode::Plain, Mode::ObservedWhole],
            Kind::Grid | Kind::Single => &[],
        };
        for &mode in modes {
            let p = bench.pass(&mut checker, mode);
            if mode == Mode::Plain {
                unpooled_ns = p.wall_ns(&bench.built, true);
            }
        }
    });
    describe(&bench, &warm);

    // ---- what the workload claims to be, at paper scale ----------------
    let digest = checker.fixed_digest(&bench.built);
    let mut violations = Vec::new();
    if !opts.smoke {
        if let Some(class) = def.tail {
            violations =
                check::design_violations(class, &bench.cfg.core, &bench.built, &warm.cells);
        }
        match check::stored_digest(def.name) {
            Some(want) if want != digest => violations.push(format!(
                "fixed-cell digest {digest:#018x} != stored {want:#018x} (benchmark/digests.txt)"
            )),
            Some(_) => {}
            None => eprintln!("note: no stored digest for {}", def.name),
        }
    }
    for v in &violations {
        eprintln!("FAIL {} design: {v}", def.name);
    }

    // ---- timed passes -------------------------------------------------
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut fixed_s = Vec::new();
    let mut all_ns = Vec::new();
    let t_timed = Instant::now();
    tr.span("passes", |_| loop {
        let p = bench.pass(&mut checker, Mode::Main);
        fixed_s.push(p.wall_ns(&bench.built, true) as f64 / 1e9);
        all_ns.push(p.wall_ns(&bench.built, false) as f64);
        if t_timed.elapsed().as_secs_f64() >= budget {
            break;
        }
    });

    // ---- end-to-end: the fixed cells only, so seeds compare ------------
    let fixed = |c: &CellRun| bench.built.kernels[c.kernel].fixed;
    let wall_s = median(&fixed_s);
    let n = fixed_s.len();
    let (lo, hi) = fixed_s
        .iter()
        .fold((f64::INFINITY, 0.0_f64), |(lo, hi), &w| {
            (lo.min(w), hi.max(w))
        });
    let per_s = |count: u64| {
        let c = count as f64;
        (c / wall_s, Some((c / hi, c / lo, n)))
    };
    values.insert("setup_s", (setup_s, None));
    values.insert("wall_s", (wall_s, Some((lo, hi, n))));
    values.insert(
        "sm_cycles_per_s",
        per_s(sum(&warm.cells, fixed, |s| s.occupancy.sm_cycles)),
    );
    values.insert(
        "warp_instrs_per_s",
        per_s(sum(&warm.cells, fixed, |s| s.warp_instrs)),
    );
    values.insert(
        "sim_cycles",
        (sum(&warm.cells, fixed, |s| s.cycles) as f64, None),
    );

    // ---- per layer: the whole pass, tail included ----------------------
    let totals = metrics::from_counts(
        kind,
        &bench.built,
        &warm.cells,
        median(&all_ns),
        &mut values,
    );
    values.insert("harness.wall_spread_frac", ((hi - lo) / wall_s, None));
    let tail_share = 1.0
        - ratio(
            warm.wall_ns(&bench.built, true),
            warm.wall_ns(&bench.built, false),
        );
    values.insert("harness.tail_share", (tail_share, None));
    if kind == Kind::SmParallel {
        values.insert(
            "par.sm_engine_slowdown",
            (wall_s * 1e9 / unpooled_ns as f64, None),
        );
    }
    if opts.trace {
        tr.span("pass", |tr| bench.traced_pass(tr, &mut checker));
        if kind == Kind::Grid {
            // The six zoo kernels were added after calibration: the
            // speed-up on them is the check on data held back from tuning.
            tr.span("holdout", |_| {
                let zoo: Vec<_> = vt_workloads::suite::zoo(&scale)
                    .into_iter()
                    .map(|w| w.kernel)
                    .collect();
                let reports = bench.session.sweep(&bench.archs, &zoo);
                let gain = metrics::geomean(reports.chunks(2).filter_map(|pair| match pair {
                    [Ok(base), Ok(vt)] => Some(base.stats.cycles as f64 / vt.stats.cycles as f64),
                    _ => None,
                }));
                values.insert("core.vt_speedup_zoo6", (gain, None));
            });
        }
    }

    Measured {
        bench,
        checker,
        design_ok: violations.is_empty(),
        digest,
        passes: n,
        values,
        totals,
    }
}
