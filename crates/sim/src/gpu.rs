//! The whole-GPU simulation: CTA dispatcher, SMs, memory system and the
//! main clock loop.

use crate::config::{check_launchable, LaunchError, SimConfig};
use crate::exec::{
    CancelToken, Checkpoint, Progress, ProgressHook, RunBudget, RunOutcome, StopReason, Truncation,
    CHECKPOINT_VERSION,
};
use crate::hotspots::PcProfile;
use crate::metrics::MetricsSampler;
use crate::sm::{Ctx, EmptyAttr, Run, Sm};
use crate::stats::RunStats;
use std::error::Error;
use std::fmt;
use std::time::Instant;
use vt_isa::error::ExecError;
use vt_isa::kernel::MemImage;
use vt_isa::AdmissionPolicy;
use vt_isa::Kernel;
use vt_json::{field, pack_words, req, req_array, req_words, FromJson, Json, ToJson};
use vt_mem::MemSystem;
use vt_par::Pool;
use vt_trace::{NullSink, TraceSink};

/// Why a simulation could not complete.
///
/// Marked non-exhaustive: future execution-control features may add
/// variants, so downstream matches need a wildcard arm.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The kernel cannot fit on the configured hardware at all.
    Launch(LaunchError),
    /// A warp trapped (functional fault).
    Exec(ExecError),
    /// The run exceeded the configured cycle watchdog.
    Watchdog {
        /// Cycle at which the run was aborted.
        cycle: u64,
    },
    /// A checkpoint could not be parsed or does not match the supplied
    /// configuration and kernel.
    Checkpoint {
        /// What was wrong with it.
        reason: String,
    },
    /// A run that was required to complete was truncated instead (see
    /// [`crate::exec::RunOutcome::completed`]).
    Truncated {
        /// What stopped the run.
        reason: StopReason,
    },
}

impl SimError {
    /// Whether retrying (with a larger budget, a later deadline, or a
    /// fresh cancellation token) could plausibly succeed. Launch,
    /// functional-trap and checkpoint-mismatch errors are deterministic
    /// and will fail again; watchdog and truncation are resource limits.
    pub fn is_retryable(&self) -> bool {
        match self {
            SimError::Watchdog { .. } | SimError::Truncated { .. } => true,
            SimError::Launch(_) | SimError::Exec(_) | SimError::Checkpoint { .. } => false,
        }
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Launch(e) => write!(f, "kernel not launchable: {e}"),
            SimError::Exec(e) => write!(f, "warp trapped: {e}"),
            SimError::Watchdog { cycle } => write!(f, "watchdog expired at cycle {cycle}"),
            SimError::Checkpoint { reason } => write!(f, "bad checkpoint: {reason}"),
            SimError::Truncated { reason } => {
                write!(f, "run truncated before completion ({reason:?})")
            }
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Launch(e) => Some(e),
            SimError::Exec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LaunchError> for SimError {
    fn from(e: LaunchError) -> Self {
        SimError::Launch(e)
    }
}

impl From<ExecError> for SimError {
    fn from(e: ExecError) -> Self {
        SimError::Exec(e)
    }
}

/// The outcome of a completed run: timing statistics plus the functional
/// final memory image (comparable against the reference interpreter).
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Timing and utilisation statistics.
    pub stats: RunStats,
    /// Final global memory contents.
    pub mem_image: MemImage,
}

/// A cycle-level GPU simulation of one kernel launch.
///
/// # Example
///
/// ```
/// use vt_sim::{GpuSim, SimConfig};
/// use vt_isa::KernelBuilder;
/// use vt_isa::op::Operand;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = KernelBuilder::new("store-ones");
/// let out = b.alloc_global(256);
/// let gid = b.reg();
/// let off = b.reg();
/// b.global_thread_id(gid);
/// b.shl(off, Operand::Reg(gid), Operand::Imm(2));
/// b.st_global(Operand::Reg(off), out as i32, Operand::Imm(1));
/// let kernel = b.build(8, 32)?;
///
/// let result = GpuSim::new(&SimConfig::default(), &kernel)?.run()?;
/// assert!(result.stats.cycles > 0);
/// assert_eq!(result.mem_image.load(out + 4 * 100), Some(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct GpuSim<'k> {
    kernel: &'k Kernel,
    cfg: SimConfig,
    mem: MemSystem,
    image: MemImage,
    lanes: Vec<SmLane>,
    next_cta: u32,
    dispatch_ptr: usize,
    /// Whether this (kernel, config) pair is bound by the scheduling
    /// limit — fixed for the whole run, derived (not checkpointed) from
    /// the admission policy and `vt_isa::limits::CtaBounds::limiter`.
    /// Attributes empty SM-cycles while CTAs remain undispatched.
    sched_limited: bool,
    stats: RunStats,
    /// Current cycle (the next one the loop will execute).
    cycle: u64,
    /// Windowed metrics sampler, if metering is enabled; its registry
    /// moves into the stats at the epilogue.
    sampler: Option<MetricsSampler>,
}

/// One SM and the stats block it accumulates into. Per-SM blocks feed
/// the windowed per-SM series and are folded into the global block, in SM
/// order, at the epilogue.
#[derive(Debug)]
struct SmLane {
    sm: Sm,
    stats: RunStats,
}

impl<'k> GpuSim<'k> {
    /// Prepares a simulation of `kernel` under `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Launch`] if one CTA of the kernel cannot fit on
    /// one SM.
    pub fn new(cfg: &SimConfig, kernel: &'k Kernel) -> Result<GpuSim<'k>, SimError> {
        check_launchable(&cfg.core, kernel)?;
        let num_sms = cfg.core.num_sms.max(1) as usize;
        // When profiling is on, every lane gets a per-PC profile sized to
        // the program (merged in SM order at the epilogue), and the
        // global block gets an empty one so resumed runs can tell the
        // setting apart from an unprofiled checkpoint.
        let profile = cfg
            .core
            .profile
            .then(|| PcProfile::new(kernel.program().len()));
        Ok(GpuSim {
            kernel,
            cfg: cfg.clone(),
            mem: MemSystem::new(&cfg.mem, num_sms),
            image: kernel.global_mem().clone(),
            lanes: (0..num_sms)
                .map(|i| SmLane {
                    sm: Sm::new(i, &cfg.core, cfg.mem.line_bytes),
                    stats: RunStats {
                        hotspots: profile.clone(),
                        ..RunStats::default()
                    },
                })
                .collect(),
            next_cta: 0,
            dispatch_ptr: 0,
            sched_limited: scheduling_limited(cfg, kernel),
            stats: RunStats {
                hotspots: profile,
                ..RunStats::default()
            },
            cycle: 0,
            sampler: cfg
                .core
                .metrics_window
                .map(|w| MetricsSampler::new(w, num_sms)),
        })
    }

    /// Runs the kernel to completion.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Exec`] on a functional trap and
    /// [`SimError::Watchdog`] if `core.max_cycles` elapses first.
    pub fn run(self) -> Result<RunResult, SimError> {
        self.execute(None, &mut NullSink, &RunBudget::unlimited(), None)?
            .completed()
    }

    /// The full engine: tracing and execution control (budget,
    /// cancellation).
    ///
    /// Each cycle ticks the memory system, then every SM in ascending id
    /// order — each emitting straight into `sink`, submitting its requests
    /// into the interconnect and reading and writing the memory image as
    /// its warps issue — then dispatches CTAs. SM order alone therefore
    /// fixes the order of requests, image accesses, trace events and which
    /// trap a run reports (DESIGN.md §11).
    ///
    /// `pool` is accepted and unused: the engine has no parallel path, and
    /// the parameter remains only for `benchmark/`, which is frozen (see
    /// ROADMAP.md).
    ///
    /// `budget` and `cancel` are polled once per cycle at the cycle
    /// boundary. When one trips, the run returns
    /// [`RunOutcome::Truncated`] carrying partial statistics (which obey
    /// the same invariants as a completed run's, e.g. `idle.total() +
    /// issue_cycles == num_sms × cycles`) and a [`Checkpoint`] that
    /// [`GpuSim::resume`] continues bit-identically. If completion and a
    /// limit coincide on the same cycle, completion wins.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Exec`] on a functional trap and
    /// [`SimError::Watchdog`] if `core.max_cycles` elapses first.
    pub fn execute<S: TraceSink>(
        self,
        _pool: Option<&Pool>,
        sink: &mut S,
        budget: &RunBudget,
        cancel: Option<&CancelToken>,
    ) -> Result<RunOutcome, SimError> {
        self.execute_with_progress(sink, budget, cancel, None)
    }

    /// [`GpuSim::execute`] with an optional periodic [`ProgressHook`].
    /// The hook fires at the top of the cycle every
    /// `hook.every` cycles with live counters (cycle, IPC, residency);
    /// observation never changes simulation state, so metered, hooked and
    /// plain runs produce bit-identical results.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Exec`] on a functional trap and
    /// [`SimError::Watchdog`] if `core.max_cycles` elapses first.
    pub fn execute_with_progress<S: TraceSink>(
        mut self,
        sink: &mut S,
        budget: &RunBudget,
        cancel: Option<&CancelToken>,
        mut progress: Option<ProgressHook<'_>>,
    ) -> Result<RunOutcome, SimError> {
        let run = Run::new(self.kernel, &self.cfg.core, &self.cfg.residency);
        let started = budget.deadline.map(|_| Instant::now());
        let cycle_limit = budget
            .max_cycles
            .map(|n| self.cycle.saturating_add(n.max(1)));
        // (cycle, thread_instrs) at the last progress report, for the
        // windowed-IPC figure in the ticker.
        let mut progress_mark = (
            self.cycle,
            self.stats.thread_instrs
                + self
                    .lanes
                    .iter()
                    .map(|l| l.stats.thread_instrs)
                    .sum::<u64>(),
        );
        loop {
            let cycle = self.cycle;
            if let Some(sampler) = self.sampler.as_mut() {
                // Seal the window ending at this boundary *before* the
                // cycle executes, so window k covers [k·w, (k+1)·w)
                // exactly and a run truncated at a boundary leaves the
                // seal to its resumption.
                if cycle > 0 && cycle.is_multiple_of(sampler.window()) {
                    sampler.seal_window(
                        &self.stats,
                        self.lanes.iter().map(|l| (&l.sm, &l.stats)),
                        &self.mem,
                    );
                }
            }
            if let Some(hook) = progress.as_mut() {
                if cycle > 0 && cycle.is_multiple_of(hook.every) {
                    let thread_instrs = self.stats.thread_instrs
                        + self
                            .lanes
                            .iter()
                            .map(|l| l.stats.thread_instrs)
                            .sum::<u64>();
                    let (last_cycle, last_instrs) = progress_mark;
                    let span = cycle.saturating_sub(last_cycle);
                    let p = Progress {
                        cycle,
                        budget_cycles: budget.max_cycles,
                        thread_instrs,
                        ipc: thread_instrs as f64 / cycle as f64,
                        window_ipc: if span > 0 {
                            thread_instrs.saturating_sub(last_instrs) as f64 / span as f64
                        } else {
                            0.0
                        },
                        resident_ctas: self
                            .lanes
                            .iter()
                            .map(|l| u64::from(l.sm.resident_ctas()))
                            .sum(),
                        active_ctas: self.lanes.iter().map(|l| u64::from(l.sm.slot_ctas())).sum(),
                        resident_warps: self
                            .lanes
                            .iter()
                            .map(|l| u64::from(l.sm.resident_warps()))
                            .sum(),
                    };
                    (hook.callback)(&p);
                    progress_mark = (cycle, thread_instrs);
                }
            }
            self.mem.tick_traced(cycle, sink);

            // Empty-cycle attribution context: the dispatcher state at the
            // top of the cycle, the same for every SM.
            let attr = EmptyAttr {
                work_left: self.next_cta < self.kernel.num_ctas(),
                scheduling_limited: self.sched_limited,
            };
            for lane in &mut self.lanes {
                let mut ctx = Ctx {
                    run,
                    now: cycle,
                    mem: &mut self.mem,
                    image: &mut self.image,
                    stats: &mut lane.stats,
                    sink: &mut *sink,
                };
                lane.sm.tick(&mut ctx, attr)?;
            }

            let mut ctx = Ctx {
                run,
                now: cycle,
                mem: &mut self.mem,
                image: &mut self.image,
                stats: &mut self.stats,
                sink: &mut *sink,
            };
            dispatch(
                &mut self.lanes,
                &mut self.next_cta,
                &mut self.dispatch_ptr,
                &mut ctx,
            );
            if self.finished() {
                break;
            }
            self.cycle += 1;
            if self.cycle >= run.core.max_cycles {
                return Err(SimError::Watchdog { cycle: self.cycle });
            }
            // Execution-control checks, once per cycle at the cycle
            // boundary. Completion (the break above) wins ties.
            let reason = if cycle_limit.is_some_and(|limit| self.cycle >= limit) {
                Some(StopReason::CycleBudget)
            } else if cancel.is_some_and(|c| c.is_cancelled()) {
                Some(StopReason::Cancelled)
            } else if let (Some(deadline), Some(start)) = (budget.deadline, started) {
                (start.elapsed() >= deadline).then_some(StopReason::Deadline)
            } else {
                None
            };
            if let Some(reason) = reason {
                // Snapshot the live state first; the stats epilogue
                // below consumes it.
                let checkpoint = self.checkpoint();
                let stats = self.finish_stats(self.cycle);
                return Ok(RunOutcome::Truncated(Box::new(Truncation {
                    reason,
                    stats,
                    checkpoint,
                })));
            }
        }
        let stats = self.finish_stats(self.cycle + 1);
        Ok(RunOutcome::Completed(RunResult {
            stats,
            mem_image: self.image,
        }))
    }

    /// Folds the per-lane stat blocks and memory statistics into the
    /// global stats, stamping the cycle count. Consumes the accumulation
    /// state, so it runs exactly once per outcome.
    fn finish_stats(&mut self, cycles: u64) -> RunStats {
        let mut stats = std::mem::take(&mut self.stats);
        stats.cycles = cycles;
        for lane in &self.lanes {
            stats.merge(&lane.stats);
        }
        stats.mem = self.mem.stats();
        stats.max_simt_depth = self
            .lanes
            .iter()
            .map(|l| l.sm.max_simt_depth())
            .max()
            .unwrap_or(0);
        stats.series = self.sampler.take().map(MetricsSampler::into_registry);
        stats
    }

    /// Serializes the complete simulator state at the current cycle
    /// boundary. The result can be stored as text
    /// ([`Checkpoint::to_text`]) and later revived with
    /// [`Checkpoint::parse`] + [`GpuSim::resume`], which continues the
    /// run bit-identically to one that was never interrupted.
    pub fn checkpoint(&self) -> Checkpoint {
        let lanes = self
            .lanes
            .iter()
            .map(|l| {
                Json::Object(vec![
                    ("sm".into(), l.sm.to_json()),
                    ("stats".into(), l.stats.to_json()),
                ])
            })
            .collect();
        Checkpoint::from_json(Json::Object(vec![
            ("version".into(), CHECKPOINT_VERSION.to_json()),
            ("kernel".into(), self.kernel.name().to_json()),
            ("num_ctas".into(), self.kernel.num_ctas().to_json()),
            ("num_sms".into(), self.lanes.len().to_json()),
            ("cycle".into(), self.cycle.to_json()),
            ("next_cta".into(), self.next_cta.to_json()),
            ("dispatch_ptr".into(), self.dispatch_ptr.to_json()),
            ("stats".into(), self.stats.to_json()),
            (
                "metrics".into(),
                self.sampler
                    .as_ref()
                    .map(MetricsSampler::registry)
                    .to_json(),
            ),
            ("lanes".into(), Json::Array(lanes)),
            ("mem".into(), self.mem.to_json()),
            ("image".into(), Json::Str(pack_words(self.image.as_words()))),
        ]))
    }

    /// Revives a simulation from a checkpoint taken by
    /// [`GpuSim::checkpoint`], validating that `cfg` and `kernel` match
    /// the run the checkpoint came from. The continued run is
    /// bit-identical to an uninterrupted one.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] if the checkpoint is malformed
    /// or belongs to a different kernel or machine geometry, and
    /// [`SimError::Launch`] if `kernel` cannot launch under `cfg`.
    pub fn resume(
        cfg: &SimConfig,
        kernel: &'k Kernel,
        ckpt: &Checkpoint,
    ) -> Result<GpuSim<'k>, SimError> {
        check_launchable(&cfg.core, kernel)?;
        let bad = |reason: String| SimError::Checkpoint { reason };
        let v = ckpt.json();
        let version: u64 = field(v, "version").map_err(bad)?;
        if version != CHECKPOINT_VERSION {
            return Err(bad(format!(
                "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            )));
        }
        let name: String = field(v, "kernel").map_err(bad)?;
        if name != kernel.name() {
            return Err(bad(format!(
                "checkpoint is for kernel {:?}, not {:?}",
                name,
                kernel.name()
            )));
        }
        let num_ctas: u64 = field(v, "num_ctas").map_err(bad)?;
        if num_ctas != u64::from(kernel.num_ctas()) {
            return Err(bad(format!(
                "checkpoint has {num_ctas} CTAs, kernel has {}",
                kernel.num_ctas()
            )));
        }
        let num_sms: u64 = field(v, "num_sms").map_err(bad)?;
        if num_sms != u64::from(cfg.core.num_sms.max(1)) {
            return Err(bad(format!(
                "checkpoint has {num_sms} SMs, config has {}",
                cfg.core.num_sms.max(1)
            )));
        }
        let lane_docs = req_array(v, "lanes").map_err(bad)?;
        if lane_docs.len() as u64 != num_sms {
            return Err(bad(format!(
                "checkpoint lane table has {} entries for {num_sms} SMs",
                lane_docs.len()
            )));
        }
        // Every cycle run so far was charged to each SM's stats lane once,
        // and the watchdog stops a run before it reaches its limit.
        let cycle: u64 = field(v, "cycle").map_err(bad)?;
        if cycle >= cfg.core.max_cycles {
            return Err(bad(format!(
                "cycle: checkpoint is at cycle {cycle}, the watchdog stops at {}",
                cfg.core.max_cycles
            )));
        }
        let mut lanes = Vec::with_capacity(lane_docs.len());
        for doc in lane_docs {
            let sm = Sm::restore(req(doc, "sm").map_err(bad)?, kernel, cfg.mem.line_bytes)
                .map_err(bad)?;
            let stats: RunStats = field(doc, "stats").map_err(bad)?;
            stats.check_charged(cycle).map_err(bad)?;
            lanes.push(SmLane { sm, stats });
        }
        // Loads and stores are bounds-checked against the image, so it must
        // be exactly the kernel's size for the run to continue as it would
        // have.
        let image_words = req_words(v, "image", kernel.global_mem().word_len()).map_err(bad)?;
        // The metering setting must agree between the checkpoint and the
        // resuming configuration: stitched series are only bit-identical
        // to an uninterrupted run when sampling is continuous.
        let sampler = match (cfg.core.metrics_window, req(v, "metrics").map_err(bad)?) {
            (None, Json::Null) => None,
            (Some(_), Json::Null) => {
                return Err(bad(
                    "config enables metrics but the checkpoint was taken unmetered".to_string(),
                ));
            }
            (None, _) => {
                return Err(bad(
                    "checkpoint was taken with metrics enabled but the config disables them"
                        .to_string(),
                ));
            }
            (Some(w), m) => {
                let registry = vt_trace::MetricsRegistry::from_json(m).map_err(bad)?;
                if registry.window() != w.max(1) {
                    return Err(bad(format!(
                        "checkpoint metrics window is {}, config wants {}",
                        registry.window(),
                        w.max(1)
                    )));
                }
                // The window ending at a boundary is sealed at the top of
                // the next cycle, so the cut's own boundary is not yet.
                let sealed = cycle.saturating_sub(1) / registry.window();
                if registry.windows() != sealed {
                    return Err(bad(format!(
                        "metrics: {} windows sealed by cycle {cycle}, expected {sealed}",
                        registry.windows()
                    )));
                }
                Some(MetricsSampler::from_registry(registry, lanes.len()).map_err(bad)?)
            }
        };
        // The dispatcher-level block charges no SM-cycles; the lanes do.
        let stats: RunStats = field(v, "stats").map_err(bad)?;
        stats.check_charged(0).map_err(bad)?;
        if let Some(s) = &sampler {
            s.check_baselines(&stats, lanes.iter().map(|l| &l.stats))
                .map_err(bad)?;
        }
        // The profiling setting must agree too: a stitched per-PC profile
        // is only exact when collection was continuous across the cut.
        match (cfg.core.profile, &stats.hotspots) {
            (true, None) => {
                return Err(bad(
                    "config enables profiling but the checkpoint was taken unprofiled".to_string(),
                ));
            }
            (false, Some(_)) => {
                return Err(bad(
                    "checkpoint was taken with profiling enabled but the config disables it"
                        .to_string(),
                ));
            }
            (true, Some(h)) if h.len() != kernel.program().len() => {
                return Err(bad(format!(
                    "checkpoint profile covers {} PCs, kernel has {}",
                    h.len(),
                    kernel.program().len()
                )));
            }
            _ => {}
        }
        let (next_cta, dispatch_ptr) =
            dispatcher(v, kernel.num_ctas(), &stats, &lanes).map_err(bad)?;
        Ok(GpuSim {
            kernel,
            cfg: cfg.clone(),
            mem: MemSystem::restore(&cfg.mem, req(v, "mem").map_err(bad)?).map_err(bad)?,
            image: MemImage::from_words(image_words),
            lanes,
            next_cta,
            dispatch_ptr,
            sched_limited: scheduling_limited(cfg, kernel),
            stats,
            cycle,
            sampler,
        })
    }

    fn finished(&self) -> bool {
        self.next_cta >= self.kernel.num_ctas()
            && self.lanes.iter().all(|l| l.sm.idle())
            && self.mem.quiesced()
    }
}

/// Hands out CTA `next_cta` onwards, up to one per SM per cycle, starting
/// at SM `ptr` and rotating the start for balance.
fn dispatch<S: TraceSink>(
    lanes: &mut [SmLane],
    next_cta: &mut u32,
    ptr: &mut usize,
    ctx: &mut Ctx<'_, S>,
) {
    let num_ctas = ctx.run.kernel.num_ctas();
    if *next_cta >= num_ctas {
        return;
    }
    let n = lanes.len();
    for i in 0..n {
        if *next_cta >= num_ctas {
            break;
        }
        let sm = &mut lanes[(*ptr + i) % n].sm;
        if sm.can_admit(ctx.run) {
            sm.admit(*next_cta, ctx);
            *next_cta += 1;
        }
    }
    *ptr = (*ptr + 1) % n;
}

/// Decodes the dispatcher state, `(next_cta, dispatch_ptr)`, and checks
/// it against the grid of `num_ctas` and the SMs: the next dispatch
/// indexes an SM with the pointer, and every CTA below `next_cta` has
/// completed (in some stats block) or is resident on exactly one SM, so
/// none is run twice or skipped.
fn dispatcher(
    v: &Json,
    num_ctas: u32,
    stats: &RunStats,
    lanes: &[SmLane],
) -> Result<(u32, usize), String> {
    let dispatch_ptr: usize = field(v, "dispatch_ptr")?;
    if dispatch_ptr >= lanes.len() {
        return Err(format!(
            "dispatch_ptr: the dispatcher points at SM {dispatch_ptr} of {}",
            lanes.len()
        ));
    }
    let next_cta: u32 = field(v, "next_cta")?;
    let mut resident: Vec<u32> = lanes.iter().flat_map(|l| l.sm.resident_cta_ids()).collect();
    let completed: u64 =
        stats.ctas_completed + lanes.iter().map(|l| l.stats.ctas_completed).sum::<u64>();
    if next_cta > num_ctas || u64::from(next_cta) != completed + resident.len() as u64 {
        return Err(format!(
            "next_cta: {next_cta} of {num_ctas} CTAs dispatched, but {completed} completed \
             and {} are resident",
            resident.len()
        ));
    }
    resident.sort_unstable();
    if let Some(w) = resident.windows(2).find(|w| w[0] == w[1]) {
        return Err(format!("cta_id: CTA {} is resident twice", w[0]));
    }
    if let Some(&id) = resident.last().filter(|&&id| id >= next_cta) {
        return Err(format!(
            "cta_id: CTA {id} is resident, but only {next_cta} were dispatched"
        ));
    }
    Ok((next_cta, dispatch_ptr))
}

/// Whether empty SM-cycles with undispatched work should be attributed
/// to the scheduling limit for this (config, kernel) pair: only when the
/// admission policy applies that limit and it binds before capacity.
/// Under `CapacityOnly` the scheduling structures are virtualised, so an
/// empty SM can only be capacity-starved (a full context buffer counts
/// as capacity).
fn scheduling_limited(cfg: &SimConfig, kernel: &Kernel) -> bool {
    cfg.residency.admission == AdmissionPolicy::SchedulingAndCapacity
        && cfg.core.limits().bounds(kernel).limiter().is_scheduling()
}

/// Convenience: build and run in one call.
///
/// # Errors
///
/// Propagates any [`SimError`] from construction or the run.
pub fn simulate(cfg: &SimConfig, kernel: &Kernel) -> Result<RunResult, SimError> {
    GpuSim::new(cfg, kernel)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ActivePolicy, ResidencyConfig, SchedPolicy, SwapConfig, SwapTrigger};
    use vt_isa::interp::Interpreter;
    use vt_isa::op::{AtomOp, Operand, Sreg};
    use vt_isa::KernelBuilder;

    /// out[gid] = xs[gid] * 3 + 1, streaming.
    fn streaming_kernel(ctas: u32, threads: u32) -> Kernel {
        let n = (ctas * threads) as usize;
        let mut b = KernelBuilder::new("stream");
        let xs = b.alloc_global_init(&(0..n as u32).collect::<Vec<_>>());
        let out = b.alloc_global(n);
        let gid = b.reg();
        let off = b.reg();
        let v = b.reg();
        b.global_thread_id(gid);
        b.shl(off, Operand::Reg(gid), Operand::Imm(2));
        b.ld_global(v, Operand::Reg(off), xs as i32);
        b.mad(v, Operand::Reg(v), Operand::Imm(3), Operand::Imm(1));
        b.st_global(Operand::Reg(off), out as i32, Operand::Reg(v));
        b.exit();
        b.build(ctas, threads).unwrap()
    }

    fn small_cfg() -> SimConfig {
        let mut cfg = SimConfig::default();
        cfg.core.num_sms = 2;
        cfg
    }

    #[test]
    fn streaming_kernel_matches_interpreter() {
        let k = streaming_kernel(8, 64);
        let sim = simulate(&small_cfg(), &k).unwrap();
        let reference = Interpreter::new(&k).unwrap().run().unwrap();
        assert_eq!(sim.mem_image.as_words(), reference.mem().as_words());
        assert_eq!(sim.stats.ctas_completed, 8);
        assert!(sim.stats.cycles > 0);
        assert!(sim.stats.warp_instrs >= 8 * 2 * 6);
    }

    #[test]
    fn divergent_kernel_matches_interpreter() {
        let mut b = KernelBuilder::new("diverge");
        let out = b.alloc_global(256);
        let gid = b.reg();
        let off = b.reg();
        let p = b.reg();
        let v = b.reg();
        let i = b.reg();
        b.global_thread_id(gid);
        b.shl(off, Operand::Reg(gid), Operand::Imm(2));
        b.and_(p, Operand::Reg(gid), Operand::Imm(3));
        b.mov(v, Operand::Imm(0));
        b.for_range(i, Operand::Imm(0), Operand::Reg(p), 1, |b, i| {
            b.add(v, Operand::Reg(v), Operand::Reg(i));
        });
        b.if_else(
            Operand::Reg(p),
            |b| b.add(v, Operand::Reg(v), Operand::Imm(100)),
            |b| b.add(v, Operand::Reg(v), Operand::Imm(200)),
        );
        b.st_global(Operand::Reg(off), out as i32, Operand::Reg(v));
        b.exit();
        let k = b.build(4, 64).unwrap();
        let sim = simulate(&small_cfg(), &k).unwrap();
        let reference = Interpreter::new(&k).unwrap().run().unwrap();
        assert_eq!(sim.mem_image.as_words(), reference.mem().as_words());
        assert!(sim.stats.divergent_branches > 0);
    }

    /// Each CTA sums its thread ids through shared memory.
    fn reduction_kernel() -> Kernel {
        let nt = 64u32;
        let mut b = KernelBuilder::new("reduce");
        let out = b.alloc_global(16);
        let buf = b.alloc_shared(nt);
        let soff = b.reg();
        let stride = b.reg();
        let p = b.reg();
        let x = b.reg();
        let y = b.reg();
        let other = b.reg();
        b.shl(soff, Operand::Sreg(Sreg::Tid), Operand::Imm(2));
        b.st_shared(Operand::Reg(soff), buf as i32, Operand::Sreg(Sreg::Tid));
        b.bar();
        b.mov(stride, Operand::Imm(nt / 2));
        b.while_(
            |b| {
                let c = b.reg();
                b.set_gt(c, Operand::Reg(stride), Operand::Imm(0));
                Operand::Reg(c)
            },
            |b| {
                b.set_lt(p, Operand::Sreg(Sreg::Tid), Operand::Reg(stride));
                b.if_(Operand::Reg(p), |b| {
                    b.add(other, Operand::Sreg(Sreg::Tid), Operand::Reg(stride));
                    b.shl(other, Operand::Reg(other), Operand::Imm(2));
                    b.ld_shared(x, Operand::Reg(soff), buf as i32);
                    b.ld_shared(y, Operand::Reg(other), buf as i32);
                    b.add(x, Operand::Reg(x), Operand::Reg(y));
                    b.st_shared(Operand::Reg(soff), buf as i32, Operand::Reg(x));
                });
                b.bar();
                b.shr(stride, Operand::Reg(stride), Operand::Imm(1));
            },
        );
        b.set_eq(p, Operand::Sreg(Sreg::Tid), Operand::Imm(0));
        b.if_(Operand::Reg(p), |b| {
            b.shl(x, Operand::Sreg(Sreg::CtaId), Operand::Imm(2));
            b.ld_shared(y, Operand::Reg(soff), buf as i32);
            b.st_global(Operand::Reg(x), out as i32, Operand::Reg(y));
        });
        b.exit();
        b.build(6, nt).unwrap()
    }

    #[test]
    fn barrier_reduction_matches_interpreter() {
        let k = reduction_kernel();
        let sim = simulate(&small_cfg(), &k).unwrap();
        let reference = Interpreter::new(&k).unwrap().run().unwrap();
        assert_eq!(sim.mem_image.as_words(), reference.mem().as_words());
        assert!(sim.stats.barriers > 0);
    }

    #[test]
    fn atomics_match_interpreter() {
        let mut b = KernelBuilder::new("atom");
        let out = b.alloc_global(4);
        let bin = b.reg();
        b.and_(bin, Operand::Sreg(Sreg::Tid), Operand::Imm(3));
        b.shl(bin, Operand::Reg(bin), Operand::Imm(2));
        b.atom(
            AtomOp::Add,
            None,
            Operand::Reg(bin),
            out as i32,
            Operand::Imm(1),
        );
        b.exit();
        let k = b.build(6, 96).unwrap();
        let sim = simulate(&small_cfg(), &k).unwrap();
        let reference = Interpreter::new(&k).unwrap().run().unwrap();
        assert_eq!(sim.mem_image.as_words(), reference.mem().as_words());
        assert_eq!(sim.mem_image.load(out), Some(6 * 96 / 4));
    }

    #[test]
    fn deterministic_cycle_counts() {
        let k = streaming_kernel(10, 96);
        let a = simulate(&small_cfg(), &k).unwrap();
        let b = simulate(&small_cfg(), &k).unwrap();
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn lrr_and_gto_both_complete() {
        let k = streaming_kernel(8, 64);
        for policy in [SchedPolicy::Lrr, SchedPolicy::Gto] {
            let mut cfg = small_cfg();
            cfg.core.scheduler = policy;
            let r = simulate(&cfg, &k).unwrap();
            let reference = Interpreter::new(&k).unwrap().run().unwrap();
            assert_eq!(
                r.mem_image.as_words(),
                reference.mem().as_words(),
                "{policy:?}"
            );
        }
    }

    #[test]
    fn virtual_thread_config_runs_and_swaps() {
        // Memory-latency-bound kernel with few warps per CTA: the baseline
        // scheduling limit strands capacity, VT uses it.
        let k = streaming_kernel(64, 64);
        let mut cfg = small_cfg();
        cfg.residency = ResidencyConfig {
            admission: AdmissionPolicy::CapacityOnly {
                max_resident_ctas: Some(32),
            },
            active: ActivePolicy::SchedulingLimit,
            swap: Some(SwapConfig {
                trigger: SwapTrigger::AllWarpsStalled,
                save_cycles: 20,
                restore_cycles: 20,
                fresh_activation_cycles: 2,
                throttle: None,
            }),
        };
        let vt = simulate(&cfg, &k).unwrap();
        let reference = Interpreter::new(&k).unwrap().run().unwrap();
        assert_eq!(vt.mem_image.as_words(), reference.mem().as_words());
        assert!(vt.stats.swaps.swaps_out > 0, "VT should context switch");

        let base = simulate(&small_cfg(), &k).unwrap();
        assert_eq!(base.mem_image.as_words(), reference.mem().as_words());
        assert!(
            vt.stats.occupancy.avg_resident_warps() > base.stats.occupancy.avg_resident_warps(),
            "VT hosts more TLP"
        );
    }

    #[test]
    fn ideal_config_at_least_as_fast_as_baseline() {
        let k = streaming_kernel(48, 64);
        let base = simulate(&small_cfg(), &k).unwrap();
        let mut cfg = small_cfg();
        cfg.residency = ResidencyConfig {
            admission: AdmissionPolicy::CapacityOnly {
                max_resident_ctas: None,
            },
            active: ActivePolicy::Unlimited,
            swap: None,
        };
        let ideal = simulate(&cfg, &k).unwrap();
        assert!(
            ideal.stats.cycles <= base.stats.cycles,
            "ideal {} vs baseline {}",
            ideal.stats.cycles,
            base.stats.cycles
        );
    }

    #[test]
    fn watchdog_fires() {
        let mut b = KernelBuilder::new("spin");
        b.while_(|_| Operand::Imm(1), |_| {});
        let k = b.build(1, 32).unwrap();
        let mut cfg = small_cfg();
        cfg.core.max_cycles = 5_000;
        assert_eq!(
            simulate(&cfg, &k).unwrap_err(),
            SimError::Watchdog { cycle: 5_000 }
        );
    }

    #[test]
    fn trap_propagates() {
        let mut b = KernelBuilder::new("oob");
        let r = b.reg();
        b.ld_global(r, Operand::Imm(1 << 26), 0);
        let k = b.build(1, 32).unwrap();
        let err = simulate(&small_cfg(), &k).unwrap_err();
        assert!(matches!(
            err,
            SimError::Exec(ExecError::GlobalOutOfRange { .. })
        ));
    }

    /// A global load at `lo` by whoever has selector 0 and at `hi` by
    /// whoever has selector 1, the selector being the warp index within
    /// the CTA plus the CTA id. Returns the kernel and the load's PC.
    fn two_address_load(ctas: u32, threads: u32, lo: u32, hi: u32) -> (Kernel, usize) {
        let mut b = KernelBuilder::new("two-address");
        b.alloc_global(64);
        let sel = b.reg();
        let addr = b.reg();
        b.shr(sel, Operand::Sreg(Sreg::Tid), Operand::Imm(5));
        b.add(sel, Operand::Reg(sel), Operand::Sreg(Sreg::CtaId));
        b.mad(
            addr,
            Operand::Reg(sel),
            Operand::Imm(hi.wrapping_sub(lo)),
            Operand::Imm(lo),
        );
        let pc = b.here();
        b.ld_global(addr, Operand::Reg(addr), 0);
        b.exit();
        (b.build(ctas, threads).unwrap(), pc)
    }

    /// The cycles at which the load at `pc` issued, one per warp, from a
    /// traced run of a kernel that does not trap.
    fn load_issue_cycles(kernel: &Kernel, pc: usize) -> Vec<u64> {
        let mut events = Vec::new();
        GpuSim::new(&small_cfg(), kernel)
            .unwrap()
            .execute(
                None,
                &mut vt_trace::BufSink(&mut events),
                &RunBudget::unlimited(),
                None,
            )
            .unwrap();
        events
            .iter()
            .filter(|e| matches!(e.ev, vt_trace::TraceEvent::WarpIssue { pc: p, .. } if p as usize == pc))
            .map(|e| e.t)
            .collect()
    }

    /// Which trap a run reports when several are raised in one cycle:
    /// within an instruction alignment outranks range, within an SM the
    /// lower scheduler wins, across SMs the lower SM id wins.
    #[test]
    fn simultaneous_traps_report_in_lane_scheduler_and_sm_order() {
        const OOR: u32 = 1 << 26;
        let trap = |k: &Kernel| match simulate(&small_cfg(), k).unwrap_err() {
            SimError::Exec(e) => e,
            other => panic!("expected a trap, got {other:?}"),
        };

        // (a) One instruction: lane 0 out of range, lane 5 unaligned.
        let mut b = KernelBuilder::new("lanes");
        let (far, odd) = (b.reg(), b.reg());
        b.set_eq(far, Operand::Sreg(Sreg::Tid), Operand::Imm(0));
        b.shl(far, Operand::Reg(far), Operand::Imm(26));
        b.set_eq(odd, Operand::Sreg(Sreg::Tid), Operand::Imm(5));
        b.shl(odd, Operand::Reg(odd), Operand::Imm(1));
        b.add(far, Operand::Reg(far), Operand::Reg(odd));
        b.ld_global(far, Operand::Reg(far), 0);
        let k = b.build(1, 32).unwrap();
        assert_eq!(trap(&k), ExecError::Unaligned { addr: 2 });

        // (b) Two warps of one CTA, one per scheduler, and (c) two
        // one-warp CTAs, one per SM. In both the two loads issue in the
        // same cycle, which the benign twin's trace confirms.
        for (what, ctas, threads) in [("schedulers", 1, 64), ("SMs", 2, 32)] {
            let (benign, pc) = two_address_load(ctas, threads, 0, 4);
            let issued = load_issue_cycles(&benign, pc);
            assert_eq!(issued.len(), 2, "{what}");
            assert_eq!(issued[0], issued[1], "{what}: loads must coincide");

            let (k, _) = two_address_load(ctas, threads, OOR, OOR + 4);
            assert_eq!(
                trap(&k),
                ExecError::GlobalOutOfRange { addr: OOR },
                "{what}"
            );
            let (k, _) = two_address_load(ctas, threads, OOR, 2);
            assert_eq!(
                trap(&k),
                ExecError::GlobalOutOfRange { addr: OOR },
                "{what}: range trap first, alignment trap second"
            );
            let (k, _) = two_address_load(ctas, threads, 2, OOR);
            assert_eq!(
                trap(&k),
                ExecError::Unaligned { addr: 2 },
                "{what}: alignment trap first, range trap second"
            );
        }
    }

    #[test]
    fn partial_warps_simulate_correctly() {
        let k = streaming_kernel(3, 40); // 40 threads: second warp partial
        let sim = simulate(&small_cfg(), &k).unwrap();
        let reference = Interpreter::new(&k).unwrap().run().unwrap();
        assert_eq!(sim.mem_image.as_words(), reference.mem().as_words());
    }

    #[test]
    fn metrics_sampling_is_opt_in() {
        let k = streaming_kernel(8, 64);
        let off = simulate(&small_cfg(), &k).unwrap();
        assert!(off.stats.metrics().is_none(), "disabled by default");

        let mut cfg = small_cfg();
        cfg.core.metrics_window = Some(50);
        let on = simulate(&cfg, &k).unwrap();
        let m = on.stats.metrics().expect("sampling enabled");
        assert_eq!(m.window(), 50);
        // The last executed cycle is cycles-1; every boundary at or
        // before it sealed a window, partial windows never seal.
        assert_eq!(m.windows(), (on.stats.cycles - 1) / 50);
        let wi = m.get("warp_instrs", None).unwrap();
        assert!(
            wi.total() <= on.stats.warp_instrs,
            "partial window unsealed"
        );
        assert!(wi.total() > 0, "the run issued inside sealed windows");
        // Per-SM series sum to the aggregate, window by window.
        let per_sm: Vec<u64> = (0..2)
            .map(|sm| m.get("warp_instrs", Some(sm)).unwrap())
            .fold(vec![0u64; m.windows() as usize], |mut acc, s| {
                for (a, v) in acc.iter_mut().zip(s.values()) {
                    *a += v;
                }
                acc
            });
        assert_eq!(per_sm, wi.values());
        // Levels stay within physical capacity (2 SMs × warp slots).
        let rw = m.get("resident_warps", None).unwrap();
        assert!(rw.max() <= u64::from(cfg.core.max_warps_per_sm) * 2);
        // Metering never perturbs the simulation itself.
        let mut unmetered = on.stats.clone();
        unmetered.series = None;
        assert_eq!(unmetered, off.stats);
    }

    #[test]
    fn progress_hook_reports_without_perturbing() {
        let k = streaming_kernel(8, 64);
        let plain = simulate(&small_cfg(), &k).unwrap();
        let mut reports: Vec<(u64, u64)> = Vec::new();
        let mut cb = |p: &Progress| reports.push((p.cycle, p.thread_instrs));
        let out = GpuSim::new(&small_cfg(), &k)
            .unwrap()
            .execute_with_progress(
                &mut NullSink,
                &RunBudget::unlimited(),
                None,
                Some(ProgressHook::new(64, &mut cb)),
            )
            .unwrap();
        let r = out.completed().unwrap();
        assert_eq!(r.stats, plain.stats, "observation is free");
        assert_eq!(reports.len() as u64, (plain.stats.cycles - 1) / 64);
        assert!(reports
            .windows(2)
            .all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
    }

    #[test]
    fn metered_resume_rejects_sampling_mismatches() {
        let k = streaming_kernel(16, 64);
        let mut metered = small_cfg();
        metered.core.metrics_window = Some(64);
        let out = GpuSim::new(&metered, &k)
            .unwrap()
            .execute(
                None,
                &mut NullSink,
                &RunBudget::unlimited().with_max_cycles(100),
                None,
            )
            .unwrap();
        let RunOutcome::Truncated(t) = out else {
            panic!("expected truncation");
        };
        // Resuming unmetered, or with a different window, is rejected.
        assert!(matches!(
            GpuSim::resume(&small_cfg(), &k, &t.checkpoint),
            Err(SimError::Checkpoint { .. })
        ));
        let mut other = small_cfg();
        other.core.metrics_window = Some(128);
        assert!(matches!(
            GpuSim::resume(&other, &k, &t.checkpoint),
            Err(SimError::Checkpoint { .. })
        ));
        // An unmetered checkpoint refuses a metered resume.
        let out = GpuSim::new(&small_cfg(), &k)
            .unwrap()
            .execute(
                None,
                &mut NullSink,
                &RunBudget::unlimited().with_max_cycles(100),
                None,
            )
            .unwrap();
        let RunOutcome::Truncated(t) = out else {
            panic!("expected truncation");
        };
        assert!(matches!(
            GpuSim::resume(&metered, &k, &t.checkpoint),
            Err(SimError::Checkpoint { .. })
        ));
    }

    #[test]
    fn profiling_is_opt_in_and_conserves() {
        let k = streaming_kernel(8, 64);
        let off = simulate(&small_cfg(), &k).unwrap();
        assert!(off.stats.hotspots.is_none(), "disabled by default");

        let mut cfg = small_cfg();
        cfg.core.profile = true;
        let on = simulate(&cfg, &k).unwrap();
        let h = on.stats.hotspots.as_ref().expect("profiling enabled");
        assert_eq!(h.len(), k.program().len());
        // Conservation: per-PC issue tallies sum exactly to the issued
        // bucket, and per-PC stall charges plus the unattributed
        // remainder sum exactly to each stall bucket of the CPI stack.
        let stack = on.stats.cpi_stack();
        assert_eq!(h.issued_total(), stack.issued);
        use crate::hotspots::StallReason;
        for (r, bucket) in [
            (StallReason::Memory, stack.stall_memory),
            (StallReason::Pipeline, stack.stall_pipeline),
            (StallReason::Barrier, stack.stall_barrier),
            (StallReason::Swap, stack.stall_swap),
            (StallReason::Structural, stack.stall_structural),
        ] {
            assert_eq!(
                h.stall_total(r) + h.unattributed[r.index()],
                bucket,
                "{} conserves",
                r.name()
            );
        }
        // A streaming kernel's load PC observes latency and coalescing.
        assert!(h.counters().iter().any(|c| c.mem_accesses > 0));
        assert!(h.counters().iter().any(|c| c.mem_latency.count > 0));
        // Profiling never perturbs the simulation itself.
        let mut unprofiled = on.stats.clone();
        unprofiled.hotspots = None;
        assert_eq!(unprofiled, off.stats);
        assert_eq!(on.mem_image.as_words(), off.mem_image.as_words());
    }

    #[test]
    fn profiled_resume_rejects_mismatches() {
        let k = streaming_kernel(16, 64);
        let mut profiled = small_cfg();
        profiled.core.profile = true;
        let out = GpuSim::new(&profiled, &k)
            .unwrap()
            .execute(
                None,
                &mut NullSink,
                &RunBudget::unlimited().with_max_cycles(100),
                None,
            )
            .unwrap();
        let RunOutcome::Truncated(t) = out else {
            panic!("expected truncation");
        };
        // Resuming unprofiled is rejected...
        assert!(matches!(
            GpuSim::resume(&small_cfg(), &k, &t.checkpoint),
            Err(SimError::Checkpoint { .. })
        ));
        // ...and an unprofiled checkpoint refuses a profiled resume.
        let out = GpuSim::new(&small_cfg(), &k)
            .unwrap()
            .execute(
                None,
                &mut NullSink,
                &RunBudget::unlimited().with_max_cycles(100),
                None,
            )
            .unwrap();
        let RunOutcome::Truncated(t) = out else {
            panic!("expected truncation");
        };
        assert!(matches!(
            GpuSim::resume(&profiled, &k, &t.checkpoint),
            Err(SimError::Checkpoint { .. })
        ));
    }

    #[test]
    fn profiled_resume_matches_uninterrupted_run_exactly() {
        let k = streaming_kernel(16, 64);
        let mut cfg = small_cfg();
        cfg.core.profile = true;
        let full = simulate(&cfg, &k).unwrap();
        for cut in [1u64, 50, 300] {
            let out = GpuSim::new(&cfg, &k)
                .unwrap()
                .execute(
                    None,
                    &mut NullSink,
                    &RunBudget::unlimited().with_max_cycles(cut),
                    None,
                )
                .unwrap();
            let RunOutcome::Truncated(t) = out else {
                panic!("run shorter than {cut} cycles");
            };
            let ckpt = Checkpoint::parse(&t.checkpoint.to_text()).unwrap();
            let resumed = GpuSim::resume(&cfg, &k, &ckpt).unwrap().run().unwrap();
            assert_eq!(resumed.stats, full.stats, "cut at {cut}");
        }
    }

    #[test]
    fn budget_truncates_with_valid_partial_stats() {
        let k = streaming_kernel(16, 64);
        let cfg = small_cfg();
        let out = GpuSim::new(&cfg, &k)
            .unwrap()
            .execute(
                None,
                &mut NullSink,
                &RunBudget::unlimited().with_max_cycles(100),
                None,
            )
            .unwrap();
        let RunOutcome::Truncated(t) = out else {
            panic!("expected truncation");
        };
        assert_eq!(t.reason, StopReason::CycleBudget);
        assert_eq!(t.stats.cycles, 100);
        assert_eq!(
            t.stats.idle.total() + t.stats.issue_cycles,
            t.stats.occupancy.sm_cycles,
            "idle identity holds on partial stats"
        );
        assert_eq!(t.stats.occupancy.sm_cycles, 100 * 2, "2 SMs x 100 cycles");
        assert_eq!(t.checkpoint.cycle().unwrap(), 100);
    }

    #[test]
    fn resume_matches_uninterrupted_run_exactly() {
        let k = streaming_kernel(16, 64);
        let cfg = small_cfg();
        let full = simulate(&cfg, &k).unwrap();
        for cut in [1u64, 50, 300] {
            let out = GpuSim::new(&cfg, &k)
                .unwrap()
                .execute(
                    None,
                    &mut NullSink,
                    &RunBudget::unlimited().with_max_cycles(cut),
                    None,
                )
                .unwrap();
            let RunOutcome::Truncated(t) = out else {
                panic!("run shorter than {cut} cycles");
            };
            // Round-trip the checkpoint through its text form.
            let ckpt = Checkpoint::parse(&t.checkpoint.to_text()).unwrap();
            let resumed = GpuSim::resume(&cfg, &k, &ckpt).unwrap().run().unwrap();
            assert_eq!(resumed.stats, full.stats, "cut at {cut}");
            assert_eq!(
                resumed.mem_image.as_words(),
                full.mem_image.as_words(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn pre_cancelled_token_truncates_after_one_cycle() {
        let k = streaming_kernel(16, 64);
        let token = crate::exec::CancelToken::new();
        token.cancel();
        let out = GpuSim::new(&small_cfg(), &k)
            .unwrap()
            .execute(None, &mut NullSink, &RunBudget::unlimited(), Some(&token))
            .unwrap();
        let RunOutcome::Truncated(t) = out else {
            panic!("expected truncation");
        };
        assert_eq!(t.reason, StopReason::Cancelled);
        assert_eq!(t.stats.cycles, 1, "polled at the first cycle boundary");
    }

    #[test]
    fn resume_rejects_mismatched_kernel_and_geometry() {
        let k = streaming_kernel(8, 64);
        let cfg = small_cfg();
        let out = GpuSim::new(&cfg, &k)
            .unwrap()
            .execute(
                None,
                &mut NullSink,
                &RunBudget::unlimited().with_max_cycles(10),
                None,
            )
            .unwrap();
        let RunOutcome::Truncated(t) = out else {
            panic!("expected truncation");
        };
        let other = streaming_kernel(4, 64); // same name, different grid
        assert!(matches!(
            GpuSim::resume(&cfg, &other, &t.checkpoint),
            Err(SimError::Checkpoint { .. })
        ));
        let mut big = small_cfg();
        big.core.num_sms = 4;
        assert!(matches!(
            GpuSim::resume(&big, &k, &t.checkpoint),
            Err(SimError::Checkpoint { .. })
        ));
        // Dispatcher state the SMs contradict: a pointer past the last SM
        // used to panic at the next dispatch, and a `next_cta` beyond the
        // CTAs completed and resident to skip those in between (2^32 + 1
        // resumed as 1 and ran CTAs twice).
        let doc = Json::parse(&t.checkpoint.to_text()).unwrap();
        let next = doc.get("next_cta").and_then(Json::as_u64).unwrap();
        let cases = [
            ("dispatch_ptr", "dispatch_ptr", Json::UInt(2)),
            ("dispatch_ptr", "dispatch_ptr", Json::UInt(u64::MAX)),
            ("next_cta", "next_cta", Json::UInt(next + 2)),
            ("next_cta", "next_cta", Json::UInt(next - 1)),
            (
                "field `next_cta` is not a u32",
                "next_cta",
                Json::UInt((1 << 32) + 1),
            ),
        ];
        for (what, key, value) in cases {
            let mut bad = doc.clone();
            *field(&mut bad, key) = value;
            let ckpt = Checkpoint::parse(&bad.compact()).expect("header intact");
            match GpuSim::resume(&cfg, &k, &ckpt) {
                Err(SimError::Checkpoint { reason }) => {
                    assert!(
                        reason.starts_with(what),
                        "{what}: wrong diagnostic {reason:?}"
                    );
                }
                other => panic!("{what}: corrupt checkpoint not refused: {other:?}"),
            }
        }
    }

    /// `obj[key]`, mutably.
    fn field<'a>(obj: &'a mut Json, key: &str) -> &'a mut Json {
        let Json::Object(fields) = obj else {
            panic!("{key}: parent is not an object");
        };
        &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1
    }

    /// `arr[i]`, mutably.
    fn item(arr: &mut Json, i: usize) -> &mut Json {
        let Json::Array(items) = arr else {
            panic!("not an array");
        };
        &mut items[i]
    }

    /// A corrupt slot index used to be accepted by `Sm::restore` and to
    /// panic on the first tick that indexed a table with it (a writeback
    /// entry at `warp_uids[wslot]`); a register number of 256..=65535 used
    /// to panic in the scoreboard the same way, and a larger one to alias
    /// another register. A scoreboard `count` that disagrees with its
    /// pending bits, a register file of the wrong size or frame width, a
    /// warp's thread ids that disagree with its index, and a CTA id
    /// resident twice or not yet dispatched used to be accepted too. Each
    /// must be refused at resume.
    #[test]
    fn resume_rejects_out_of_range_slot_indices() {
        let k = streaming_kernel(8, 64);
        let cfg = small_cfg();
        let cut = |cycles: u64| -> Json {
            let out = GpuSim::new(&cfg, &k)
                .unwrap()
                .execute(
                    None,
                    &mut NullSink,
                    &RunBudget::unlimited().with_max_cycles(cycles),
                    None,
                )
                .unwrap();
            let RunOutcome::Truncated(t) = out else {
                panic!("expected truncation");
            };
            Json::parse(&t.checkpoint.to_text()).unwrap()
        };
        let resume = |doc: &Json| {
            let ckpt = Checkpoint::parse(&doc.pretty()).expect("header intact");
            GpuSim::resume(&cfg, &k, &ckpt).map(|_| ())
        };
        // ALU results in flight at cycle 4, loads in flight at cycle 60.
        let early = cut(4);
        let late = cut(60);
        assert!(resume(&early).is_ok() && resume(&late).is_ok());

        type Corrupt = fn(&mut Json);
        let cases: [(&str, &Json, Corrupt); 26] = [
            ("writeback", &early, |sm| {
                *item(item(field(sm, "writebacks"), 0), 1) = Json::UInt(9999);
            }),
            ("sched_last", &early, |sm| {
                *item(field(sm, "sched_last"), 0) = Json::UInt(9999);
            }),
            ("CTA warp list", &early, |sm| {
                *item(field(item(field(sm, "ctas"), 0), "warps"), 0) = Json::UInt(9999);
            }),
            ("warp", &early, |sm| {
                *field(item(field(sm, "warps"), 0), "cta_slot") = Json::UInt(9999);
            }),
            ("free warp list", &early, |sm| {
                *field(sm, "free_warp_slots") = Json::Array(vec![Json::UInt(9999)]);
            }),
            ("free CTA list", &early, |sm| {
                *field(sm, "free_cta_slots") = Json::Array(vec![Json::UInt(9999)]);
            }),
            ("LD/ST unit", &late, |sm| {
                *item(item(field(field(sm, "ldst"), "groups"), 0), 1) = Json::UInt(9999);
            }),
            ("register", &early, |sm| {
                *item(item(field(sm, "writebacks"), 0), 2) = Json::UInt(300);
            }),
            ("register", &early, |sm| {
                *item(item(field(sm, "writebacks"), 0), 2) = Json::UInt(65536 + 3);
            }),
            ("register", &late, |sm| {
                *item(item(field(field(sm, "ldst"), "groups"), 0), 3) = Json::UInt(300);
            }),
            // A zero `count` beside pending bits let a warp issue past its
            // hazards (the run diverged, finishing early).
            ("scoreboard", &early, |sm| {
                let Json::Array(warps) = field(sm, "warps") else {
                    panic!("warps is not an array");
                };
                let board = warps
                    .iter_mut()
                    .map(|w| field(w, "scoreboard"))
                    .find(|b| b.get("count").and_then(Json::as_u64) != Some(0))
                    .expect("a warp with results in flight");
                *field(board, "count") = Json::UInt(0);
            }),
            // Issue gathers all 32 lanes' frames: a short register file
            // used to panic on the first issue.
            ("registers", &early, |sm| {
                *field(item(field(sm, "warps"), 0), "regs") = Json::Str(pack_words(&[0]));
            }),
            // Consistent in itself, but not the kernel's frame width.
            ("registers", &early, |sm| {
                let warp = item(field(sm, "warps"), 0);
                let rpt = field(warp, "regs_per_thread").as_u64().unwrap() + 1;
                *field(warp, "regs_per_thread") = Json::UInt(rpt);
                *field(warp, "regs") = Json::Str(pack_words(&vec![0; 32 * rpt as usize]));
            }),
            // Occupancy counters that disagree with the CTA table: each of
            // the first five used to be accepted and then panic with a
            // subtract overflow, and the last to run forever.
            ("occupancy", &early, |sm| {
                *field(sm, "resident_ctas") = Json::UInt(0);
            }),
            ("occupancy", &early, |sm| {
                *field(sm, "resident_warps") = Json::UInt(0);
            }),
            ("occupancy", &early, |sm| {
                *field(sm, "resident_warps") = Json::UInt(7);
            }),
            ("occupancy", &early, |sm| {
                *field(sm, "active_phase_warps") = Json::UInt(0);
            }),
            ("occupancy", &early, |sm| {
                *field(sm, "active_phase_warps") = Json::UInt(7);
            }),
            ("occupancy", &early, |sm| {
                *field(sm, "slot_ctas") = Json::UInt(0);
            }),
            ("occupancy", &early, |sm| {
                *field(sm, "resident_ctas") = Json::UInt(7);
            }),
            // A warp listed by a CTA it does not name: the trigger
            // counters follow the warp, occupancy the list.
            ("CTA warp list", &early, |sm| {
                let two_warps = field(item(field(sm, "ctas"), 0), "warps");
                *two_warps = Json::Array(vec![Json::UInt(0), Json::UInt(0)]);
            }),
            // The first tick decodes every live warp's PC.
            ("pc", &early, |sm| {
                let stack = field(item(field(sm, "warps"), 0), "stack");
                *item(item(stack, 0), 0) = Json::UInt(9999);
            }),
            // A warp's thread ids follow from its index in its CTA (a
            // shifted `first_tid` used to run other threads' work).
            ("warp identity", &early, |sm| {
                let first_tid = field(item(field(sm, "warps"), 0), "first_tid");
                *first_tid = Json::UInt(first_tid.as_u64().unwrap() + 32);
            }),
            ("warp identity", &early, |sm| {
                let warp = item(field(sm, "warps"), 0);
                *field(warp, "warp_in_cta") = Json::UInt(2);
                *field(warp, "first_tid") = Json::UInt(64);
            }),
            // A resident CTA the dispatcher has not handed out, or one
            // resident twice.
            ("cta_id", &early, |sm| {
                *field(item(field(sm, "ctas"), 0), "cta_id") = Json::UInt(9999);
            }),
            ("cta_id", &early, |sm| {
                let other = field(item(field(sm, "ctas"), 1), "cta_id").clone();
                *field(item(field(sm, "ctas"), 0), "cta_id") = other;
            }),
        ];
        for (what, base, corrupt) in cases {
            let mut doc = base.clone();
            corrupt(field(item(field(&mut doc, "lanes"), 0), "sm"));
            match resume(&doc) {
                Err(SimError::Checkpoint { reason }) => {
                    assert!(
                        reason.starts_with(what),
                        "{what}: wrong diagnostic {reason:?}"
                    );
                }
                other => panic!("{what}: corrupt checkpoint not refused: {other:?}"),
            }
        }
    }

    /// The packed image, shared-memory and register strings decode
    /// totally: a malformed string, or one of the wrong length, is refused
    /// naming the field. A short image or shared memory used to be
    /// accepted and make a later access trap where the uninterrupted run
    /// completes, and a long one to let an out-of-range access succeed.
    #[test]
    fn resume_rejects_malformed_word_strings() {
        let k = reduction_kernel();
        let cfg = small_cfg();
        let out = GpuSim::new(&cfg, &k)
            .unwrap()
            .execute(
                None,
                &mut NullSink,
                &RunBudget::unlimited().with_max_cycles(20),
                None,
            )
            .unwrap();
        let RunOutcome::Truncated(t) = out else {
            panic!("expected truncation");
        };
        let base = Json::parse(&t.checkpoint.to_text()).unwrap();
        let resume = |doc: &Json| {
            let ckpt = Checkpoint::parse(&doc.compact()).expect("header intact");
            GpuSim::resume(&cfg, &k, &ckpt).map(|_| ())
        };
        assert!(resume(&base).is_ok());
        let image_len = k.global_mem().word_len();
        let smem_len = k.smem_bytes_per_cta() as usize / 4;
        assert!(image_len > 0 && smem_len > 0);

        fn sm(doc: &mut Json) -> &mut Json {
            field(item(field(doc, "lanes"), 0), "sm")
        }
        fn cta(doc: &mut Json) -> &mut Json {
            item(field(sm(doc), "ctas"), 0)
        }
        type Corrupt = fn(&mut Json, usize);
        let cases: [(&str, Corrupt); 14] = [
            ("field `image`: decoded", |doc, n| {
                *field(doc, "image") = Json::Str(pack_words(&vec![1; n - 1]));
            }),
            ("field `image`: more than", |doc, n| {
                *field(doc, "image") = Json::Str(pack_words(&vec![1; n + 1]));
            }),
            ("field `image`: zero run at byte 0 overflows", |doc, n| {
                *field(doc, "image") = Json::Str(pack_words(&vec![0; n + 1]));
            }),
            ("field `image` is not a packed word string", |doc, n| {
                *field(doc, "image") = Json::Array(vec![Json::UInt(0); n]);
            }),
            // 2^32 + 5 used to be restored as 5.
            ("field `image` is not a packed word string", |doc, _| {
                *field(doc, "image") = Json::Array(vec![Json::UInt((1 << 32) + 5)]);
            }),
            ("field `image`: byte 0 ('A')", |doc, n| {
                let text = format!("A{}", &pack_words(&vec![1; n])[1..]);
                *field(doc, "image") = Json::Str(text);
            }),
            ("field `image`: word at byte 0 is truncated", |doc, _| {
                *field(doc, "image") = Json::Str("0000001".into());
            }),
            (
                "field `image`: zero run at byte 0 is unterminated",
                |doc, _| {
                    *field(doc, "image") = Json::Str("z2".into());
                },
            ),
            ("field `image`: zero run at byte 0 is empty", |doc, _| {
                *field(doc, "image") = Json::Str("z0.".into());
            }),
            ("field `smem`: decoded", |doc, _| {
                let short = vec![1; smem_words(cta(doc)) - 1];
                *field(cta(doc), "smem") = Json::Str(pack_words(&short));
            }),
            ("field `smem`: more than", |doc, _| {
                let long = vec![1; smem_words(cta(doc)) + 1];
                *field(cta(doc), "smem") = Json::Str(pack_words(&long));
            }),
            ("field `smem`: byte 3 ('x')", |doc, _| {
                *field(cta(doc), "smem") = Json::Str("000x0000".into());
            }),
            // Consistent in itself and with the occupancy counters, but not
            // the kernel's shared memory.
            ("field `smem_bytes`", |doc, _| {
                let words = smem_words(cta(doc)) + 1;
                *field(cta(doc), "smem_bytes") = Json::UInt(4 * words as u64);
                *field(cta(doc), "smem") = Json::Str(pack_words(&vec![0; words]));
                let total = field(sm(doc), "resident_smem_bytes");
                *total = Json::UInt(total.as_u64().unwrap() + 4);
            }),
            ("registers: field `regs`: zero run", |doc, _| {
                *field(item(field(sm(doc), "warps"), 0), "regs") = Json::Str("z100000.".into());
            }),
        ];
        fn smem_words(cta: &mut Json) -> usize {
            cta.get("smem_bytes").and_then(Json::as_u64).unwrap() as usize / 4
        }
        for (what, corrupt) in cases {
            let mut doc = base.clone();
            corrupt(&mut doc, image_len);
            match resume(&doc) {
                Err(SimError::Checkpoint { reason }) => {
                    assert!(
                        reason.starts_with(what),
                        "{what}: wrong diagnostic {reason:?}"
                    );
                }
                other => panic!("{what}: corrupt checkpoint not refused: {other:?}"),
            }
        }
    }

    #[test]
    fn completion_wins_over_budget_tie() {
        let k = streaming_kernel(2, 32);
        let cfg = small_cfg();
        let full = simulate(&cfg, &k).unwrap();
        // Budget exactly equal to the run length: the run completes.
        let out = GpuSim::new(&cfg, &k)
            .unwrap()
            .execute(
                None,
                &mut NullSink,
                &RunBudget::unlimited().with_max_cycles(full.stats.cycles),
                None,
            )
            .unwrap();
        assert!(matches!(out, RunOutcome::Completed(_)));
    }

    #[test]
    fn error_retryability() {
        assert!(SimError::Watchdog { cycle: 1 }.is_retryable());
        assert!(SimError::Truncated {
            reason: StopReason::Deadline
        }
        .is_retryable());
        assert!(!SimError::Checkpoint { reason: "x".into() }.is_retryable());
    }

    #[test]
    fn idle_breakdown_sums_to_unissued_cycles() {
        let k = streaming_kernel(8, 64);
        let r = simulate(&small_cfg(), &k).unwrap();
        let occ = &r.stats.occupancy;
        assert_eq!(
            occ.sm_cycles,
            r.stats.cycles * 2,
            "2 SMs accumulate once per cycle"
        );
        assert!(r.stats.idle.total() <= occ.sm_cycles);
        assert!(
            r.stats.idle.memory > 0,
            "a streaming kernel stalls on memory"
        );
    }
}
