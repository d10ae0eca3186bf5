//! Sessions: the single entry point for running kernels.
//!
//! A [`Session`] owns everything one series of runs shares — the GPU
//! configuration, a trace sink, a default [`RunBudget`], a
//! [`CancelToken`] and, for [`Session::sweep`] grids, an optional worker
//! [`Pool`] — and consumes [`RunRequest`]s. One request runs one kernel
//! or a dependent chain of kernels, may override the budget, and may
//! resume from a [`Checkpoint`].
//!
//! ```
//! use vt_core::{Architecture, GpuConfig, RunRequest, Session, SessionOutcome};
//! use vt_isa::KernelBuilder;
//! use vt_isa::op::Operand;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = KernelBuilder::new("bump");
//! let buf = b.alloc_global(2048);
//! let gid = b.reg();
//! b.global_thread_id(gid);
//! b.shl(gid, Operand::Reg(gid), Operand::Imm(2));
//! b.st_global(Operand::Reg(gid), buf as i32, Operand::Imm(7));
//! let kernel = b.build(32, 64)?;
//!
//! let mut cfg = GpuConfig::with_arch(Architecture::virtual_thread());
//! cfg.core.num_sms = 2;
//! let mut session = Session::new(cfg);
//! let SessionOutcome::Completed(reports) =
//!     session.run(RunRequest::kernel(&kernel))?
//! else {
//!     unreachable!("no budget configured");
//! };
//! assert_eq!(reports.len(), 1);
//! assert!(reports[0].stats.cycles > 0);
//! # Ok(())
//! # }
//! ```

use crate::arch::Architecture;
use crate::gpu::{GpuConfig, Report};
use vt_isa::kernel::MemImage;
use vt_isa::Kernel;
use vt_par::Pool;
use vt_sim::{
    CancelToken, Checkpoint, GpuSim, Progress, ProgressHook, RunBudget, RunOutcome, SimConfig,
    SimError, Truncation,
};
use vt_trace::{NullSink, TraceSink};

/// What to run: one kernel or a dependent chain, with optional
/// per-request budget override and checkpoint to resume from.
///
/// A chain threads each launch's final memory image into the next
/// launch, so every kernel must address the same global-memory layout.
/// The chain inherits the session's sink and cancellation token.
#[derive(Debug, Clone)]
pub struct RunRequest<'a> {
    kernels: Vec<&'a Kernel>,
    budget: Option<RunBudget>,
    resume_from: Option<&'a Checkpoint>,
}

impl<'a> RunRequest<'a> {
    /// A request to run one kernel.
    pub fn kernel(kernel: &'a Kernel) -> RunRequest<'a> {
        RunRequest {
            kernels: vec![kernel],
            budget: None,
            resume_from: None,
        }
    }

    /// A request to run a dependent chain of kernels, threading each
    /// launch's final memory image into the next launch.
    pub fn kernels(kernels: &[&'a Kernel]) -> RunRequest<'a> {
        RunRequest {
            kernels: kernels.to_vec(),
            budget: None,
            resume_from: None,
        }
    }

    /// Overrides the session's default budget for this request. The
    /// budget applies to each kernel launch of a chain separately
    /// (budgets are relative to one engine call).
    pub fn with_budget(mut self, budget: RunBudget) -> RunRequest<'a> {
        self.budget = Some(budget);
        self
    }

    /// Resumes the (single) kernel of this request from `checkpoint`
    /// instead of starting it fresh. Only valid on single-kernel
    /// requests.
    pub fn resume_from(mut self, checkpoint: &'a Checkpoint) -> RunRequest<'a> {
        self.resume_from = Some(checkpoint);
        self
    }
}

/// The outcome of one [`Session::run`] call.
#[derive(Debug, Clone)]
pub enum SessionOutcome {
    /// Every kernel of the request completed; one report per kernel in
    /// request order.
    Completed(Vec<Report>),
    /// The budget or a cancellation stopped the run partway.
    Truncated {
        /// Reports for the chain prefix that did complete.
        completed: Vec<Report>,
        /// Index (in the request's kernel list) of the truncated kernel.
        kernel_index: usize,
        /// Why it stopped, partial stats, and the resume checkpoint.
        truncation: Box<Truncation>,
    },
}

impl SessionOutcome {
    /// Whether every kernel completed.
    pub fn is_complete(&self) -> bool {
        matches!(self, SessionOutcome::Completed(_))
    }

    /// The completed reports, or an error naming the stop reason. Use
    /// when truncation is not expected.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Truncated`] if the run stopped early.
    pub fn completed(self) -> Result<Vec<Report>, SimError> {
        match self {
            SessionOutcome::Completed(reports) => Ok(reports),
            SessionOutcome::Truncated { truncation, .. } => Err(SimError::Truncated {
                reason: truncation.reason,
            }),
        }
    }
}

/// A run context owning the pieces every launch shares: configuration,
/// trace sink, default budget, cancellation token, and the worker pool
/// that shards [`Session::sweep`] cells.
///
/// A pool never changes what [`Session::run`] executes — one launch is one
/// sequential cycle loop — and sweep cells are isolated simulations, so
/// results are bit-identical at any pool size.
///
/// See the [module docs](self) for an example, and
/// [`Session::cancel_token`] / [`RunRequest::with_budget`] /
/// [`RunRequest::resume_from`] for execution control.
pub struct Session<S: TraceSink = NullSink> {
    cfg: GpuConfig,
    pool: Option<Pool>,
    sink: S,
    budget: RunBudget,
    cancel: CancelToken,
    progress: Option<(u64, ProgressCallback)>,
}

/// Boxed [`Session::with_progress`] callback.
type ProgressCallback = Box<dyn FnMut(&Progress)>;

impl Session<NullSink> {
    /// A session with no pool, no tracing and no budget.
    pub fn new(cfg: GpuConfig) -> Session<NullSink> {
        Session {
            cfg,
            pool: None,
            sink: NullSink,
            budget: RunBudget::unlimited(),
            cancel: CancelToken::new(),
            progress: None,
        }
    }
}

impl<S: TraceSink> Session<S> {
    /// Shards [`Session::sweep`] cells across `pool`. [`Session::run`]
    /// does not use it.
    pub fn with_pool(mut self, pool: Pool) -> Session<S> {
        self.pool = Some(pool);
        self
    }

    /// Sets the default budget for requests that do not carry their own.
    pub fn with_budget(mut self, budget: RunBudget) -> Session<S> {
        self.budget = budget;
        self
    }

    /// Replaces the trace sink. Every subsequent launch emits its events
    /// into `sink`; retrieve it with [`Session::into_sink`].
    pub fn with_sink<T: TraceSink>(self, sink: T) -> Session<T> {
        Session {
            cfg: self.cfg,
            pool: self.pool,
            sink,
            budget: self.budget,
            cancel: self.cancel,
            progress: self.progress,
        }
    }

    /// Registers a progress callback invoked every `every` cycles of each
    /// launch (at the top-of-cycle boundary, where the [`Progress`]
    /// counters are coherent). Progress reporting is independent of
    /// metrics sampling and never perturbs results.
    pub fn with_progress(
        mut self,
        every: u64,
        callback: impl FnMut(&Progress) + 'static,
    ) -> Session<S> {
        self.progress = Some((every, Box::new(callback)));
        self
    }

    /// The configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// The worker pool, if one was attached.
    pub fn pool(&self) -> Option<&Pool> {
        self.pool.as_ref()
    }

    /// A handle that cancels this session's runs from another thread (or
    /// a signal handler): clones share the flag, which the engine polls
    /// once per cycle.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Replaces the cancellation token, so several sessions (or an
    /// external handler such as Ctrl-C) can share one flag.
    pub fn with_cancel(mut self, cancel: CancelToken) -> Session<S> {
        self.cancel = cancel;
        self
    }

    /// Replaces the cancellation token with a fresh one, un-cancelling
    /// the session after a cancelled run.
    pub fn reset_cancel(&mut self) {
        self.cancel = CancelToken::new();
    }

    /// Consumes the session, returning the trace sink with everything
    /// the runs emitted.
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Runs a request: each kernel in order, threading the memory image
    /// through chains, under the session's sink and cancellation token
    /// and the request's (or session's) budget.
    ///
    /// On truncation the outcome carries the completed chain prefix,
    /// partial statistics for the stopped kernel and a [`Checkpoint`];
    /// pass the checkpoint to [`RunRequest::resume_from`] to continue
    /// bit-identically.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on launch failure, a functional trap,
    /// watchdog expiry, or a checkpoint that does not match the request.
    pub fn run(&mut self, req: RunRequest<'_>) -> Result<SessionOutcome, SimError> {
        if req.kernels.is_empty() {
            return Ok(SessionOutcome::Completed(Vec::new()));
        }
        if req.resume_from.is_some() && req.kernels.len() != 1 {
            return Err(SimError::Checkpoint {
                reason: format!(
                    "resume requires a single-kernel request, got {} kernels",
                    req.kernels.len()
                ),
            });
        }
        let budget = req.budget.unwrap_or(self.budget);
        let mut completed = Vec::with_capacity(req.kernels.len());
        let mut image: Option<MemImage> = None;
        for (kernel_index, &k) in req.kernels.iter().enumerate() {
            let staged;
            let kernel = match image.take() {
                Some(img) => {
                    staged = k.with_global_mem(img);
                    &staged
                }
                None => k,
            };
            let residency = self
                .cfg
                .arch
                .residency_for(kernel, &self.cfg.core, &self.cfg.mem);
            let sim_cfg = SimConfig {
                core: self.cfg.core.clone(),
                mem: self.cfg.mem.clone(),
                residency,
            };
            let sim = match req.resume_from {
                Some(ckpt) => GpuSim::resume(&sim_cfg, kernel, ckpt)?,
                None => GpuSim::new(&sim_cfg, kernel)?,
            };
            let hook = self
                .progress
                .as_mut()
                .map(|(every, cb)| ProgressHook::new(*every, cb.as_mut()));
            let outcome =
                sim.execute_with_progress(&mut self.sink, &budget, Some(&self.cancel), hook)?;
            match outcome {
                RunOutcome::Completed(r) => {
                    if kernel_index + 1 < req.kernels.len() {
                        image = Some(r.mem_image.clone());
                    }
                    completed.push(Report {
                        kernel: kernel.name().to_string(),
                        arch: self.cfg.arch,
                        residency,
                        stats: r.stats,
                        mem_image: r.mem_image,
                    });
                }
                RunOutcome::Truncated(truncation) => {
                    return Ok(SessionOutcome::Truncated {
                        completed,
                        kernel_index,
                        truncation,
                    });
                }
            }
        }
        Ok(SessionOutcome::Completed(completed))
    }

    /// Runs the full `kernels` × `archs` grid with this session's core
    /// and memory parameters, fanning independent cells across the
    /// session's pool (inline without one). Returns one result per cell
    /// in kernel-major order regardless of which worker finished first —
    /// each cell is an isolated simulation, so the grid is deterministic
    /// at any thread count.
    ///
    /// Cells run to completion untraced (a shared sink would interleave
    /// events nondeterministically); per-cell failures are reported in
    /// place so a sweep can present partial results.
    pub fn sweep(
        &self,
        archs: &[Architecture],
        kernels: &[Kernel],
    ) -> Vec<Result<Report, SimError>> {
        let jobs: Vec<_> = kernels
            .iter()
            .flat_map(|kernel| archs.iter().map(move |&arch| (kernel, arch)))
            .map(|(kernel, arch)| {
                let cfg = GpuConfig {
                    core: self.cfg.core.clone(),
                    mem: self.cfg.mem.clone(),
                    arch,
                };
                move || crate::gpu::Gpu::new(cfg).run(kernel)
            })
            .collect();
        match &self.pool {
            Some(pool) => vt_par::sweep(pool, jobs),
            None => jobs.into_iter().map(|job| job()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;
    use vt_isa::op::Operand;
    use vt_isa::KernelBuilder;

    fn bump_kernel() -> Kernel {
        let mut b = KernelBuilder::new("bump");
        let buf = b.alloc_global(4096);
        let gid = b.reg();
        b.global_thread_id(gid);
        b.shl(gid, Operand::Reg(gid), Operand::Imm(2));
        b.st_global(Operand::Reg(gid), buf as i32, Operand::Imm(7));
        b.build(32, 128).expect("kernel builds")
    }

    #[test]
    fn progress_callback_fires_without_perturbing_results() {
        let kernel = bump_kernel();
        let mut cfg = GpuConfig::with_arch(Architecture::virtual_thread());
        cfg.core.num_sms = 2;

        let mut plain = Session::new(cfg.clone());
        let baseline = plain
            .run(RunRequest::kernel(&kernel))
            .expect("plain run")
            .completed()
            .expect("no budget");

        let reports: Rc<RefCell<Vec<Progress>>> = Rc::default();
        let sink = Rc::clone(&reports);
        let mut observed =
            Session::new(cfg).with_progress(16, move |p: &Progress| sink.borrow_mut().push(*p));
        let watched = observed
            .run(RunRequest::kernel(&kernel))
            .expect("observed run")
            .completed()
            .expect("no budget");

        let reports = reports.borrow();
        let cycles = baseline[0].stats.cycles;
        assert_eq!(reports.len(), ((cycles - 1) / 16) as usize);
        assert!(reports.windows(2).all(|w| w[0].cycle < w[1].cycle));
        assert!(reports.iter().all(|p| p.budget_cycles.is_none()));
        assert_eq!(
            baseline[0].stats, watched[0].stats,
            "progress observation must not perturb the simulation"
        );
    }

    #[test]
    fn profile_flag_rides_session_reports() {
        let kernel = bump_kernel();
        let mut cfg = GpuConfig::with_arch(Architecture::virtual_thread());
        cfg.core.num_sms = 2;

        let plain = Session::new(cfg.clone())
            .run(RunRequest::kernel(&kernel))
            .expect("plain run")
            .completed()
            .expect("no budget");
        assert!(plain[0].stats.hotspots.is_none(), "profiling is opt-in");

        cfg.core.profile = true;
        let profiled = Session::new(cfg)
            .run(RunRequest::kernel(&kernel))
            .expect("profiled run")
            .completed()
            .expect("no budget");
        let h = profiled[0]
            .stats
            .hotspots
            .as_ref()
            .expect("profiled session reports per-PC hotspots");
        assert_eq!(h.len(), kernel.program().len());
        assert_eq!(h.issued_total(), plain[0].stats.cpi_stack().issued);
        assert_eq!(plain[0].stats.cycles, profiled[0].stats.cycles);
    }
}
