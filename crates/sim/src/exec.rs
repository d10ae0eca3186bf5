//! Execution control: run budgets, cooperative cancellation and
//! checkpointing.
//!
//! A simulation is normally run to completion, but long sweeps need three
//! extra controls, all of which stop the deterministic cycle loop *at a
//! cycle boundary* so the partial state is coherent:
//!
//! * [`RunBudget`] — a cycle and/or wall-clock ceiling. A run that hits
//!   its budget returns [`RunOutcome::Truncated`] with valid partial
//!   statistics and a [`Checkpoint`] it can later resume from.
//! * [`CancelToken`] — a thread-safe flag polled once per cycle, for
//!   Ctrl-C handlers and supervisor threads.
//! * [`Checkpoint`] — the full serialized simulator state. Resuming a
//!   checkpoint continues bit-identically to the uninterrupted run.

use crate::gpu::{RunResult, SimError};
use crate::stats::RunStats;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use vt_json::{req_str, req_u64, Json};

/// Limits on how long one `execute` call may run. The default is
/// unlimited; both limits may be combined, and whichever trips first
/// truncates the run.
///
/// Budgets are *relative to the call*: a resumed simulation gets a fresh
/// allowance, so a sweep can advance a long kernel in fixed-size slices.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunBudget {
    /// Maximum simulated cycles this call may execute (not a cumulative
    /// cycle number). `None` means unlimited.
    pub max_cycles: Option<u64>,
    /// Maximum wall-clock time this call may take. `None` means
    /// unlimited. Checked at cycle boundaries, so the overshoot is at
    /// most one cycle's work.
    pub deadline: Option<Duration>,
}

impl RunBudget {
    /// No limits: run to completion (or the watchdog).
    pub fn unlimited() -> RunBudget {
        RunBudget::default()
    }

    /// Caps the simulated cycles executed by one call.
    pub fn with_max_cycles(mut self, cycles: u64) -> RunBudget {
        self.max_cycles = Some(cycles);
        self
    }

    /// Caps the wall-clock duration of one call.
    pub fn with_deadline(mut self, deadline: Duration) -> RunBudget {
        self.deadline = Some(deadline);
        self
    }

    /// Whether this budget can never truncate a run.
    pub fn is_unlimited(&self) -> bool {
        self.max_cycles.is_none() && self.deadline.is_none()
    }
}

/// A thread-safe cooperative cancellation flag.
///
/// Clones share the flag. The engine polls it once per cycle; after
/// [`CancelToken::cancel`] the run stops at the next cycle boundary and
/// returns [`RunOutcome::Truncated`] with [`StopReason::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Safe to call from any thread, including a
    /// signal handler (a relaxed atomic store).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Why a run stopped before completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The [`RunBudget::max_cycles`] allowance was used up.
    CycleBudget,
    /// The [`RunBudget::deadline`] wall-clock limit passed.
    Deadline,
    /// A [`CancelToken`] was cancelled.
    Cancelled,
}

/// A truncated run: why it stopped, the statistics accumulated so far
/// (valid — the same invariants as a completed run's, just over fewer
/// cycles), and a checkpoint to resume from.
#[derive(Debug, Clone)]
pub struct Truncation {
    /// What stopped the run.
    pub reason: StopReason,
    /// Statistics over the cycles actually executed.
    pub stats: RunStats,
    /// Full simulator state at the stop boundary.
    pub checkpoint: Checkpoint,
}

/// The outcome of an `execute` call: ran to completion, or was stopped
/// by the budget / a cancellation.
// One RunOutcome exists per run, so the stats payload's size is
// irrelevant; boxing it would only make the common completed path
// clumsier.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// The kernel finished; the result is complete.
    Completed(RunResult),
    /// The run stopped early; partial stats and a resumable checkpoint.
    Truncated(Box<Truncation>),
}

impl RunOutcome {
    /// The completed result, or an error naming the stop reason. Use
    /// when truncation is not expected (e.g. unlimited budgets).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Truncated`] if the run did not complete.
    pub fn completed(self) -> Result<RunResult, SimError> {
        match self {
            RunOutcome::Completed(r) => Ok(r),
            RunOutcome::Truncated(t) => Err(SimError::Truncated { reason: t.reason }),
        }
    }

    /// The run's statistics, complete or partial.
    pub fn stats(&self) -> &RunStats {
        match self {
            RunOutcome::Completed(r) => &r.stats,
            RunOutcome::Truncated(t) => &t.stats,
        }
    }
}

/// A point-in-time view of a running simulation, handed to a
/// [`ProgressHook`] callback. Built from the engine's live counters, so
/// observing progress never perturbs the simulation itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Progress {
    /// Current cycle.
    pub cycle: u64,
    /// This call's cycle allowance ([`RunBudget::max_cycles`]), if any.
    pub budget_cycles: Option<u64>,
    /// Thread instructions executed so far.
    pub thread_instrs: u64,
    /// Cumulative IPC (thread instructions / cycles).
    pub ipc: f64,
    /// IPC over the cycles since the previous progress report.
    pub window_ipc: f64,
    /// CTAs currently resident across all SMs (active + swapped out).
    pub resident_ctas: u64,
    /// CTAs currently holding an active slot across all SMs.
    pub active_ctas: u64,
    /// Warps currently resident across all SMs.
    pub resident_warps: u64,
}

/// A periodic progress callback: the engine invokes `callback` every
/// `every` cycles (at the top of the cycle, where state is coherent). Independent of metrics sampling — a progress ticker does
/// not require a metered run.
pub struct ProgressHook<'a> {
    /// Cycles between callbacks (clamped to ≥ 1).
    pub every: u64,
    /// Receives each [`Progress`] report.
    pub callback: &'a mut dyn FnMut(&Progress),
}

impl<'a> ProgressHook<'a> {
    /// A hook firing every `every` cycles.
    pub fn new(every: u64, callback: &'a mut dyn FnMut(&Progress)) -> ProgressHook<'a> {
        ProgressHook {
            every: every.max(1),
            callback,
        }
    }
}

impl std::fmt::Debug for ProgressHook<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProgressHook")
            .field("every", &self.every)
            .finish_non_exhaustive()
    }
}

/// Serialization format version written into checkpoints. Version 2
/// added the `metrics` registry snapshot (replacing the occupancy
/// timeline of version 1); version 3 added the `empty` sub-split of
/// `idle.no_warps` to every stats block (CPI-stack attribution);
/// version 4 added the per-PC `hotspots` profile to every stats block
/// and issue-site PC/cycle tags to the LD/ST unit's in-flight state;
/// version 5 packs the memory image, each warp's registers (in their
/// register-major order) and each CTA's shared memory into word strings
/// ([`vt_json::pack_words`]), drops the memory fronts' always-empty
/// `outbox`, and writes compact text. Other versions are refused; a
/// checkpoint is transient job state, so there is no migration.
pub const CHECKPOINT_VERSION: u64 = 5;

/// A serialized simulator state: every SM (schedulers, SIMT stacks,
/// scoreboards, CTA residency and swap state, LD/ST unit), the memory
/// hierarchy (L1/L2 caches, MSHRs, interconnect, DRAM), the functional
/// memory image, and all statistics. Produced at a cycle boundary;
/// resuming continues bit-identically.
///
/// The representation is `vt-json` text, so checkpoints can be written
/// to disk and inspected with ordinary tools.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    json: Json,
}

impl Checkpoint {
    /// Wraps an already-validated JSON document. Used by the engine;
    /// external callers should use [`Checkpoint::parse`].
    pub(crate) fn from_json(json: Json) -> Checkpoint {
        Checkpoint { json }
    }

    /// The underlying JSON document.
    pub fn json(&self) -> &Json {
        &self.json
    }

    /// Serializes the checkpoint as compact JSON text: deterministic, so
    /// two runs that reached the same state write equal text.
    pub fn to_text(&self) -> String {
        self.json.compact()
    }

    /// Parses checkpoint text produced by [`Checkpoint::to_text`],
    /// validating the header fields.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] on malformed JSON, a missing
    /// header, or an unsupported version.
    pub fn parse(text: &str) -> Result<Checkpoint, SimError> {
        let json = Json::parse(text).map_err(|e| SimError::Checkpoint {
            reason: format!("malformed checkpoint JSON: {e}"),
        })?;
        let c = Checkpoint { json };
        let version = c.header_u64("version")?;
        if version != CHECKPOINT_VERSION {
            return Err(SimError::Checkpoint {
                reason: format!(
                    "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
                ),
            });
        }
        c.header_u64("cycle")?;
        c.kernel_name()?;
        Ok(c)
    }

    fn header_u64(&self, key: &str) -> Result<u64, SimError> {
        req_u64(&self.json, key).map_err(|reason| SimError::Checkpoint { reason })
    }

    /// The cycle at which the checkpoint was taken.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] if the field is missing.
    pub fn cycle(&self) -> Result<u64, SimError> {
        self.header_u64("cycle")
    }

    /// The name of the kernel the checkpoint belongs to.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Checkpoint`] if the field is missing.
    pub fn kernel_name(&self) -> Result<&str, SimError> {
        req_str(&self.json, "kernel").map_err(|reason| SimError::Checkpoint { reason })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_builders_compose() {
        let b = RunBudget::unlimited();
        assert!(b.is_unlimited());
        let b = b
            .with_max_cycles(500)
            .with_deadline(Duration::from_millis(10));
        assert_eq!(b.max_cycles, Some(500));
        assert_eq!(b.deadline, Some(Duration::from_millis(10)));
        assert!(!b.is_unlimited());
    }

    #[test]
    fn cancel_token_clones_share_state() {
        let t = CancelToken::new();
        let u = t.clone();
        assert!(!t.is_cancelled());
        u.cancel();
        assert!(t.is_cancelled());
    }

    #[test]
    fn checkpoint_parse_rejects_garbage() {
        assert!(matches!(
            Checkpoint::parse("not json"),
            Err(SimError::Checkpoint { .. })
        ));
        assert!(matches!(
            Checkpoint::parse("{\"version\": 999}"),
            Err(SimError::Checkpoint { .. })
        ));
        match Checkpoint::parse("{\"version\": 4, \"cycle\": 0, \"kernel\": \"k\"}") {
            Err(SimError::Checkpoint { reason }) => {
                assert_eq!(reason, "unsupported checkpoint version 4 (expected 5)");
            }
            other => panic!("a version 4 checkpoint was not refused: {other:?}"),
        }
        // A v5 header alone: the missing fields are named.
        match Checkpoint::parse("{\"version\": 5}") {
            Err(SimError::Checkpoint { reason }) => {
                assert_eq!(reason, "missing field `cycle`");
            }
            other => panic!("a header-only checkpoint was not refused: {other:?}"),
        }
        assert!(matches!(
            Checkpoint::parse("{\"version\": 5, \"cycle\": 0}"),
            Err(SimError::Checkpoint { .. }),
        ));
    }

    #[test]
    fn progress_hook_clamps_period() {
        let mut hits = 0u32;
        {
            let mut cb = |_p: &Progress| hits += 1;
            let hook = ProgressHook::new(0, &mut cb);
            assert_eq!(hook.every, 1);
            (hook.callback)(&Progress {
                cycle: 1,
                budget_cycles: None,
                thread_instrs: 0,
                ipc: 0.0,
                window_ipc: 0.0,
                resident_ctas: 0,
                active_ctas: 0,
                resident_warps: 0,
            });
        }
        assert_eq!(hits, 1);
    }
}
