//! vt-par: a deterministic, std-only (the build is offline) fork/join
//! for the experiment grid. Two usage shapes are exported:
//!
//! * [`Pool::run`] — index-parallel fork/join over scoped threads. Which
//!   thread executes which index is *not* deterministic, so callers must
//!   only touch disjoint state per index and order any merge themselves.
//! * [`sweep`] — deterministic job fan-out: independent closures whose
//!   results are collected *by index*, so the output is identical however
//!   the jobs interleaved. The kernel×arch experiment grid uses this.
//!
//! A pool forks once per sweep, around whole simulations, never inside
//! one — the simulator's cycle loop is sequential (DESIGN.md §11) — so
//! `run` spawns its threads per call with [`std::thread::scope`]; there
//! are no persistent workers to hand borrowed jobs to.
//!
//! Determinism contract: `Pool::run` runs every index exactly once and all
//! effects are visible to the caller when it returns; `sweep` additionally
//! orders results positionally. A one-thread pool (or a single-item `run`)
//! executes inline on the caller: exactly the sequential code path.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A degree of parallelism. `Pool::new(n)` means `n` threads in total:
/// each `run` spawns up to `n - 1` scoped workers named `vt-par-1`,
/// `vt-par-2`, … and the calling thread participates.
#[derive(Debug)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool of `threads` total threads (at least 1; 1 runs inline).
    pub fn new(threads: usize) -> Pool {
        Pool {
            threads: threads.max(1),
        }
    }

    /// Total parallelism of the pool (workers + the calling thread).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `job(i)` for every `i in 0..items`, returning once all items
    /// have completed. Item-to-thread assignment is dynamic (an atomic
    /// counter), so `job` must be safe to call concurrently for distinct
    /// indices and must not rely on execution order. If any invocation
    /// panics, the first panic is re-raised here after all workers have
    /// stopped.
    pub fn run(&self, items: usize, job: &(dyn Fn(usize) + Sync)) {
        // No more workers than there are items beyond the caller's own.
        let workers = self.threads.min(items).saturating_sub(1);
        if workers == 0 {
            for i in 0..items {
                job(i);
            }
            return;
        }
        let next = AtomicUsize::new(0);
        let first_panic = Mutex::new(None);
        // Claims items until none are left or a job panics; the payload
        // is kept, not lost to `scope`'s "a scoped thread panicked".
        let drain = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= items {
                return;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| job(i))) {
                first_panic
                    .lock()
                    .expect("no panic while the payload slot is held")
                    .get_or_insert(payload);
                return;
            }
        };
        std::thread::scope(|scope| {
            for w in 1..=workers {
                std::thread::Builder::new()
                    .name(format!("vt-par-{w}"))
                    .spawn_scoped(scope, drain)
                    .expect("spawn vt-par worker");
            }
            drain();
        });
        let payload = first_panic
            .into_inner()
            .expect("no panic while the payload slot is held");
        if let Some(payload) = payload {
            resume_unwind(payload);
        }
    }
}

/// Runs a vector of independent jobs on `pool` and collects their results
/// **by position**: `sweep(pool, vec![a, b, c])` always returns
/// `[a(), b(), c()]` regardless of which thread ran what, so the output
/// is deterministic whenever the jobs themselves are.
pub fn sweep<T, F>(pool: &Pool, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let results: Vec<Mutex<Option<T>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    pool.run(jobs.len(), &|i| {
        let f = jobs[i]
            .lock()
            .unwrap()
            .take()
            .expect("each job claimed once");
        *results[i].lock().unwrap() = Some(f());
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("pool ran every job"))
        .collect()
}

/// Installs `handler` as the process's SIGINT handler via the libc
/// `signal(2)` shim the C runtime already links. This is the workspace's
/// single home for that FFI call, so binaries that want graceful Ctrl-C
/// (checkpoint-then-exit) stay `unsafe`-free themselves; the handler must
/// restrict itself to async-signal-safe work (atomic stores).
pub fn install_sigint(handler: extern "C" fn(i32)) {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    // SAFETY: `signal` is the C standard library's own prototype, SIGINT
    // is a valid signal number, and the handler pointer has the exact
    // `extern "C" fn(i32)` ABI the registration expects.
    unsafe {
        signal(SIGINT, handler as usize);
    }
}

/// The default thread count: the `VT_THREADS` environment variable when
/// set to a positive integer, otherwise the host's available parallelism.
/// `VT_THREADS=1` forces the exact sequential code path everywhere.
pub fn default_threads() -> usize {
    if let Ok(s) = std::env::var("VT_THREADS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.threads(), 1);
        let tid = std::thread::current().id();
        let hits = AtomicUsize::new(0);
        pool.run(8, &|_| {
            assert_eq!(std::thread::current().id(), tid);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn every_index_runs_exactly_once() {
        // Includes fewer items than threads, and more threads than this
        // machine has cores.
        for threads in [4, 8] {
            let pool = Pool::new(threads);
            for items in [0usize, 1, 2, 3, 7, 64, 1000] {
                let counts: Vec<AtomicU64> = (0..items).map(|_| AtomicU64::new(0)).collect();
                pool.run(items, &|i| {
                    counts[i].fetch_add(1, Ordering::Relaxed);
                });
                let seen: Vec<u64> = counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
                assert_eq!(seen, vec![1; items], "{items} items, {threads} threads");
            }
        }
    }

    #[test]
    fn pool_is_reusable_across_epochs() {
        let pool = Pool::new(3);
        let total = AtomicU64::new(0);
        for _ in 0..50 {
            pool.run(10, &|i| {
                total.fetch_add(i as u64 + 1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::Relaxed), 50 * 55);
    }

    #[test]
    fn sweep_collects_results_in_job_order() {
        let pool = Pool::new(4);
        let jobs: Vec<_> = (0..100).map(|i| move || i * i).collect();
        let out = sweep(&pool, jobs);
        assert_eq!(out.len(), 100);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
    }

    #[test]
    fn sweep_moves_non_copy_results() {
        let pool = Pool::new(2);
        let jobs: Vec<_> = (0..10).map(|i| move || vec![i; i + 1]).collect();
        let out = sweep(&pool, jobs);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(v.len(), i + 1);
        }
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = Pool::new(4);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(64, &|i| {
                if i == 13 {
                    panic!("boom at 13");
                }
            });
        }));
        let payload = result.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("boom at 13"), "got {msg:?}");
        // The pool must survive a panicked epoch.
        let hits = AtomicUsize::new(0);
        pool.run(4, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn vt_threads_env_is_respected() {
        // `default_threads` reads the environment on every call; spot-check
        // the parse paths without mutating global env (other tests run in
        // parallel in this binary).
        let n = default_threads();
        assert!(n >= 1);
    }
}
