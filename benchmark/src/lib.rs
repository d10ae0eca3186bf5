//! `vt-perf`: the repository's benchmark. Six paper-scale workloads over
//! the Virtual Thread simulator, each checked cell by cell against the
//! `vt-isa` interpreter and against its own earlier passes, timed from
//! outside through the crates' public functions.
//!
//! `README.md` beside this crate says what each workload and metric is
//! for; `BENCHMARK.json` at the repository root declares them.
#![forbid(unsafe_code)]

pub mod cells;
mod check;
pub mod drivers;
pub mod metrics;
pub mod report;
pub mod runner;
pub mod span;
pub mod spec;
