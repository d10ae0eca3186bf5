//! Turning what a run observed into the declared metrics: exact counts
//! from the warm-up pass's `RunStats`, host times from the timed passes
//! and from the spans of the traced pass.

use crate::cells::{Built, KernelEntry};
use crate::check::{ratio, sum, CellRun};
use crate::span::{self, Span};
use crate::spec::{self, Kind};
use std::collections::BTreeMap;
use vt_core::RunStats;

/// One reported number. `spread` is `(min, max, samples)` for metrics
/// that are a median over timed passes.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value (a median where `spread` is set).
    pub value: f64,
    /// `(min, max, samples)` over the timed passes.
    pub spread: Option<(f64, f64, usize)>,
}

/// Measured values by metric name, before they are laid out in the
/// declared order.
pub(crate) type Values = BTreeMap<&'static str, (f64, Option<(f64, f64, usize)>)>;

pub(crate) fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

pub(crate) fn geomean(xs: impl Iterator<Item = f64>) -> f64 {
    let (n, sum) = xs.fold((0u32, 0.0), |(n, s), x| (n + 1, s + x.ln()));
    if n == 0 {
        0.0
    } else {
        (sum / f64::from(n)).exp()
    }
}

/// `values` in `table`'s order. A per-layer metric that was not measured
/// on this workload reads 0; an end-to-end one must exist.
pub(crate) fn collect(
    table: &[(&'static str, &'static str)],
    values: &Values,
    required: bool,
) -> Vec<Metric> {
    table
        .iter()
        .map(|&(name, unit)| {
            let (value, spread) = values.get(name).copied().unwrap_or_else(|| {
                assert!(!required, "metric {name} was not measured");
                (0.0, None)
            });
            Metric {
                name,
                unit,
                value: if value.is_finite() { value } else { 0.0 },
                spread,
            }
        })
        .collect()
}

/// `VmHWM` of this process in MB (0 where `/proc` does not say).
pub(crate) fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let kb = s.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
            kb.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Geomean over the kernels `keep` selects of baseline ÷ vt cycles
/// (architectures 0 and 1 of the grid).
fn vt_speedup(built: &Built, cells: &[CellRun], keep: impl Fn(&KernelEntry) -> bool) -> f64 {
    let cycles = |k: usize, a: usize| {
        let c = cells.iter().find(|c| c.kernel == k && c.arch == a)?;
        Some(c.stats.as_ref()?.cycles as f64)
    };
    geomean(
        built
            .kernels
            .iter()
            .enumerate()
            .filter(|(_, e)| keep(e))
            .filter_map(|(k, _)| Some(cycles(k, 0)? / cycles(k, 1)?)),
    )
}

/// Exact totals of one pass over all its cells, kept for the metrics
/// that are worked out once the spans are in.
pub(crate) struct Totals {
    pub sm_cycles: u64,
    pub warp_instrs: u64,
    pub cycles: u64,
    /// Requests that went below an L1 (every partition access).
    pub below_l1: u64,
    /// Median host ns of an untraced timed pass over all cells.
    pub untraced_ns: f64,
}

/// The per-layer metrics that are exact counts of the warm-up pass,
/// over all its cells (tail included).
pub(crate) fn from_counts(
    kind: Kind,
    built: &Built,
    cells: &[CellRun],
    untraced_ns: f64,
    values: &mut Values,
) -> Totals {
    let all = |_: &CellRun| true;
    let total = |f: &dyn Fn(&RunStats) -> u64| sum(cells, all, f);
    let t = Totals {
        sm_cycles: total(&|s| s.occupancy.sm_cycles),
        warp_instrs: total(&|s| s.warp_instrs),
        cycles: total(&|s| s.cycles),
        below_l1: total(&|s| s.mem.l2_accesses),
        untraced_ns,
    };
    let mut put = |name: &'static str, v: f64| {
        values.insert(name, (v, None));
    };
    put("workloads.build_s", built.build_s);
    put(
        "workloads.image_mb",
        built
            .kernels
            .iter()
            .map(|e| f64::from(e.kernel.global_mem().byte_len()) / 1e6)
            .sum(),
    );
    put("isa.interp_s", built.interp_s);
    let interp_instrs: u64 = built.kernels.iter().map(|e| e.interp_warp_instrs).sum();
    put(
        "isa.interp_warp_instrs_per_s",
        interp_instrs as f64 / built.interp_s,
    );
    put(
        "mem.requests_per_warp_instr",
        ratio(
            total(&|s| s.mem.l1_accesses + s.mem.stores + s.mem.atomics),
            t.warp_instrs,
        ),
    );
    put(
        "mem.l1_hit_rate",
        ratio(total(&|s| s.mem.l1_hits), total(&|s| s.mem.l1_accesses)),
    );
    put(
        "mem.l2_hit_rate",
        ratio(total(&|s| s.mem.l2_hits), total(&|s| s.mem.l2_accesses)),
    );
    put(
        "mem.dram_row_hit_rate",
        ratio(
            total(&|s| s.mem.dram_row_hits),
            total(&|s| s.mem.dram_row_hits + s.mem.dram_row_misses),
        ),
    );
    let frac = |f: &dyn Fn(&RunStats) -> u64| ratio(total(f), t.sm_cycles);
    put("sim.issued_frac", frac(&|s| s.issue_cycles));
    put("sim.stall_memory_frac", frac(&|s| s.idle.memory));
    put("sim.stall_swap_frac", frac(&|s| s.idle.swapping));
    put("sim.empty_frac", frac(&|s| s.idle.no_warps));
    put(
        "sim.swaps_per_kcycle",
        1e3 * ratio(total(&|s| s.swaps.swaps_out), t.cycles),
    );
    put(
        "sim.resident_over_active_warps",
        ratio(
            total(&|s| s.occupancy.resident_warp_cycles),
            total(&|s| s.occupancy.active_warp_cycles),
        ),
    );
    let cuts: u64 = cells.iter().map(|c| c.cuts).sum();
    put("sim.cuts", cuts as f64);
    put(
        "sim.checkpoint_mb",
        ratio(cells.iter().map(|c| c.ckpt_bytes).sum(), cuts) / 1e6,
    );
    if kind == Kind::Grid {
        let core14 = vt_speedup(built, cells, |_| true);
        put("core.vt_speedup_core14", core14);
        put(
            "core.vt_speedup_sched",
            vt_speedup(built, cells, |e| !e.capacity_limited),
        );
        put(
            "core.vt_speedup_capacity",
            vt_speedup(built, cells, |e| e.capacity_limited),
        );
        put(
            "core.vt_speedup_err_pp",
            (100.0 * (core14 - 1.0) - spec::PAPER_VT_GAIN_PCT).abs(),
        );
    }
    t
}

/// The per-layer metrics that are read off the spans of the traced pass
/// (and, for `mem.est_share`, the drivers' unit costs already in
/// `values`).
pub(crate) fn from_spans(spans: &[Span], kind: Kind, totals: &Totals, values: &mut Values) {
    let own = span::self_times(spans);
    let total = |name: &str| span::total_ns(spans, name) as f64;
    let count = |name: &str| spans.iter().filter(|s| s.name == name).count() as f64;
    let pass_wall = total("pass");
    if pass_wall == 0.0 {
        return;
    }
    // Checks are the harness's own work: they come off both the cells
    // they sit in and the pass.
    let checks_in_cells: f64 = spans
        .iter()
        .filter(|s| s.name == "check" && s.parent.is_some_and(|p| spans[p].name == "cell"))
        .map(|s| s.dur_ns() as f64)
        .sum();
    let cell_busy = total("cell") - checks_in_cells;
    let pass_wall = pass_wall - total("check");
    let cell_self: f64 = spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == "cell")
        .map(|(_, &o)| o as f64)
        .sum();
    let sweep_workers = if kind == Kind::Grid {
        spec::workers(kind) as f64
    } else {
        1.0
    };
    let unit_cost = |name: &str| values.get(name).map_or(0.0, |v| v.0);
    // `mem.req_ns` is the driver's cost of a request that misses the L1
    // (it loads distinct random lines), so it is charged to those only.
    let est_mem_ns = totals.cycles as f64 * unit_cost("mem.tick_idle_ns")
        + totals.below_l1 as f64 * unit_cost("mem.req_ns");
    let mut put = |name: &'static str, v: f64| {
        values.insert(name, (v, None));
    };
    put("mem.est_share", est_mem_ns / cell_busy);
    put("sim.new_s", total("sim.new") / 1e9);
    put("sim.execute_s", total("sim.execute") / 1e9);
    put(
        "sim.ns_per_sm_cycle",
        total("sim.execute") / totals.sm_cycles as f64,
    );
    put(
        "sim.ns_per_warp_instr",
        total("sim.execute") / totals.warp_instrs as f64,
    );
    put(
        "core.lower_us",
        total("core.lower") / 1e3 / count("core.lower"),
    );
    put("core.glue_frac", cell_self / cell_busy);
    put(
        "par.sweep_efficiency",
        cell_busy / (sweep_workers * pass_wall),
    );
    put(
        "harness.trace_overhead_frac",
        pass_wall / totals.untraced_ns - 1.0,
    );
    if kind == Kind::Sliced {
        let per_cut_ms = |name: &str| total(name) / 1e6 / count(name);
        put(
            "sim.checkpoint_to_text_ms",
            per_cut_ms("sim.checkpoint.to_text"),
        );
        put(
            "sim.checkpoint_parse_ms",
            per_cut_ms("sim.checkpoint.parse"),
        );
        put("sim.resume_ms", per_cut_ms("sim.resume"));
    }
}
