//! What the benchmark is made of: the six workloads and every metric
//! name with its unit. `BENCHMARK.json` declares the same names (with
//! direction and bound); `tests/contract.rs` keeps the two in step.

/// How a workload drives the simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Every kernel under baseline and vt through `Session::sweep` on a
    /// two-worker pool; no seeded tail.
    Grid,
    /// One `Session::run` per cell, no pool.
    Single,
    /// One `Session::run` per cell with a two-worker pool attached (the
    /// per-cycle SM-parallel engine).
    SmParallel,
    /// Every observer on, executed in `RunBudget` slices with the
    /// checkpoint text codec in the loop.
    Sliced,
}

/// Which kernel class a workload's seeded tail is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailClass {
    /// Uncoalesced or contended memory traffic, little arithmetic.
    MemStalled,
    /// Long dependent ALU chains per load.
    ComputeBound,
    /// Small latency-bound CTAs, so CTA slots bind and VT swaps.
    SwapHeavy,
}

/// One workload: a fixed kernel list from the suite plus how to run it.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name on the command line and in every output.
    pub name: &'static str,
    /// Execution shape.
    pub kind: Kind,
    /// Suite kernels, in canonical (digest) order.
    pub kernels: &'static [&'static str],
    /// Class of the two seeded tail kernels; `None` for the grid.
    pub tail: Option<TailClass>,
}

/// The 14 kernels the paper's headline speed-up is a geomean over.
const CORE14: &[&str] = &[
    "bfs",
    "kmeans",
    "hotspot",
    "sgemm",
    "spmv",
    "stencil",
    "pathfinder",
    "backprop",
    "histo",
    "lbm",
    "nw",
    "srad",
    "reduction",
    "streamcluster",
];

const SWAP_KERNELS: &[&str] = &["kmeans", "streamcluster", "bfs", "stencil", "nw"];

/// The six workloads. The one-line reasons are in `BENCHMARK.json`; the
/// longer ones, with the layer each is meant to isolate, in `README.md`.
pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "paper_grid",
        kind: Kind::Grid,
        kernels: CORE14,
        tail: None,
    },
    WorkloadDef {
        name: "mem_stalled",
        kind: Kind::Single,
        kernels: &["spmv", "histo", "lbm", "hotbins", "bankstorm"],
        tail: Some(TailClass::MemStalled),
    },
    WorkloadDef {
        name: "compute_bound",
        kind: Kind::Single,
        kernels: &["sgemm", "backprop", "hotspot", "pathfinder", "srad"],
        tail: Some(TailClass::ComputeBound),
    },
    WorkloadDef {
        name: "swap_heavy",
        kind: Kind::Single,
        kernels: SWAP_KERNELS,
        tail: Some(TailClass::SwapHeavy),
    },
    WorkloadDef {
        name: "sm_parallel",
        kind: Kind::SmParallel,
        kernels: SWAP_KERNELS,
        tail: Some(TailClass::SwapHeavy),
    },
    WorkloadDef {
        name: "observed_sliced",
        kind: Kind::Sliced,
        kernels: &["streamcluster", "bfs", "spmv", "backprop"],
        tail: Some(TailClass::SwapHeavy),
    },
];

/// Looks a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Worker threads of the pool a workload attaches (1 = no pool).
pub fn workers(kind: Kind) -> usize {
    match kind {
        Kind::Grid | Kind::SmParallel => 2,
        Kind::Single | Kind::Sliced => 1,
    }
}

/// End-to-end metrics, reported by every workload with tracing off.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("sm_cycles_per_s", "1/s"),
    ("warp_instrs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles", "cycles"),
];

/// End-to-end metrics that are simulated counts: identical on every run
/// of one commit, so `--compare` requires them equal.
pub const EXACT: &[&str] = &["sim_cycles"];

/// Per-layer metrics, reported by every workload's traced run. A metric
/// that does not exist on a workload (say, checkpoint timings where no
/// checkpoint is cut) reads 0 there; `README.md` lists which those are.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("workloads.image_mb", "MB"),
    ("isa.interp_s", "s"),
    ("isa.interp_warp_instrs_per_s", "1/s"),
    ("isa.simt_diverge_ns", "ns"),
    ("mem.coalesce_ns.unit", "ns"),
    ("mem.coalesce_ns.strided", "ns"),
    ("mem.coalesce_ns.random", "ns"),
    ("mem.bank_conflict_ns", "ns"),
    ("mem.cache_probe_fill_ns", "ns"),
    ("mem.mshr_alloc_fill_ns", "ns"),
    ("mem.tick_idle_ns", "ns"),
    ("mem.tick_loaded_ns", "ns"),
    ("mem.req_ns", "ns"),
    ("mem.load_roundtrip_cycles", "cycles"),
    ("mem.requests_per_warp_instr", "ratio"),
    ("mem.l1_hit_rate", "ratio"),
    ("mem.l2_hit_rate", "ratio"),
    ("mem.dram_row_hit_rate", "ratio"),
    ("mem.est_share", "ratio"),
    ("sim.new_s", "s"),
    ("sim.execute_s", "s"),
    ("sim.ns_per_sm_cycle", "ns"),
    ("sim.ns_per_warp_instr", "ns"),
    ("sim.ldst_tick_ns", "ns"),
    ("sim.issued_frac", "ratio"),
    ("sim.stall_memory_frac", "ratio"),
    ("sim.stall_swap_frac", "ratio"),
    ("sim.empty_frac", "ratio"),
    ("sim.swaps_per_kcycle", "1/kcycle"),
    ("sim.resident_over_active_warps", "ratio"),
    ("sim.cuts", "count"),
    ("sim.checkpoint_mb", "MB"),
    ("sim.checkpoint_to_text_ms", "ms"),
    ("sim.checkpoint_parse_ms", "ms"),
    ("sim.resume_ms", "ms"),
    ("core.lower_us", "us"),
    ("core.glue_frac", "ratio"),
    ("core.vt_speedup_core14", "ratio"),
    ("core.vt_speedup_sched", "ratio"),
    ("core.vt_speedup_capacity", "ratio"),
    ("core.vt_speedup_zoo6", "ratio"),
    ("core.vt_speedup_err_pp", "pp"),
    ("par.forkjoin_ns.w1", "ns"),
    ("par.forkjoin_ns.w2", "ns"),
    ("par.sweep_efficiency", "ratio"),
    ("par.sm_engine_slowdown", "ratio"),
    ("trace.ring_overhead_frac", "ratio"),
    ("trace.metrics_overhead_frac", "ratio"),
    ("trace.profile_overhead_frac", "ratio"),
    ("trace.events_per_s", "1/s"),
    ("trace.chrome_export_ms", "ms"),
    ("trace.prom_export_ms", "ms"),
    ("json.parse_mb_per_s", "MB/s"),
    ("json.pretty_mb_per_s", "MB/s"),
    ("traces.parse_lower_us", "us"),
    ("traces.replay_ms", "ms"),
    ("analysis.model_ms", "ms"),
    ("harness.trace_overhead_frac", "ratio"),
    ("harness.wall_spread_frac", "ratio"),
    ("harness.tail_share", "ratio"),
];

/// The paper's claimed geomean speed-up of VT over the baseline, in
/// percent: the only reference figure the repository holds.
pub const PAPER_VT_GAIN_PCT: f64 = 23.9;
