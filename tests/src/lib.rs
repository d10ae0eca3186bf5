//! Shared helpers for the workspace's integration tests.
#![forbid(unsafe_code)]

use vt_core::{Architecture, CoreConfig, Gpu, GpuConfig, MemConfig, Report};
use vt_isa::Kernel;

/// A 2-SM configuration that keeps integration-test runs fast while still
/// exercising multi-SM dispatch, the shared L2 and DRAM contention.
pub fn small_config(arch: Architecture) -> GpuConfig {
    GpuConfig {
        core: CoreConfig {
            num_sms: 2,
            ..CoreConfig::default()
        },
        mem: MemConfig::default(),
        arch,
    }
}

/// Runs `kernel` under `arch` on the small test configuration.
///
/// # Panics
///
/// Panics on simulation failure — integration-test kernels are valid by
/// construction.
pub fn run(arch: Architecture, kernel: &Kernel) -> Report {
    Gpu::new(small_config(arch))
        .run(kernel)
        .unwrap_or_else(|e| panic!("{} under {}: {e}", kernel.name(), arch.label()))
}

pub mod golden {
    //! Exact-integer JSON snapshots of run statistics, shared by the
    //! golden-stats tests and anything else that wants a drift-sensitive
    //! fingerprint of a run. Every counter is emitted verbatim (no floats
    //! derived from them), so two snapshots are equal iff the underlying
    //! `RunStats`/`MemStats` are bit-identical.

    use vt_core::{Report, RunStats};
    use vt_json::Json;
    use vt_mem::MemStats;
    use vt_trace::{Gauge, Histogram};

    /// A histogram as exact integers: non-empty buckets as
    /// `[index, count]` pairs plus the count/sum/min/max counters. An
    /// empty histogram keeps its sentinel `min` (`u64::MAX`) so emptiness
    /// is visible in the snapshot.
    pub fn hist_json(h: &Histogram) -> Json {
        let buckets: Vec<Json> = h
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| Json::Array(vec![Json::UInt(i as u64), Json::UInt(c)]))
            .collect();
        Json::object(vec![
            ("buckets".into(), Json::Array(buckets)),
            ("count".into(), Json::UInt(h.count)),
            ("sum".into(), Json::UInt(h.sum)),
            ("min".into(), Json::UInt(h.min)),
            ("max".into(), Json::UInt(h.max)),
        ])
    }

    /// A gauge's three exact counters.
    pub fn gauge_json(g: &Gauge) -> Json {
        Json::object(vec![
            ("samples".into(), Json::UInt(g.samples)),
            ("sum".into(), Json::UInt(g.sum)),
            ("max".into(), Json::UInt(g.max)),
        ])
    }

    /// Every `MemStats` field, exactly.
    pub fn mem_stats_json(m: &MemStats) -> Json {
        Json::object(vec![
            ("l1_accesses".into(), Json::UInt(m.l1_accesses)),
            ("l1_hits".into(), Json::UInt(m.l1_hits)),
            ("l1_misses".into(), Json::UInt(m.l1_misses)),
            ("l1_mshr_merged".into(), Json::UInt(m.l1_mshr_merged)),
            ("l1_stalls".into(), Json::UInt(m.l1_stalls)),
            ("stores".into(), Json::UInt(m.stores)),
            ("atomics".into(), Json::UInt(m.atomics)),
            ("l2_accesses".into(), Json::UInt(m.l2_accesses)),
            ("l2_hits".into(), Json::UInt(m.l2_hits)),
            ("l2_misses".into(), Json::UInt(m.l2_misses)),
            ("dram_reads".into(), Json::UInt(m.dram_reads)),
            ("dram_writes".into(), Json::UInt(m.dram_writes)),
            ("dram_row_hits".into(), Json::UInt(m.dram_row_hits)),
            ("dram_row_misses".into(), Json::UInt(m.dram_row_misses)),
            ("load_latency_sum".into(), Json::UInt(m.load_latency_sum)),
            ("loads_completed".into(), Json::UInt(m.loads_completed)),
            ("load_latency".into(), hist_json(&m.load_latency)),
            ("mshr_occupancy".into(), gauge_json(&m.mshr_occupancy)),
        ])
    }

    /// Every `RunStats` field, exactly (the metric series are omitted:
    /// golden runs never enable sampling).
    pub fn stats_json(s: &RunStats) -> Json {
        Json::object(vec![
            ("cycles".into(), Json::UInt(s.cycles)),
            ("warp_instrs".into(), Json::UInt(s.warp_instrs)),
            ("thread_instrs".into(), Json::UInt(s.thread_instrs)),
            (
                "divergent_branches".into(),
                Json::UInt(s.divergent_branches),
            ),
            ("barriers".into(), Json::UInt(s.barriers)),
            ("ctas_completed".into(), Json::UInt(s.ctas_completed)),
            ("issue_cycles".into(), Json::UInt(s.issue_cycles)),
            (
                "idle".into(),
                Json::object(vec![
                    ("no_warps".into(), Json::UInt(s.idle.no_warps)),
                    ("memory".into(), Json::UInt(s.idle.memory)),
                    ("pipeline".into(), Json::UInt(s.idle.pipeline)),
                    ("barrier".into(), Json::UInt(s.idle.barrier)),
                    ("swapping".into(), Json::UInt(s.idle.swapping)),
                    ("other".into(), Json::UInt(s.idle.other)),
                ]),
            ),
            (
                "empty".into(),
                Json::object(vec![
                    ("scheduling".into(), Json::UInt(s.empty.scheduling)),
                    ("capacity".into(), Json::UInt(s.empty.capacity)),
                    ("drain".into(), Json::UInt(s.empty.drain)),
                ]),
            ),
            (
                "occupancy".into(),
                Json::object(vec![
                    (
                        "resident_warp_cycles".into(),
                        Json::UInt(s.occupancy.resident_warp_cycles),
                    ),
                    (
                        "active_warp_cycles".into(),
                        Json::UInt(s.occupancy.active_warp_cycles),
                    ),
                    (
                        "resident_cta_cycles".into(),
                        Json::UInt(s.occupancy.resident_cta_cycles),
                    ),
                    (
                        "active_cta_cycles".into(),
                        Json::UInt(s.occupancy.active_cta_cycles),
                    ),
                    (
                        "reg_byte_cycles".into(),
                        Json::UInt(s.occupancy.reg_byte_cycles),
                    ),
                    (
                        "smem_byte_cycles".into(),
                        Json::UInt(s.occupancy.smem_byte_cycles),
                    ),
                    ("sm_cycles".into(), Json::UInt(s.occupancy.sm_cycles)),
                ]),
            ),
            (
                "swaps".into(),
                Json::object(vec![
                    ("swaps_out".into(), Json::UInt(s.swaps.swaps_out)),
                    ("swaps_in".into(), Json::UInt(s.swaps.swaps_in)),
                    (
                        "fresh_activations".into(),
                        Json::UInt(s.swaps.fresh_activations),
                    ),
                    (
                        "swap_busy_cycles".into(),
                        Json::UInt(s.swaps.swap_busy_cycles),
                    ),
                ]),
            ),
            ("mem".into(), mem_stats_json(&s.mem)),
            ("max_simt_depth".into(), Json::UInt(s.max_simt_depth as u64)),
            ("swap_duration".into(), hist_json(&s.swap_duration)),
            ("swap_gap".into(), hist_json(&s.swap_gap)),
            ("barrier_wait".into(), hist_json(&s.barrier_wait)),
            ("ldst_queue".into(), gauge_json(&s.ldst_queue)),
        ])
    }

    /// FNV-1a over the final memory image, so functional drift is caught
    /// even when it doesn't move a counter.
    pub fn image_fingerprint(words: &[u32]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for w in words {
            for b in w.to_le_bytes() {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// The full golden snapshot of one run.
    pub fn report_json(r: &Report) -> Json {
        Json::object(vec![
            ("kernel".into(), Json::Str(r.kernel.clone())),
            ("arch".into(), Json::Str(r.arch.label().to_string())),
            ("stats".into(), stats_json(&r.stats)),
            (
                "mem_image_words".into(),
                Json::UInt(r.mem_image.as_words().len() as u64),
            ),
            (
                "mem_image_fnv1a".into(),
                Json::Str(format!(
                    "{:016x}",
                    image_fingerprint(r.mem_image.as_words())
                )),
            ),
        ])
    }
}

pub mod checkpoints {
    //! Checkpoint cuts of the suite kernels under a geometry where the
    //! swapping architectures really swap, shared by the checkpoint
    //! golden, re-encoding and fuzzing tests.

    use vt_core::{Architecture, CoreConfig, MemConfig, RunBudget, RunOutcome};
    use vt_isa::Kernel;
    use vt_sim::{Checkpoint, GpuSim, SimConfig};
    use vt_trace::NullSink;

    /// Two SMs limited to two CTA slots each, so the six-CTA test grid
    /// oversubscribes them and VT swaps. `observed` turns the metrics
    /// window and the per-PC profile on, so their state rides in the
    /// checkpoint too. Small caches keep the cache tag arrays from
    /// dominating the text.
    pub fn swap_config(kernel: &Kernel, arch: Architecture, observed: bool) -> SimConfig {
        let mut core = CoreConfig {
            num_sms: 2,
            max_ctas_per_sm: 2,
            metrics_window: observed.then_some(64),
            profile: observed,
            ..CoreConfig::default()
        };
        core.max_warps_per_sm = core.max_ctas_per_sm * kernel.warps_per_cta();
        let mem = MemConfig {
            l1_bytes: 1024,
            partitions: 2,
            l2_slice_bytes: 4 * 1024,
            ..MemConfig::default()
        };
        SimConfig {
            residency: arch.residency_for(kernel, &core, &mem),
            core,
            mem,
        }
    }

    /// Cycles an uninterrupted run of `kernel` under `cfg` takes.
    ///
    /// # Panics
    ///
    /// Panics if the run fails.
    pub fn run_cycles(cfg: &SimConfig, kernel: &Kernel) -> u64 {
        GpuSim::new(cfg, kernel)
            .and_then(GpuSim::run)
            .unwrap_or_else(|e| panic!("{}: {e}", kernel.name()))
            .stats
            .cycles
    }

    /// The checkpoint of a run of `kernel` under `cfg` cut after `cycles`
    /// cycles.
    ///
    /// # Panics
    ///
    /// Panics if the run fails or completes inside `cycles`.
    pub fn cut(cfg: &SimConfig, kernel: &Kernel, cycles: u64) -> Checkpoint {
        let budget = RunBudget::unlimited().with_max_cycles(cycles);
        match GpuSim::new(cfg, kernel).and_then(|s| s.execute(None, &mut NullSink, &budget, None)) {
            Ok(RunOutcome::Truncated(t)) => t.checkpoint,
            Ok(RunOutcome::Completed(_)) => {
                panic!("{} completed inside {cycles} cycles", kernel.name())
            }
            Err(e) => panic!("{}: {e}", kernel.name()),
        }
    }
}
