//! Run statistics: performance, occupancy, stall breakdown and swap
//! activity — everything the paper's figures are built from.

use crate::hotspots::PcProfile;
use vt_json::{impl_json, Count, Json};
use vt_mem::MemStats;
use vt_trace::{Gauge, Histogram, MetricsRegistry};

/// Why an SM issued nothing in a cycle. One bucket is charged per SM-cycle
/// with zero issues; the buckets are mutually exclusive by the listed
/// precedence.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdleBreakdown {
    /// No warp resident at all (SM drained near kernel end or start).
    pub no_warps: u64,
    /// Every otherwise-ready warp was blocked waiting for a global-memory
    /// result — the stall VT attacks.
    pub memory: u64,
    /// Blocked on short ALU/SFU dependencies (scoreboard, no memory
    /// involvement).
    pub pipeline: u64,
    /// All unfinished warps were waiting at a barrier.
    pub barrier: u64,
    /// Active CTAs were mid context switch.
    pub swapping: u64,
    /// Anything else (e.g. LD/ST queue back-pressure).
    pub other: u64,
}

impl IdleBreakdown {
    /// Total idle SM-cycles.
    pub fn total(&self) -> u64 {
        self.no_warps + self.memory + self.pipeline + self.barrier + self.swapping + self.other
    }

    /// Adds another breakdown into this one.
    pub fn merge(&mut self, o: &IdleBreakdown) {
        self.no_warps += o.no_warps;
        self.memory += o.memory;
        self.pipeline += o.pipeline;
        self.barrier += o.barrier;
        self.swapping += o.swapping;
        self.other += o.other;
    }
}

impl_json!(IdleBreakdown {
    no_warps: Count,
    memory: Count,
    pipeline: Count,
    barrier: Count,
    swapping: Count,
    other: Count,
});

/// Why an SM-cycle had *no resident warps at all* — the sub-split of
/// [`IdleBreakdown::no_warps`]. One bucket is charged per empty SM-cycle,
/// so `EmptyBreakdown::total() == idle.no_warps` exactly.
///
/// While undispatched CTAs remain, an empty SM is starved by whichever
/// limit family governs admission for this run (see
/// `vt_isa::limits::CtaBounds::limiter`): the scheduling limit (CTA/warp
/// slots — what Virtual Thread lifts) or the capacity limit (registers /
/// shared memory / context buffer). Once the grid is fully dispatched the
/// emptiness is just the end-of-kernel drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EmptyBreakdown {
    /// Empty while work remained and admission was bound by the
    /// scheduling limit (CTA or warp slots).
    pub scheduling: u64,
    /// Empty while work remained and admission was bound by the capacity
    /// limit (registers, shared memory, or the VT context buffer).
    pub capacity: u64,
    /// Empty with the grid fully dispatched (kernel-end drain, or the
    /// pre-dispatch cycle at kernel start counts toward the binding limit
    /// only while CTAs are still undispatched).
    pub drain: u64,
}

impl EmptyBreakdown {
    /// Total empty SM-cycles; equals [`IdleBreakdown::no_warps`].
    pub fn total(&self) -> u64 {
        self.scheduling + self.capacity + self.drain
    }

    /// Adds another breakdown into this one.
    pub fn merge(&mut self, o: &EmptyBreakdown) {
        self.scheduling += o.scheduling;
        self.capacity += o.capacity;
        self.drain += o.drain;
    }
}

impl_json!(EmptyBreakdown {
    scheduling: Count,
    capacity: Count,
    drain: Count
});

/// One kernel run's hierarchical cycle-accounting stack — every SM-cycle
/// attributed to exactly one leaf bucket. Derived from [`RunStats`] by
/// [`RunStats::cpi_stack`]; the conservation identity
/// `CpiStack::total() == num_sms × cycles` (`occupancy.sm_cycles`) holds
/// exactly because the idle and empty identities do.
///
/// Hierarchy: `issued`; `stalled → {memory, pipeline, barrier, swap,
/// structural}` (warps resident but none issued); `empty →
/// {scheduling, capacity, drain}` (no warps resident at all).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpiStack {
    /// SM-cycles in which at least one instruction issued.
    pub issued: u64,
    /// Stalled on an outstanding global-memory result.
    pub stall_memory: u64,
    /// Stalled on short ALU/SFU scoreboard dependencies.
    pub stall_pipeline: u64,
    /// All unfinished warps waiting at a barrier.
    pub stall_barrier: u64,
    /// Active CTAs mid context switch.
    pub stall_swap: u64,
    /// Structural hazards (LD/ST queue, SFU interval, scheduler
    /// partition imbalance) and anything unclassified.
    pub stall_structural: u64,
    /// Empty, starved by the scheduling limit with work left.
    pub empty_scheduling: u64,
    /// Empty, starved by the capacity limit with work left.
    pub empty_capacity: u64,
    /// Empty, grid fully dispatched (end-of-kernel drain).
    pub empty_drain: u64,
}

impl CpiStack {
    /// The bucket names and values in canonical (report) order.
    pub fn buckets(&self) -> [(&'static str, u64); 9] {
        [
            ("issued", self.issued),
            ("stall_memory", self.stall_memory),
            ("stall_pipeline", self.stall_pipeline),
            ("stall_barrier", self.stall_barrier),
            ("stall_swap", self.stall_swap),
            ("stall_structural", self.stall_structural),
            ("empty_scheduling", self.empty_scheduling),
            ("empty_capacity", self.empty_capacity),
            ("empty_drain", self.empty_drain),
        ]
    }

    /// Total attributed SM-cycles; equals `num_sms × cycles`.
    pub fn total(&self) -> u64 {
        self.buckets().iter().map(|&(_, v)| v).sum()
    }

    /// Stalled SM-cycles (warps resident, none issued).
    pub fn stalled(&self) -> u64 {
        self.stall_memory
            + self.stall_pipeline
            + self.stall_barrier
            + self.stall_swap
            + self.stall_structural
    }

    /// Empty SM-cycles (no resident warps).
    pub fn empty(&self) -> u64 {
        self.empty_scheduling + self.empty_capacity + self.empty_drain
    }

    /// Serializes the stack with named buckets plus the totals.
    pub fn to_json(&self) -> Json {
        let mut fields: Vec<(String, Json)> = self
            .buckets()
            .iter()
            .map(|&(n, v)| (n.to_string(), Json::UInt(v)))
            .collect();
        fields.push(("sm_cycles".into(), Json::UInt(self.total())));
        Json::Object(fields)
    }
}

/// Time-integrated resource occupancy, accumulated once per SM-cycle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OccupancyAccum {
    /// Σ resident warps over SM-cycles.
    pub resident_warp_cycles: u64,
    /// Σ active (schedulable) warps over SM-cycles.
    pub active_warp_cycles: u64,
    /// Σ resident CTAs over SM-cycles.
    pub resident_cta_cycles: u64,
    /// Σ active CTAs over SM-cycles.
    pub active_cta_cycles: u64,
    /// Σ allocated register bytes over SM-cycles.
    pub reg_byte_cycles: u64,
    /// Σ allocated shared-memory bytes over SM-cycles.
    pub smem_byte_cycles: u64,
    /// SM-cycles accumulated (num_sms × cycles).
    pub sm_cycles: u64,
}

impl OccupancyAccum {
    /// Mean resident warps per SM.
    pub fn avg_resident_warps(&self) -> f64 {
        ratio(self.resident_warp_cycles, self.sm_cycles)
    }

    /// Mean active warps per SM.
    pub fn avg_active_warps(&self) -> f64 {
        ratio(self.active_warp_cycles, self.sm_cycles)
    }

    /// Mean resident CTAs per SM.
    pub fn avg_resident_ctas(&self) -> f64 {
        ratio(self.resident_cta_cycles, self.sm_cycles)
    }

    /// Mean register-file utilisation (0..1) given the file size.
    pub fn reg_utilization(&self, regfile_bytes: u32) -> f64 {
        ratio(
            self.reg_byte_cycles,
            self.sm_cycles * u64::from(regfile_bytes),
        )
    }

    /// Mean shared-memory utilisation (0..1) given the scratchpad size.
    pub fn smem_utilization(&self, smem_bytes: u32) -> f64 {
        ratio(
            self.smem_byte_cycles,
            self.sm_cycles * u64::from(smem_bytes),
        )
    }

    /// Mean thread-slot utilisation (0..1) given the warp slots, counting
    /// *active* warps (the ones occupying scheduling structures).
    pub fn thread_slot_utilization(&self, max_warps: u32) -> f64 {
        ratio(
            self.active_warp_cycles,
            self.sm_cycles * u64::from(max_warps),
        )
    }

    /// Adds another accumulator into this one.
    pub fn merge(&mut self, o: &OccupancyAccum) {
        self.resident_warp_cycles += o.resident_warp_cycles;
        self.active_warp_cycles += o.active_warp_cycles;
        self.resident_cta_cycles += o.resident_cta_cycles;
        self.active_cta_cycles += o.active_cta_cycles;
        self.reg_byte_cycles += o.reg_byte_cycles;
        self.smem_byte_cycles += o.smem_byte_cycles;
        self.sm_cycles += o.sm_cycles;
    }
}

impl_json!(OccupancyAccum {
    resident_warp_cycles: Count,
    active_warp_cycles: Count,
    resident_cta_cycles: Count,
    active_cta_cycles: Count,
    reg_byte_cycles: Count,
    smem_byte_cycles: Count,
    sm_cycles: Count,
});

/// CTA context-switch activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwapStats {
    /// CTAs switched out.
    pub swaps_out: u64,
    /// CTAs switched in (activated from the swapped-out state).
    pub swaps_in: u64,
    /// Fresh CTAs activated into a slot vacated by a swap or completion.
    pub fresh_activations: u64,
    /// SM-cycles any CTA spent mid-switch.
    pub swap_busy_cycles: u64,
}

impl SwapStats {
    /// Adds another block into this one.
    pub fn merge(&mut self, o: &SwapStats) {
        self.swaps_out += o.swaps_out;
        self.swaps_in += o.swaps_in;
        self.fresh_activations += o.fresh_activations;
        self.swap_busy_cycles += o.swap_busy_cycles;
    }
}

impl_json!(SwapStats {
    swaps_out: Count,
    swaps_in: Count,
    fresh_activations: Count,
    swap_busy_cycles: Count,
});

/// Complete statistics of one simulated kernel run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Cycles the kernel took.
    pub cycles: u64,
    /// Warp instructions issued.
    pub warp_instrs: u64,
    /// Thread instructions executed (warp instruction × active lanes).
    pub thread_instrs: u64,
    /// Divergent branches resolved.
    pub divergent_branches: u64,
    /// Barrier instructions executed (warp granularity).
    pub barriers: u64,
    /// CTAs completed.
    pub ctas_completed: u64,
    /// SM-cycles in which at least one instruction issued. Complements
    /// [`RunStats::idle`]: `idle.total() + issue_cycles ==
    /// occupancy.sm_cycles` exactly.
    pub issue_cycles: u64,
    /// Idle-cycle classification.
    pub idle: IdleBreakdown,
    /// Sub-split of `idle.no_warps`: why the SM was empty
    /// (`empty.total() == idle.no_warps` exactly).
    pub empty: EmptyBreakdown,
    /// Time-integrated occupancy.
    pub occupancy: OccupancyAccum,
    /// Context-switch activity.
    pub swaps: SwapStats,
    /// Memory-hierarchy statistics.
    pub mem: MemStats,
    /// Deepest SIMT stack observed.
    pub max_simt_depth: usize,
    /// Distribution of swap-in/out transfer durations in cycles (the
    /// configured save/restore costs, weighted by how often each fired).
    pub swap_duration: Histogram,
    /// Distribution of inactive gaps: cycles a swapped-out CTA waited
    /// between losing its slot and starting its swap back in.
    pub swap_gap: Histogram,
    /// Distribution of per-warp barrier wait times in cycles.
    pub barrier_wait: Histogram,
    /// LD/ST queue depth, sampled once per SM-cycle.
    pub ldst_queue: Gauge,
    /// Cycle-windowed metric series, if sampling was enabled
    /// (`CoreConfig::metrics_window`).
    pub series: Option<MetricsRegistry>,
    /// Per-PC hotspot profile, if profiling was enabled
    /// (`CoreConfig::profile`).
    pub hotspots: Option<PcProfile>,
}

impl RunStats {
    /// Thread instructions per cycle — the paper's IPC metric.
    pub fn ipc(&self) -> f64 {
        ratio(self.thread_instrs, self.cycles)
    }

    /// The windowed metric series, when the run was metered.
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.series.as_ref()
    }

    /// The hierarchical cycle-accounting stack of this run. Conservation:
    /// `cpi_stack().total() == occupancy.sm_cycles == num_sms × cycles`.
    pub fn cpi_stack(&self) -> CpiStack {
        CpiStack {
            issued: self.issue_cycles,
            stall_memory: self.idle.memory,
            stall_pipeline: self.idle.pipeline,
            stall_barrier: self.idle.barrier,
            stall_swap: self.idle.swapping,
            stall_structural: self.idle.other,
            empty_scheduling: self.empty.scheduling,
            empty_capacity: self.empty.capacity,
            empty_drain: self.empty.drain,
        }
    }

    /// Checks a restored block charged exactly `sm_cycles` SM-cycles: each
    /// one issued or idle in exactly one bucket, every no-warps cycle in
    /// one empty bucket, and each one in the occupancy integral. Counters
    /// are decoded at most 2^53, so the sums cannot overflow.
    pub(crate) fn check_charged(&self, sm_cycles: u64) -> Result<(), String> {
        let charged = self.issue_cycles + self.idle.total();
        if charged != sm_cycles || self.occupancy.sm_cycles != sm_cycles {
            return Err(format!(
                "stats: {charged} SM-cycles issued or idle and {} in the occupancy \
                 integral, expected {sm_cycles}",
                self.occupancy.sm_cycles
            ));
        }
        if self.empty.total() != self.idle.no_warps {
            return Err(format!(
                "stats: {} empty SM-cycles split into {}",
                self.idle.no_warps,
                self.empty.total()
            ));
        }
        Ok(())
    }

    /// Adds another stats block into this one. Counters add, distributions
    /// merge, `cycles` and `max_simt_depth` take the maximum, and the
    /// metric series (a whole-GPU product of the sampler, not a per-SM
    /// quantity) is kept from `self`. The per-PC profile merges
    /// additively (each SM lane carries its own slice of it). The engine
    /// uses this to fold per-SM stat lanes into the run total; because
    /// every field is either additive or a max, the fold is independent
    /// of lane order.
    pub fn merge(&mut self, o: &RunStats) {
        self.cycles = self.cycles.max(o.cycles);
        self.warp_instrs += o.warp_instrs;
        self.thread_instrs += o.thread_instrs;
        self.divergent_branches += o.divergent_branches;
        self.barriers += o.barriers;
        self.ctas_completed += o.ctas_completed;
        self.issue_cycles += o.issue_cycles;
        self.idle.merge(&o.idle);
        self.empty.merge(&o.empty);
        self.occupancy.merge(&o.occupancy);
        self.swaps.merge(&o.swaps);
        self.mem.merge(&o.mem);
        self.max_simt_depth = self.max_simt_depth.max(o.max_simt_depth);
        self.swap_duration.merge(&o.swap_duration);
        self.swap_gap.merge(&o.swap_gap);
        self.barrier_wait.merge(&o.barrier_wait);
        self.ldst_queue.merge(&o.ldst_queue);
        match (&mut self.hotspots, &o.hotspots) {
            (Some(a), Some(b)) => a.merge(b),
            (h @ None, Some(b)) => *h = Some(b.clone()),
            (_, None) => {}
        }
    }

    /// Warp instructions per cycle.
    pub fn warp_ipc(&self) -> f64 {
        ratio(self.warp_instrs, self.cycles)
    }
}

impl_json!(RunStats {
    cycles: Count,
    warp_instrs: Count,
    thread_instrs: Count,
    divergent_branches: Count,
    barriers: Count,
    ctas_completed: Count,
    issue_cycles: Count,
    idle,
    empty,
    occupancy,
    swaps,
    mem,
    max_simt_depth,
    swap_duration,
    swap_gap,
    barrier_wait,
    ldst_queue,
    series as "metrics",
    hotspots,
});

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_json::{FromJson, ToJson};

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(RunStats::default().ipc(), 0.0);
    }

    #[test]
    fn occupancy_ratios() {
        let o = OccupancyAccum {
            resident_warp_cycles: 200,
            active_warp_cycles: 100,
            resident_cta_cycles: 40,
            active_cta_cycles: 20,
            reg_byte_cycles: 1000,
            smem_byte_cycles: 500,
            sm_cycles: 10,
        };
        assert_eq!(o.avg_resident_warps(), 20.0);
        assert_eq!(o.avg_active_warps(), 10.0);
        assert_eq!(o.avg_resident_ctas(), 4.0);
        assert_eq!(o.reg_utilization(100), 1.0);
        assert_eq!(o.smem_utilization(100), 0.5);
        assert!((o.thread_slot_utilization(48) - 10.0 / 48.0).abs() < 1e-12);
    }

    #[test]
    fn metered_stats_roundtrip_through_snapshot() {
        let mut m = MetricsRegistry::new(64);
        let r = m.rate("warp_instrs", None);
        m.sample_total(r, 7);
        m.seal();
        let stats = RunStats {
            cycles: 64,
            warp_instrs: 7,
            series: Some(m),
            ..RunStats::default()
        };
        let text = stats.to_json().compact();
        let back = RunStats::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, stats);
        assert_eq!(back.metrics().unwrap().windows(), 1);
    }

    #[test]
    fn cpi_stack_mirrors_the_breakdowns() {
        let stats = RunStats {
            cycles: 100,
            issue_cycles: 60,
            idle: IdleBreakdown {
                no_warps: 10,
                memory: 20,
                pipeline: 4,
                barrier: 3,
                swapping: 2,
                other: 1,
            },
            empty: EmptyBreakdown {
                scheduling: 6,
                capacity: 0,
                drain: 4,
            },
            ..RunStats::default()
        };
        let cpi = stats.cpi_stack();
        assert_eq!(cpi.issued, 60);
        assert_eq!(cpi.stalled(), 30);
        assert_eq!(cpi.empty(), 10);
        assert_eq!(cpi.total(), stats.issue_cycles + stats.idle.total());
        assert_eq!(stats.empty.total(), stats.idle.no_warps);
        let j = cpi.to_json();
        assert_eq!(j.get("empty_scheduling").and_then(Json::as_u64), Some(6));
        assert_eq!(j.get("sm_cycles").and_then(Json::as_u64), Some(100));
    }

    #[test]
    fn merges_add_up() {
        let mut a = IdleBreakdown {
            memory: 5,
            ..Default::default()
        };
        a.merge(&IdleBreakdown {
            memory: 3,
            barrier: 1,
            ..Default::default()
        });
        assert_eq!(a.memory, 8);
        assert_eq!(a.total(), 9);

        let mut s = SwapStats {
            swaps_out: 1,
            ..Default::default()
        };
        s.merge(&SwapStats {
            swaps_out: 2,
            swaps_in: 2,
            ..Default::default()
        });
        assert_eq!(s.swaps_out, 3);
        assert_eq!(s.swaps_in, 2);
    }
}
