//! The engine-side metrics sampler: wires a [`MetricsRegistry`] to the
//! cycle loop.
//!
//! [`MetricsSampler::new`] registers the standard series layout —
//! aggregate rates over the run counters (issued instructions, issue
//! cycles, the idle-reason breakdown, swap traffic, CTA completions),
//! aggregate levels over the residency state (resident/active warps and
//! CTAs, allocated register and shared-memory bytes, MSHR occupancy,
//! partition queues) and a per-window distribution of per-SM issue
//! balance — plus a small per-SM set (issued instructions, resident and
//! active warps, resident CTAs; the last is what the static occupancy
//! model's cross-validation oracle compares its bounds against). The
//! CPI-stack attribution rides along as three aggregate empty-split
//! rates (`cpi_empty_scheduling` / `cpi_empty_capacity` /
//! `cpi_empty_drain`) and a per-SM top level (`cpi_issued` /
//! `cpi_stalled` / `cpi_empty`), windowed under the same conservation
//! identity as the run totals.
//!
//! [`MetricsSampler::seal_window`] runs at the top of the cycle loop
//! whenever `cycle` is a window boundary, *before* the cycle executes, so
//! a window covers exactly `[k·w, (k+1)·w)`. A truncated run returns
//! before the boundary close at the truncation cycle; the resumed run's
//! first boundary seals that same window, so stitched series equal an
//! uninterrupted run's byte-for-byte (rates carry their cumulative
//! baselines inside the registry snapshot).

use crate::sm::Sm;
use crate::stats::RunStats;
use vt_mem::MemSystem;
use vt_trace::{MetricsRegistry, SeriesId, SeriesKind};

/// Per-SM series handles, indexed by SM id.
#[derive(Debug, Clone, Copy)]
struct PerSmIds {
    warp_instrs: SeriesId,
    resident_warps: SeriesId,
    active_warps: SeriesId,
    resident_ctas: SeriesId,
    cpi_issued: SeriesId,
    cpi_stalled: SeriesId,
    cpi_empty: SeriesId,
}

/// Aggregate rate-series handles, one per cumulative run counter.
#[derive(Debug, Clone, Copy)]
struct AggRates {
    warp_instrs: SeriesId,
    thread_instrs: SeriesId,
    issue_cycles: SeriesId,
    idle_no_warps: SeriesId,
    idle_memory: SeriesId,
    idle_pipeline: SeriesId,
    idle_barrier: SeriesId,
    idle_swapping: SeriesId,
    idle_other: SeriesId,
    swaps_in: SeriesId,
    swaps_out: SeriesId,
    ctas_completed: SeriesId,
    cpi_empty_scheduling: SeriesId,
    cpi_empty_capacity: SeriesId,
    cpi_empty_drain: SeriesId,
}

/// Aggregate level-series handles, one per instantaneous quantity.
#[derive(Debug, Clone, Copy)]
struct AggLevels {
    resident_warps: SeriesId,
    active_warps: SeriesId,
    resident_ctas: SeriesId,
    active_ctas: SeriesId,
    reg_bytes: SeriesId,
    smem_bytes: SeriesId,
    mshr_in_flight: SeriesId,
    partition_queue: SeriesId,
}

/// Owns the registry and the series handles for the standard layout.
#[derive(Debug)]
pub struct MetricsSampler {
    registry: MetricsRegistry,
    rates: AggRates,
    levels: AggLevels,
    issue_balance: SeriesId,
    per_sm: Vec<PerSmIds>,
}

impl MetricsSampler {
    /// A fresh sampler sealing a window every `window` cycles, with
    /// per-SM series for `num_sms` SMs.
    pub fn new(window: u64, num_sms: usize) -> MetricsSampler {
        let mut m = MetricsRegistry::new(window);
        let rates = AggRates {
            warp_instrs: m.rate("warp_instrs", None),
            thread_instrs: m.rate("thread_instrs", None),
            issue_cycles: m.rate("issue_cycles", None),
            idle_no_warps: m.rate("idle_no_warps", None),
            idle_memory: m.rate("idle_memory", None),
            idle_pipeline: m.rate("idle_pipeline", None),
            idle_barrier: m.rate("idle_barrier", None),
            idle_swapping: m.rate("idle_swapping", None),
            idle_other: m.rate("idle_other", None),
            swaps_in: m.rate("swaps_in", None),
            swaps_out: m.rate("swaps_out", None),
            ctas_completed: m.rate("ctas_completed", None),
            cpi_empty_scheduling: m.rate("cpi_empty_scheduling", None),
            cpi_empty_capacity: m.rate("cpi_empty_capacity", None),
            cpi_empty_drain: m.rate("cpi_empty_drain", None),
        };
        let levels = AggLevels {
            resident_warps: m.level("resident_warps", None),
            active_warps: m.level("active_warps", None),
            resident_ctas: m.level("resident_ctas", None),
            active_ctas: m.level("active_ctas", None),
            reg_bytes: m.level("reg_bytes", None),
            smem_bytes: m.level("smem_bytes", None),
            mshr_in_flight: m.level("mshr_in_flight", None),
            partition_queue: m.level("partition_queue", None),
        };
        let issue_balance = m.dist("sm_issue_balance", None);
        let per_sm = (0..num_sms)
            .map(|i| {
                let sm = Some(i as u32);
                PerSmIds {
                    warp_instrs: m.rate("warp_instrs", sm),
                    resident_warps: m.level("resident_warps", sm),
                    active_warps: m.level("active_warps", sm),
                    resident_ctas: m.level("resident_ctas", sm),
                    cpi_issued: m.rate("cpi_issued", sm),
                    cpi_stalled: m.rate("cpi_stalled", sm),
                    cpi_empty: m.rate("cpi_empty", sm),
                }
            })
            .collect();
        MetricsSampler {
            registry: m,
            rates,
            levels,
            issue_balance,
            per_sm,
        }
    }

    /// Revives a sampler from a checkpointed registry, re-deriving the
    /// series handles. The restored registry must carry exactly the
    /// layout [`MetricsSampler::new`] registers (same names, scopes and
    /// kinds in the same order) for the given SM count.
    ///
    /// # Errors
    ///
    /// Returns a message when the layout does not match.
    pub fn from_registry(
        registry: MetricsRegistry,
        num_sms: usize,
    ) -> Result<MetricsSampler, String> {
        let fresh = MetricsSampler::new(registry.window(), num_sms);
        if registry.len() != fresh.registry.len() {
            return Err(format!(
                "checkpoint metrics carry {} series, expected {}",
                registry.len(),
                fresh.registry.len()
            ));
        }
        for (have, want) in registry.series().iter().zip(fresh.registry.series()) {
            let same_kind = matches!(
                (&have.kind, &want.kind),
                (SeriesKind::Rate { .. }, SeriesKind::Rate { .. })
                    | (SeriesKind::Level { .. }, SeriesKind::Level { .. })
                    | (SeriesKind::Dist { .. }, SeriesKind::Dist { .. })
            );
            if have.name != want.name || have.sm != want.sm || !same_kind {
                return Err(format!(
                    "checkpoint metrics series {:?}/{:?} does not match the engine layout",
                    have.name, have.sm
                ));
            }
        }
        Ok(MetricsSampler { registry, ..fresh })
    }

    /// Cycles per window.
    pub fn window(&self) -> u64 {
        self.registry.window()
    }

    /// Read access to the registry (for checkpointing).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Consumes the sampler, yielding the registry for the stats
    /// epilogue.
    pub fn into_registry(self) -> MetricsRegistry {
        self.registry
    }

    /// Samples every series at a window boundary and seals the window.
    /// `lanes` yields each SM with its private stats block in ascending
    /// SM order; `gpu_stats` is the dispatcher-level block the lane stats
    /// merge into at the epilogue, included so aggregate rates stay exact
    /// even for counters accrued outside the lanes.
    pub fn seal_window<'a>(
        &mut self,
        gpu_stats: &RunStats,
        lanes: impl Iterator<Item = (&'a Sm, &'a RunStats)> + Clone,
        mem: &MemSystem,
    ) {
        for (id, total) in self.rate_totals(gpu_stats, lanes.clone().map(|(_, s)| s)) {
            let delta = self.registry.sample_total(id, total);
            // Each SM's issued instructions this window are one sample of
            // the issue-balance distribution.
            if self.per_sm.iter().any(|ids| ids.warp_instrs == id) {
                self.registry.observe(self.issue_balance, delta);
            }
        }
        let mut resident_warps = 0u64;
        let mut active_warps = 0u64;
        let mut resident_ctas = 0u64;
        let mut active_ctas = 0u64;
        let mut reg_bytes = 0u64;
        let mut smem_bytes = 0u64;
        for (i, (sm, _)) in lanes.enumerate() {
            resident_warps += u64::from(sm.resident_warps());
            active_warps += u64::from(sm.active_warps());
            resident_ctas += u64::from(sm.resident_ctas());
            active_ctas += u64::from(sm.slot_ctas());
            reg_bytes += u64::from(sm.resident_reg_bytes());
            smem_bytes += u64::from(sm.resident_smem_bytes());
            let ids = self.per_sm[i];
            self.registry
                .sample_level(ids.resident_warps, u64::from(sm.resident_warps()));
            self.registry
                .sample_level(ids.active_warps, u64::from(sm.active_warps()));
            self.registry
                .sample_level(ids.resident_ctas, u64::from(sm.resident_ctas()));
        }
        let m = &mut self.registry;
        let l = &self.levels;
        m.sample_level(l.resident_warps, resident_warps);
        m.sample_level(l.active_warps, active_warps);
        m.sample_level(l.resident_ctas, resident_ctas);
        m.sample_level(l.active_ctas, active_ctas);
        m.sample_level(l.reg_bytes, reg_bytes);
        m.sample_level(l.smem_bytes, smem_bytes);
        m.sample_level(l.mshr_in_flight, mem.mshr_in_flight());
        m.sample_level(l.partition_queue, mem.partition_queue_len());
        m.seal();
    }

    /// Checks a restored sampler against the restored stats: each rate's
    /// cumulative baseline is at most its counter's total now, since
    /// counters only grow between two boundaries.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first series ahead of its counter.
    pub(crate) fn check_baselines<'a>(
        &self,
        gpu_stats: &RunStats,
        lanes: impl Iterator<Item = &'a RunStats>,
    ) -> Result<(), String> {
        for (id, total) in self.rate_totals(gpu_stats, lanes) {
            let series = self.registry.series_at(id);
            if let SeriesKind::Rate { last, .. } = series.kind {
                if last > total {
                    return Err(format!(
                        "metrics: series {:?}/{:?} was sampled at {last}, its counter is {total}",
                        series.name, series.sm
                    ));
                }
            }
        }
        Ok(())
    }

    /// Every rate series with its counter's cumulative value now: the
    /// per-SM rates from each lane's block (in SM order), then the
    /// aggregate rates over all lanes plus the dispatcher-level block.
    fn rate_totals<'a>(
        &self,
        gpu_stats: &RunStats,
        lanes: impl Iterator<Item = &'a RunStats>,
    ) -> Vec<(SeriesId, u64)> {
        let mut sum = RunStats::default();
        let mut out = Vec::with_capacity(4 * self.per_sm.len() + 15);
        for (ids, stats) in self.per_sm.iter().zip(lanes) {
            sum.warp_instrs += stats.warp_instrs;
            sum.thread_instrs += stats.thread_instrs;
            sum.issue_cycles += stats.issue_cycles;
            sum.ctas_completed += stats.ctas_completed;
            sum.idle.merge(&stats.idle);
            sum.empty.merge(&stats.empty);
            sum.swaps.merge(&stats.swaps);
            // Per-SM top level of the CPI stack; the aggregate idle_*
            // rates expose the stalled sub-buckets, the cpi_empty_*
            // aggregates the empty ones.
            out.extend([
                (ids.warp_instrs, stats.warp_instrs),
                (ids.cpi_issued, stats.issue_cycles),
                (ids.cpi_stalled, stats.idle.total() - stats.idle.no_warps),
                (ids.cpi_empty, stats.idle.no_warps),
            ]);
        }
        let r = &self.rates;
        let g = gpu_stats;
        out.extend([
            (r.warp_instrs, g.warp_instrs + sum.warp_instrs),
            (r.thread_instrs, g.thread_instrs + sum.thread_instrs),
            (r.issue_cycles, g.issue_cycles + sum.issue_cycles),
            (r.idle_no_warps, g.idle.no_warps + sum.idle.no_warps),
            (r.idle_memory, g.idle.memory + sum.idle.memory),
            (r.idle_pipeline, g.idle.pipeline + sum.idle.pipeline),
            (r.idle_barrier, g.idle.barrier + sum.idle.barrier),
            (r.idle_swapping, g.idle.swapping + sum.idle.swapping),
            (r.idle_other, g.idle.other + sum.idle.other),
            (r.swaps_in, g.swaps.swaps_in + sum.swaps.swaps_in),
            (r.swaps_out, g.swaps.swaps_out + sum.swaps.swaps_out),
            (r.ctas_completed, g.ctas_completed + sum.ctas_completed),
            (
                r.cpi_empty_scheduling,
                g.empty.scheduling + sum.empty.scheduling,
            ),
            (r.cpi_empty_capacity, g.empty.capacity + sum.empty.capacity),
            (r.cpi_empty_drain, g.empty.drain + sum.empty.drain),
        ]);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_layout_registers_aggregate_and_per_sm_series() {
        let s = MetricsSampler::new(256, 2);
        let m = s.registry();
        assert_eq!(m.window(), 256);
        assert_eq!(m.len(), 15 + 8 + 1 + 7 * 2);
        assert!(m.get("warp_instrs", None).is_some());
        assert!(m.get("warp_instrs", Some(1)).is_some());
        assert!(m.get("resident_ctas", Some(0)).is_some());
        assert!(m.get("sm_issue_balance", None).is_some());
        assert!(m.get("mshr_in_flight", None).is_some());
        assert!(m.get("cpi_empty_scheduling", None).is_some());
        assert!(m.get("cpi_issued", Some(1)).is_some());
        assert!(m.get("cpi_empty", Some(0)).is_some());
    }

    #[test]
    fn restore_validates_the_layout() {
        let s = MetricsSampler::new(128, 3);
        let reg = s.into_registry();
        assert!(MetricsSampler::from_registry(reg.clone(), 3).is_ok());
        assert!(
            MetricsSampler::from_registry(reg, 2).is_err(),
            "SM count mismatch must be rejected"
        );
        let foreign = MetricsRegistry::new(128);
        assert!(MetricsSampler::from_registry(foreign, 3).is_err());
    }
}
