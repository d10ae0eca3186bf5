//! Memory-system statistics.

use vt_json::{impl_json, Count};
use vt_trace::{Gauge, Histogram};

/// Counters accumulated by the memory system over a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStats {
    /// L1D lookups (loads and atomics; stores bypass).
    pub l1_accesses: u64,
    /// L1D hits.
    pub l1_hits: u64,
    /// L1D misses that allocated a new MSHR line.
    pub l1_misses: u64,
    /// L1D misses merged onto an in-flight MSHR line.
    pub l1_mshr_merged: u64,
    /// Submissions rejected for MSHR/port exhaustion (retried by the SM).
    pub l1_stalls: u64,
    /// Global stores forwarded to L2.
    pub stores: u64,
    /// Atomic operations forwarded to L2.
    pub atomics: u64,
    /// L2 lookups.
    pub l2_accesses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses sent to DRAM.
    pub l2_misses: u64,
    /// DRAM read transactions.
    pub dram_reads: u64,
    /// DRAM write (writeback) transactions.
    pub dram_writes: u64,
    /// DRAM row-buffer hits.
    pub dram_row_hits: u64,
    /// DRAM row-buffer misses.
    pub dram_row_misses: u64,
    /// Sum of load round-trip latencies in cycles (submit → response).
    pub load_latency_sum: u64,
    /// Loads (and atomics) that completed.
    pub loads_completed: u64,
    /// Distribution of load/atomic round-trip latencies.
    pub load_latency: Histogram,
    /// L1 MSHR entries in flight, sampled once per cycle across all SMs.
    pub mshr_occupancy: Gauge,
}

impl MemStats {
    /// L1 hit rate over lookups, or 0 if there were none.
    pub fn l1_hit_rate(&self) -> f64 {
        ratio(self.l1_hits, self.l1_accesses)
    }

    /// L2 hit rate over lookups, or 0 if there were none.
    pub fn l2_hit_rate(&self) -> f64 {
        ratio(self.l2_hits, self.l2_accesses)
    }

    /// DRAM row-buffer hit rate.
    pub fn row_hit_rate(&self) -> f64 {
        ratio(
            self.dram_row_hits,
            self.dram_row_hits + self.dram_row_misses,
        )
    }

    /// Mean load round-trip latency in cycles.
    pub fn avg_load_latency(&self) -> f64 {
        ratio(self.load_latency_sum, self.loads_completed)
    }

    /// Merges another stats block into this one (used to aggregate across
    /// kernels).
    pub fn merge(&mut self, other: &MemStats) {
        self.l1_accesses += other.l1_accesses;
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
        self.l1_mshr_merged += other.l1_mshr_merged;
        self.l1_stalls += other.l1_stalls;
        self.stores += other.stores;
        self.atomics += other.atomics;
        self.l2_accesses += other.l2_accesses;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
        self.dram_reads += other.dram_reads;
        self.dram_writes += other.dram_writes;
        self.dram_row_hits += other.dram_row_hits;
        self.dram_row_misses += other.dram_row_misses;
        self.load_latency_sum += other.load_latency_sum;
        self.loads_completed += other.loads_completed;
        self.load_latency.merge(&other.load_latency);
        self.mshr_occupancy.merge(&other.mshr_occupancy);
    }
}

impl_json!(MemStats {
    l1_accesses: Count,
    l1_hits: Count,
    l1_misses: Count,
    l1_mshr_merged: Count,
    l1_stalls: Count,
    stores: Count,
    atomics: Count,
    l2_accesses: Count,
    l2_hits: Count,
    l2_misses: Count,
    dram_reads: Count,
    dram_writes: Count,
    dram_row_hits: Count,
    dram_row_misses: Count,
    load_latency_sum: Count,
    loads_completed: Count,
    load_latency,
    mshr_occupancy,
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

    #[test]
    fn rates_handle_zero_denominators() {
        let s = MemStats::default();
        assert_eq!(s.l1_hit_rate(), 0.0);
        assert_eq!(s.avg_load_latency(), 0.0);
        assert_eq!(s.row_hit_rate(), 0.0);
    }

    #[test]
    fn merge_adds_fields() {
        let mut a = MemStats {
            l1_hits: 3,
            l1_accesses: 4,
            ..Default::default()
        };
        let b = MemStats {
            l1_hits: 1,
            l1_accesses: 4,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.l1_hits, 4);
        assert_eq!(a.l1_accesses, 8);
        assert_eq!(a.l1_hit_rate(), 0.5);
    }
}
