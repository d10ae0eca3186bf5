//! Per-PC hotspot profiling: instruction-level attribution of the same
//! SM-cycles the [`crate::stats::CpiStack`] accounts for at kernel
//! granularity, plus per-instruction memory behaviour (round-trip
//! latency, observed coalescing width, bank-conflict rounds) and branch
//! divergence activity.
//!
//! # Accounting model
//!
//! Profiling charges *SM-cycles* so every bucket is conserved against the
//! kernel-level stack:
//!
//! * `issued` — each SM-cycle with at least one issue is charged to the
//!   PC of the *first* instruction issued that cycle, so
//!   `Σ pcs.issued == cpi.issued` exactly. `warp_issues` and
//!   `thread_instrs` count every issue (per-scheduler) for ranking.
//! * Stall cycles are blamed on the **oldest-unready instruction**: the
//!   current PC of the first warp, in age order, whose readiness class
//!   matches the bucket the cycle was charged to (the classification in
//!   `Sm::accumulate_stats` is unchanged — profiling observes it). A
//!   barrier-stalled warp has already consumed its `Bar`, so barrier
//!   cycles blame the first instruction *after* the barrier.
//! * Stall cycles with no blamable instruction — swap transitions, or an
//!   all-inactive SM with no memory-waiting warp — land in
//!   [`PcProfile::unattributed`], keeping the identity
//!   `Σ pcs.stalls[r] + unattributed[r] == cpi.<stall r>` exact.
//! * Empty cycles (no resident warps) have no instruction by definition
//!   and are not attributed at all.
//!
//! The profile is per-SM-lane state merged additively in ascending SM
//! order, and it rides [`crate::stats::RunStats`] through
//! checkpoint/resume.

use vt_json::{decode_elem, impl_json, not_a, Codec, Count, FromJson, Json, ToJson};
use vt_trace::Histogram;

/// Why a non-empty SM-cycle issued nothing — the stall half of the
/// [`crate::stats::CpiStack`] taxonomy, indexed for per-PC arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallReason {
    /// Blocked on an outstanding global-memory result.
    Memory,
    /// Blocked on short ALU/SFU scoreboard dependencies.
    Pipeline,
    /// All unfinished warps waiting at a barrier.
    Barrier,
    /// Active CTAs mid context switch.
    Swap,
    /// Structural hazards and anything unclassified.
    Structural,
}

impl StallReason {
    /// All reasons, in `CpiStack` bucket order.
    pub const ALL: [StallReason; STALL_REASONS] = [
        StallReason::Memory,
        StallReason::Pipeline,
        StallReason::Barrier,
        StallReason::Swap,
        StallReason::Structural,
    ];

    /// Index into per-PC stall arrays.
    pub fn index(self) -> usize {
        match self {
            StallReason::Memory => 0,
            StallReason::Pipeline => 1,
            StallReason::Barrier => 2,
            StallReason::Swap => 3,
            StallReason::Structural => 4,
        }
    }

    /// The matching `CpiStack` bucket name.
    pub fn name(self) -> &'static str {
        match self {
            StallReason::Memory => "stall_memory",
            StallReason::Pipeline => "stall_pipeline",
            StallReason::Barrier => "stall_barrier",
            StallReason::Swap => "stall_swap",
            StallReason::Structural => "stall_structural",
        }
    }
}

/// Number of stall reasons ([`StallReason::ALL`] length).
pub const STALL_REASONS: usize = 5;

/// Dynamic counters for one program counter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcCounters {
    /// SM-cycles charged to this PC as the cycle's first issue
    /// (`Σ == CpiStack::issued`).
    pub issued: u64,
    /// Warp instructions issued from this PC (every scheduler counts).
    pub warp_issues: u64,
    /// Thread instructions executed from this PC.
    pub thread_instrs: u64,
    /// Stall SM-cycles blamed on this PC, per [`StallReason`] index.
    pub stalls: [u64; STALL_REASONS],
    /// Round-trip latency of loads/atomics issued at this PC (issue to
    /// scoreboard release), in cycles.
    pub mem_latency: Histogram,
    /// Global accesses issued at this PC (coalescer invocations).
    pub mem_accesses: u64,
    /// Total coalesced transactions those accesses produced. The observed
    /// width is `mem_lines / mem_accesses`.
    pub mem_lines: u64,
    /// Worst (largest) transaction count one warp access produced.
    pub mem_lines_max: u64,
    /// Shared-memory accesses issued at this PC.
    pub smem_accesses: u64,
    /// Total bank-conflict rounds those accesses serialised into.
    pub smem_rounds: u64,
    /// Conditional branches executed at this PC (warp granularity).
    pub branches: u64,
    /// How many of them diverged.
    pub divergent: u64,
}

impl Default for PcCounters {
    fn default() -> PcCounters {
        PcCounters {
            issued: 0,
            warp_issues: 0,
            thread_instrs: 0,
            stalls: [0; STALL_REASONS],
            mem_latency: Histogram::default(),
            mem_accesses: 0,
            mem_lines: 0,
            mem_lines_max: 0,
            smem_accesses: 0,
            smem_rounds: 0,
            branches: 0,
            divergent: 0,
        }
    }
}

impl PcCounters {
    /// Total stall SM-cycles blamed on this PC, across all reasons.
    pub fn stalled(&self) -> u64 {
        self.stalls.iter().sum()
    }

    /// Whether nothing was ever recorded against this PC.
    pub fn is_empty(&self) -> bool {
        *self == PcCounters::default()
    }

    fn merge(&mut self, o: &PcCounters) {
        self.issued += o.issued;
        self.warp_issues += o.warp_issues;
        self.thread_instrs += o.thread_instrs;
        for (a, b) in self.stalls.iter_mut().zip(&o.stalls) {
            *a += b;
        }
        self.mem_latency.merge(&o.mem_latency);
        self.mem_accesses += o.mem_accesses;
        self.mem_lines += o.mem_lines;
        self.mem_lines_max = self.mem_lines_max.max(o.mem_lines_max);
        self.smem_accesses += o.smem_accesses;
        self.smem_rounds += o.smem_rounds;
        self.branches += o.branches;
        self.divergent += o.divergent;
    }
}

impl_json!(PcCounters {
    issued: Count,
    warp_issues: Count,
    thread_instrs: Count,
    stalls: Count,
    mem_latency,
    mem_accesses: Count,
    mem_lines: Count,
    mem_lines_max,
    smem_accesses: Count,
    smem_rounds: Count,
    branches: Count,
    divergent: Count,
});

/// Untouched PCs are written as `null`, to keep checkpoints compact.
struct Sparse;

impl Codec<Vec<PcCounters>> for Sparse {
    fn encode(pcs: &Vec<PcCounters>) -> Json {
        Json::Array(
            pcs.iter()
                .map(|c| {
                    if c.is_empty() {
                        Json::Null
                    } else {
                        c.to_json()
                    }
                })
                .collect(),
        )
    }

    fn decode(v: &Json) -> Result<Vec<PcCounters>, String> {
        let pcs = v.as_array().ok_or_else(|| not_a("an array"))?;
        let pc = |(i, x): (usize, &Json)| match x {
            Json::Null => Ok(PcCounters::default()),
            x => decode_elem(i, x, PcCounters::from_json),
        };
        pcs.iter().enumerate().map(pc).collect()
    }
}

/// The per-PC hotspot profile of one run (or one SM lane of it): one
/// [`PcCounters`] slot per program instruction, plus the stall cycles
/// that had no blamable instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcProfile {
    pcs: Vec<PcCounters>,
    /// Stall SM-cycles with no blamable instruction, per
    /// [`StallReason`] index (swap transitions never have one).
    pub unattributed: [u64; STALL_REASONS],
}

impl PcProfile {
    /// An empty profile for a program of `len` instructions.
    pub fn new(len: usize) -> PcProfile {
        PcProfile {
            pcs: vec![PcCounters::default(); len],
            unattributed: [0; STALL_REASONS],
        }
    }

    /// Number of program counters covered (the program length).
    pub fn len(&self) -> usize {
        self.pcs.len()
    }

    /// Whether the profile covers an empty program.
    pub fn is_empty(&self) -> bool {
        self.pcs.is_empty()
    }

    /// The counters of every PC, indexed by PC.
    pub fn counters(&self) -> &[PcCounters] {
        &self.pcs
    }

    /// The counters of one PC, if in range.
    pub fn get(&self, pc: usize) -> Option<&PcCounters> {
        self.pcs.get(pc)
    }

    /// Σ issued SM-cycles over all PCs (equals `CpiStack::issued`).
    pub fn issued_total(&self) -> u64 {
        self.pcs.iter().map(|c| c.issued).sum()
    }

    /// Σ stall SM-cycles blamed on PCs for `r`, *excluding* the
    /// unattributed remainder.
    pub fn stall_total(&self, r: StallReason) -> u64 {
        self.pcs.iter().map(|c| c.stalls[r.index()]).sum()
    }

    /// Charges one issued SM-cycle to `pc`.
    pub fn record_issue_cycle(&mut self, pc: usize) {
        if let Some(c) = self.pcs.get_mut(pc) {
            c.issued += 1;
        }
    }

    /// Records one warp instruction issued from `pc` over `lanes` threads.
    pub fn record_warp_issue(&mut self, pc: usize, lanes: u32) {
        if let Some(c) = self.pcs.get_mut(pc) {
            c.warp_issues += 1;
            c.thread_instrs += u64::from(lanes);
        }
    }

    /// Charges one stall SM-cycle of reason `r` to `pc`, or to the
    /// unattributed remainder when no instruction is blamable.
    pub fn record_stall(&mut self, pc: Option<usize>, r: StallReason) {
        match pc.and_then(|pc| self.pcs.get_mut(pc)) {
            Some(c) => c.stalls[r.index()] += 1,
            None => self.unattributed[r.index()] += 1,
        }
    }

    /// Records a completed load/atomic round trip issued at `pc`.
    pub fn record_mem_latency(&mut self, pc: usize, cycles: u64) {
        if let Some(c) = self.pcs.get_mut(pc) {
            c.mem_latency.record(cycles);
        }
    }

    /// Records one global access at `pc` that coalesced into `lines`
    /// transactions.
    pub fn record_coalesce(&mut self, pc: usize, lines: u64) {
        if let Some(c) = self.pcs.get_mut(pc) {
            c.mem_accesses += 1;
            c.mem_lines += lines;
            c.mem_lines_max = c.mem_lines_max.max(lines);
        }
    }

    /// Records one shared-memory access at `pc` of `rounds` conflict
    /// rounds.
    pub fn record_smem(&mut self, pc: usize, rounds: u64) {
        if let Some(c) = self.pcs.get_mut(pc) {
            c.smem_accesses += 1;
            c.smem_rounds += rounds;
        }
    }

    /// Records one conditional branch executed at `pc`.
    pub fn record_branch(&mut self, pc: usize, divergent: bool) {
        if let Some(c) = self.pcs.get_mut(pc) {
            c.branches += 1;
            if divergent {
                c.divergent += 1;
            }
        }
    }

    /// Adds another profile of the same program into this one. Purely
    /// additive, so folds are independent of lane order.
    ///
    /// # Panics
    ///
    /// Panics if the profiles cover different program lengths.
    pub fn merge(&mut self, o: &PcProfile) {
        assert_eq!(
            self.pcs.len(),
            o.pcs.len(),
            "merging profiles of different programs"
        );
        for (a, b) in self.pcs.iter_mut().zip(&o.pcs) {
            a.merge(b);
        }
        for (a, b) in self.unattributed.iter_mut().zip(&o.unattributed) {
            *a += b;
        }
    }
}

impl_json!(PcProfile {
    pcs: Sparse,
    unattributed: Count
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_lands_in_the_right_buckets() {
        let mut p = PcProfile::new(4);
        p.record_issue_cycle(1);
        p.record_warp_issue(1, 32);
        p.record_warp_issue(1, 7);
        p.record_stall(Some(2), StallReason::Memory);
        p.record_stall(None, StallReason::Swap);
        p.record_mem_latency(2, 400);
        p.record_coalesce(2, 8);
        p.record_coalesce(2, 2);
        p.record_smem(3, 4);
        p.record_branch(0, true);
        p.record_branch(0, false);
        assert_eq!(p.get(1).unwrap().issued, 1);
        assert_eq!(p.get(1).unwrap().warp_issues, 2);
        assert_eq!(p.get(1).unwrap().thread_instrs, 39);
        assert_eq!(p.get(2).unwrap().stalls[StallReason::Memory.index()], 1);
        assert_eq!(p.unattributed[StallReason::Swap.index()], 1);
        assert_eq!(p.get(2).unwrap().mem_latency.count, 1);
        assert_eq!(p.get(2).unwrap().mem_accesses, 2);
        assert_eq!(p.get(2).unwrap().mem_lines, 10);
        assert_eq!(p.get(2).unwrap().mem_lines_max, 8);
        assert_eq!(p.get(3).unwrap().smem_rounds, 4);
        assert_eq!(p.get(0).unwrap().branches, 2);
        assert_eq!(p.get(0).unwrap().divergent, 1);
        assert_eq!(p.issued_total(), 1);
        assert_eq!(p.stall_total(StallReason::Memory), 1);
    }

    #[test]
    fn out_of_range_records_are_dropped_not_panicking() {
        let mut p = PcProfile::new(1);
        p.record_issue_cycle(5);
        p.record_stall(Some(5), StallReason::Pipeline);
        assert_eq!(p.issued_total(), 0);
        // An out-of-range blame PC falls back to unattributed.
        assert_eq!(p.unattributed[StallReason::Pipeline.index()], 1);
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        let mut a = PcProfile::new(3);
        let mut b = PcProfile::new(3);
        let mut all = PcProfile::new(3);
        a.record_issue_cycle(0);
        all.record_issue_cycle(0);
        a.record_mem_latency(2, 10);
        all.record_mem_latency(2, 10);
        b.record_stall(Some(0), StallReason::Barrier);
        all.record_stall(Some(0), StallReason::Barrier);
        b.record_stall(None, StallReason::Memory);
        all.record_stall(None, StallReason::Memory);
        a.merge(&b);
        assert_eq!(a, all);
    }

    #[test]
    fn snapshot_roundtrips_sparsely() {
        let mut p = PcProfile::new(5);
        p.record_issue_cycle(3);
        p.record_mem_latency(3, 123);
        p.record_stall(None, StallReason::Structural);
        let j = p.to_json();
        // Untouched PCs serialize as null.
        let pcs = j.get("pcs").and_then(Json::as_array).unwrap();
        assert!(matches!(pcs[0], Json::Null));
        assert!(!matches!(pcs[3], Json::Null));
        let back = PcProfile::from_json(&Json::parse(&j.compact()).unwrap()).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn stall_reason_indices_are_canonical() {
        for (i, r) in StallReason::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
        assert_eq!(StallReason::Memory.name(), "stall_memory");
    }
}
