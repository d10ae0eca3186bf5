//! A memory partition: one L2 slice plus one DRAM channel.
//!
//! Mirrors GPGPU-Sim's organisation where the L2 is distributed across
//! memory partitions and each partition owns a GDDR channel. Lines are
//! interleaved across partitions by [`crate::config::MemConfig::partition_of`].

use crate::cache::{Cache, Probe};
use crate::config::MemConfig;
use crate::mshr::{Mshr, MshrAlloc};
use crate::stats::MemStats;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use vt_json::{impl_json, not_a, Count, FromJson, Json, NonZero, Sorted, ToJson};
use vt_trace::{MemLevel, NullSink, TraceEvent, TraceSink};

/// The kind of a memory request as seen below the SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ReqKind {
    /// A load; a response returns to the SM.
    Load,
    /// A global store; fire-and-forget (no response).
    Store,
    /// An atomic; performed at the L2, a response returns to the SM.
    Atomic,
}

impl ReqKind {
    /// The trace-layer equivalent of this kind.
    pub fn trace_kind(self) -> vt_trace::MemKind {
        match self {
            ReqKind::Load => vt_trace::MemKind::Load,
            ReqKind::Store => vt_trace::MemKind::Store,
            ReqKind::Atomic => vt_trace::MemKind::Atomic,
        }
    }
}

/// A kind is checkpointed as its name.
impl ToJson for ReqKind {
    fn to_json(&self) -> Json {
        let name = match self {
            ReqKind::Load => "load",
            ReqKind::Store => "store",
            ReqKind::Atomic => "atomic",
        };
        name.to_json()
    }
}

impl FromJson for ReqKind {
    fn from_json(v: &Json) -> Result<ReqKind, String> {
        match v.as_str() {
            Some("load") => Ok(ReqKind::Load),
            Some("store") => Ok(ReqKind::Store),
            Some("atomic") => Ok(ReqKind::Atomic),
            _ => Err(not_a("a request kind")),
        }
    }
}

/// A request routed to a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartReq {
    /// Originating SM.
    pub sm: usize,
    /// Opaque request id the SM uses to match the response.
    pub id: u64,
    /// Cache-line address (byte address / line size).
    pub line_addr: u64,
    /// Request kind.
    pub kind: ReqKind,
}

/// A response travelling back to an SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct PartResp {
    /// Destination SM.
    pub sm: usize,
    /// The id of the request this answers.
    pub id: u64,
    /// Cache-line address, so the L1 can fill and release its own waiters.
    pub line_addr: u64,
    /// Kind of the original request (atomic responses bypass the L1 fill).
    pub kind: ReqKind,
}

// Both are checkpointed as `[sm, id, line_addr, kind]`; `MemSystem`
// checks the SM against its fronts.
impl_json!(PartReq [sm, id, line_addr, kind]);
impl_json!(PartResp [sm, id, line_addr, kind]);

/// One L2-slice + DRAM-channel pair.
#[derive(Debug)]
pub struct Partition {
    l2: Cache,
    mshr: Mshr<PartReq>,
    in_q: VecDeque<PartReq>,
    // (ready cycle, seq for stable ordering, response)
    resp_heap: BinaryHeap<Reverse<(u64, u64, PartResp)>>,
    pending_writebacks: VecDeque<u64>,
    dram: Dram,
    l2_hit_latency: u64,
    l2_ports: u32,
    seq: u64,
}

impl Partition {
    /// Builds a partition from the shared configuration.
    pub fn new(cfg: &MemConfig) -> Partition {
        Partition {
            l2: Cache::new(cfg.l2_sets(), cfg.l2_ways),
            mshr: Mshr::new(cfg.l2_mshr_entries, cfg.l2_mshr_merges),
            in_q: VecDeque::new(),
            resp_heap: BinaryHeap::new(),
            pending_writebacks: VecDeque::new(),
            dram: Dram::new(cfg),
            l2_hit_latency: u64::from(cfg.l2_hit_latency),
            l2_ports: cfg.l2_ports,
            seq: 0,
        }
    }

    /// Accepts a request from the interconnect.
    pub fn push(&mut self, req: PartReq) {
        self.in_q.push_back(req);
    }

    fn schedule_resp(&mut self, ready: u64, resp: PartResp) {
        self.seq += 1;
        self.resp_heap.push(Reverse((ready, self.seq, resp)));
    }

    /// Advances one cycle; returns responses ready to enter the
    /// interconnect this cycle.
    pub fn tick(&mut self, now: u64, stats: &mut MemStats) -> Vec<PartResp> {
        self.tick_traced(now, stats, &mut NullSink)
    }

    /// [`Partition::tick`] with trace instrumentation; the `NullSink`
    /// instantiation is the plain tick.
    pub fn tick_traced<S: TraceSink>(
        &mut self,
        now: u64,
        stats: &mut MemStats,
        sink: &mut S,
    ) -> Vec<PartResp> {
        // 1. DRAM: finish in-service requests; fills release MSHR waiters.
        for line in self.dram.tick(now, stats) {
            let waiters = self.mshr.fill(line);
            let dirty = waiters.iter().any(|w| w.kind == ReqKind::Atomic);
            if let Some(ev) = self.l2.fill(line, now, dirty) {
                if ev.dirty {
                    self.pending_writebacks.push_back(ev.line_addr);
                }
            }
            for w in waiters {
                if w.kind != ReqKind::Store {
                    if S::ENABLED {
                        sink.emit(
                            now,
                            TraceEvent::MemAt {
                                sm: w.sm as u32,
                                req: w.id,
                                level: MemLevel::DramFill,
                            },
                        );
                    }
                    self.schedule_resp(
                        now + 1,
                        PartResp {
                            sm: w.sm,
                            id: w.id,
                            line_addr: line,
                            kind: w.kind,
                        },
                    );
                }
            }
        }

        // 2. Retry queued dirty writebacks into the DRAM queue.
        while let Some(&line) = self.pending_writebacks.front() {
            if self.dram.try_push(line, true) {
                self.pending_writebacks.pop_front();
            } else {
                break;
            }
        }

        // 3. Service incoming requests, up to the slice's port limit.
        for _ in 0..self.l2_ports {
            let Some(&req) = self.in_q.front() else { break };
            if !self.service(req, now, stats, sink) {
                break; // resource stall: head-of-line blocks
            }
            self.in_q.pop_front();
        }

        // 4. Release responses whose latency elapsed.
        let mut out = Vec::new();
        while let Some(&Reverse((ready, _, resp))) = self.resp_heap.peek() {
            if ready > now {
                break;
            }
            self.resp_heap.pop();
            out.push(resp);
        }
        out
    }

    /// Attempts to service one request; returns false on a resource stall.
    fn service<S: TraceSink>(
        &mut self,
        req: PartReq,
        now: u64,
        stats: &mut MemStats,
        sink: &mut S,
    ) -> bool {
        let progress = |sink: &mut S, level: MemLevel| {
            if S::ENABLED {
                sink.emit(
                    now,
                    TraceEvent::MemAt {
                        sm: req.sm as u32,
                        req: req.id,
                        level,
                    },
                );
            }
        };
        stats.l2_accesses += 1;
        match req.kind {
            ReqKind::Load | ReqKind::Atomic => {
                if self.l2.probe(req.line_addr, now) == Probe::Hit {
                    stats.l2_hits += 1;
                    if req.kind == ReqKind::Atomic {
                        self.l2.mark_dirty(req.line_addr);
                    }
                    progress(sink, MemLevel::L2Hit);
                    self.schedule_resp(
                        now + self.l2_hit_latency,
                        PartResp {
                            sm: req.sm,
                            id: req.id,
                            line_addr: req.line_addr,
                            kind: req.kind,
                        },
                    );
                    return true;
                }
                // Miss: reserve MSHR + DRAM queue space atomically.
                if self.mshr.pending(req.line_addr) {
                    match self.mshr.alloc(req.line_addr, req) {
                        MshrAlloc::Merged => {
                            stats.l2_misses += 1;
                            progress(sink, MemLevel::L2MshrMerge);
                            true
                        }
                        MshrAlloc::Stall => {
                            stats.l2_accesses -= 1;
                            false
                        }
                        MshrAlloc::NewMiss => unreachable!("line was pending"),
                    }
                } else {
                    if !self.dram.has_space() {
                        stats.l2_accesses -= 1;
                        return false;
                    }
                    match self.mshr.alloc(req.line_addr, req) {
                        MshrAlloc::NewMiss => {
                            stats.l2_misses += 1;
                            let pushed = self.dram.try_push(req.line_addr, false);
                            debug_assert!(pushed, "space was checked");
                            progress(sink, MemLevel::L2Miss);
                            true
                        }
                        MshrAlloc::Stall => {
                            stats.l2_accesses -= 1;
                            false
                        }
                        MshrAlloc::Merged => unreachable!("line was not pending"),
                    }
                }
            }
            ReqKind::Store => {
                stats.stores += 1;
                if self.l2.probe(req.line_addr, now) == Probe::Hit {
                    stats.l2_hits += 1;
                    self.l2.mark_dirty(req.line_addr);
                } else {
                    // Write-allocate without a fetch (the store overwrites
                    // the whole sector in this word-granular model).
                    stats.l2_misses += 1;
                    if let Some(ev) = self.l2.fill(req.line_addr, now, true) {
                        if ev.dirty {
                            self.pending_writebacks.push_back(ev.line_addr);
                        }
                    }
                }
                true
            }
        }
    }

    /// Requests waiting in or being serviced by this partition: the L2
    /// input queue plus the DRAM queue and in-service set.
    pub fn queue_len(&self) -> u64 {
        self.in_q.len() as u64 + self.dram.pending()
    }

    /// Whether no request is anywhere in this partition.
    pub fn quiesced(&self) -> bool {
        self.in_q.is_empty()
            && self.resp_heap.is_empty()
            && self.mshr.is_empty()
            && self.pending_writebacks.is_empty()
            && self.dram.quiesced()
    }

    /// The SM every request or response held here names.
    pub(crate) fn sms(&self) -> impl Iterator<Item = usize> + '_ {
        self.in_q
            .iter()
            .chain(self.mshr.waiters())
            .map(|r| r.sm)
            .chain(self.resp_heap.iter().map(|Reverse((_, _, r))| r.sm))
    }
}

// The response heap is written in ascending `(ready, seq)` order; every
// key is unique (`seq` increments per response), so re-pushing the list
// reproduces the exact pop order.
impl_json!(Partition {
    l2,
    mshr,
    in_q,
    resp_heap: Sorted,
    pending_writebacks,
    dram,
    l2_hit_latency: Count,
    l2_ports,
    seq: Count,
});

/// One GDDR channel with per-bank row-buffer state and an FR-FCFS-like
/// scheduler (row hits first, then oldest).
#[derive(Debug)]
struct Dram {
    queue: VecDeque<DramReq>,
    in_service: Vec<(u64, DramReq)>, // (finish cycle, request)
    banks: Vec<DramBank>,
    next_issue_at: u64,
    depth: usize,
    row_hit_latency: u64,
    row_miss_latency: u64,
    burst_cycles: u64,
    lines_per_row: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct DramReq {
    line_addr: u64,
    write: bool,
}

impl_json!(DramReq [line_addr, write]);

#[derive(Debug, Clone, Copy)]
struct DramBank {
    open_row: Option<u64>,
    busy_until: u64,
}

impl_json!(DramBank [open_row, busy_until]);

impl Dram {
    fn new(cfg: &MemConfig) -> Dram {
        Dram {
            queue: VecDeque::new(),
            in_service: Vec::new(),
            banks: vec![
                DramBank {
                    open_row: None,
                    busy_until: 0
                };
                cfg.dram_banks.max(1) as usize
            ],
            next_issue_at: 0,
            depth: cfg.dram_queue_depth.max(1) as usize,
            row_hit_latency: u64::from(cfg.dram_row_hit_latency),
            row_miss_latency: u64::from(cfg.dram_row_miss_latency),
            burst_cycles: u64::from(cfg.dram_burst_cycles).max(1),
            lines_per_row: u64::from((cfg.dram_row_bytes / cfg.line_bytes).max(1)),
        }
    }

    fn row_of(&self, line_addr: u64) -> u64 {
        line_addr / self.lines_per_row
    }

    fn bank_of(&self, line_addr: u64) -> usize {
        (self.row_of(line_addr) % self.banks.len() as u64) as usize
    }

    fn has_space(&self) -> bool {
        self.queue.len() < self.depth
    }

    fn try_push(&mut self, line_addr: u64, write: bool) -> bool {
        if !self.has_space() {
            return false;
        }
        self.queue.push_back(DramReq { line_addr, write });
        true
    }

    /// Advances one cycle; returns line addresses of completed reads.
    fn tick(&mut self, now: u64, stats: &mut MemStats) -> Vec<u64> {
        let mut done = Vec::new();
        let mut i = 0;
        while i < self.in_service.len() {
            if self.in_service[i].0 <= now {
                let (_, req) = self.in_service.swap_remove(i);
                if !req.write {
                    done.push(req.line_addr);
                }
            } else {
                i += 1;
            }
        }
        // Results must be deterministic regardless of swap_remove order.
        done.sort_unstable();

        // Issue at most one request per cycle, bandwidth-limited by the
        // burst occupancy of the data bus.
        if now >= self.next_issue_at {
            if let Some(idx) = self.pick(now) {
                let req = self.queue.remove(idx).expect("picked index exists");
                let bank_idx = self.bank_of(req.line_addr);
                let row = self.row_of(req.line_addr);
                let bank = &mut self.banks[bank_idx];
                let row_hit = bank.open_row == Some(row);
                let latency = if row_hit {
                    stats.dram_row_hits += 1;
                    self.row_hit_latency
                } else {
                    stats.dram_row_misses += 1;
                    self.row_miss_latency
                };
                if req.write {
                    stats.dram_writes += 1;
                } else {
                    stats.dram_reads += 1;
                }
                bank.open_row = Some(row);
                let finish = now + latency + self.burst_cycles;
                bank.busy_until = finish;
                self.next_issue_at = now + self.burst_cycles;
                self.in_service.push((finish, req));
            }
        }
        done
    }

    /// FR-FCFS-lite: the oldest row-hit request whose bank is free, else
    /// the oldest request whose bank is free.
    fn pick(&self, now: u64) -> Option<usize> {
        let free = |req: &DramReq| self.banks[self.bank_of(req.line_addr)].busy_until <= now;
        let hit = |req: &DramReq| {
            self.banks[self.bank_of(req.line_addr)].open_row == Some(self.row_of(req.line_addr))
        };
        self.queue
            .iter()
            .position(|r| free(r) && hit(r))
            .or_else(|| self.queue.iter().position(free))
    }

    fn quiesced(&self) -> bool {
        self.queue.is_empty() && self.in_service.is_empty()
    }

    fn pending(&self) -> u64 {
        (self.queue.len() + self.in_service.len()) as u64
    }

    /// Checks what a tick divides by or adds: a bank to map rows to and a
    /// burst to occupy the bus.
    fn check(&self) -> Result<(), String> {
        if self.banks.is_empty() {
            return Err("DRAM has no banks".to_string());
        }
        if self.burst_cycles == 0 {
            return Err("DRAM burst of 0 cycles".to_string());
        }
        Ok(())
    }
}

// `in_service` keeps its exact vector order: completions are sorted
// before being handed out, so the order only needs to match what the
// uninterrupted run had.
impl_json!(Dram {
    queue,
    in_service,
    banks,
    next_issue_at,
    depth: NonZero,
    row_hit_latency: Count,
    row_miss_latency: Count,
    burst_cycles: Count,
    lines_per_row: NonZero,
} check Dram::check);

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MemConfig {
        MemConfig::default()
    }

    fn drain(p: &mut Partition, stats: &mut MemStats, until: u64) -> Vec<(u64, PartResp)> {
        let mut out = Vec::new();
        for now in 0..until {
            for r in p.tick(now, stats) {
                out.push((now, r));
            }
        }
        out
    }

    #[test]
    fn load_miss_goes_to_dram_then_hits() {
        let mut p = Partition::new(&cfg());
        let mut s = MemStats::default();
        p.push(PartReq {
            sm: 0,
            id: 1,
            line_addr: 10,
            kind: ReqKind::Load,
        });
        let resps = drain(&mut p, &mut s, 500);
        assert_eq!(resps.len(), 1);
        assert_eq!(
            (resps[0].1.sm, resps[0].1.id, resps[0].1.line_addr),
            (0, 1, 10)
        );
        assert_eq!(s.l2_misses, 1);
        assert_eq!(s.dram_reads, 1);
        assert_eq!(s.dram_row_misses, 1);
        assert!(p.quiesced());

        // Same line again: L2 hit, no DRAM traffic, faster.
        p.push(PartReq {
            sm: 0,
            id: 2,
            line_addr: 10,
            kind: ReqKind::Load,
        });
        let t_miss = resps[0].0;
        let resps2 = drain(&mut p, &mut s, 1000);
        assert_eq!(resps2.len(), 1);
        assert_eq!(s.dram_reads, 1, "no new DRAM read");
        assert_eq!(s.l2_hits, 1);
        assert!(resps2[0].0 < t_miss, "hit is faster than miss");
    }

    #[test]
    fn misses_to_same_line_merge() {
        let mut p = Partition::new(&cfg());
        let mut s = MemStats::default();
        p.push(PartReq {
            sm: 0,
            id: 1,
            line_addr: 5,
            kind: ReqKind::Load,
        });
        p.push(PartReq {
            sm: 1,
            id: 2,
            line_addr: 5,
            kind: ReqKind::Load,
        });
        let resps = drain(&mut p, &mut s, 500);
        assert_eq!(resps.len(), 2, "both waiters answered");
        assert_eq!(s.dram_reads, 1, "one fill serves both");
    }

    #[test]
    fn store_allocates_dirty_and_evicts_with_writeback() {
        let c = cfg();
        let mut p = Partition::new(&c);
        let mut s = MemStats::default();
        // Fill one whole set with dirty stores, then one more to force a
        // dirty eviction. Lines mapping to set 0 of this partition's slice
        // are spaced by l2_sets().
        let sets = u64::from(c.l2_sets());
        for i in 0..=u64::from(c.l2_ways) {
            p.push(PartReq {
                sm: 0,
                id: i,
                line_addr: i * sets,
                kind: ReqKind::Store,
            });
        }
        drain(&mut p, &mut s, 2000);
        assert_eq!(s.stores, u64::from(c.l2_ways) + 1);
        assert_eq!(s.dram_writes, 1, "one dirty victim written back");
        assert!(p.quiesced());
    }

    #[test]
    fn atomics_respond_and_dirty_the_line() {
        let mut p = Partition::new(&cfg());
        let mut s = MemStats::default();
        p.push(PartReq {
            sm: 2,
            id: 9,
            line_addr: 77,
            kind: ReqKind::Atomic,
        });
        let resps = drain(&mut p, &mut s, 500);
        assert_eq!(resps.len(), 1);
        assert_eq!(resps[0].1.sm, 2);
        assert_eq!(
            s.atomics, 0,
            "partition does not count atomics; the L1 layer does"
        );
        assert_eq!(s.dram_reads, 1);
    }

    #[test]
    fn row_buffer_hits_are_faster_and_counted() {
        let c = cfg();
        let mut p = Partition::new(&c);
        let mut s = MemStats::default();
        // Two different lines in the same DRAM row (consecutive lines).
        p.push(PartReq {
            sm: 0,
            id: 1,
            line_addr: 0,
            kind: ReqKind::Load,
        });
        p.push(PartReq {
            sm: 0,
            id: 2,
            line_addr: 1,
            kind: ReqKind::Load,
        });
        drain(&mut p, &mut s, 1000);
        assert_eq!(s.dram_row_misses, 1);
        assert_eq!(s.dram_row_hits, 1);
    }

    #[test]
    fn dram_bandwidth_spaces_issues() {
        let c = cfg();
        let mut d = Dram::new(&c);
        let mut s = MemStats::default();
        assert!(d.try_push(0, false));
        assert!(d.try_push(1000, false)); // different bank+row
        d.tick(0, &mut s);
        assert_eq!(s.dram_reads + s.dram_writes, 1, "one issue in cycle 0");
        d.tick(1, &mut s);
        assert_eq!(
            s.dram_reads, 1,
            "second issue blocked until burst slot frees"
        );
        d.tick(u64::from(c.dram_burst_cycles), &mut s);
        assert_eq!(s.dram_reads, 2);
    }

    #[test]
    fn fr_fcfs_prefers_row_hits_over_older_requests() {
        let c = cfg();
        let mut d = Dram::new(&c);
        let mut s = MemStats::default();
        // Open row 0 on bank 0.
        assert!(d.try_push(0, false));
        let mut now = 0;
        while d.tick(now, &mut s).is_empty() {
            now += 1;
        }
        // Queue: first an older request to a DIFFERENT row of bank 0,
        // then a younger row-0 hit. FR-FCFS serves the hit first.
        let other_row = u64::from(c.dram_banks) * u64::from(c.dram_row_bytes / c.line_bytes);
        assert!(d.try_push(other_row, false));
        assert!(d.try_push(1, false)); // row 0, line 1: a row hit
        let hits_before = s.dram_row_hits;
        loop {
            now += 1;
            let done = d.tick(now, &mut s);
            if !done.is_empty() {
                assert_eq!(done, vec![1], "the row hit finishes first");
                break;
            }
        }
        assert_eq!(s.dram_row_hits, hits_before + 1);
    }

    #[test]
    fn dram_queue_depth_enforced() {
        let c = cfg();
        let mut d = Dram::new(&c);
        for i in 0..c.dram_queue_depth as u64 {
            assert!(d.try_push(i, false));
        }
        assert!(!d.try_push(999, false));
    }
}
