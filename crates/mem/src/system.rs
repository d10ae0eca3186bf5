//! The top-level memory system an SM talks to.
//!
//! One [`MemSystem`] serves all SMs: it owns the per-SM L1D front-ends
//! (L1 cache, MSHRs, response queue), the two interconnect directions and
//! the memory partitions, and is ticked once per core cycle by the GPU
//! model.
//!
//! ## Protocol
//!
//! Each cycle the simulator calls [`MemSystem::tick`], then SMs submit
//! coalesced transactions with [`MemSystem::try_submit`] (which may refuse —
//! MSHR or port exhaustion — in which case the LD/ST unit retries next
//! cycle) and drain completions with [`MemSystem::pop_response`].
//! Responses are matched by the opaque `id` the SM chose at submission.
//! These two calls (and their `_traced` forms) are the only way into
//! memory: an accepted request enters the SM→partition interconnect at
//! once, so requests are injected in the order the SMs submit them.
//!
//! ## Queries for a stalled SM
//!
//! An SM whose next tick cannot change anything visits quietly instead
//! (DESIGN.md §18). Three calls serve it, none of which moves a request:
//! [`MemSystem::response_ready`] says whether its front has a response
//! to pop this cycle (the input that wakes it),
//! [`MemSystem::refuses_load`] whether its next load submission would be
//! refused for want of an MSHR entry or merge slot (which only a
//! response reaching its front can change), and
//! [`MemSystem::count_refusal`] counts the refusal such a retry would
//! have met.

use crate::cache::{Cache, Probe};
use crate::collections::{push_sorted, IntMap};
use crate::config::MemConfig;
use crate::icnt::Icnt;
use crate::mshr::{Mshr, MshrAlloc};
use crate::partition::{PartReq, PartResp, Partition};
use crate::stats::MemStats;
use std::collections::VecDeque;
use vt_json::{field, impl_json, Count, Json, Rows, Sorted, ToJson};
use vt_trace::{MemLevel, NullSink, TraceEvent, TraceSink};

pub use crate::partition::ReqKind;

/// How often (in cycles) per-SM MSHR occupancy counters are emitted to an
/// enabled sink. Sampled, not per-cycle, to keep traced runs light.
const COUNTER_PERIOD: u64 = 128;

/// Outcome of [`MemSystem::try_submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Submit {
    /// Accepted and served by the L1 (short latency).
    Hit,
    /// Accepted but going below the L1 (long latency) — a fresh miss, a
    /// merge onto an in-flight miss, a store, or an atomic.
    Miss,
    /// Rejected (port or MSHR exhaustion); retry next cycle.
    Rejected,
}

impl Submit {
    /// Whether the transaction was accepted.
    pub fn accepted(&self) -> bool {
        !matches!(self, Submit::Rejected)
    }
}

/// Flits for a request header (loads, atomics).
const REQ_FLITS: u32 = 1;
/// Flits for a store request (header + 128 B data).
const STORE_FLITS: u32 = 5;

/// One SM's private slice of the memory system: L1 cache, MSHRs and the
/// ready-response queue.
#[derive(Debug)]
struct SmFront {
    sm_id: usize,
    cache: Cache,
    mshr: Mshr<u64>,
    ports_used: u32,
    window_hits: u64,
    window_accesses: u64,
    /// (ready_cycle, seq, id) in ascending order: L1 hits are due a
    /// fixed latency after submission and fills at once, so inserts land
    /// at or near the back. `seq` is per-front and makes pop order stable
    /// for same-cycle completions; entries of one front are never
    /// compared against another's, so per-front numbering pops in
    /// exactly the order a globally numbered queue would.
    resps: VecDeque<(u64, u64, u64)>,
    submit_times: IntMap<u64, u64>,
    seq: u64,
    /// Front-side counters (submit path and load completion); the
    /// aggregate is assembled by [`MemSystem::stats`].
    stats: MemStats,
    l1_ports: u32,
    l1_hit_latency: u64,
}

impl SmFront {
    fn new(cfg: &MemConfig, sm_id: usize) -> SmFront {
        SmFront {
            sm_id,
            cache: Cache::new(cfg.l1_sets(), cfg.l1_ways),
            mshr: Mshr::new(cfg.l1_mshr_entries, cfg.l1_mshr_merges),
            ports_used: 0,
            window_hits: 0,
            window_accesses: 0,
            resps: VecDeque::new(),
            submit_times: IntMap::default(),
            seq: 0,
            stats: MemStats::default(),
            l1_ports: cfg.l1_ports,
            l1_hit_latency: u64::from(cfg.l1_hit_latency),
        }
    }

    /// Submits one coalesced transaction at cycle `now`, pushing what goes
    /// below the L1 into `to_mem`; see [`MemSystem::try_submit_traced`].
    fn submit<S: TraceSink>(
        &mut self,
        to_mem: &mut Icnt<PartReq>,
        now: u64,
        id: u64,
        line_addr: u64,
        kind: ReqKind,
        sink: &mut S,
    ) -> Submit {
        let sm = self.sm_id;
        let req = PartReq {
            sm,
            id,
            line_addr,
            kind,
        };
        let begin = |sink: &mut S, level: MemLevel| {
            if S::ENABLED {
                sink.emit(
                    now,
                    TraceEvent::MemBegin {
                        sm: sm as u32,
                        req: id,
                        line_addr,
                        kind: kind.trace_kind(),
                        level,
                    },
                );
            }
        };
        if self.ports_used >= self.l1_ports {
            self.stats.l1_stalls += 1;
            return Submit::Rejected;
        }
        match kind {
            ReqKind::Load => {
                if self.cache.probe(line_addr, now) == Probe::Hit {
                    self.ports_used += 1;
                    self.window_hits += 1;
                    self.window_accesses += 1;
                    self.stats.l1_accesses += 1;
                    self.stats.l1_hits += 1;
                    self.seq += 1;
                    let ready = now + self.l1_hit_latency;
                    push_sorted(&mut self.resps, (ready, self.seq, id));
                    self.stats.loads_completed += 1;
                    self.stats.load_latency_sum += self.l1_hit_latency;
                    self.stats.load_latency.record(self.l1_hit_latency);
                    begin(sink, MemLevel::L1Hit);
                    return Submit::Hit;
                }
                match self.mshr.alloc(line_addr, id) {
                    MshrAlloc::NewMiss => {
                        self.ports_used += 1;
                        self.window_accesses += 1;
                        self.stats.l1_accesses += 1;
                        self.stats.l1_misses += 1;
                        self.submit_times.insert(id, now);
                        begin(sink, MemLevel::L1Miss);
                        to_mem.push(now, REQ_FLITS, req);
                        Submit::Miss
                    }
                    MshrAlloc::Merged => {
                        self.ports_used += 1;
                        self.window_accesses += 1;
                        self.stats.l1_accesses += 1;
                        self.stats.l1_mshr_merged += 1;
                        self.submit_times.insert(id, now);
                        begin(sink, MemLevel::L1MshrMerge);
                        Submit::Miss
                    }
                    MshrAlloc::Stall => {
                        self.stats.l1_stalls += 1;
                        Submit::Rejected
                    }
                }
            }
            ReqKind::Store => {
                self.ports_used += 1;
                // Write-through, write-evict: drop any cached copy and
                // send the data to the partition.
                self.cache.invalidate(line_addr);
                if S::ENABLED {
                    sink.emit(
                        now,
                        TraceEvent::StoreSubmit {
                            sm: sm as u32,
                            line_addr,
                        },
                    );
                }
                to_mem.push(now, STORE_FLITS, req);
                Submit::Miss
            }
            ReqKind::Atomic => {
                self.ports_used += 1;
                self.stats.atomics += 1;
                self.cache.invalidate(line_addr);
                self.submit_times.insert(id, now);
                begin(sink, MemLevel::L1Bypass);
                to_mem.push(now, REQ_FLITS, req);
                Submit::Miss
            }
        }
    }

    /// Pops one completed load/atomic id ready at or before `now`; see
    /// [`MemSystem::pop_response_traced`].
    fn pop<S: TraceSink>(&mut self, now: u64, sink: &mut S) -> Option<u64> {
        match self.resps.front() {
            Some(&(ready, _, _)) if ready <= now => {
                let (_, _, id) = self.resps.pop_front().expect("peeked");
                if S::ENABLED {
                    sink.emit(
                        now,
                        TraceEvent::MemEnd {
                            sm: self.sm_id as u32,
                            req: id,
                        },
                    );
                }
                Some(id)
            }
            _ => None,
        }
    }

    /// Takes and resets this SM's windowed L1 counters: `(hits, lookups)`
    /// since the last call. Feeds adaptive thrash-control policies.
    fn take_l1_window(&mut self) -> (u64, u64) {
        let w = (self.window_hits, self.window_accesses);
        self.window_hits = 0;
        self.window_accesses = 0;
        w
    }

    fn finish_load(&mut self, id: u64, now: u64) {
        if let Some(t) = self.submit_times.remove(&id) {
            let latency = now.saturating_sub(t);
            self.stats.loads_completed += 1;
            self.stats.load_latency_sum += latency;
            self.stats.load_latency.record(latency);
        }
    }

    fn quiesced(&self) -> bool {
        self.mshr.is_empty() && self.resps.is_empty()
    }
}

// The response queue is written in ascending `(ready, seq, id)` order
// (each key unique per front), so the read-back queue pops in the exact
// order; `submit_times` is written as `id, cycle` rows sorted by id.
impl_json!(SmFront {
    sm_id,
    cache,
    mshr,
    ports_used,
    window_hits: Count,
    window_accesses: Count,
    resps: Sorted,
    submit_times: Rows,
    seq: Count,
    stats,
    l1_ports,
    l1_hit_latency: Count,
});

/// The complete memory hierarchy below the SMs' LD/ST units.
#[derive(Debug)]
pub struct MemSystem {
    fronts: Vec<SmFront>,
    to_mem: Icnt<PartReq>,
    to_sm: Icnt<PartResp>,
    partitions: Vec<Partition>,
    /// Back-end counters (partitions, DRAM, MSHR occupancy); front-side
    /// counters live in each [`SmFront`].
    stats: MemStats,
    cfg: MemConfig,
    now: u64,
    /// Requests and responses the interconnect delivers in one cycle
    /// (buffers reused from tick to tick, empty between ticks).
    arrived: Vec<PartReq>,
    returned: Vec<PartResp>,
}

impl MemSystem {
    /// Builds the hierarchy for `num_sms` SMs.
    pub fn new(cfg: &MemConfig, num_sms: usize) -> MemSystem {
        MemSystem {
            fronts: (0..num_sms).map(|sm| SmFront::new(cfg, sm)).collect(),
            to_mem: Icnt::new(cfg.icnt_latency, cfg.icnt_flits_per_cycle),
            to_sm: Icnt::new(cfg.icnt_latency, cfg.icnt_flits_per_cycle),
            partitions: (0..cfg.partitions).map(|_| Partition::new(cfg)).collect(),
            stats: MemStats::default(),
            cfg: cfg.clone(),
            now: 0,
            arrived: Vec::new(),
            returned: Vec::new(),
        }
    }

    /// Bytes per cache line / coalescing segment.
    pub fn line_bytes(&self) -> u32 {
        self.cfg.line_bytes
    }

    /// Advances the whole hierarchy to cycle `now`. Call once per cycle,
    /// before the SMs submit that cycle's transactions.
    pub fn tick(&mut self, now: u64) {
        self.tick_traced(now, &mut NullSink);
    }

    /// [`MemSystem::tick`] with trace instrumentation; the `NullSink`
    /// instantiation is the plain tick.
    pub fn tick_traced<S: TraceSink>(&mut self, now: u64, sink: &mut S) {
        self.now = now;
        let mut mshr_in_flight = 0u64;
        for f in &mut self.fronts {
            f.ports_used = 0;
            mshr_in_flight += f.mshr.len() as u64;
        }
        self.stats.mshr_occupancy.sample(mshr_in_flight);
        if S::ENABLED && now.is_multiple_of(COUNTER_PERIOD) {
            for f in &self.fronts {
                sink.emit(
                    now,
                    TraceEvent::Counter {
                        sm: f.sm_id as u32,
                        name: "l1_mshr",
                        value: f.mshr.len() as u64,
                    },
                );
            }
        }
        // Partitions produce responses into the SM-bound network.
        for p in &mut self.partitions {
            p.tick_traced(now, &mut self.stats, &mut self.to_sm, sink);
        }
        // Requests arrive at partitions.
        self.to_mem.deliver(now, &mut self.arrived);
        for req in self.arrived.drain(..) {
            if S::ENABLED && req.kind != ReqKind::Store {
                sink.emit(
                    now,
                    TraceEvent::MemAt {
                        sm: req.sm as u32,
                        req: req.id,
                        level: MemLevel::PartitionArrive,
                    },
                );
            }
            let p = self.cfg.partition_of(req.line_addr);
            self.partitions[p].push(req);
        }
        // Responses arrive at L1s.
        let mut returned = std::mem::take(&mut self.returned);
        self.to_sm.deliver(now, &mut returned);
        for resp in returned.drain(..) {
            self.on_response(resp, now, sink);
        }
        self.returned = returned;
    }

    fn on_response<S: TraceSink>(&mut self, resp: PartResp, now: u64, sink: &mut S) {
        let front = &mut self.fronts[resp.sm];
        match resp.kind {
            ReqKind::Load => {
                // Fill; write-through means victims are never dirty.
                let _ = front.cache.fill(resp.line_addr, now, false);
                for id in front.mshr.fill(resp.line_addr) {
                    if S::ENABLED {
                        sink.emit(
                            now,
                            TraceEvent::MemAt {
                                sm: resp.sm as u32,
                                req: id,
                                level: MemLevel::L1Fill,
                            },
                        );
                    }
                    front.seq += 1;
                    push_sorted(&mut front.resps, (now, front.seq, id));
                    front.finish_load(id, now);
                }
            }
            ReqKind::Atomic => {
                if S::ENABLED {
                    sink.emit(
                        now,
                        TraceEvent::MemAt {
                            sm: resp.sm as u32,
                            req: resp.id,
                            level: MemLevel::L1Fill,
                        },
                    );
                }
                front.seq += 1;
                push_sorted(&mut front.resps, (now, front.seq, resp.id));
                front.finish_load(resp.id, now);
            }
            ReqKind::Store => {}
        }
    }

    /// Submits one coalesced transaction from SM `sm`.
    ///
    /// `line_addr` is the byte address divided by [`MemSystem::line_bytes`].
    /// Returns [`Submit::Rejected`] on a resource stall (L1 port or MSHR
    /// exhaustion); the caller must retry with the same `id` on a later
    /// cycle. Loads and atomics eventually produce `id` via
    /// [`MemSystem::pop_response`]; stores complete immediately from the
    /// SM's perspective. The `Hit`/`Miss` distinction feeds the Virtual
    /// Thread swap trigger, which only reacts to long-latency stalls.
    pub fn try_submit(&mut self, sm: usize, id: u64, line_addr: u64, kind: ReqKind) -> Submit {
        self.try_submit_traced(sm, id, line_addr, kind, &mut NullSink)
    }

    /// [`MemSystem::try_submit`] with trace instrumentation. An accepted
    /// load/atomic opens the request's async span ([`TraceEvent::MemBegin`]);
    /// a rejection emits nothing, so the retried submission still opens the
    /// span exactly once.
    pub fn try_submit_traced<S: TraceSink>(
        &mut self,
        sm: usize,
        id: u64,
        line_addr: u64,
        kind: ReqKind,
        sink: &mut S,
    ) -> Submit {
        self.fronts[sm].submit(&mut self.to_mem, self.now, id, line_addr, kind, sink)
    }

    /// Pops one completed load/atomic id for SM `sm`, if any is ready.
    pub fn pop_response(&mut self, sm: usize) -> Option<u64> {
        self.pop_response_traced(sm, &mut NullSink)
    }

    /// [`MemSystem::pop_response`] with trace instrumentation; popping a
    /// response closes the request's async span ([`TraceEvent::MemEnd`]).
    pub fn pop_response_traced<S: TraceSink>(&mut self, sm: usize, sink: &mut S) -> Option<u64> {
        self.fronts[sm].pop(self.now, sink)
    }

    /// Whether SM `sm` has a response to pop this cycle.
    pub fn response_ready(&self, sm: usize) -> bool {
        let front = self.fronts[sm].resps.front();
        front.is_some_and(|&(ready, _, _)| ready <= self.now)
    }

    /// Whether SM `sm`'s next submission of a load of `line_addr`, made
    /// first in a later cycle, would be refused for want of an MSHR entry
    /// or merge slot: the line misses the L1 and the MSHRs cannot take
    /// it. Only a response reaching the SM's front frees an entry or
    /// fills a line, and every such response is also one to pop, so the
    /// answer holds until [`MemSystem::response_ready`] says so.
    pub fn refuses_load(&self, sm: usize, line_addr: u64) -> bool {
        let front = &self.fronts[sm];
        !front.cache.contains(line_addr) && front.mshr.refuses(line_addr)
    }

    /// Counts one L1 refusal for SM `sm`: what a retried submission that
    /// [`MemSystem::refuses_load`] refuses would have counted.
    pub fn count_refusal(&mut self, sm: usize) {
        self.fronts[sm].stats.l1_stalls += 1;
    }

    /// Whether the entire hierarchy has no request in flight.
    pub fn quiesced(&self) -> bool {
        self.to_mem.is_empty()
            && self.to_sm.is_empty()
            && self.partitions.iter().all(Partition::quiesced)
            && self.fronts.iter().all(SmFront::quiesced)
    }

    /// Loads and atomics currently outstanding (submitted, not yet
    /// responded).
    pub fn pending_loads(&self) -> usize {
        self.fronts.iter().map(|f| f.submit_times.len()).sum()
    }

    /// L1 MSHR entries currently allocated across all SM fronts — the
    /// instantaneous value behind the `mshr_occupancy` gauge, exposed for
    /// the windowed metrics sampler.
    pub fn mshr_in_flight(&self) -> u64 {
        self.fronts.iter().map(|f| f.mshr.len() as u64).sum()
    }

    /// Requests queued at the memory partitions (input queues plus DRAM
    /// queues/in-service), summed over partitions. A back-pressure level
    /// for the windowed metrics sampler.
    pub fn partition_queue_len(&self) -> u64 {
        self.partitions.iter().map(Partition::queue_len).sum()
    }

    /// Takes and resets SM `sm`'s windowed L1 counters: `(hits, lookups)`
    /// since the last call. Feeds adaptive thrash-control policies.
    pub fn take_l1_window(&mut self, sm: usize) -> (u64, u64) {
        self.fronts[sm].take_l1_window()
    }

    /// Accumulated statistics: the back-end counters merged with every
    /// front's, in SM order. All fields are sums/mins/maxes, so the
    /// aggregate equals what a single shared counter block would have
    /// recorded.
    pub fn stats(&self) -> MemStats {
        let mut total = self.stats.clone();
        for f in &self.fronts {
            total.merge(&f.stats);
        }
        total
    }

    /// Rebuilds a hierarchy from its checkpoint ([`ToJson`]). `cfg`
    /// supplies the line-interleaving function and must be the config the
    /// checkpoint was taken under; structural mismatches (partition count,
    /// MSHR capacities) are rejected, and so is a load in flight below an
    /// L1 that waits for no such line: its fill would free no entry and
    /// answer nobody, yet make the line hit.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed input or a config mismatch.
    pub fn restore(cfg: &MemConfig, v: &Json) -> Result<MemSystem, String> {
        let mem = MemSystem {
            fronts: field(v, "fronts")?,
            to_mem: field(v, "to_mem")?,
            to_sm: field(v, "to_sm")?,
            partitions: field(v, "partitions")?,
            stats: field(v, "stats")?,
            cfg: cfg.clone(),
            now: field(v, "now")?,
            arrived: Vec::new(),
            returned: Vec::new(),
        };
        // Responses are routed to `fronts[sm]` by the SM each request
        // names, and a front names itself in its requests.
        let num_sms = mem.fronts.len();
        if let Some((i, f)) = mem.fronts.iter().enumerate().find(|(i, f)| f.sm_id != *i) {
            return Err(format!("front {i} names itself SM {}", f.sm_id));
        }
        let requests = mem.to_mem.items().map(|r| (r.sm, r.line_addr, r.kind));
        let responses = mem.to_sm.items().map(|r| (r.sm, r.line_addr, r.kind));
        let held = mem.partitions.iter().flat_map(Partition::held);
        let below_l1: Vec<_> = requests.chain(responses).chain(held).collect();
        if let Some((sm, ..)) = below_l1.iter().find(|&&(sm, ..)| sm >= num_sms) {
            return Err(format!(
                "memory request names SM {sm}, but there are {num_sms}"
            ));
        }
        if let Some((sm, line, _)) = below_l1
            .iter()
            .find(|&&(sm, line, kind)| kind == ReqKind::Load && !mem.fronts[sm].mshr.pending(line))
        {
            return Err(format!(
                "memory: a load of line {line} is in flight for SM {sm}, \
                 whose L1 has no miss pending on it"
            ));
        }
        if mem.partitions.len() != cfg.partitions as usize {
            return Err(format!(
                "checkpoint has {} partitions, config has {}",
                mem.partitions.len(),
                cfg.partitions
            ));
        }
        let capacities = |entries: u32, merges: u32| (entries as usize, merges as usize);
        let l1 = capacities(cfg.l1_mshr_entries, cfg.l1_mshr_merges);
        let l2 = capacities(cfg.l2_mshr_entries, cfg.l2_mshr_merges);
        let tables = (mem.fronts.iter().map(|f| ("L1", f.mshr.capacities(), l1)))
            .chain((mem.partitions.iter()).map(|p| ("L2", p.mshr().capacities(), l2)));
        for (level, got, want) in tables {
            if got != want {
                return Err(format!(
                    "{level} MSHRs of {got:?} (entries, merges), config has {want:?}"
                ));
            }
        }
        Ok(mem)
    }
}

/// The entire hierarchy — every front, both interconnect directions,
/// every partition and the back-end counters — for checkpointing.
impl ToJson for MemSystem {
    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("fronts".into(), self.fronts.to_json()),
            ("to_mem".into(), self.to_mem.to_json()),
            ("to_sm".into(), self.to_sm.to_json()),
            ("partitions".into(), self.partitions.to_json()),
            ("stats".into(), self.stats.to_json()),
            ("now".into(), self.now.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_until_response(mem: &mut MemSystem, sm: usize, start: u64, limit: u64) -> (u64, u64) {
        for cycle in start..start + limit {
            mem.tick(cycle);
            if let Some(id) = mem.pop_response(sm) {
                return (cycle, id);
            }
        }
        panic!("no response within {limit} cycles");
    }

    #[test]
    fn load_miss_round_trip_latency_is_plausible() {
        let cfg = MemConfig::default();
        let mut mem = MemSystem::new(&cfg, 2);
        mem.tick(0);
        assert!(mem.try_submit(0, 1, 100, ReqKind::Load).accepted());
        let (t, id) = run_until_response(&mut mem, 0, 1, 2000);
        assert_eq!(id, 1);
        let expected_min =
            u64::from(2 * cfg.icnt_latency + cfg.dram_row_miss_latency + cfg.dram_burst_cycles);
        assert!(t >= expected_min, "{t} < {expected_min}");
        assert!(t < u64::from(cfg.uncontended_miss_latency()) * 3);
        assert_eq!(mem.stats().l1_misses, 1);
        // Wait for quiescence.
        for c in t + 1..t + 10 {
            mem.tick(c);
        }
        assert!(mem.quiesced());
    }

    #[test]
    fn second_load_hits_l1() {
        let cfg = MemConfig::default();
        let mut mem = MemSystem::new(&cfg, 1);
        mem.tick(0);
        assert!(mem.try_submit(0, 1, 100, ReqKind::Load).accepted());
        let (t1, _) = run_until_response(&mut mem, 0, 1, 2000);
        mem.tick(t1 + 1);
        assert!(mem.try_submit(0, 2, 100, ReqKind::Load).accepted());
        let (t2, id) = run_until_response(&mut mem, 0, t1 + 2, 200);
        assert_eq!(id, 2);
        assert_eq!(t2 - (t1 + 1), u64::from(cfg.l1_hit_latency));
        assert_eq!(mem.stats().l1_hits, 1);
    }

    #[test]
    fn mshr_merging_same_line() {
        let mut mem = MemSystem::new(&MemConfig::default(), 1);
        mem.tick(0);
        assert!(mem.try_submit(0, 1, 100, ReqKind::Load).accepted());
        mem.tick(1);
        assert!(mem.try_submit(0, 2, 100, ReqKind::Load).accepted());
        let mut got = Vec::new();
        for cycle in 2..2000 {
            mem.tick(cycle);
            while let Some(id) = mem.pop_response(0) {
                got.push(id);
            }
            if got.len() == 2 {
                break;
            }
        }
        assert_eq!(got, vec![1, 2]);
        assert_eq!(mem.stats().l1_misses, 1);
        assert_eq!(mem.stats().l1_mshr_merged, 1);
        assert_eq!(mem.stats().dram_reads, 1);
    }

    #[test]
    fn l1_port_limit_rejects_second_submission() {
        let cfg = MemConfig::default(); // 1 port
        let mut mem = MemSystem::new(&cfg, 1);
        mem.tick(0);
        assert_eq!(mem.try_submit(0, 1, 1, ReqKind::Load), Submit::Miss);
        assert_eq!(
            mem.try_submit(0, 2, 2, ReqKind::Load),
            Submit::Rejected,
            "port exhausted"
        );
        assert_eq!(mem.stats().l1_stalls, 1);
        mem.tick(1);
        assert!(
            mem.try_submit(0, 2, 2, ReqKind::Load).accepted(),
            "new cycle, new port"
        );
    }

    #[test]
    fn mshr_exhaustion_stalls() {
        let cfg = MemConfig {
            l1_mshr_entries: 2,
            l1_ports: 8,
            ..MemConfig::default()
        };
        let mut mem = MemSystem::new(&cfg, 1);
        mem.tick(0);
        assert!(mem.try_submit(0, 1, 10, ReqKind::Load).accepted());
        assert!(mem.try_submit(0, 2, 20, ReqKind::Load).accepted());
        assert_eq!(
            mem.try_submit(0, 3, 30, ReqKind::Load),
            Submit::Rejected,
            "MSHRs full"
        );
    }

    #[test]
    fn stores_complete_without_response() {
        let mut mem = MemSystem::new(&MemConfig::default(), 1);
        mem.tick(0);
        assert!(mem.try_submit(0, 1, 5, ReqKind::Store).accepted());
        for cycle in 1..2000 {
            mem.tick(cycle);
            assert_eq!(mem.pop_response(0), None);
            if mem.quiesced() {
                break;
            }
        }
        assert!(mem.quiesced(), "store drained");
        assert_eq!(mem.stats().stores, 1);
    }

    #[test]
    fn store_invalidates_l1_copy() {
        let cfg = MemConfig::default();
        let mut mem = MemSystem::new(&cfg, 1);
        mem.tick(0);
        assert!(mem.try_submit(0, 1, 100, ReqKind::Load).accepted());
        let (t, _) = run_until_response(&mut mem, 0, 1, 2000);
        mem.tick(t + 1);
        assert!(mem.try_submit(0, 2, 100, ReqKind::Store).accepted());
        mem.tick(t + 2);
        assert!(mem.try_submit(0, 3, 100, ReqKind::Load).accepted());
        let (_t2, id) = run_until_response(&mut mem, 0, t + 3, 2000);
        assert_eq!(id, 3);
        assert_eq!(mem.stats().l1_hits, 0, "write-evict forced a re-fetch");
    }

    #[test]
    fn atomic_round_trips_and_bypasses_l1() {
        let mut mem = MemSystem::new(&MemConfig::default(), 1);
        mem.tick(0);
        assert!(mem.try_submit(0, 9, 40, ReqKind::Atomic).accepted());
        let (_, id) = run_until_response(&mut mem, 0, 1, 2000);
        assert_eq!(id, 9);
        assert_eq!(mem.stats().atomics, 1);
        // Atomics never fill the L1.
        mem.tick(5000);
        assert_eq!(mem.try_submit(0, 10, 40, ReqKind::Load), Submit::Miss);
        assert_eq!(mem.stats().l1_hits, 0);
    }

    #[test]
    fn per_sm_isolation() {
        let mut mem = MemSystem::new(&MemConfig::default(), 2);
        mem.tick(0);
        assert!(mem.try_submit(0, 1, 100, ReqKind::Load).accepted());
        assert!(mem.try_submit(1, 2, 100, ReqKind::Load).accepted());
        let mut got = [Vec::new(), Vec::new()];
        for cycle in 1..3000 {
            mem.tick(cycle);
            for (sm, bucket) in got.iter_mut().enumerate() {
                while let Some(id) = mem.pop_response(sm) {
                    bucket.push(id);
                }
            }
        }
        assert_eq!(got[0], vec![1]);
        assert_eq!(got[1], vec![2]);
        // Both SMs missed their private L1s; the L2 merged the fills.
        assert_eq!(mem.stats().l1_misses, 2);
        assert_eq!(mem.stats().dram_reads, 1);
    }

    #[test]
    fn l1_window_counts_and_resets() {
        let mut mem = MemSystem::new(&MemConfig::default(), 1);
        mem.tick(0);
        assert!(mem.try_submit(0, 1, 100, ReqKind::Load).accepted());
        let (t, _) = run_until_response(&mut mem, 0, 1, 2000);
        mem.tick(t + 1);
        assert!(mem.try_submit(0, 2, 100, ReqKind::Load).accepted()); // hit
        let (h, a) = mem.take_l1_window(0);
        assert_eq!((h, a), (1, 2), "one miss + one hit observed");
        assert_eq!(mem.take_l1_window(0), (0, 0), "window resets");
    }

    #[test]
    fn load_latency_stat_accumulates() {
        let mut mem = MemSystem::new(&MemConfig::default(), 1);
        mem.tick(0);
        assert!(mem.try_submit(0, 1, 100, ReqKind::Load).accepted());
        run_until_response(&mut mem, 0, 1, 2000);
        assert_eq!(mem.stats().loads_completed, 1);
        assert!(mem.stats().avg_load_latency() > 100.0);
    }

    #[test]
    fn snapshot_restore_mid_flight_is_bit_identical() {
        // Put a mix of hits, misses, merges, stores and atomics in flight,
        // snapshot through the JSON text form, then run the original and
        // the restored copy side by side to quiescence.
        let cfg = MemConfig::default();
        let mut mem = MemSystem::new(&cfg, 2);
        for cycle in 0..40u64 {
            mem.tick(cycle);
            let sm = (cycle % 2) as usize;
            let id = cycle + 1;
            let _ = mem.try_submit(sm, id, cycle * 3 % 7, ReqKind::Load);
            if cycle % 5 == 0 {
                let _ = mem.try_submit(sm, id + 1000, cycle, ReqKind::Store);
            }
            if cycle % 11 == 0 {
                let _ = mem.try_submit(sm, id + 2000, cycle, ReqKind::Atomic);
            }
            while mem.pop_response(sm).is_some() {}
        }
        let text = mem.to_json().pretty();
        let mut copy = MemSystem::restore(&cfg, &vt_json::Json::parse(&text).unwrap()).unwrap();
        for cycle in 40..4000u64 {
            mem.tick(cycle);
            copy.tick(cycle);
            for sm in 0..2 {
                loop {
                    let a = mem.pop_response(sm);
                    let b = copy.pop_response(sm);
                    assert_eq!(a, b, "cycle {cycle} sm {sm}");
                    if a.is_none() {
                        break;
                    }
                }
            }
            if mem.quiesced() {
                break;
            }
        }
        assert!(mem.quiesced() && copy.quiesced());
        assert_eq!(mem.stats(), copy.stats());
        assert_eq!(mem.pending_loads(), copy.pending_loads());
        // A second snapshot of the restored copy is byte-identical.
        assert_eq!(mem.to_json().pretty(), copy.to_json().pretty());
    }

    #[test]
    fn restore_rejects_partition_mismatch() {
        let cfg = MemConfig::default();
        let mem = MemSystem::new(&cfg, 1);
        let snap = mem.to_json();
        let bad = MemConfig {
            partitions: cfg.partitions + 1,
            ..cfg
        };
        assert!(MemSystem::restore(&bad, &snap)
            .unwrap_err()
            .contains("partitions"));
    }
}
