//! The SM's LD/ST unit: an in-order queue of warp memory instructions
//! feeding shared memory (with bank-conflict serialisation) and the L1D.

use crate::scoreboard::RegNum;
use std::collections::{HashMap, VecDeque};
use vt_isa::Reg;
use vt_json::{
    decode_elem, elems, impl_json, not_a, Codec, Count, FromJson, Json, NonZero, Rows, ToJson,
};
use vt_mem::collections::IntMap;
use vt_mem::{MemSystem, ReqKind, Submit};
use vt_trace::{NullSink, TraceSink};

/// One warp memory instruction queued in the LD/ST unit.
#[derive(Debug, Clone)]
pub struct MemWork {
    /// Warp slot of the issuing warp.
    pub warp_slot: usize,
    /// Uid of the issuing warp, guarding against slot reuse.
    pub warp_uid: u64,
    /// Program counter the instruction issued from (hotspot profiling).
    pub pc: u32,
    /// Cycle the instruction issued at (round-trip latency attribution).
    pub issued_at: u64,
    /// Operation body.
    pub body: MemWorkBody,
}

/// The two paths through the LD/ST unit.
#[derive(Debug, Clone)]
pub enum MemWorkBody {
    /// Shared-memory access: serialised over bank-conflict rounds, then a
    /// fixed latency to writeback (for loads).
    Shared {
        /// Conflict rounds remaining.
        rounds_left: u32,
        /// Destination register (loads only).
        dst: Option<Reg>,
    },
    /// Global access: coalesced transactions injected into the L1 one per
    /// port per cycle.
    Global {
        /// Coalesced line addresses.
        lines: Vec<u64>,
        /// How many have been accepted by the L1.
        submitted: usize,
        /// Load-group token for response matching (loads/atomics).
        token: Option<u64>,
        /// Kind submitted to the memory system.
        kind: ReqKind,
    },
}

/// A group of transactions belonging to one load/atomic instruction; the
/// destination register is released when the last one responds.
#[derive(Debug, Clone, Copy)]
pub struct LoadGroup {
    /// The token the group's transactions map back to.
    pub token: u64,
    /// Warp slot of the issuing warp.
    pub warp_slot: usize,
    /// Uid of the issuing warp, guarding against slot reuse.
    pub warp_uid: u64,
    /// Destination register to release (atomics without a destination
    /// still track completion for the pending-load count).
    pub dst: Option<Reg>,
    /// Responses still outstanding.
    pub remaining: u32,
    /// Whether any transaction of this group missed the L1 — i.e. the
    /// warp is in a *long-latency* stall, the condition the Virtual
    /// Thread swap trigger reacts to.
    pub missed: bool,
    /// Program counter the instruction issued from (hotspot profiling).
    pub pc: u32,
    /// Cycle the instruction issued at (round-trip latency attribution).
    pub issued_at: u64,
}

impl_json!(row LoadGroup [token, warp_slot, warp_uid, dst: RegNum, remaining, missed, pc, issued_at]);

/// The load groups, packed as [`LoadGroup`] rows in token order; a token
/// written twice is refused.
struct ByToken;

impl Codec<IntMap<u64, LoadGroup>> for ByToken {
    fn encode(groups: &IntMap<u64, LoadGroup>) -> Json {
        let mut rows: Vec<LoadGroup> = groups.values().copied().collect();
        rows.sort_unstable_by_key(|g| g.token);
        Rows::encode(&rows)
    }

    fn decode(v: &Json) -> Result<IntMap<u64, LoadGroup>, String> {
        let rows: Vec<LoadGroup> = Rows::decode(v)?;
        let mut groups = IntMap::default();
        groups.reserve(rows.len());
        for (i, g) in rows.into_iter().enumerate() {
            if groups.insert(g.token, g).is_some() {
                return Err(format!("[{i}] repeats a token"));
            }
        }
        Ok(groups)
    }
}

/// A shared-memory load whose rounds finished, waiting out the access
/// latency.
#[derive(Debug, Clone, Copy)]
struct SmemLoad {
    ready: u64,
    warp_slot: usize,
    warp_uid: u64,
    dst: Option<Reg>,
    pc: u32,
    issued_at: u64,
}

impl_json!(row SmemLoad [ready, warp_slot, warp_uid, dst: RegNum, pc, issued_at]);

/// Completion record returned to the SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemCompletion {
    /// Warp slot whose instruction completed.
    pub warp_slot: usize,
    /// Uid the warp had at issue; the SM drops completions whose slot has
    /// been reassigned since.
    pub warp_uid: u64,
    /// Register to clear in the warp's scoreboard, if any.
    pub dst: Option<Reg>,
    /// Whether this was a global load/atomic (decrements pending loads).
    pub was_global_load: bool,
    /// Whether the access went below the L1 (ends a long-latency stall).
    pub was_long: bool,
    /// Program counter the instruction issued from (hotspot profiling).
    pub pc: u32,
    /// Cycle the instruction issued at; `now - issued_at` is the observed
    /// round-trip latency.
    pub issued_at: u64,
}

/// An event the LD/ST unit reports to the SM.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LdstEvent {
    /// A warp memory instruction fully completed.
    Completed(MemCompletion),
    /// A load/atomic was observed to go below the L1: the issuing warp
    /// has entered a long-latency stall.
    MissObserved {
        /// Warp slot of the stalled warp.
        warp_slot: usize,
        /// Uid the warp had at issue.
        warp_uid: u64,
    },
}

/// The LD/ST unit of one SM.
#[derive(Debug)]
pub struct LdstUnit {
    queue: VecDeque<MemWork>,
    depth: usize,
    smem_latency: u64,
    groups: IntMap<u64, LoadGroup>,
    req_to_group: IntMap<u64, u64>,
    next_id: u64,
    sm_id: usize,
    /// Shared loads whose rounds finished, in ready order.
    smem_inflight: VecDeque<SmemLoad>,
}

impl LdstUnit {
    /// A unit for SM `sm_id` with the given queue depth and conflict-free
    /// shared-memory latency.
    pub fn new(sm_id: usize, depth: u32, smem_latency: u32) -> LdstUnit {
        LdstUnit {
            queue: VecDeque::new(),
            depth: depth.max(1) as usize,
            smem_latency: u64::from(smem_latency),
            groups: IntMap::default(),
            req_to_group: IntMap::default(),
            next_id: 0,
            sm_id,
            smem_inflight: VecDeque::new(),
        }
    }

    /// Whether another warp memory instruction can be accepted this cycle.
    pub fn has_space(&self) -> bool {
        self.queue.len() < self.depth
    }

    /// Queue occupancy.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The line the queue's head submits next, when the head is a global
    /// load.
    pub(crate) fn head_load(&self) -> Option<u64> {
        match &self.queue.front()?.body {
            MemWorkBody::Global {
                lines,
                submitted,
                kind: ReqKind::Load,
                ..
            } => Some(lines[*submitted]),
            _ => None,
        }
    }

    /// The SM this unit submits and drains responses as.
    pub(crate) fn sm_id(&self) -> usize {
        self.sm_id
    }

    /// The cycle the next shared-memory load finishes its latency.
    pub(crate) fn smem_due(&self) -> Option<u64> {
        self.smem_inflight.front().map(|load| load.ready)
    }

    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        ((self.sm_id as u64) << 40) | self.next_id
    }

    /// Enqueues a shared-memory access of `rounds` bank-conflict rounds.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full; callers must check
    /// [`LdstUnit::has_space`] at issue.
    pub fn push_shared(
        &mut self,
        warp_slot: usize,
        warp_uid: u64,
        rounds: u32,
        dst: Option<Reg>,
        pc: u32,
        issued_at: u64,
    ) {
        assert!(self.has_space(), "LD/ST queue overflow");
        self.queue.push_back(MemWork {
            warp_slot,
            warp_uid,
            pc,
            issued_at,
            body: MemWorkBody::Shared {
                rounds_left: rounds.max(1),
                dst,
            },
        });
    }

    /// Enqueues a global access of coalesced `lines`. For loads and
    /// atomics a load group is created so the destination register is
    /// released when every transaction has responded.
    ///
    /// # Panics
    ///
    /// Panics if the queue is full or `lines` is empty.
    #[allow(clippy::too_many_arguments)]
    pub fn push_global(
        &mut self,
        warp_slot: usize,
        warp_uid: u64,
        lines: Vec<u64>,
        kind: ReqKind,
        dst: Option<Reg>,
        pc: u32,
        issued_at: u64,
    ) {
        assert!(self.has_space(), "LD/ST queue overflow");
        assert!(!lines.is_empty(), "global access with no transactions");
        let token = if kind == ReqKind::Store {
            None
        } else {
            let token = self.fresh_id();
            self.groups.insert(
                token,
                LoadGroup {
                    token,
                    warp_slot,
                    warp_uid,
                    dst,
                    remaining: lines.len() as u32,
                    missed: false,
                    pc,
                    issued_at,
                },
            );
            Some(token)
        };
        self.queue.push_back(MemWork {
            warp_slot,
            warp_uid,
            pc,
            issued_at,
            body: MemWorkBody::Global {
                lines,
                submitted: 0,
                token,
                kind,
            },
        });
    }

    /// Advances the unit one cycle against `mem`, which must have been
    /// ticked to `now`, and returns its events; see
    /// [`LdstUnit::tick_traced`].
    pub fn tick(&mut self, now: u64, mem: &mut MemSystem) -> Vec<LdstEvent> {
        let mut out = Vec::new();
        self.tick_traced(now, mem, &mut NullSink, &mut out);
        out
    }

    /// Advances the unit one cycle: submits the front work's transactions
    /// to `mem` as this unit's SM, completes shared-memory accesses whose
    /// latency elapsed and drains this SM's global responses. Appends the
    /// events for the SM to apply to `out`, the caller's buffer, reused
    /// from tick to tick.
    pub fn tick_traced<S: TraceSink>(
        &mut self,
        now: u64,
        mem: &mut MemSystem,
        sink: &mut S,
        out: &mut Vec<LdstEvent>,
    ) {
        // Shared accesses that finished their latency.
        while let Some(&load) = self.smem_inflight.front() {
            if load.ready > now {
                break;
            }
            self.smem_inflight.pop_front();
            out.push(LdstEvent::Completed(MemCompletion {
                warp_slot: load.warp_slot,
                warp_uid: load.warp_uid,
                dst: load.dst,
                was_global_load: false,
                was_long: false,
                pc: load.pc,
                issued_at: load.issued_at,
            }));
        }

        // Process the front of the in-order queue.
        let mut pop = false;
        if let Some(work) = self.queue.front_mut() {
            match &mut work.body {
                MemWorkBody::Shared { rounds_left, dst } => {
                    *rounds_left -= 1;
                    if *rounds_left == 0 {
                        if dst.is_some() {
                            self.smem_inflight.push_back(SmemLoad {
                                ready: now + self.smem_latency,
                                warp_slot: work.warp_slot,
                                warp_uid: work.warp_uid,
                                dst: *dst,
                                pc: work.pc,
                                issued_at: work.issued_at,
                            });
                        }
                        pop = true;
                    }
                }
                MemWorkBody::Global {
                    lines,
                    submitted,
                    token,
                    kind,
                } => {
                    // Each transaction gets its own request id, mapped back
                    // to the instruction's load group on response.
                    while *submitted < lines.len() {
                        let id = ((self.sm_id as u64) << 40) | (self.next_id + 1);
                        let outcome =
                            mem.try_submit_traced(self.sm_id, id, lines[*submitted], *kind, sink);
                        if outcome == Submit::Rejected {
                            break;
                        }
                        self.next_id += 1;
                        if let Some(t) = token {
                            self.req_to_group.insert(id, *t);
                            if outcome == Submit::Miss {
                                let g = self.groups.get_mut(t).expect("group exists");
                                if !g.missed {
                                    g.missed = true;
                                    out.push(LdstEvent::MissObserved {
                                        warp_slot: g.warp_slot,
                                        warp_uid: g.warp_uid,
                                    });
                                }
                            }
                        }
                        *submitted += 1;
                    }
                    if *submitted == lines.len() {
                        pop = true;
                    }
                }
            }
        }
        if pop {
            self.queue.pop_front();
        }

        // Drain global responses.
        while let Some(id) = mem.pop_response_traced(self.sm_id, sink) {
            let Some(token) = self.req_to_group.remove(&id) else {
                continue;
            };
            let group = self.groups.get_mut(&token).expect("group exists for token");
            group.remaining -= 1;
            if group.remaining == 0 {
                let g = self.groups.remove(&token).expect("present");
                out.push(LdstEvent::Completed(MemCompletion {
                    warp_slot: g.warp_slot,
                    warp_uid: g.warp_uid,
                    dst: g.dst,
                    was_global_load: true,
                    was_long: g.missed,
                    pc: g.pc,
                    issued_at: g.issued_at,
                }));
            }
        }
    }

    /// Whether nothing is queued or in flight in this unit (global
    /// responses may still be travelling in the memory system itself).
    pub fn idle(&self) -> bool {
        self.queue.is_empty() && self.groups.is_empty() && self.smem_inflight.is_empty()
    }

    /// Every warp slot a queued or in-flight access will report an event
    /// for; [`crate::sm::Sm::restore`] bounds them against its warp table.
    pub(crate) fn warp_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.queue
            .iter()
            .map(|w| w.warp_slot)
            .chain(self.groups.values().map(|g| g.warp_slot))
            .chain(self.smem_inflight.iter().map(|e| e.warp_slot))
    }

    /// Checks what a tick counts down or looks up unchecked: every queued
    /// access has work left, and each load group waits for exactly its
    /// unsubmitted transactions plus its requests in flight, which all
    /// name it.
    fn check_outstanding(&self) -> Result<(), String> {
        let mut outstanding: HashMap<u64, u64> = HashMap::new();
        for work in &self.queue {
            match &work.body {
                MemWorkBody::Shared { rounds_left, .. } if *rounds_left == 0 => {
                    return Err("LD/ST unit: a queued shared access has no rounds left".into());
                }
                MemWorkBody::Shared { .. } => {}
                MemWorkBody::Global {
                    lines, submitted, ..
                } if *submitted >= lines.len() => {
                    return Err(
                        "LD/ST unit: a queued global access has no transactions left".into(),
                    );
                }
                MemWorkBody::Global {
                    lines,
                    submitted,
                    token,
                    ..
                } => {
                    if let Some(t) = token {
                        *outstanding.entry(*t).or_default() += (lines.len() - submitted) as u64;
                    }
                }
            }
        }
        for &t in self.req_to_group.values() {
            *outstanding.entry(t).or_default() += 1;
        }
        if let Some(t) = outstanding.keys().find(|t| !self.groups.contains_key(t)) {
            return Err(format!("LD/ST unit: token {t} names no load group"));
        }
        for (t, g) in &self.groups {
            let want = outstanding.get(t).copied().unwrap_or(0);
            if u64::from(g.remaining) != want {
                return Err(format!(
                    "LD/ST unit: load group {t} waits for {} responses, but {want} are outstanding",
                    g.remaining
                ));
            }
        }
        Ok(())
    }

    /// `(warp slot, warp uid, missed the L1)` of every load group in
    /// flight: what the issuing warps' pending-load counts count.
    pub(crate) fn load_groups(&self) -> impl Iterator<Item = (usize, u64, bool)> + '_ {
        self.groups
            .values()
            .map(|g| (g.warp_slot, g.warp_uid, g.missed))
    }
}

// The in-order queue and the shared-memory latency pipe keep their exact
// order; the load-group tables are packed sorted by token and request id.
impl_json!(LdstUnit {
    queue,
    depth: NonZero,
    smem_latency: Count,
    groups: ByToken,
    req_to_group: Rows,
    next_id: Count,
    sm_id,
    smem_inflight: Rows,
} check LdstUnit::check_outstanding);

impl_json!(MemWork [warp_slot, warp_uid, body, pc, issued_at]);

/// A body is checkpointed as `["shared", rounds_left, dst]` or
/// `["global", lines, submitted, token, kind]`.
impl ToJson for MemWorkBody {
    fn to_json(&self) -> Json {
        match self {
            MemWorkBody::Shared { rounds_left, dst } => {
                ("shared", rounds_left, RegNum::encode(dst)).to_json()
            }
            MemWorkBody::Global {
                lines,
                submitted,
                token,
                kind,
            } => ("global", lines, submitted, token, kind).to_json(),
        }
    }
}

impl FromJson for MemWorkBody {
    fn from_json(v: &Json) -> Result<MemWorkBody, String> {
        let tag = v.as_array().and_then(|a| a.first()).and_then(Json::as_str);
        match tag {
            Some("shared") => {
                let items = elems(v, 3)?;
                Ok(MemWorkBody::Shared {
                    rounds_left: decode_elem(1, &items[1], u32::from_json)?,
                    dst: decode_elem(2, &items[2], RegNum::decode)?,
                })
            }
            Some("global") => {
                let items = elems(v, 5)?;
                Ok(MemWorkBody::Global {
                    lines: decode_elem(1, &items[1], Vec::from_json)?,
                    submitted: decode_elem(2, &items[2], usize::from_json)?,
                    token: decode_elem(3, &items[3], Option::from_json)?,
                    kind: decode_elem(4, &items[4], ReqKind::from_json)?,
                })
            }
            _ => Err(not_a("a shared or global access")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_mem::MemConfig;

    fn mem() -> MemSystem {
        MemSystem::new(&MemConfig::default(), 1)
    }

    #[test]
    fn shared_load_completes_after_rounds_and_latency() {
        let mut mem = mem();
        let mut u = LdstUnit::new(0, 8, 24);
        u.push_shared(3, 11, 2, Some(Reg(5)), 7, 0);
        let mut done = Vec::new();
        let mut finish = None;
        for now in 0..100 {
            mem.tick(now);
            for c in u.tick(now, &mut mem) {
                finish = Some(now);
                done.push(c);
            }
            if finish.is_some() {
                break;
            }
        }
        // 2 conflict rounds (cycles 0 and 1) + 24 latency.
        assert_eq!(finish, Some(1 + 24));
        assert_eq!(
            done[0],
            LdstEvent::Completed(MemCompletion {
                warp_slot: 3,
                warp_uid: 11,
                dst: Some(Reg(5)),
                was_global_load: false,
                was_long: false,
                pc: 7,
                issued_at: 0,
            })
        );
        assert!(u.idle());
    }

    #[test]
    fn shared_store_frees_queue_without_completion() {
        let mut mem = mem();
        let mut u = LdstUnit::new(0, 8, 24);
        u.push_shared(0, 1, 1, None, 0, 0);
        mem.tick(0);
        assert!(u.tick(0, &mut mem).is_empty());
        assert!(u.idle());
    }

    #[test]
    fn global_load_group_waits_for_all_transactions() {
        let mut mem = mem();
        let mut u = LdstUnit::new(0, 8, 24);
        u.push_global(7, 9, vec![10, 20, 30], ReqKind::Load, Some(Reg(1)), 4, 0);
        let mut misses = 0;
        let mut completions = Vec::new();
        for now in 0..5000 {
            mem.tick(now);
            for e in u.tick(now, &mut mem) {
                match e {
                    LdstEvent::Completed(c) => completions.push(c),
                    LdstEvent::MissObserved {
                        warp_slot,
                        warp_uid,
                    } => {
                        assert_eq!((warp_slot, warp_uid), (7, 9));
                        misses += 1;
                    }
                }
            }
            if !completions.is_empty() {
                break;
            }
        }
        assert_eq!(misses, 1, "one long-stall notification per instruction");
        assert_eq!(completions.len(), 1, "one completion for the whole group");
        assert_eq!(completions[0].warp_slot, 7);
        assert_eq!(completions[0].dst, Some(Reg(1)));
        assert!(completions[0].was_global_load);
        assert!(completions[0].was_long);
        assert_eq!(completions[0].pc, 4);
        assert_eq!(completions[0].issued_at, 0);
        assert!(u.idle());
    }

    #[test]
    fn transactions_respect_l1_port_limit() {
        let mut mem = mem(); // 1 port/cycle
        let mut u = LdstUnit::new(0, 8, 24);
        u.push_global(0, 1, vec![1, 2, 3], ReqKind::Load, Some(Reg(0)), 0, 0);
        mem.tick(0);
        u.tick(0, &mut mem);
        assert_eq!(u.queue_len(), 1, "not fully injected in one cycle");
        mem.tick(1);
        u.tick(1, &mut mem);
        mem.tick(2);
        u.tick(2, &mut mem);
        assert_eq!(u.queue_len(), 0, "three cycles for three transactions");
    }

    #[test]
    fn in_order_queue_blocks_behind_front() {
        let mut mem = mem();
        let mut u = LdstUnit::new(0, 2, 4);
        u.push_shared(0, 1, 3, None, 0, 0); // 3 rounds
        u.push_shared(1, 2, 1, None, 1, 0);
        assert!(!u.has_space());
        mem.tick(0);
        u.tick(0, &mut mem);
        assert_eq!(u.queue_len(), 2, "front still serialising");
        mem.tick(1);
        u.tick(1, &mut mem);
        mem.tick(2);
        u.tick(2, &mut mem);
        assert_eq!(u.queue_len(), 1, "front done after 3 rounds");
        assert!(u.has_space());
    }

    #[test]
    fn stores_need_no_group() {
        let mut mem = mem();
        let mut u = LdstUnit::new(0, 8, 4);
        u.push_global(0, 1, vec![5], ReqKind::Store, None, 0, 0);
        for now in 0..2000 {
            mem.tick(now);
            assert!(u.tick(now, &mut mem).is_empty(), "stores emit no events");
            if u.idle() && mem.quiesced() {
                break;
            }
        }
        assert!(u.idle());
        assert!(mem.quiesced());
    }
}
