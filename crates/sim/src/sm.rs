//! The streaming multiprocessor: warp scheduling, instruction issue and
//! its timing (instructions execute in `vt_isa::step`), barriers, and the
//! CTA residency / context-switch machinery at the heart of the Virtual
//! Thread architecture.

use crate::config::{ActivePolicy, CoreConfig, ResidencyConfig, SchedPolicy, SwapTrigger};
use crate::cta::{CtaPhase, CtaRt};
use crate::hotspots::StallReason;
use crate::ldst::{LdstEvent, LdstUnit};
use crate::scoreboard::{reg_from_u64, reg_uses};
use crate::stats::RunStats;
use crate::warp::{Trigger, WarpRt};
use std::collections::VecDeque;
use vt_isa::error::ExecError;
use vt_isa::exec::ThreadCtx;
use vt_isa::kernel::MemImage;
use vt_isa::op::MemSpace;
use vt_isa::step::{step_warp, Access, AccessKind, Effect, WarpCtx};
use vt_isa::{Instr, Kernel, Reg, WARP_SIZE};
use vt_json::{decode_field, field, impl_to_json, req_array, Codec, Count, Json, Sorted};
use vt_mem::coalesce::{coalesce, shared_bank_conflicts};
use vt_mem::{MemSystem, ReqKind};
use vt_trace::{SwapDir, TraceEvent, TraceSink};

/// Why a warp cannot issue this cycle: the specification the partition
/// masks are kept equal to (DESIGN.md §18).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Readiness {
    Ready,
    Done,
    Barrier,
    /// Scoreboard-blocked while global loads are outstanding.
    BlockedMem,
    /// Scoreboard-blocked on short pipeline latencies only.
    BlockedPipe,
    /// Structural: LD/ST queue full.
    LdstFull,
    /// Structural: SFU initiation interval.
    SfuBusy,
}

/// What scheduling needs to know about the instruction at one PC,
/// decoded once per run instead of on every readiness probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Decoded {
    /// Destination and register sources as scoreboard bits
    /// ([`reg_uses`]).
    uses: [u64; 4],
    /// [`Instr::is_mem`]: needs room in the LD/ST queue.
    is_mem: bool,
    /// An [`Instr::Sfu`]: needs the SFU past its initiation interval.
    is_sfu: bool,
}

impl Decoded {
    fn of(instr: &Instr) -> Decoded {
        Decoded {
            uses: reg_uses(instr),
            is_mem: instr.is_mem(),
            is_sfu: matches!(instr, Instr::Sfu { .. }),
        }
    }
}

// A warp's status: one bit per mask class of a [`Partition`]. A done warp
// has none; the structural hazards are applied at pick time.
/// The scoreboard clears the next instruction (`Ready`, `LdstFull` or
/// `SfuBusy`).
const CLEAR: usize = 0;
/// The next instruction needs room in the LD/ST queue.
const MEM: usize = 1;
/// The next instruction is an SFU op.
const SFU: usize = 2;
/// `Readiness::BlockedMem`.
const BLOCKED_MEM: usize = 3;
/// `Readiness::BlockedPipe`.
const BLOCKED_PIPE: usize = 4;
/// `Readiness::Barrier`.
const BARRIER: usize = 5;
const CLASSES: usize = 6;

/// `Sm::slot_pos` of a warp slot that is not on the issue list.
const UNLISTED: u32 = u32::MAX;

/// The status of a fresh warp, computed when it is first listed.
const UNKNOWN: u8 = u8::MAX;

/// A warp slot as the derived state last counted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counted {
    /// The warp's age (fixed for its life), the issue list's sort key.
    age: u64,
    /// Its status bits, or [`UNKNOWN`].
    status: u8,
    /// Its class in its CTA's trigger counters.
    trigger: Trigger,
}

/// One scheduler's part of the issue list, with one bit mask per status
/// class over its age-ordered positions, so that pick and classification
/// read bits instead of probing warps. Multi-word: an `Unlimited` active
/// policy can list any number of warps.
#[derive(Debug, Clone, Default)]
struct Partition {
    /// Listed warp slots, oldest first; a warp's position is its bit.
    warps: Vec<usize>,
    /// `masks[k][c]`: the positions `64k..64k + 63` in class `c`.
    masks: Vec<[u64; CLASSES]>,
}

impl Partition {
    /// Sets the bits of position `pos` to `status`.
    fn set(&mut self, pos: usize, status: u8) {
        let word = &mut self.masks[pos / 64];
        let bit = 1u64 << (pos % 64);
        for (c, mask) in word.iter_mut().enumerate() {
            if status >> c & 1 != 0 {
                *mask |= bit;
            } else {
                *mask &= !bit;
            }
        }
    }

    /// Whether position `pos` (possibly [`UNLISTED`]) has its bit set in
    /// `select(word)`.
    fn has(&self, pos: u32, select: impl Fn(&[u64; CLASSES]) -> u64) -> bool {
        let pos = pos as usize;
        self.masks
            .get(pos / 64)
            .is_some_and(|word| select(word) >> (pos % 64) & 1 != 0)
    }

    /// The first position at or after `from` whose bit is set in
    /// `select(word)`.
    fn first(&self, from: usize, select: impl Fn(&[u64; CLASSES]) -> u64) -> Option<usize> {
        let mut keep = !0u64 << (from % 64);
        for (k, word) in self.masks.iter().enumerate().skip(from / 64) {
            let m = select(word) & keep;
            if m != 0 {
                return Some(k * 64 + m.trailing_zeros() as usize);
            }
            keep = !0;
        }
        None
    }
}

/// The warps of a mask word that can issue now: scoreboard-clear, minus
/// memory instructions while the LD/ST queue is `full` and SFU ops while
/// the SFU is `busy`.
fn issuable(word: &[u64; CLASSES], full: bool, busy: bool) -> u64 {
    let mut m = word[CLEAR];
    if full {
        m &= !word[MEM];
    }
    if busy {
        m &= !word[SFU];
    }
    m
}

/// What stays fixed for a whole run: the kernel and the configuration
/// every SM runs it under. The engine builds one per run, so every tick
/// of an SM sees the same three, which the derived state (decoded
/// program, ready masks) relies on.
#[derive(Debug, Clone, Copy)]
pub struct Run<'a> {
    /// The kernel being run.
    pub kernel: &'a Kernel,
    /// The SM parameters.
    pub core: &'a CoreConfig,
    /// The CTA residency policy.
    pub res: &'a ResidencyConfig,
    /// Resident CTAs of the kernel per SM its admission policy allows
    /// (`vt_isa::limits`), worked out once so dispatch compares only.
    resident_bound: u32,
}

impl<'a> Run<'a> {
    /// The run of `kernel` under `core` and `res`.
    pub fn new(kernel: &'a Kernel, core: &'a CoreConfig, res: &'a ResidencyConfig) -> Run<'a> {
        Run {
            kernel,
            core,
            res,
            resident_bound: res.admission.resident_bound(&core.limits().bounds(kernel)),
        }
    }
}

/// Everything outside the SM that one tick (or one admission) reads and
/// writes: the run, the cycle, the memory system (the only way into
/// memory), the functional image, the stats block the SM charges and the
/// trace sink. Whether per-PC profiling is on is read from the stats
/// block: `stats.hotspots` is `Some` exactly when it is.
#[derive(Debug)]
pub struct Ctx<'a, S> {
    /// The run-constant part.
    pub run: Run<'a>,
    /// The current cycle.
    pub now: u64,
    /// The memory system; the SM's LD/ST unit submits and pops through it.
    pub mem: &'a mut MemSystem,
    /// Global memory, read and written as loads, stores and atomics issue.
    pub image: &'a mut MemImage,
    /// The stats block this SM charges.
    pub stats: &'a mut RunStats,
    /// Where trace events go.
    pub sink: &'a mut S,
}

/// Per-cycle context for attributing *empty* SM-cycles (zero resident
/// warps) to a cause in the [`crate::stats::EmptyBreakdown`]. Computed
/// once per cycle by the engine, before any SM ticks, and passed by value
/// into [`Sm::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EmptyAttr {
    /// Undispatched CTAs remained in the grid at the top of this cycle.
    pub work_left: bool,
    /// Whether this run's admission regime is bound by the *scheduling*
    /// limit for this kernel (per `vt_isa::limits::CtaBounds::limiter`
    /// under `AdmissionPolicy::SchedulingAndCapacity`; always `false`
    /// under `CapacityOnly`, where scheduling structures are virtualised).
    pub scheduling_limited: bool,
}

impl EmptyAttr {
    /// The attribution for a run with no undispatched work — what a
    /// stand-alone [`Sm::tick`] caller without a grid dispatcher wants.
    pub fn drained() -> EmptyAttr {
        EmptyAttr {
            work_left: false,
            scheduling_limited: false,
        }
    }
}

/// One streaming multiprocessor.
#[derive(Debug)]
pub struct Sm {
    /// This SM's index.
    pub id: usize,
    line_bytes: u32,
    ctas: Vec<CtaRt>,
    free_cta_slots: Vec<usize>,
    warps: Vec<WarpRt>,
    free_warp_slots: Vec<usize>,
    warp_uids: Vec<u64>,

    // Capacity accounting (resident CTAs).
    resident_reg_bytes: u32,
    resident_smem_bytes: u32,
    resident_warps: u32,
    resident_ctas: u32,
    // Scheduling-structure accounting (CTAs holding an active slot,
    // including mid-swap) and actually schedulable warps.
    slot_ctas: u32,
    slot_warps: u32,
    active_phase_warps: u32,
    swapping_ctas: u32,

    sched_last: Vec<Option<usize>>,
    sched_ptr: Vec<usize>,
    sfu_free_at: u64,
    ldst: LdstUnit,
    /// (ready cycle, warp slot, reg, warp uid), in ready order. Entries
    /// due in the same cycle pop in any order: each clears its own
    /// scoreboard bit.
    writebacks: VecDeque<(u64, usize, u16, u64)>,
    next_uid: u64,
    cta_seq: u64,
    max_simt_depth: usize,
    /// Thrash-throttle (hill-climber) state: phase-based measurement of
    /// the issue rate under "rotate" vs "hold".
    throttle_hold: bool,
    throttle_window_end: u64,
    phase_window: u32,
    phase_accum: u64,
    phases_since_probe: u32,
    window_issues: u64,
    // Issue-rate estimate per mode, scaled by 2^16: [rotate, hold].
    mode_ipc_est: [Option<u64>; 2],

    // Derived state (DESIGN.md §18): never serialised, rebuilt from the
    // tables above whenever `decoded` is (on the first tick of a fresh or
    // restored SM), and kept current at every event in between.
    /// `kernel.program()` decoded, one entry per PC.
    decoded: Vec<Decoded>,
    /// Active, unfinished warps in age order: what the specification
    /// [`Sm::pick_by_full_scan`] scans. `partitions[s]` is the part
    /// scheduler `s` owns (slot index mod schedulers) and `slot_pos[slot]`
    /// a listed slot's position in it. All three are rebuilt together
    /// when `issue_dirty`; a warp's mask bits are refreshed
    /// ([`Sm::refresh`]) at every event that changes it.
    issue_list: Vec<usize>,
    partitions: Vec<Partition>,
    slot_pos: Vec<u32>,
    issue_dirty: bool,
    /// Each warp slot as counted in its partition's masks and its CTA's
    /// trigger counters.
    counted: Vec<Counted>,
    /// Active CTAs whose warps meet each swap trigger, indexed like
    /// [`CtaRt::stalls`] (`AllWarpsStalled`, `AnyWarpStalled`).
    active_stalls: [u32; 2],
    /// The inactive CTAs that [`Sm::cta_ready`] holds ready, as
    /// `(seq, slot)`, oldest first.
    ready_ctas: Vec<(u64, usize)>,
    /// No CTA mid-swap finishes before this cycle (`u64::MAX`: none
    /// swaps).
    swap_due: u64,
}

impl Sm {
    /// Creates SM `id` under configuration `core`; `line_bytes` is the
    /// memory system's coalescing segment size.
    pub fn new(id: usize, core: &CoreConfig, line_bytes: u32) -> Sm {
        let schedulers = core.schedulers_per_sm.max(1) as usize;
        Sm {
            id,
            line_bytes,
            ctas: Vec::new(),
            free_cta_slots: Vec::new(),
            warps: Vec::new(),
            free_warp_slots: Vec::new(),
            warp_uids: Vec::new(),
            resident_reg_bytes: 0,
            resident_smem_bytes: 0,
            resident_warps: 0,
            resident_ctas: 0,
            slot_ctas: 0,
            slot_warps: 0,
            active_phase_warps: 0,
            swapping_ctas: 0,
            sched_last: vec![None; schedulers],
            sched_ptr: vec![0; schedulers],
            sfu_free_at: 0,
            ldst: LdstUnit::new(id, core.ldst_queue_depth, core.smem_latency),
            writebacks: VecDeque::new(),
            next_uid: 0,
            cta_seq: 0,
            max_simt_depth: 0,
            throttle_hold: false,
            throttle_window_end: 0,
            phase_window: 0,
            phase_accum: 0,
            phases_since_probe: 0,
            window_issues: 0,
            mode_ipc_est: [None, None],
            decoded: Vec::new(),
            issue_list: Vec::new(),
            partitions: vec![Partition::default(); schedulers],
            slot_pos: Vec::new(),
            issue_dirty: true,
            counted: Vec::new(),
            active_stalls: [0; 2],
            ready_ctas: Vec::new(),
            swap_due: u64::MAX,
        }
    }

    // ----- admission ------------------------------------------------------

    /// Whether another CTA of the run's kernel can become resident under
    /// its admission policy. Every resident CTA has the kernel's footprint
    /// and the launch check guarantees one fits, so the policy's bound on
    /// resident CTAs is the whole rule.
    pub fn can_admit(&self, run: Run<'_>) -> bool {
        self.resident_ctas < run.resident_bound
    }

    /// Makes CTA `cta_id` of the run's kernel resident at `ctx.now`,
    /// activating it immediately if an active slot is free.
    ///
    /// # Panics
    ///
    /// Panics if [`Sm::can_admit`] would return false.
    pub fn admit<S: TraceSink>(&mut self, cta_id: u32, ctx: &mut Ctx<'_, S>) {
        assert!(self.can_admit(ctx.run), "admit called without can_admit");
        let (kernel, now) = (ctx.run.kernel, ctx.now);
        let wpc = kernel.warps_per_cta();
        let nthreads = kernel.threads_per_cta();
        let cta_slot = match self.free_cta_slots.pop() {
            Some(s) => s,
            None => {
                self.ctas.push(CtaRt {
                    cta_id: 0,
                    phase: CtaPhase::Finished,
                    warps: Vec::new(),
                    live_warps: 0,
                    barrier_arrived: 0,
                    smem: Vec::new(),
                    reg_bytes: 0,
                    smem_bytes: 0,
                    pending_loads: 0,
                    seq: 0,
                    inactive_since: 0,
                    warps_blocked_long: 0,
                    warps_unblocked: 0,
                });
                self.ctas.len() - 1
            }
        };
        let mut warp_slots = Vec::with_capacity(wpc as usize);
        for w in 0..wpc {
            let lanes = (nthreads - w * WARP_SIZE).min(WARP_SIZE);
            self.next_uid += 1;
            let warp = WarpRt::new(cta_slot, w, lanes, kernel.regs_per_thread(), self.next_uid);
            // A fresh warp is live and has no loads.
            let counted = Counted {
                age: self.next_uid,
                status: UNKNOWN,
                trigger: Trigger::Unblocked,
            };
            let slot = match self.free_warp_slots.pop() {
                Some(s) => {
                    self.warps[s] = warp;
                    self.warp_uids[s] = self.next_uid;
                    self.counted[s] = counted;
                    s
                }
                None => {
                    self.warps.push(warp);
                    self.warp_uids.push(self.next_uid);
                    self.counted.push(counted);
                    self.warps.len() - 1
                }
            };
            warp_slots.push(slot);
        }
        self.cta_seq += 1;
        let cta = CtaRt {
            cta_id,
            phase: CtaPhase::Inactive { has_context: false },
            warps: warp_slots,
            live_warps: wpc,
            barrier_arrived: 0,
            smem: vec![0u32; (kernel.smem_bytes_per_cta() as usize).div_ceil(4)],
            reg_bytes: kernel.reg_bytes_per_cta(),
            smem_bytes: kernel.smem_bytes_per_cta(),
            pending_loads: 0,
            seq: self.cta_seq,
            inactive_since: now,
            warps_blocked_long: 0,
            warps_unblocked: wpc,
        };
        self.resident_reg_bytes += cta.reg_bytes;
        self.resident_smem_bytes += cta.smem_bytes;
        self.resident_warps += wpc;
        self.resident_ctas += 1;
        self.ctas[cta_slot] = cta;
        self.mark_ready(cta_slot);
        if S::ENABLED {
            ctx.sink.emit(
                now,
                TraceEvent::CtaLaunch {
                    sm: self.id as u32,
                    cta_slot: cta_slot as u32,
                    cta_id,
                },
            );
        }
        self.try_activate(ctx);
    }

    fn active_slot_available(&self, wpc: u32, run: Run<'_>) -> bool {
        let core = run.core;
        match run.res.active {
            ActivePolicy::Unlimited => true,
            ActivePolicy::SchedulingLimit => {
                self.slot_ctas < core.max_ctas_per_sm
                    && self.slot_warps + wpc <= core.max_warps_per_sm
            }
        }
    }

    /// Whether an inactive CTA could make forward progress if activated:
    /// the specification of membership in `ready_ctas`.
    fn cta_ready(&self, cta: &CtaRt) -> bool {
        match cta.phase {
            CtaPhase::Inactive { has_context: false } => true,
            CtaPhase::Inactive { has_context: true } => {
                cta.warps.iter().any(|&w| self.warps[w].runnable())
            }
            _ => false,
        }
    }

    /// Adds CTA `slot` to the ready set, keeping it ordered by `seq`.
    fn mark_ready(&mut self, slot: usize) {
        let key = (self.ctas[slot].seq, slot);
        if let Err(at) = self.ready_ctas.binary_search(&key) {
            self.ready_ctas.insert(at, key);
        }
    }

    /// Activates ready inactive CTAs, oldest first (partially-run CTAs
    /// drain capacity sooner, fresh CTAs keep the pipeline fed), while
    /// active slots are available.
    fn try_activate<S: TraceSink>(&mut self, ctx: &mut Ctx<'_, S>) {
        let (now, stats) = (ctx.now, &mut *ctx.stats);
        let wpc = ctx.run.kernel.warps_per_cta();
        while let Some(&(_, slot)) = self.ready_ctas.first() {
            if !self.active_slot_available(wpc, ctx.run) {
                return;
            }
            self.ready_ctas.remove(0);
            let has_context = matches!(
                self.ctas[slot].phase,
                CtaPhase::Inactive { has_context: true }
            );
            let n_warps = self.ctas[slot].warps.len() as u32;
            self.slot_ctas += 1;
            self.slot_warps += n_warps;
            // Every activation opens a swap-in span (zero-length for
            // instant activations), so `finish_activation` can close it
            // unconditionally.
            if S::ENABLED {
                ctx.sink.emit(
                    now,
                    TraceEvent::SwapBegin {
                        sm: self.id as u32,
                        cta_slot: slot as u32,
                        cta_id: self.ctas[slot].cta_id,
                        dir: SwapDir::In,
                        fresh: !has_context,
                    },
                );
            }
            match ctx.run.res.swap {
                Some(swap) => {
                    let cost = if has_context {
                        stats.swaps.swaps_in += 1;
                        let cost = u64::from(swap.restore_cycles);
                        stats
                            .swap_gap
                            .record(now.saturating_sub(self.ctas[slot].inactive_since));
                        stats.swap_duration.record(cost);
                        cost
                    } else {
                        stats.swaps.fresh_activations += 1;
                        u64::from(swap.fresh_activation_cycles)
                    };
                    if cost == 0 {
                        self.finish_activation(slot, now, ctx.sink);
                    } else {
                        self.ctas[slot].phase = CtaPhase::SwappingIn {
                            done_at: now + cost,
                        };
                        self.swapping_ctas += 1;
                        self.swap_due = self.swap_due.min(now + cost);
                    }
                }
                None => {
                    if has_context {
                        stats.swaps.swaps_in += 1;
                    } else {
                        stats.swaps.fresh_activations += 1;
                    }
                    self.finish_activation(slot, now, ctx.sink);
                }
            }
        }
    }

    fn finish_activation<S: TraceSink>(&mut self, slot: usize, now: u64, sink: &mut S) {
        self.ctas[slot].phase = CtaPhase::Active;
        self.count_stalls(slot, true);
        self.active_phase_warps += self.ctas[slot].warps.len() as u32;
        self.issue_dirty = true;
        if S::ENABLED {
            let (sm, cta_slot, cta_id) = (self.id as u32, slot as u32, self.ctas[slot].cta_id);
            sink.emit(
                now,
                TraceEvent::SwapEnd {
                    sm,
                    cta_slot,
                    cta_id,
                    dir: SwapDir::In,
                },
            );
            sink.emit(
                now,
                TraceEvent::CtaActivate {
                    sm,
                    cta_slot,
                    cta_id,
                },
            );
        }
    }

    /// Completes timed swap transitions and evaluates the swap trigger.
    fn update_residency<S: TraceSink>(&mut self, ctx: &mut Ctx<'_, S>) {
        let now = ctx.now;
        let Some(swap) = ctx.run.res.swap else {
            // No swapping: still activate parked CTAs when slots free up
            // (e.g. after a CTA finished).
            self.try_activate(ctx);
            return;
        };

        // 1. Complete in-flight transitions.
        if now >= self.swap_due {
            self.complete_swaps(now, ctx.sink);
        }

        // 2. Fill any free active slots with ready CTAs.
        self.try_activate(ctx);

        // 3. Thrash feedback: hill-climb between "rotate" (normal VT) and
        //    "hold" (stable active set) on the measured issue rate.
        if let Some(th) = swap.throttle {
            if now >= self.throttle_window_end {
                let window = u64::from(th.window_cycles.max(1));
                let phase_len = th.phase_windows.max(2);
                if self.throttle_window_end > 0 {
                    // The first window of a phase inherits the previous
                    // mode's stall pattern; record the rest.
                    if self.phase_window >= 1 {
                        self.phase_accum += (self.window_issues << 16) / window;
                    }
                    self.phase_window += 1;
                    if self.phase_window >= phase_len {
                        let measured = self.phase_accum / u64::from(phase_len - 1);
                        let slot = usize::from(self.throttle_hold);
                        // Light EWMA so one noisy phase cannot flip modes
                        // permanently.
                        self.mode_ipc_est[slot] = Some(
                            self.mode_ipc_est[slot].map_or(measured, |old| (old + measured) / 2),
                        );
                        self.phase_accum = 0;
                        self.phase_window = 0;
                        self.phases_since_probe += 1;
                        self.throttle_hold = match (self.mode_ipc_est[0], self.mode_ipc_est[1]) {
                            (None, _) => false,
                            (Some(_), None) => true,
                            (Some(rotate), Some(hold)) => {
                                // Hysteresis: rotation is the architecture's
                                // default; holding must win by a clear margin.
                                let hold_wins = hold > rotate + rotate / 8;
                                if self.phases_since_probe >= th.probe_every_phases.max(2) {
                                    self.phases_since_probe = 0;
                                    !hold_wins // re-probe the loser
                                } else {
                                    hold_wins
                                }
                            }
                        };
                    }
                }
                self.window_issues = 0;
                self.throttle_window_end = now + window;
            }
            if self.throttle_hold {
                return;
            }
        }

        // 4. Trigger: swap out stalled active CTAs, one per ready
        //    replacement waiting in the inactive pool.
        let trigger = match swap.trigger {
            SwapTrigger::AllWarpsStalled => 0,
            SwapTrigger::AnyWarpStalled => 1,
            SwapTrigger::Never => return,
        };
        let mut ready_replacements = self.ready_ctas.len();
        if self.active_stalls[trigger] == 0 || ready_replacements == 0 {
            return;
        }
        let mut swapped_any = false;
        for slot in 0..self.ctas.len() {
            if ready_replacements == 0 {
                break;
            }
            let cta = &self.ctas[slot];
            if !cta.is_active() || !cta.stalls()[trigger] {
                continue;
            }
            let n_warps = cta.warps.len() as u32;
            let done_at = now + u64::from(swap.save_cycles);
            self.count_stalls(slot, false);
            self.ctas[slot].phase = CtaPhase::SwappingOut { done_at };
            self.swap_due = self.swap_due.min(done_at);
            // Release the slot immediately: the incoming CTA's restore
            // overlaps with this save through the context buffer.
            self.slot_ctas -= 1;
            self.slot_warps -= n_warps;
            self.active_phase_warps -= n_warps;
            self.swapping_ctas += 1;
            self.issue_dirty = true;
            ctx.stats.swaps.swaps_out += 1;
            ctx.stats.swap_duration.record(u64::from(swap.save_cycles));
            if S::ENABLED {
                let (sm, cta_slot, cta_id) = (self.id as u32, slot as u32, self.ctas[slot].cta_id);
                ctx.sink.emit(
                    now,
                    TraceEvent::CtaDeactivate {
                        sm,
                        cta_slot,
                        cta_id,
                    },
                );
                ctx.sink.emit(
                    now,
                    TraceEvent::SwapBegin {
                        sm,
                        cta_slot,
                        cta_id,
                        dir: SwapDir::Out,
                        fresh: false,
                    },
                );
            }
            ready_replacements -= 1;
            swapped_any = true;
        }
        if swapped_any {
            // Refill the freed slots in the same cycle (overlapped swap).
            self.try_activate(ctx);
        }
    }

    /// Completes every swap due at `now` and moves `swap_due` to the next
    /// one.
    fn complete_swaps<S: TraceSink>(&mut self, now: u64, sink: &mut S) {
        let mut due = u64::MAX;
        for slot in 0..self.ctas.len() {
            match self.ctas[slot].phase {
                CtaPhase::SwappingOut { done_at } if done_at <= now => {
                    // The slot was already released when the save started.
                    self.ctas[slot].phase = CtaPhase::Inactive { has_context: true };
                    self.ctas[slot].inactive_since = now;
                    self.swapping_ctas -= 1;
                    if self.cta_ready(&self.ctas[slot]) {
                        self.mark_ready(slot);
                    }
                    if S::ENABLED {
                        sink.emit(
                            now,
                            TraceEvent::SwapEnd {
                                sm: self.id as u32,
                                cta_slot: slot as u32,
                                cta_id: self.ctas[slot].cta_id,
                                dir: SwapDir::Out,
                            },
                        );
                    }
                }
                CtaPhase::SwappingIn { done_at } if done_at <= now => {
                    self.swapping_ctas -= 1;
                    self.finish_activation(slot, now, sink);
                }
                CtaPhase::SwappingOut { done_at } | CtaPhase::SwappingIn { done_at } => {
                    due = due.min(done_at);
                }
                _ => {}
            }
        }
        self.swap_due = due;
    }

    // ----- per-cycle operation --------------------------------------------

    /// Advances the SM one cycle at `ctx.now`: writebacks, LD/ST events,
    /// residency, issue and stats. The LD/ST unit submits requests to and
    /// pops responses from `ctx.mem`, which pushes them into the
    /// interconnect at once; global loads, stores and atomics read and
    /// write `ctx.image` as they issue. The engine ticking SMs in
    /// ascending id order therefore fixes the order of every request and
    /// every image access. With [`vt_trace::NullSink`] this monomorphizes
    /// to the untraced fast path; per-PC profiling records only when
    /// `ctx.stats.hotspots` is `Some`, and reads nothing else.
    ///
    /// The tick's host cost follows events, not residents (DESIGN.md
    /// §18): pick, residency and classification read ready masks, CTA
    /// counters and a ready-CTA set that every event keeps current, so a
    /// parked warp or CTA costs nothing until the event that unblocks it.
    /// This relies on `ctx.run` being the same on every tick of one SM,
    /// as it is within a run: the engine builds it once.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError`] if a warp traps (unaligned or out-of-range
    /// access); the tick stops at the trapping instruction.
    pub fn tick<S: TraceSink>(
        &mut self,
        ctx: &mut Ctx<'_, S>,
        attr: EmptyAttr,
    ) -> Result<(), ExecError> {
        let (now, kernel) = (ctx.now, ctx.run.kernel);
        if self.decoded.len() != kernel.program().len() {
            self.decoded = kernel.program().instrs().iter().map(Decoded::of).collect();
            self.rebuild_derived();
        }

        // 1. Short-latency writebacks.
        while let Some(&(ready, wslot, reg, uid)) = self.writebacks.front() {
            if ready > now {
                break;
            }
            self.writebacks.pop_front();
            if self.warp_uids[wslot] == uid {
                self.warps[wslot].scoreboard.clear(Reg(reg));
                self.refresh(wslot);
            }
        }

        // 2. Memory events (shared latency, global responses, long-stall
        //    notifications). Events may outlive their CTA — a warp can
        //    exit with loads in flight — so uids filter stale records.
        for event in self.ldst.tick_traced(now, ctx.mem, ctx.sink) {
            match event {
                LdstEvent::Completed(c) => {
                    // Latency is observed per issue site, before the uid
                    // filter: the round trip happened even if the issuing
                    // warp's slot has since been recycled.
                    if let Some(h) = ctx.stats.hotspots.as_mut() {
                        h.record_mem_latency(c.pc as usize, now.saturating_sub(c.issued_at));
                    }
                    if self.warp_uids[c.warp_slot] != c.warp_uid {
                        continue;
                    }
                    let w = &mut self.warps[c.warp_slot];
                    if let Some(dst) = c.dst {
                        w.scoreboard.clear(dst);
                    }
                    if c.was_global_load {
                        w.pending_loads -= 1;
                        if c.was_long {
                            w.long_pending_loads -= 1;
                        }
                        let cta_slot = w.cta_slot;
                        let runnable = w.runnable();
                        let cta = &mut self.ctas[cta_slot];
                        cta.pending_loads -= 1;
                        // The one way a swapped-out CTA becomes ready:
                        // its warps' state moves only on load responses.
                        if runnable && cta.phase == (CtaPhase::Inactive { has_context: true }) {
                            self.mark_ready(cta_slot);
                        }
                    }
                    self.refresh(c.warp_slot);
                }
                LdstEvent::MissObserved {
                    warp_slot,
                    warp_uid,
                } => {
                    if self.warp_uids[warp_slot] == warp_uid {
                        self.warps[warp_slot].long_pending_loads += 1;
                        self.refresh(warp_slot);
                    }
                }
            }
        }

        // 3. CTA residency: swap completions, trigger, activations.
        self.update_residency(ctx);

        // 4. Issue.
        if self.issue_dirty {
            self.rebuild_issue_list();
        }
        if cfg!(debug_assertions) {
            self.check_derived(now, kernel);
        }
        let schedulers = self.sched_last.len();
        let mut first_issue_pc = None;
        for s in 0..schedulers {
            if let Some(wslot) = self.pick_warp(s, now, ctx.run) {
                if first_issue_pc.is_none() {
                    // Read before issue: the stack advances on issue.
                    first_issue_pc = Some(self.warps[wslot].stack.pc());
                }
                self.issue_warp(wslot, s, ctx)?;
                self.refresh(wslot);
                self.sched_last[s] = Some(wslot);
                self.window_issues += 1;
            }
        }

        // 5. Stats.
        let stats = &mut *ctx.stats;
        self.charge_cycle(stats);
        if let Some(pc) = first_issue_pc {
            stats.issue_cycles += 1;
            // The cycle's one issue tally goes to the first PC that
            // issued, so per-PC `issued` sums exactly to `issue_cycles`.
            if let Some(h) = stats.hotspots.as_mut() {
                h.record_issue_cycle(pc);
            }
            return Ok(());
        }
        let class = self.classify(stats.hotspots.is_some());
        charge_idle(stats, class, attr);
        Ok(())
    }

    // ----- derived state ----------------------------------------------------

    /// Rebuilds every piece of derived state from the warp and CTA tables,
    /// as after a restore: statuses, trigger counters, the ready-CTA set,
    /// the next swap completion, and (on the next pick) the issue list and
    /// masks. Needs `decoded`.
    fn rebuild_derived(&mut self) {
        self.reset_derived();
        for w in 0..self.warps.len() {
            // A done warp counts as nothing, wherever its stale CTA slot
            // points.
            if !self.warps[w].done {
                let status = self.status(w);
                self.counted[w].status = status;
                self.recount(w, status);
            }
        }
    }

    /// The part of [`Sm::rebuild_derived`] that needs no `decoded`, which
    /// a restored SM does at once (admission may precede its first tick):
    /// the ready-CTA set and `swap_due` exact, every warp counted as
    /// parked (done) or not yet known (live).
    fn reset_derived(&mut self) {
        self.counted = (self.warps.iter())
            .map(|w| Counted {
                age: w.age,
                status: if w.done { 0 } else { UNKNOWN },
                trigger: Trigger::Parked,
            })
            .collect();
        for cta in &mut self.ctas {
            cta.warps_blocked_long = 0;
            cta.warps_unblocked = 0;
        }
        self.active_stalls = [0; 2];
        self.ready_ctas = self.ready_ctas_by_scan();
        self.swap_due = self
            .ctas
            .iter()
            .filter_map(|c| match c.phase {
                CtaPhase::SwappingOut { done_at } | CtaPhase::SwappingIn { done_at } => {
                    Some(done_at)
                }
                _ => None,
            })
            .min()
            .unwrap_or(u64::MAX);
        self.issue_dirty = true;
    }

    /// The ready-CTA set as [`Sm::cta_ready`] defines it, by a scan.
    fn ready_ctas_by_scan(&self) -> Vec<(u64, usize)> {
        let mut ready: Vec<(u64, usize)> = (0..self.ctas.len())
            .filter(|&slot| self.cta_ready(&self.ctas[slot]))
            .map(|slot| (self.ctas[slot].seq, slot))
            .collect();
        ready.sort_unstable();
        ready
    }

    /// Warp `w`'s status: which mask classes it is in (none when done).
    fn status(&self, w: usize) -> u8 {
        let warp = &self.warps[w];
        if warp.done {
            return 0;
        }
        if warp.waiting_barrier {
            return 1 << BARRIER;
        }
        let d = &self.decoded[warp.stack.pc()];
        if warp.scoreboard.can_issue_uses(&d.uses) {
            1 << CLEAR | u8::from(d.is_mem) << MEM | u8::from(d.is_sfu) << SFU
        } else if warp.pending_loads > 0 {
            1 << BLOCKED_MEM
        } else {
            1 << BLOCKED_PIPE
        }
    }

    /// Re-derives what scheduling reads from warp `w`: its bits in its
    /// partition's masks (if listed) and its class in its CTA's trigger
    /// counters. Called at every site that changes a warp's PC,
    /// scoreboard, loads, barrier flag or done flag.
    fn refresh(&mut self, w: usize) {
        let status = self.status(w);
        self.counted[w].status = status;
        let pos = self.slot_pos.get(w).copied().unwrap_or(UNLISTED);
        if pos != UNLISTED {
            let schedulers = self.partitions.len();
            self.partitions[w % schedulers].set(pos as usize, status);
        }
        self.recount(w, status);
    }

    /// Moves warp `w` to the trigger class `status` implies.
    fn recount(&mut self, w: usize, status: u8) {
        let warp = &self.warps[w];
        let trigger = warp.trigger(status >> CLEAR & 1 != 0);
        let old = std::mem::replace(&mut self.counted[w].trigger, trigger);
        if old != trigger {
            let slot = warp.cta_slot;
            let active = self.ctas[slot].is_active();
            if active {
                self.count_stalls(slot, false);
            }
            self.ctas[slot].recount(old, trigger);
            if active {
                self.count_stalls(slot, true);
            }
        }
    }

    /// Adds CTA `slot`'s stalls to `active_stalls`, or removes them.
    fn count_stalls(&mut self, slot: usize, add: bool) {
        for (n, stalled) in self.active_stalls.iter_mut().zip(self.ctas[slot].stalls()) {
            if stalled {
                if add {
                    *n += 1;
                } else {
                    *n -= 1;
                }
            }
        }
    }

    fn rebuild_issue_list(&mut self) {
        self.issue_list.clear();
        for cta in &self.ctas {
            if cta.is_active() {
                // A done warp's status is 0.
                let live = cta.warps.iter().filter(|&&w| self.counted[w].status != 0);
                self.issue_list.extend(live);
            }
        }
        // Age order gives the GTO scheduler its "oldest" notion and makes
        // LRR rotation deterministic.
        let counted = &self.counted;
        self.issue_list.sort_by_key(|&w| counted[w].age);
        let schedulers = self.partitions.len();
        for part in &mut self.partitions {
            part.warps.clear();
        }
        self.slot_pos.clear();
        self.slot_pos.resize(self.warps.len(), UNLISTED);
        for &w in &self.issue_list {
            let part = &mut self.partitions[w % schedulers];
            self.slot_pos[w] = part.warps.len() as u32;
            part.warps.push(w);
        }
        for part in &mut self.partitions {
            part.masks.clear();
            part.masks
                .resize(part.warps.len().div_ceil(64), [0; CLASSES]);
        }
        for i in 0..self.issue_list.len() {
            let w = self.issue_list[i];
            if self.counted[w].status == UNKNOWN {
                self.counted[w].status = self.status(w);
            }
            let status = self.counted[w].status;
            self.partitions[w % schedulers].set(self.slot_pos[w] as usize, status);
        }
        self.issue_dirty = false;
    }

    /// Debug cross-check, run on every tick of a debug build once the
    /// issue list is current: the masks, trigger counters, ready-CTA set
    /// and `swap_due` equal what their specifications (`readiness`, the
    /// per-warp trigger scan, `cta_ready`, the CTA table) compute from
    /// scratch. A site that forgets [`Sm::refresh`] fails here instead of
    /// drifting a golden.
    fn check_derived(&self, now: u64, kernel: &Kernel) {
        let id = self.id;
        for (s, part) in self.partitions.iter().enumerate() {
            let mut want = vec![[0u64; CLASSES]; part.masks.len()];
            for (pos, &w) in part.warps.iter().enumerate() {
                assert_eq!(
                    self.slot_pos[w] as usize, pos,
                    "SM {id}: slot {w} misplaced"
                );
                let classes: &[usize] = match self.readiness(w, now, kernel) {
                    Readiness::Done => &[],
                    Readiness::Barrier => &[BARRIER],
                    Readiness::BlockedMem => &[BLOCKED_MEM],
                    Readiness::BlockedPipe => &[BLOCKED_PIPE],
                    Readiness::Ready | Readiness::LdstFull | Readiness::SfuBusy => {
                        let (d, _) = self.next_instr(&self.warps[w], kernel);
                        match (d.is_mem, d.is_sfu) {
                            (true, _) => &[CLEAR, MEM],
                            (_, true) => &[CLEAR, SFU],
                            _ => &[CLEAR],
                        }
                    }
                };
                for &c in classes {
                    want[pos / 64][c] |= 1 << (pos % 64);
                }
            }
            assert_eq!(
                part.masks, want,
                "SM {id} cycle {now}: scheduler {s}'s masks are stale"
            );
        }
        for (slot, cta) in self.ctas.iter().enumerate() {
            let (mut blocked_long, mut unblocked) = (0, 0);
            for &w in &cta.warps {
                let warp = &self.warps[w];
                if warp.done || warp.waiting_barrier {
                    continue;
                }
                if warp.long_pending_loads > 0 && !self.next_instr(warp, kernel).1 {
                    blocked_long += 1;
                } else {
                    unblocked += 1;
                }
            }
            assert_eq!(
                (cta.warps_blocked_long, cta.warps_unblocked),
                (blocked_long, unblocked),
                "SM {id} cycle {now}: CTA slot {slot}'s trigger counters are stale"
            );
        }
        let mut stalls = [0u32; 2];
        for cta in self.ctas.iter().filter(|c| c.is_active()) {
            for (n, stalled) in stalls.iter_mut().zip(cta.stalls()) {
                *n += u32::from(stalled);
            }
        }
        assert_eq!(
            self.active_stalls, stalls,
            "SM {id} cycle {now}: the stalled-CTA counts are stale"
        );
        assert_eq!(
            self.ready_ctas,
            self.ready_ctas_by_scan(),
            "SM {id} cycle {now}: the ready-CTA set is stale"
        );
        for cta in &self.ctas {
            if let CtaPhase::SwappingOut { done_at } | CtaPhase::SwappingIn { done_at } = cta.phase
            {
                assert!(
                    self.swap_due <= done_at,
                    "SM {id} cycle {now}: a swap due at {done_at} is past swap_due"
                );
            }
        }
    }

    /// The decoded instruction at warp `w`'s PC, and whether `w`'s
    /// scoreboard lets it issue. Debug builds check both answers against
    /// the instruction itself ([`Decoded::of`], [`Scoreboard::can_issue`]).
    ///
    /// [`Scoreboard::can_issue`]: crate::scoreboard::Scoreboard::can_issue
    fn next_instr(&self, w: &WarpRt, kernel: &Kernel) -> (Decoded, bool) {
        let pc = w.stack.pc();
        let d = self.decoded[pc];
        let clear = w.scoreboard.can_issue_uses(&d.uses);
        if cfg!(debug_assertions) {
            let instr = kernel.program().fetch(pc);
            assert_eq!(
                d,
                Decoded::of(instr),
                "SM {}: pc {pc} decoded stale",
                self.id
            );
            assert_eq!(
                clear,
                w.scoreboard.can_issue(instr),
                "SM {}: pc {pc}: decoded scoreboard check disagrees",
                self.id
            );
        }
        (d, clear)
    }

    fn readiness(&self, wslot: usize, now: u64, kernel: &Kernel) -> Readiness {
        let w = &self.warps[wslot];
        if w.done {
            return Readiness::Done;
        }
        if w.waiting_barrier {
            return Readiness::Barrier;
        }
        let (instr, clear) = self.next_instr(w, kernel);
        if !clear {
            return if w.pending_loads > 0 {
                Readiness::BlockedMem
            } else {
                Readiness::BlockedPipe
            };
        }
        if instr.is_mem && !self.ldst.has_space() {
            return Readiness::LdstFull;
        }
        if instr.is_sfu && now < self.sfu_free_at {
            return Readiness::SfuBusy;
        }
        Readiness::Ready
    }

    /// Picks a warp for scheduler `s` from the masks of its own partition
    /// (warps are statically partitioned across schedulers by slot
    /// index), applying the LD/ST-full and SFU-busy hazards as it reads
    /// them. Debug builds check every pick against
    /// [`Sm::pick_by_full_scan`].
    fn pick_warp(&mut self, s: usize, now: u64, run: Run<'_>) -> Option<usize> {
        let reference = cfg!(debug_assertions).then(|| self.pick_by_full_scan(s, now, run));
        let (full, busy) = (!self.ldst.has_space(), now < self.sfu_free_at);
        let part = &self.partitions[s];
        let ready = |word: &[u64; CLASSES]| issuable(word, full, busy);
        let pick = match run.core.scheduler {
            SchedPolicy::Gto => {
                // Greedy: the last warp keeps the scheduler while it is
                // still listed and ready; then the oldest ready one.
                let greedy = self.sched_last[s].filter(|&w| {
                    let pos = self.slot_pos.get(w).copied().unwrap_or(UNLISTED);
                    w % self.partitions.len() == s && part.has(pos, ready)
                });
                greedy.or_else(|| part.first(0, ready).map(|pos| part.warps[pos]))
            }
            SchedPolicy::Lrr => {
                // Rotate through the partition: positions start.. then ..start.
                let n = part.warps.len();
                let start = if n == 0 { 0 } else { self.sched_ptr[s] % n };
                let pos = part.first(start, ready).or_else(|| part.first(0, ready));
                let pick = pos.map(|pos| part.warps[pos]);
                if let Some(pos) = pos {
                    self.sched_ptr[s] = (pos + 1) % n;
                }
                pick
            }
        };
        if let Some(reference) = reference {
            assert_eq!(
                pick, reference,
                "SM {} cycle {now}: scheduler {s} picks differently from the full-list scan",
                self.id
            );
        }
        pick
    }

    /// The specification of [`Sm::pick_warp`]: the whole issue list
    /// scanned with [`Sm::readiness`], filtering by partition on every
    /// entry. Reads the LRR pointer but does not advance it.
    fn pick_by_full_scan(&self, s: usize, now: u64, run: Run<'_>) -> Option<usize> {
        let schedulers = self.sched_last.len();
        let in_partition = |w: usize| w % schedulers == s;
        let ready = |w: usize| self.readiness(w, now, run.kernel) == Readiness::Ready;
        match run.core.scheduler {
            SchedPolicy::Gto => {
                if let Some(last) = self.sched_last[s] {
                    if in_partition(last) && self.issue_list.contains(&last) && ready(last) {
                        return Some(last);
                    }
                }
                self.issue_list
                    .iter()
                    .copied()
                    .find(|&w| in_partition(w) && ready(w))
            }
            SchedPolicy::Lrr => {
                let n = self.issue_list.iter().filter(|&&w| in_partition(w)).count();
                if n == 0 {
                    return None;
                }
                let start = self.sched_ptr[s] % n;
                let members = || self.issue_list.iter().copied().filter(|&w| in_partition(w));
                members()
                    .skip(start)
                    .chain(members().take(start))
                    .find(|&w| ready(w))
            }
        }
    }

    // ----- instruction execution --------------------------------------------

    /// Issues warp `wslot`'s instruction: [`step_warp`] executes it, then
    /// the SM charges its [`Effect`].
    fn issue_warp<S: TraceSink>(
        &mut self,
        wslot: usize,
        sched: usize,
        ctx: &mut Ctx<'_, S>,
    ) -> Result<(), ExecError> {
        let (now, Run { kernel, core, .. }) = (ctx.now, ctx.run);
        let w = &mut self.warps[wslot];
        let (pc, mask, cta_slot) = (w.stack.pc(), w.stack.active_mask(), w.cta_slot);
        ctx.stats.warp_instrs += 1;
        ctx.stats.thread_instrs += u64::from(mask.count_ones());
        if let Some(h) = ctx.stats.hotspots.as_mut() {
            h.record_warp_issue(pc, mask.count_ones());
        }
        if S::ENABLED {
            ctx.sink.emit(
                now,
                TraceEvent::WarpIssue {
                    sm: self.id as u32,
                    sched: sched as u32,
                    warp_slot: wslot as u32,
                    pc: pc as u32,
                },
            );
        }
        let cta = &mut self.ctas[cta_slot];
        let mut warp = WarpCtx {
            regs: &mut w.regs,
            stack: &mut w.stack,
            lane0: ThreadCtx {
                tid: w.first_tid,
                ctaid: cta.cta_id,
                ntid: kernel.threads_per_cta(),
                ncta: kernel.num_ctas(),
            },
        };
        let effect = step_warp(
            kernel.program().fetch(pc),
            &mut warp,
            ctx.image,
            &mut cta.smem,
        )?;

        match effect {
            Effect::Alu { dst } => {
                let latency = if self.decoded[pc].is_sfu {
                    self.sfu_free_at = now + u64::from(core.sfu_init_interval);
                    core.sfu_latency
                } else {
                    core.alu_latency
                };
                let ready = now + u64::from(latency);
                self.warps[wslot].scoreboard.set_pending(dst);
                let at = self.writebacks.partition_point(|&(r, ..)| r <= ready);
                self.writebacks
                    .insert(at, (ready, wslot, dst.0, self.warp_uids[wslot]));
            }
            Effect::Mem(access) => self.charge_mem(wslot, pc, access, ctx),
            Effect::Barrier => {
                ctx.stats.barriers += 1;
                self.warps[wslot].waiting_barrier = true;
                self.warps[wslot].barrier_since = now;
                self.ctas[cta_slot].barrier_arrived += 1;
                if S::ENABLED {
                    ctx.sink.emit(
                        now,
                        TraceEvent::BarrierArrive {
                            sm: self.id as u32,
                            cta_slot: cta_slot as u32,
                            warp_slot: wslot as u32,
                        },
                    );
                }
                self.check_barrier_release(cta_slot, ctx);
            }
            Effect::Branch { divergent, .. } => {
                if divergent {
                    ctx.stats.divergent_branches += 1;
                }
                if let Some(h) = ctx.stats.hotspots.as_mut() {
                    h.record_branch(pc, divergent);
                }
            }
            Effect::Exit => self.check_done(wslot, ctx),
            // A jump keeps the bottom SIMT entry, which has no
            // reconvergence PC (`WarpRt::restore` refuses one that has),
            // so it cannot finish the warp.
            Effect::Jump => {}
        }
        Ok(())
    }

    /// Charges warp `wslot`'s memory access at `pc` to the LD/ST unit:
    /// bank-conflict rounds for shared memory, coalesced lines for global.
    fn charge_mem<S: TraceSink>(
        &mut self,
        wslot: usize,
        pc: usize,
        Access {
            space,
            kind,
            dst,
            addrs,
            mask,
        }: Access,
        ctx: &mut Ctx<'_, S>,
    ) {
        let (now, uid, pc32) = (ctx.now, self.warp_uids[wslot], pc as u32);
        if let Some(d) = dst {
            self.warps[wslot].scoreboard.set_pending(d);
        }
        if space == MemSpace::Shared {
            let rounds = shared_bank_conflicts(&addrs, mask, ctx.run.core.smem_banks);
            if let Some(h) = ctx.stats.hotspots.as_mut() {
                h.record_smem(pc, u64::from(rounds));
            }
            self.ldst.push_shared(wslot, uid, rounds, dst, pc32, now);
            return;
        }
        let lines: Vec<u64> = coalesce(&addrs, mask, self.line_bytes)
            .map(|t| t.line_addr)
            .collect();
        if let Some(h) = ctx.stats.hotspots.as_mut() {
            h.record_coalesce(pc, lines.len() as u64);
        }
        let kind = match kind {
            AccessKind::Load => ReqKind::Load,
            AccessKind::Store => ReqKind::Store,
            AccessKind::Atomic => ReqKind::Atomic,
        };
        if S::ENABLED {
            ctx.sink.emit(
                now,
                TraceEvent::Coalesce {
                    sm: self.id as u32,
                    warp_slot: wslot as u32,
                    kind: kind.trace_kind(),
                    lines: lines.len() as u32,
                },
            );
        }
        // Loads and atomics hold the warp (and its CTA) until they return.
        if kind != ReqKind::Store {
            self.warps[wslot].pending_loads += 1;
            let cta_slot = self.warps[wslot].cta_slot;
            self.ctas[cta_slot].pending_loads += 1;
        }
        self.ldst
            .push_global(wslot, uid, lines, kind, dst, pc32, now);
    }

    fn check_barrier_release<S: TraceSink>(&mut self, cta_slot: usize, ctx: &mut Ctx<'_, S>) {
        let now = ctx.now;
        let cta = &mut self.ctas[cta_slot];
        if cta.live_warps > 0 && cta.barrier_arrived >= cta.live_warps {
            cta.barrier_arrived = 0;
            for i in 0..self.ctas[cta_slot].warps.len() {
                let w = self.ctas[cta_slot].warps[i];
                if self.warps[w].waiting_barrier {
                    self.warps[w].waiting_barrier = false;
                    self.refresh(w);
                    ctx.stats
                        .barrier_wait
                        .record(now.saturating_sub(self.warps[w].barrier_since));
                    if S::ENABLED {
                        ctx.sink.emit(
                            now,
                            TraceEvent::BarrierRelease {
                                sm: self.id as u32,
                                cta_slot: cta_slot as u32,
                                warp_slot: w as u32,
                            },
                        );
                    }
                }
            }
        }
    }

    fn check_done<S: TraceSink>(&mut self, wslot: usize, ctx: &mut Ctx<'_, S>) {
        if !self.warps[wslot].stack.is_done() || self.warps[wslot].done {
            return;
        }
        self.warps[wslot].done = true;
        self.max_simt_depth = self.max_simt_depth.max(self.warps[wslot].stack.max_depth());
        let cta_slot = self.warps[wslot].cta_slot;
        self.ctas[cta_slot].live_warps -= 1;
        self.issue_dirty = true;
        if self.ctas[cta_slot].live_warps == 0 {
            self.finish_cta(cta_slot, ctx);
        } else {
            // Remaining warps may all be at the barrier now.
            self.check_barrier_release(cta_slot, ctx);
        }
    }

    fn finish_cta<S: TraceSink>(&mut self, cta_slot: usize, ctx: &mut Ctx<'_, S>) {
        let n_warps = self.ctas[cta_slot].warps.len() as u32;
        if S::ENABLED {
            let (now, sink) = (ctx.now, &mut *ctx.sink);
            let (sm, slot, cta_id) = (self.id as u32, cta_slot as u32, self.ctas[cta_slot].cta_id);
            // Close whatever span is open above the resident span so the
            // final CtaComplete balances the CtaLaunch.
            if self.ctas[cta_slot].is_active() {
                sink.emit(
                    now,
                    TraceEvent::CtaDeactivate {
                        sm,
                        cta_slot: slot,
                        cta_id,
                    },
                );
            } else if matches!(self.ctas[cta_slot].phase, CtaPhase::SwappingIn { .. }) {
                sink.emit(
                    now,
                    TraceEvent::SwapEnd {
                        sm,
                        cta_slot: slot,
                        cta_id,
                        dir: SwapDir::In,
                    },
                );
            }
            sink.emit(
                now,
                TraceEvent::CtaComplete {
                    sm,
                    cta_slot: slot,
                    cta_id,
                },
            );
        }
        if self.ctas[cta_slot].holds_active_slot() {
            self.slot_ctas -= 1;
            self.slot_warps -= n_warps;
            if self.ctas[cta_slot].is_active() {
                self.count_stalls(cta_slot, false);
                self.active_phase_warps -= n_warps;
            } else {
                self.swapping_ctas -= 1; // SwappingIn
            }
        } else {
            // Only Active CTAs issue, so a CTA cannot finish mid-swap.
            debug_assert!(
                !matches!(self.ctas[cta_slot].phase, CtaPhase::SwappingOut { .. }),
                "CTA finished while swapping out"
            );
        }
        self.resident_reg_bytes -= self.ctas[cta_slot].reg_bytes;
        self.resident_smem_bytes -= self.ctas[cta_slot].smem_bytes;
        self.resident_warps -= n_warps;
        self.resident_ctas -= 1;
        for w in self.ctas[cta_slot].warps.drain(..) {
            // Invalidate the slot's uid so in-flight completions and
            // writebacks for this warp are dropped.
            self.warp_uids[w] = 0;
            self.free_warp_slots.push(w);
        }
        self.ctas[cta_slot].phase = CtaPhase::Finished;
        self.free_cta_slots.push(cta_slot);
        self.issue_dirty = true;
        ctx.stats.ctas_completed += 1;
        // A slot freed: a parked CTA may activate.
        self.try_activate(ctx);
    }

    // ----- stats -------------------------------------------------------------

    /// The accounting every SM-cycle gets, issued or not: occupancy
    /// integrals, swap-engine busy time and the LD/ST queue sample.
    fn charge_cycle(&self, stats: &mut RunStats) {
        let occ = &mut stats.occupancy;
        occ.sm_cycles += 1;
        occ.resident_warp_cycles += u64::from(self.resident_warps);
        occ.active_warp_cycles += u64::from(self.active_phase_warps);
        occ.resident_cta_cycles += u64::from(self.resident_ctas);
        occ.active_cta_cycles += u64::from(self.slot_ctas);
        occ.reg_byte_cycles += u64::from(self.resident_reg_bytes);
        occ.smem_byte_cycles += u64::from(self.resident_smem_bytes);
        if self.swapping_ctas > 0 {
            stats.swaps.swap_busy_cycles += 1;
        }
        stats.ldst_queue.sample(self.ldst.queue_len() as u64);
    }

    /// Classifies a cycle in which nothing issued, from the partition
    /// masks (the issue list is current: nothing issued since its
    /// rebuild): `None` when no warp is resident, else the stall reason
    /// and, when `profiled`, the PC of the instruction it is blamed on.
    /// An empty cycle's sub-split depends on the dispatcher, not on this
    /// SM, so it is taken from the cycle's [`EmptyAttr`] at charge time.
    fn classify(&self, profiled: bool) -> Option<(StallReason, Option<usize>)> {
        if self.resident_warps == 0 {
            return None;
        }
        if self.active_phase_warps == 0 {
            if self.swapping_ctas > 0 {
                // Context-switch overhead has no instruction to blame.
                return Some((StallReason::Swap, None));
            }
            // Everything resident is inactive and waiting on memory:
            // blame the oldest inactive warp with loads in flight.
            let blame = if profiled {
                self.warps
                    .iter()
                    .filter(|w| !w.done && w.pending_loads > 0)
                    .min_by_key(|w| w.age)
                    .map(|w| w.stack.pc())
            } else {
                None
            };
            return Some((StallReason::Memory, blame));
        }
        let mut any = [0u64; CLASSES];
        for word in self.partitions.iter().flat_map(|p| &p.masks) {
            for (a, m) in any.iter_mut().zip(word) {
                *a |= m;
            }
        }
        let has = |c: usize| any[c] != 0;
        // LD/ST queue or SFU structural hazards, and ready warps a
        // scheduler partition could not reach, fall in the `other`
        // (structural) bucket with the scoreboard-clear ones.
        let reason = if has(BLOCKED_MEM) {
            StallReason::Memory
        } else if has(BARRIER) && !has(CLEAR) && !has(BLOCKED_PIPE) {
            StallReason::Barrier
        } else if has(BLOCKED_PIPE) {
            StallReason::Pipeline
        } else {
            StallReason::Structural
        };
        // The oldest warp of the charged class; for a barrier, the stack
        // already advanced past the `Bar`, so the charge lands on the
        // instruction waiting behind it.
        let blame = if profiled {
            let class = match reason {
                StallReason::Memory => BLOCKED_MEM,
                StallReason::Barrier => BARRIER,
                StallReason::Pipeline => BLOCKED_PIPE,
                _ => CLEAR,
            };
            self.partitions
                .iter()
                .filter_map(|p| p.first(0, |word| word[class]).map(|pos| p.warps[pos]))
                .min_by_key(|&w| self.warps[w].age)
                .map(|w| self.warps[w].stack.pc())
        } else {
            None
        };
        Some((reason, blame))
    }

    // ----- introspection -------------------------------------------------------

    /// Whether the SM holds no CTAs and has no local work in flight.
    pub fn idle(&self) -> bool {
        self.resident_ctas == 0 && self.ldst.idle() && self.writebacks.is_empty()
    }

    /// Resident CTAs right now.
    pub fn resident_ctas(&self) -> u32 {
        self.resident_ctas
    }

    /// Resident warps right now.
    pub fn resident_warps(&self) -> u32 {
        self.resident_warps
    }

    /// Schedulable (active-phase) warps right now.
    pub fn active_warps(&self) -> u32 {
        self.active_phase_warps
    }

    /// CTAs holding active slots right now.
    pub fn slot_ctas(&self) -> u32 {
        self.slot_ctas
    }

    /// Deepest SIMT stack seen on this SM so far.
    pub fn max_simt_depth(&self) -> usize {
        self.max_simt_depth
    }

    /// Register-file bytes held by resident CTAs right now.
    pub fn resident_reg_bytes(&self) -> u32 {
        self.resident_reg_bytes
    }

    /// Shared-memory bytes held by resident CTAs right now.
    pub fn resident_smem_bytes(&self) -> u32 {
        self.resident_smem_bytes
    }

    // ----- checkpointing -------------------------------------------------------

    /// Rebuilds an SM running `kernel` against a memory system of
    /// `line_bytes`-byte lines from its checkpoint ([`vt_json::ToJson`]).
    /// The SM holds no mid-cycle state, so any point between two
    /// [`Sm::tick`] calls is a cycle boundary; the derived state is
    /// rebuilt on the first tick.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed input or state the kernel, the
    /// line size or the SM's other fields rule out.
    pub fn restore(v: &Json, kernel: &Kernel, line_bytes: u32) -> Result<Sm, String> {
        // Coalescing splits accesses into the memory system's lines.
        let own_lines: u64 = field(v, "line_bytes")?;
        if own_lines != u64::from(line_bytes) {
            return Err(format!(
                "line_bytes: the SM coalesces {own_lines}-byte lines, the memory system's are {line_bytes}"
            ));
        }
        let ctas = req_array(v, "ctas")?
            .iter()
            .map(|c| CtaRt::restore(c, kernel.smem_bytes_per_cta()))
            .collect::<Result<Vec<_>, _>>()?;
        let warps = req_array(v, "warps")?
            .iter()
            .map(|w| WarpRt::restore(w, kernel.regs_per_thread()))
            .collect::<Result<Vec<_>, _>>()?;
        // The first tick decodes every live warp's PCs, and a warp's
        // thread ids follow from its index in its CTA.
        let len = kernel.program().len();
        for (slot, w) in warps.iter().enumerate().filter(|(_, w)| !w.done) {
            if w.stack.is_done() {
                return Err("pc: a live warp has an empty SIMT stack".to_string());
            }
            if let Some(e) = w.stack.entries().iter().find(|e| e.pc >= len) {
                return Err(format!(
                    "pc: a live warp is at pc {}, but the program has {len} instructions",
                    e.pc
                ));
            }
            if w.warp_in_cta >= kernel.warps_per_cta()
                || u64::from(w.first_tid) != u64::from(w.warp_in_cta) * u64::from(WARP_SIZE)
            {
                return Err(format!(
                    "warp identity: warp slot {slot} is warp {} of its CTA from thread {}, \
                     but a CTA has {} warps of {WARP_SIZE} threads",
                    w.warp_in_cta,
                    w.first_tid,
                    kernel.warps_per_cta()
                ));
            }
        }
        let warp_uids: Vec<u64> = field(v, "warp_uids")?;
        if warp_uids.len() != warps.len() {
            return Err("warp uid table length mismatch".to_string());
        }
        // Every restored slot index is later used to index the warp or
        // CTA table unchecked, so each is bounded here, at the boundary.
        let bounded = |what: &str, table: &str, slot: usize, len: usize| {
            if slot < len {
                Ok(slot)
            } else {
                Err(format!(
                    "{what} names {table} slot {slot}, but the SM has {len} {table} slots"
                ))
            }
        };
        let warp_slot = |what: &str, slot: usize| bounded(what, "warp", slot, warps.len());
        let cta_slot = |what: &str, slot: usize| bounded(what, "CTA", slot, ctas.len());
        for cta in &ctas {
            for &w in &cta.warps {
                warp_slot("CTA warp list", w)?;
            }
        }
        for warp in &warps {
            cta_slot("warp", warp.cta_slot)?;
        }
        let free_cta_slots: Vec<usize> = field(v, "free_cta_slots")?;
        for &s in &free_cta_slots {
            cta_slot("free CTA list", s)?;
        }
        let free_warp_slots: Vec<usize> = field(v, "free_warp_slots")?;
        for &s in &free_warp_slots {
            warp_slot("free warp list", s)?;
        }
        let sched_last: Vec<Option<usize>> = field(v, "sched_last")?;
        for &s in sched_last.iter().flatten() {
            warp_slot("sched_last", s)?;
        }
        if sched_last.is_empty() {
            return Err("SM has no schedulers".to_string());
        }
        let sched_ptr: Vec<usize> = field(v, "sched_ptr")?;
        if sched_ptr.len() != sched_last.len() {
            return Err("scheduler pointer table length mismatch".to_string());
        }
        let mut writebacks = VecDeque::new();
        for (ready, wslot, reg, uid) in field::<Vec<(u64, usize, u64, u64)>>(v, "writebacks")? {
            let wslot = warp_slot("writeback", wslot)?;
            writebacks.push_back((ready, wslot, reg_from_u64(reg)?.0, uid));
        }
        writebacks.make_contiguous().sort_unstable();
        let ldst: LdstUnit = field(v, "ldst")?;
        for s in ldst.warp_slots() {
            warp_slot("LD/ST unit", s)?;
        }
        // The trigger counters follow a warp's `cta_slot`, occupancy and
        // the issue list a CTA's warp list, so the two must agree: each
        // slot on one resident CTA's list, naming that CTA, and every live
        // warp on a list.
        let mut owner = vec![None; warps.len()];
        for (slot, cta) in ctas.iter().enumerate().filter(|(_, c)| c.is_resident()) {
            for &w in &cta.warps {
                if owner[w].replace(slot).is_some() || warps[w].cta_slot != slot {
                    return Err(format!(
                        "CTA warp list: warp slot {w} does not belong to CTA slot {slot} alone"
                    ));
                }
            }
        }
        if let Some(w) = (0..warps.len()).find(|&w| owner[w].is_none() && !warps[w].done) {
            return Err(format!(
                "CTA warp list: live warp slot {w} is on no resident CTA's list"
            ));
        }
        // A load completion counts down its warp's and the warp's CTA's
        // pending loads, so each must be exactly the warp's load groups in
        // flight (a recycled slot's stale groups are dropped unseen).
        let mut in_flight = vec![[0u32; 2]; warps.len()];
        for (w, uid, missed) in ldst.load_groups() {
            if warp_uids[w] == uid {
                in_flight[w][0] += 1;
                in_flight[w][1] += u32::from(missed);
            }
        }
        for (w, warp) in warps.iter().enumerate().filter(|&(w, _)| warp_uids[w] != 0) {
            let counts = [warp.pending_loads, warp.long_pending_loads];
            if counts != in_flight[w] {
                return Err(format!(
                    "pending loads: warp slot {w} counts {counts:?} (all, long), \
                     but the LD/ST unit has {:?} in flight",
                    in_flight[w]
                ));
            }
        }
        // A warp's exit counts down its CTA's live warps, a barrier
        // releases when the arrivals reach them, and a load completion
        // counts down the CTA's pending loads too.
        for (slot, cta) in ctas.iter().enumerate().filter(|(_, c)| c.is_resident()) {
            let of_warps = |count: &dyn Fn(&WarpRt) -> u64| -> u64 {
                cta.warps.iter().map(|&w| count(&warps[w])).sum()
            };
            let live = of_warps(&|w| u64::from(!w.done));
            let waiting = of_warps(&|w| u64::from(w.waiting_barrier));
            let loads = of_warps(&|w| u64::from(w.pending_loads));
            let counts = [cta.live_warps, cta.barrier_arrived, cta.pending_loads].map(u64::from);
            if counts != [live, waiting, loads] {
                return Err(format!(
                    "CTA warp list: CTA slot {slot} counts {counts:?} (live, at the barrier, \
                     pending loads), its warps {:?}",
                    [live, waiting, loads]
                ));
            }
        }
        // The occupancy counters are redundant with the CTA table, and
        // admission, activation and the derived state trust them.
        let occupancy = occupancy_of(&ctas);
        let counter = |i: usize| -> Result<u32, String> {
            let (key, want) = (OCCUPANCY[i], occupancy[i]);
            let got: u64 = field(v, key)?;
            u32::try_from(got)
                .ok()
                .filter(|_| got == want)
                .ok_or_else(|| format!("occupancy: {key} is {got}, but the CTA table gives {want}"))
        };
        let count = |key: &str| decode_field(v, key, <Count as Codec<u64>>::decode);
        let schedulers = sched_last.len();
        let mut sm = Sm {
            id: field(v, "id")?,
            line_bytes,
            ctas,
            free_cta_slots,
            warps,
            free_warp_slots,
            warp_uids,
            resident_reg_bytes: counter(0)?,
            resident_smem_bytes: counter(1)?,
            resident_warps: counter(2)?,
            resident_ctas: counter(3)?,
            slot_ctas: counter(4)?,
            slot_warps: counter(5)?,
            active_phase_warps: counter(6)?,
            swapping_ctas: counter(7)?,
            sched_ptr,
            sfu_free_at: field(v, "sfu_free_at")?,
            ldst,
            writebacks,
            next_uid: count("next_uid")?,
            cta_seq: count("cta_seq")?,
            max_simt_depth: field(v, "max_simt_depth")?,
            throttle_hold: field(v, "throttle_hold")?,
            throttle_window_end: field(v, "throttle_window_end")?,
            phase_window: field(v, "phase_window")?,
            phase_accum: count("phase_accum")?,
            phases_since_probe: field(v, "phases_since_probe")?,
            window_issues: count("window_issues")?,
            mode_ipc_est: field(v, "mode_ipc_est")?,
            sched_last,
            decoded: Vec::new(),
            issue_list: Vec::new(),
            partitions: vec![Partition::default(); schedulers],
            slot_pos: Vec::new(),
            issue_dirty: true,
            counted: Vec::new(),
            active_stalls: [0; 2],
            ready_ctas: Vec::new(),
            swap_due: u64::MAX,
        };
        sm.reset_derived();
        Ok(sm)
    }

    /// The grid indices of the CTAs resident on this SM.
    pub(crate) fn resident_cta_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.ctas
            .iter()
            .filter(|c| c.is_resident())
            .map(|c| c.cta_id)
    }
}

// The complete SM state — CTA and warp tables (including freed slots
// awaiting reuse), scheduler pointers, LD/ST unit, writeback pipe and
// throttle state. The derived state and the issue list are not written.
impl_to_json!(Sm {
    id,
    line_bytes,
    ctas,
    free_cta_slots,
    warps,
    free_warp_slots,
    warp_uids,
    resident_reg_bytes,
    resident_smem_bytes,
    resident_warps,
    resident_ctas,
    slot_ctas,
    slot_warps,
    active_phase_warps,
    swapping_ctas,
    sched_last,
    sched_ptr,
    sfu_free_at,
    ldst,
    writebacks: Sorted,
    next_uid,
    cta_seq,
    max_simt_depth,
    throttle_hold,
    throttle_window_end,
    phase_window,
    phase_accum,
    phases_since_probe,
    window_issues,
    mode_ipc_est,
});

/// The occupancy counters, as checkpointed, in the order
/// [`occupancy_of`] computes them.
const OCCUPANCY: [&str; 8] = [
    "resident_reg_bytes",
    "resident_smem_bytes",
    "resident_warps",
    "resident_ctas",
    "slot_ctas",
    "slot_warps",
    "active_phase_warps",
    "swapping_ctas",
];

/// The [`OCCUPANCY`] counters a CTA table implies.
fn occupancy_of(ctas: &[CtaRt]) -> [u64; 8] {
    let mut sums = [0u64; 8];
    for cta in ctas.iter().filter(|c| c.is_resident()) {
        let warps = cta.warps.len() as u64;
        let slot = cta.holds_active_slot();
        let swapping = matches!(
            cta.phase,
            CtaPhase::SwappingIn { .. } | CtaPhase::SwappingOut { .. }
        );
        let add = [
            u64::from(cta.reg_bytes),
            u64::from(cta.smem_bytes),
            warps,
            1,
            u64::from(slot),
            if slot { warps } else { 0 },
            if cta.is_active() { warps } else { 0 },
            u64::from(swapping),
        ];
        for (sum, x) in sums.iter_mut().zip(add) {
            *sum += x;
        }
    }
    sums
}

/// Charges one SM-cycle that issued nothing, classified by
/// [`Sm::classify`], to the idle and empty breakdowns and, when
/// profiling, to the per-PC profile (unattributed when no instruction is
/// blamable).
fn charge_idle(stats: &mut RunStats, class: Option<(StallReason, Option<usize>)>, attr: EmptyAttr) {
    let Some((reason, blame)) = class else {
        stats.idle.no_warps += 1;
        // Empty sub-split (keeps `empty.total() == idle.no_warps`):
        // with undispatched CTAs left the SM is starved by whichever
        // limit family governs admission; otherwise it is draining.
        if !attr.work_left {
            stats.empty.drain += 1;
        } else if attr.scheduling_limited {
            stats.empty.scheduling += 1;
        } else {
            stats.empty.capacity += 1;
        }
        return;
    };
    let idle = &mut stats.idle;
    *match reason {
        StallReason::Memory => &mut idle.memory,
        StallReason::Pipeline => &mut idle.pipeline,
        StallReason::Barrier => &mut idle.barrier,
        StallReason::Swap => &mut idle.swapping,
        StallReason::Structural => &mut idle.other,
    } += 1;
    if let Some(h) = stats.hotspots.as_mut() {
        h.record_stall(blame, reason);
    }
}

/// The expiry tests keep the names they had when a stalled SM replayed
/// a recorded tick: a *settled* SM is now one whose derived state shows
/// no issuable warp and no waiting CTA (`Twins::parked`), and each test
/// checks that the kept state expires exactly when a rebuilt one does.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SwapConfig, ThrottleConfig};
    use crate::hotspots::PcProfile;
    use crate::AdmissionPolicy;
    use vt_isa::op::{Operand, SfuOp, Sreg};
    use vt_isa::KernelBuilder;
    use vt_mem::MemConfig;
    use vt_trace::NullSink;

    /// One SM driven the way the engine drives it: memory tick, SM tick,
    /// and an optional one-CTA-per-cycle dispatcher. A `rebuilt` rig drops
    /// its derived state before every tick, so each tick rebuilds masks,
    /// counters and sets from the tables, as after a restore.
    struct Rig {
        kernel: Kernel,
        core: CoreConfig,
        res: ResidencyConfig,
        mem: MemSystem,
        image: MemImage,
        sm: Sm,
        stats: RunStats,
        sink: NullSink,
        now: u64,
        next_cta: u32,
        rebuilt: bool,
    }

    impl Rig {
        fn new(kernel: Kernel, core: CoreConfig, res: ResidencyConfig, profiled: bool) -> Rig {
            let mem_cfg = MemConfig::default();
            Rig {
                mem: MemSystem::new(&mem_cfg, 1),
                image: kernel.global_mem().clone(),
                sm: Sm::new(0, &core, mem_cfg.line_bytes),
                stats: RunStats {
                    hotspots: profiled.then(|| PcProfile::new(kernel.program().len())),
                    ..RunStats::default()
                },
                kernel,
                core,
                res,
                sink: NullSink,
                now: 0,
                next_cta: 0,
                rebuilt: false,
            }
        }

        /// The SM and the context it ticks and admits under now.
        fn split(&mut self) -> (&mut Sm, Ctx<'_, NullSink>) {
            let ctx = Ctx {
                run: Run::new(&self.kernel, &self.core, &self.res),
                now: self.now,
                mem: &mut self.mem,
                image: &mut self.image,
                stats: &mut self.stats,
                sink: &mut self.sink,
            };
            (&mut self.sm, ctx)
        }

        fn admit(&mut self) {
            let cta_id = self.next_cta;
            let (sm, mut ctx) = self.split();
            sm.admit(cta_id, &mut ctx);
            self.next_cta += 1;
        }

        fn tick_with(&mut self, attr: EmptyAttr) {
            if self.rebuilt {
                // The next tick re-decodes, which rebuilds everything
                // derived.
                self.sm.decoded.clear();
            }
            self.mem.tick(self.now);
            let (sm, mut ctx) = self.split();
            sm.tick(&mut ctx, attr).unwrap();
            self.now += 1;
        }

        /// Runs the whole grid, dispatching like the engine (after the
        /// tick, one CTA per cycle).
        fn run(mut self) -> RunStats {
            loop {
                let work_left = self.next_cta < self.kernel.num_ctas();
                self.tick_with(EmptyAttr {
                    work_left,
                    scheduling_limited: false,
                });
                let (sm, ctx) = self.split();
                if work_left && sm.can_admit(ctx.run) {
                    self.admit();
                }
                let drained = self.next_cta >= self.kernel.num_ctas();
                if drained && self.sm.idle() && self.mem.quiesced() {
                    return self.stats;
                }
                assert!(self.now < 1_000_000, "rig run did not finish");
            }
        }
    }

    /// A rig that keeps its derived state incrementally, and its twin that
    /// rebuilds it before every tick, driven in lockstep and compared
    /// after every tick.
    struct Twins {
        kept: Rig,
        rebuilt: Rig,
    }

    impl Twins {
        fn new(kernel: Kernel, core: CoreConfig, res: ResidencyConfig) -> Twins {
            let mut rebuilt = Rig::new(kernel.clone(), core.clone(), res, false);
            rebuilt.rebuilt = true;
            Twins {
                kept: Rig::new(kernel, core, res, false),
                rebuilt,
            }
        }

        fn admit(&mut self) {
            self.kept.admit();
            self.rebuilt.admit();
        }

        fn tick_with(&mut self, attr: EmptyAttr) {
            self.kept.tick_with(attr);
            self.rebuilt.tick_with(attr);
            assert_eq!(
                self.kept.stats,
                self.rebuilt.stats,
                "cycle {}: the twins diverged",
                self.kept.now - 1
            );
        }

        fn tick(&mut self) {
            self.tick_with(EmptyAttr::drained());
        }

        /// The kept rig's SM.
        fn sm(&self) -> &Sm {
            &self.kept.sm
        }

        fn stats(&self) -> &RunStats {
            &self.kept.stats
        }

        fn now(&self) -> u64 {
            self.kept.now
        }

        /// Whether no warp of the kept SM can issue and no CTA waits to
        /// activate: a tick now costs no probe of any warp or CTA.
        fn parked(&self) -> bool {
            let sm = self.sm();
            sm.partitions
                .iter()
                .flat_map(|p| &p.masks)
                .all(|word| word[CLEAR] == 0)
                && sm.ready_ctas.is_empty()
        }
    }

    fn vt_residency(swap_cycles: u32, throttle: Option<ThrottleConfig>) -> ResidencyConfig {
        ResidencyConfig {
            admission: AdmissionPolicy::CapacityOnly {
                max_resident_ctas: None,
            },
            active: ActivePolicy::SchedulingLimit,
            swap: Some(SwapConfig {
                trigger: SwapTrigger::AllWarpsStalled,
                save_cycles: swap_cycles,
                restore_cycles: swap_cycles,
                fresh_activation_cycles: swap_cycles,
                throttle,
            }),
        }
    }

    /// One warp per CTA: a load from a fixed address, then its consumer.
    fn load_then_use(ctas: u32) -> Kernel {
        let mut b = KernelBuilder::new("load_then_use");
        let xs = b.alloc_global_init(&[7; 32]);
        let v = b.reg();
        b.ld_global(v, Operand::Imm(0), xs as i32);
        b.add(v, Operand::Reg(v), Operand::Imm(1));
        b.exit();
        b.build(ctas, 32).unwrap()
    }

    /// Strided loads in a loop, an SFU op, a barrier-fenced shared-memory
    /// exchange and a store: every `Readiness` and every CTA phase occurs
    /// once the limits are shrunk enough for VT to swap.
    fn mixed_kernel(ctas: u32) -> Kernel {
        let threads = 64u32;
        let n = (ctas * threads) as usize;
        let mut b = KernelBuilder::new("mixed");
        let xs = b.alloc_global_init(&(0..(n * 32) as u32).collect::<Vec<_>>());
        let out = b.alloc_global(n);
        let buf = b.alloc_shared(threads);
        let (gid, off, soff, acc, v, i) = (b.reg(), b.reg(), b.reg(), b.reg(), b.reg(), b.reg());
        b.global_thread_id(gid);
        b.shl(off, Operand::Reg(gid), Operand::Imm(7));
        b.shl(soff, Operand::Sreg(Sreg::Tid), Operand::Imm(2));
        b.mov(acc, Operand::Imm(0));
        b.for_range(i, Operand::Imm(0), Operand::Imm(3), 1, |b, _| {
            b.ld_global(v, Operand::Reg(off), xs as i32);
            b.add(acc, Operand::Reg(acc), Operand::Reg(v));
            b.sfu(SfuOp::Sqrt, v, Operand::Reg(acc));
            b.st_shared(Operand::Reg(soff), buf as i32, Operand::Reg(v));
            b.bar();
            b.ld_shared(v, Operand::Reg(soff), buf as i32);
            b.add(acc, Operand::Reg(acc), Operand::Reg(v));
            b.add(off, Operand::Reg(off), Operand::Imm(4));
        });
        b.shl(off, Operand::Reg(gid), Operand::Imm(2));
        b.st_global(Operand::Reg(off), out as i32, Operand::Reg(acc));
        b.exit();
        b.build(ctas, threads).unwrap()
    }

    #[test]
    fn load_stalled_warp_settles_after_two_ticks_until_its_response() {
        let mut t = Twins::new(
            load_then_use(1),
            CoreConfig::default(),
            ResidencyConfig::baseline(),
        );
        t.admit();
        t.tick(); // issues the load
        t.tick(); // the LD/ST unit injects it (miss event); nothing issues
        assert_eq!(t.stats().warp_instrs, 1);
        let mut parked = 0;
        while t.sm().warps[0].pending_loads > 0 {
            assert!(t.parked(), "cycle {}: a blocked warp is issuable", t.now());
            assert_eq!(t.sm().partitions[0].masks[0][BLOCKED_MEM], 1);
            parked += 1;
            t.tick();
        }
        // The response's tick set the warp's bit, and the consumer issued
        // in it.
        assert_eq!(parked, t.now() - 2);
        assert_eq!(t.stats().warp_instrs, 2);
        assert_eq!(t.stats().idle.memory, t.now() - 2);
        assert_eq!(t.stats().idle.total() + t.stats().issue_cycles, t.now());
    }

    #[test]
    fn never_settling_twin_ends_with_identical_stats() {
        let core = CoreConfig {
            max_ctas_per_sm: 2,
            ..CoreConfig::default()
        };
        let throttle = ThrottleConfig {
            window_cycles: 64,
            phase_windows: 2,
            probe_every_phases: 2,
        };
        let cases = [
            ("baseline", ResidencyConfig::baseline()),
            ("vt", vt_residency(6, None)),
            ("vt+throttle", vt_residency(6, Some(throttle))),
        ];
        for (label, res) in cases {
            for profiled in [false, true] {
                let kept = Rig::new(mixed_kernel(10), core.clone(), res, profiled).run();
                let mut rebuilt = Rig::new(mixed_kernel(10), core.clone(), res, profiled);
                rebuilt.rebuilt = true;
                assert_eq!(kept, rebuilt.run(), "{label}, profiled={profiled}");
                assert_eq!(kept.ctas_completed, 10);
                if res.swap.is_some() {
                    assert!(kept.swaps.swaps_out > 0, "{label}: VT never swapped");
                }
            }
        }
    }

    #[test]
    fn sfu_initiation_interval_expires_a_settled_sm() {
        // Two warps, one per scheduler, both starting on an SFU op: warp 0
        // takes the unit, warp 1 waits out the interval while warp 0 waits
        // for its own result.
        let mut b = KernelBuilder::new("sfu");
        let v = b.reg();
        b.sfu(SfuOp::Rcp, v, Operand::Imm(0x4000_0000));
        b.add(v, Operand::Reg(v), Operand::Imm(1));
        b.exit();
        let core = CoreConfig {
            sfu_init_interval: 6,
            ..CoreConfig::default()
        };
        let mut t = Twins::new(b.build(1, 64).unwrap(), core, ResidencyConfig::baseline());
        t.admit();
        t.tick();
        assert_eq!(t.stats().warp_instrs, 1, "one SFU issue per interval");
        while t.now() < 6 {
            // Warp 1 stays scoreboard-clear; only the interval holds it.
            let part = &t.sm().partitions[1];
            assert_eq!(part.masks[0][CLEAR] & part.masks[0][SFU], 1);
            t.tick();
            assert_eq!(t.stats().warp_instrs, 1, "cycle {}", t.now() - 1);
        }
        t.tick();
        assert_eq!(t.stats().warp_instrs, 2, "warp 1 issues at cycle 6 exactly");
        assert_eq!(t.stats().idle.pipeline, 5);
    }

    #[test]
    fn swap_completion_expires_a_settled_sm() {
        let mut t = Twins::new(
            load_then_use(1),
            CoreConfig::default(),
            vt_residency(5, None),
        );
        t.admit(); // fresh activation takes 5 cycles
        t.tick();
        assert_eq!(t.sm().swap_due, 5);
        while t.now() < 5 {
            assert!(t.parked());
            t.tick();
        }
        assert_eq!(t.stats().issue_cycles, 0);
        t.tick();
        assert_eq!(t.sm().swap_due, u64::MAX, "no swap left in flight");
        assert_eq!(t.stats().idle.swapping, 5);
        assert_eq!(t.stats().swaps.swap_busy_cycles, 5);
        assert_eq!(t.stats().issue_cycles, 1, "activated and issued at cycle 5");
    }

    #[test]
    fn throttle_window_boundary_expires_a_settled_sm() {
        let throttle = ThrottleConfig {
            window_cycles: 16,
            phase_windows: 2,
            probe_every_phases: 2,
        };
        let mut t = Twins::new(
            load_then_use(1),
            CoreConfig::default(),
            vt_residency(0, Some(throttle)),
        );
        t.admit();
        let mut parked = 0;
        while t.stats().warp_instrs < 2 {
            parked += u64::from(t.parked());
            t.tick();
            // The window rolls over on its boundary, never late.
            assert_eq!(t.sm().throttle_window_end, (t.now() - 1) / 16 * 16 + 16);
        }
        assert!(t.now() > 3 * 16, "the load must span several windows");
        assert!(parked > t.now() / 2);
    }

    #[test]
    fn admit_between_ticks_unsettles() {
        // One active slot, held by a CTA stalled on a miss: the swap
        // trigger only lacks a replacement. Admission supplies one without
        // activating anything, so the admit itself must enter it in the
        // ready set.
        let core = CoreConfig {
            max_ctas_per_sm: 1,
            ..CoreConfig::default()
        };
        let mut t = Twins::new(load_then_use(2), core, vt_residency(0, None));
        t.admit();
        t.tick();
        t.tick();
        t.tick();
        assert!(t.parked());
        assert_eq!(t.sm().warps[0].long_pending_loads, 1);
        assert_eq!(t.sm().ctas[0].warps_blocked_long, 1);
        t.admit();
        assert_eq!(t.sm().slot_ctas(), 1, "the admitted CTA found no free slot");
        assert_eq!(t.sm().ready_ctas, vec![(2, 1)]);
        t.tick();
        assert_eq!(t.stats().swaps.swaps_out, 1, "swapped for the new CTA");
        assert_eq!(t.stats().warp_instrs, 2, "whose load issues at once");
    }

    #[test]
    fn empty_sm_follows_the_live_attribution() {
        let mut t = Twins::new(
            load_then_use(1),
            CoreConfig::default(),
            ResidencyConfig::baseline(),
        );
        let starved = EmptyAttr {
            work_left: true,
            scheduling_limited: true,
        };
        for _ in 0..4 {
            t.tick_with(starved);
            assert!(t.parked());
        }
        for _ in 0..2 {
            t.tick_with(EmptyAttr::drained());
        }
        assert_eq!(t.stats().empty.scheduling, 4);
        assert_eq!(t.stats().empty.drain, 2);
        assert_eq!(t.stats().idle.no_warps, 6);
    }

    #[test]
    fn masks_span_more_than_one_word() {
        // Ideal's unlimited active policy lists every resident warp: 80
        // one-warp CTAs on one scheduler put positions past bit 63.
        let core = CoreConfig {
            schedulers_per_sm: 1,
            max_warps_per_sm: 128,
            max_ctas_per_sm: 128,
            ..CoreConfig::default()
        };
        for scheduler in [SchedPolicy::Gto, SchedPolicy::Lrr] {
            let core = CoreConfig {
                scheduler,
                ..core.clone()
            };
            let ideal = ResidencyConfig {
                admission: AdmissionPolicy::CapacityOnly {
                    max_resident_ctas: None,
                },
                active: ActivePolicy::Unlimited,
                swap: None,
            };
            let mut t = Twins::new(load_then_use(80), core, ideal);
            for _ in 0..80 {
                t.admit();
            }
            t.tick();
            assert_eq!(t.sm().partitions[0].masks.len(), 2);
            while t.stats().ctas_completed < 80 {
                t.tick();
                assert!(t.now() < 100_000, "{scheduler:?}: did not finish");
            }
            assert_eq!(t.stats().warp_instrs, 80 * 3);
        }
    }

    #[test]
    fn restored_sm_admits_before_its_first_tick() {
        // A restored SM decodes, and rebuilds most derived state, on its
        // first tick; admission may come first and must already see the
        // restored ready set: CTA 1 waits in it and stays first in line,
        // ahead of the newly admitted CTA 2.
        let core = CoreConfig {
            max_ctas_per_sm: 1,
            ..CoreConfig::default()
        };
        let mut rig = Rig::new(load_then_use(3), core.clone(), vt_residency(0, None), false);
        rig.admit();
        rig.tick_with(EmptyAttr::drained());
        rig.admit();
        assert_eq!(rig.sm.ready_ctas, vec![(2, 1)]);
        let mut restored = Sm::restore(
            &vt_json::ToJson::to_json(&rig.sm),
            &rig.kernel,
            rig.sm.line_bytes,
        )
        .unwrap();
        assert_eq!(restored.ready_ctas, rig.sm.ready_ctas);
        assert_eq!(restored.swap_due, rig.sm.swap_due);
        let (sm, mut ctx) = rig.split();
        for sm in [sm, &mut restored] {
            sm.admit(2, &mut ctx);
            assert_eq!(sm.ready_ctas, vec![(2, 1), (3, 2)]);
            assert_eq!(sm.counted.len(), sm.warps.len());
        }
    }
}
