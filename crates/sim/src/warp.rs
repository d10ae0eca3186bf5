//! Per-warp runtime state.

use crate::cta::only_fields;
use crate::scoreboard::Scoreboard;
use vt_isa::{SimtEntry, SimtStack, WARP_SIZE};
use vt_json::{
    decode_field, field, impl_json, req_rows, req_words, Codec, Count, Json, Rows, ToJson, Words,
};

/// The runtime state of one warp resident on an SM.
///
/// This bundles exactly the state the Virtual Thread paper splits into two
/// classes: the *scheduling state* (PC + SIMT stack + scoreboard — what VT
/// saves to the context buffer on a swap) and the *capacity state* (the
/// register values, which stay resident on chip for active and inactive
/// CTAs alike).
#[derive(Debug, Clone)]
pub struct WarpRt {
    /// Slot of the owning CTA in the SM's CTA table.
    pub cta_slot: usize,
    /// Warp index within the CTA.
    pub warp_in_cta: u32,
    /// First thread id of this warp within the CTA.
    pub first_tid: u32,
    /// PC + reconvergence stack.
    pub stack: SimtStack,
    /// In-flight destination registers.
    pub scoreboard: Scoreboard,
    /// Register values, register-major (`[reg * 32 + lane]`), the block
    /// [`vt_isa::step::WarpCtx::regs`] borrows at issue.
    pub regs: Vec<u32>,
    /// Registers per thread (the number of rows of `regs`).
    pub regs_per_thread: u16,
    /// Waiting at a CTA barrier.
    pub waiting_barrier: bool,
    /// Cycle this warp arrived at the barrier it is waiting on (valid
    /// while `waiting_barrier`); feeds the barrier-wait histogram.
    pub barrier_since: u64,
    /// Outstanding global load/atomic *instructions* (not transactions).
    pub pending_loads: u32,
    /// Outstanding loads known to have missed the L1 — the long-latency
    /// stalls the Virtual Thread swap trigger reacts to ([`WarpRt::trigger`]).
    pub long_pending_loads: u32,
    /// All lanes exited.
    pub done: bool,
    /// Global launch order, used by the greedy-then-oldest scheduler.
    pub age: u64,
}

impl WarpRt {
    /// Creates the state for a fresh warp of `lanes` live threads.
    pub fn new(
        cta_slot: usize,
        warp_in_cta: u32,
        lanes: u32,
        regs_per_thread: u16,
        age: u64,
    ) -> WarpRt {
        let mask = if lanes >= WARP_SIZE {
            u32::MAX
        } else {
            (1u32 << lanes) - 1
        };
        WarpRt {
            cta_slot,
            warp_in_cta,
            first_tid: warp_in_cta * WARP_SIZE,
            stack: SimtStack::new(mask),
            scoreboard: Scoreboard::new(),
            regs: vec![0; WARP_SIZE as usize * regs_per_thread as usize],
            regs_per_thread,
            waiting_barrier: false,
            barrier_since: 0,
            pending_loads: 0,
            long_pending_loads: 0,
            done: false,
            age,
        }
    }

    /// Whether the warp could issue if its CTA were active: live, not at
    /// a barrier and not waiting on a global load. An inactive CTA with a
    /// runnable warp is ready to swap in.
    pub(crate) fn runnable(&self) -> bool {
        !self.done && !self.waiting_barrier && self.pending_loads == 0
    }

    /// How this warp counts toward its CTA's swap trigger, given whether
    /// the scoreboard clears its next instruction. Only a long-latency
    /// stall counts as blocked: a load known to have missed the L1 still
    /// in flight, with the next instruction waiting on a result. A warp
    /// waiting out an L1 hit resumes within ~20 cycles, and swapping for
    /// it would thrash. A warp that is done or at a barrier counts as
    /// neither blocked nor unblocked.
    pub(crate) fn trigger(&self, clear: bool) -> Trigger {
        if self.done || self.waiting_barrier {
            Trigger::Parked
        } else if self.long_pending_loads > 0 && !clear {
            Trigger::BlockedLong
        } else {
            Trigger::Unblocked
        }
    }

    /// Rebuilds a warp of a kernel with `regs_per_thread` registers per
    /// thread from its checkpoint ([`ToJson`]). A done warp is rebuilt
    /// from what it writes, the rest as [`crate::sm::Sm::admit`]
    /// overwrites it.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed input, a register frame of another
    /// width, or a done warp that writes more than [`DONE_FIELDS`].
    pub fn restore(v: &Json, regs_per_thread: u16) -> Result<WarpRt, String> {
        if v.get("done").is_some() {
            only_fields(v, &DONE_FIELDS, "a done warp")?;
            if !field::<bool>(v, "done")? {
                return Err("field `done`: a live warp writes its `state` row instead".into());
            }
            return Ok(WarpRt {
                cta_slot: field(v, "cta_slot")?,
                warp_in_cta: 0,
                first_tid: 0,
                stack: SimtStack::new(0),
                scoreboard: Scoreboard::new(),
                regs: Vec::new(),
                regs_per_thread,
                waiting_barrier: false,
                barrier_since: 0,
                pending_loads: field(v, "pending_loads")?,
                long_pending_loads: field(v, "long_pending_loads")?,
                done: true,
                age: 0,
            });
        }
        let s: State = req_rows(v, "state", 1)?.pop().expect("one row");
        // Issue indexes frames by the kernel's register numbers and reads
        // and writes every lane of a register.
        if s.regs_per_thread != regs_per_thread {
            return Err(format!(
                "registers: a warp has {} per thread, the kernel {regs_per_thread}",
                s.regs_per_thread
            ));
        }
        let regs = req_words(v, "regs", WARP_SIZE as usize * usize::from(regs_per_thread))
            .map_err(|e| format!("registers: {e}"))?;
        let entries = decode_field(v, "stack", <Rows as Codec<Vec<Entry>>>::decode)?
            .into_iter()
            .map(|(pc, rpc, mask)| SimtEntry { pc, rpc, mask })
            .collect();
        // Only a stack some run could have written: issue never runs an
        // instruction on no lanes, a jump or an advance never empties the
        // stack of a warp no exit finished, and every path pops where its
        // branch reconverges.
        let stack = SimtStack::from_saved(entries, s.stack_max_depth);
        stack
            .check()
            .map_err(|(i, why)| format!("field `stack`[{i}] {why}"))?;
        Ok(WarpRt {
            cta_slot: s.cta_slot,
            warp_in_cta: s.warp_in_cta,
            first_tid: s.first_tid,
            stack,
            scoreboard: s.scoreboard,
            regs,
            regs_per_thread,
            waiting_barrier: s.waiting_barrier,
            barrier_since: s.barrier_since,
            pending_loads: s.pending_loads,
            long_pending_loads: s.long_pending_loads,
            done: false,
            age: s.age,
        })
    }
}

/// A SIMT stack entry as a packed row: `pc, rpc, mask`.
type Entry = (usize, Option<usize>, u32);

/// A live warp's scalar scheduling state, written as one packed row.
struct State {
    cta_slot: usize,
    warp_in_cta: u32,
    first_tid: u32,
    stack_max_depth: usize,
    scoreboard: Scoreboard,
    regs_per_thread: u16,
    waiting_barrier: bool,
    barrier_since: u64,
    pending_loads: u32,
    long_pending_loads: u32,
    age: u64,
}

impl_json!(row State [
    cta_slot,
    warp_in_cta,
    first_tid,
    stack_max_depth,
    scoreboard,
    regs_per_thread,
    waiting_barrier,
    barrier_since,
    pending_loads,
    long_pending_loads,
    age: Count,
]);

/// What a done warp writes: a later tick still reads its CTA slot and
/// its pending-load counts, because a warp can exit with loads in flight
/// whose completions count both down. Its scoreboard is empty once
/// restored, which changes nothing: a completion clears a register that
/// is not pending as a no-op, and no done warp issues.
pub(crate) const DONE_FIELDS: [&str; 4] =
    ["cta_slot", "pending_loads", "long_pending_loads", "done"];

/// A live warp is written as its scheduling state — a [`State`] row
/// (scoreboard, barrier flags, load counts) and the SIMT stack as `pc,
/// rpc, mask` rows — and its capacity state, the register values as a
/// word string; a done warp writes only [`DONE_FIELDS`].
impl ToJson for WarpRt {
    fn to_json(&self) -> Json {
        if self.done {
            return Json::Object(vec![
                ("cta_slot".into(), self.cta_slot.to_json()),
                ("pending_loads".into(), self.pending_loads.to_json()),
                (
                    "long_pending_loads".into(),
                    self.long_pending_loads.to_json(),
                ),
                ("done".into(), true.to_json()),
            ]);
        }
        let state = State {
            cta_slot: self.cta_slot,
            warp_in_cta: self.warp_in_cta,
            first_tid: self.first_tid,
            stack_max_depth: self.stack.max_depth(),
            scoreboard: self.scoreboard.clone(),
            regs_per_thread: self.regs_per_thread,
            waiting_barrier: self.waiting_barrier,
            barrier_since: self.barrier_since,
            pending_loads: self.pending_loads,
            long_pending_loads: self.long_pending_loads,
            age: self.age,
        };
        let stack: Vec<Entry> = (self.stack.entries().iter())
            .map(|e| (e.pc, e.rpc, e.mask))
            .collect();
        Json::Object(vec![
            ("state".into(), Rows::encode(&vec![state])),
            ("stack".into(), Rows::encode(&stack)),
            ("regs".into(), Words::encode(&self.regs)),
        ])
    }
}

/// How a warp counts toward its CTA's swap trigger ([`WarpRt::trigger`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Trigger {
    /// Done or at a barrier: neither blocked nor unblocked.
    Parked,
    /// Blocked behind a scoreboard hazard with an L1 miss in flight.
    BlockedLong,
    /// Live and not blocked that way.
    Unblocked,
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_isa::exec::ThreadCtx;
    use vt_isa::kernel::MemImage;
    use vt_isa::step::{step_warp, Effect, WarpCtx};
    use vt_isa::{AluOp, Instr, Operand, Reg, Sreg};

    #[test]
    fn fresh_warp_state() {
        let w = WarpRt::new(3, 2, 32, 8, 17);
        assert_eq!(w.first_tid, 64);
        assert_eq!(w.stack.active_mask(), u32::MAX);
        assert!(!w.done);
        assert_eq!(w.age, 17);
        assert_eq!(w.regs.len(), 32 * 8);
    }

    #[test]
    fn partial_warp_mask() {
        let w = WarpRt::new(0, 0, 5, 4, 0);
        assert_eq!(w.stack.active_mask(), 0b11111);
    }

    /// Moves `value` into register `reg` of the lanes in `mask` through
    /// the shared step, as issue does.
    fn mov(w: &mut WarpRt, mask: u32, reg: u16, value: Operand) {
        w.stack = SimtStack::new(mask);
        let instr = Instr::Alu {
            op: AluOp::Mov,
            dst: Reg(reg),
            a: value,
            b: Operand::Imm(0),
        };
        let lane0 = ThreadCtx {
            tid: w.first_tid,
            ctaid: 0,
            ntid: 32,
            ncta: 1,
        };
        let mut warp = WarpCtx {
            regs: &mut w.regs,
            stack: &mut w.stack,
            lane0,
        };
        let effect = step_warp(&instr, &mut warp, &mut MemImage::zeroed(0), &mut []);
        assert_eq!(effect, Ok(Effect::Alu { dst: Reg(reg) }));
    }

    #[test]
    fn reg_accessors_are_lane_major() {
        // The step addresses a register by (lane, reg); the storage
        // underneath, and the checkpoint, are register-major.
        let mut w = WarpRt::new(0, 0, 32, 4, 0);
        mov(&mut w, 1 << 2, 3, Operand::Imm(42));
        assert_eq!(w.regs[3 * 32 + 2], 42);
        assert_eq!(w.regs.iter().filter(|&&v| v != 0).count(), 1);
        let saved = w.to_json();
        // Rows 0-2 and lanes 0-1 of row 3 are zero, then lane 2's 42.
        let packed = format!("z{:x}.0000002az1d.", 3 * 32 + 2);
        assert_eq!(saved.get("regs").and_then(Json::as_str), Some(&packed[..]));
        let back = WarpRt::restore(&saved, 4).unwrap();
        assert_eq!(back.regs, w.regs);
    }

    #[test]
    fn masked_row_write_keeps_inactive_lanes() {
        let mut w = WarpRt::new(0, 0, 32, 2, 0);
        mov(&mut w, u32::MAX, 1, Operand::Imm(7));
        mov(&mut w, 0b1010, 1, Operand::Sreg(Sreg::Lane));
        let row = &w.regs[32..64];
        assert_eq!(&row[..4], &[7, 1, 7, 3]);
        assert!(row[4..].iter().all(|&v| v == 7));
        assert!(w.regs[..32].iter().all(|&v| v == 0), "register 0 untouched");
    }

    #[test]
    fn long_stall_detection() {
        // The swap trigger's notion of a long stall: an L1 miss in flight
        // *and* the next instruction waiting on the scoreboard.
        let mut w = WarpRt::new(0, 0, 32, 4, 0);
        assert_eq!(w.trigger(false), Trigger::Unblocked, "short hazard only");
        w.pending_loads = 1;
        w.long_pending_loads = 1;
        assert_eq!(w.trigger(false), Trigger::BlockedLong);
        assert_eq!(w.trigger(true), Trigger::Unblocked, "can still issue");
        w.waiting_barrier = true;
        assert_eq!(w.trigger(false), Trigger::Parked);
        w.waiting_barrier = false;
        w.done = true;
        assert_eq!(w.trigger(false), Trigger::Parked);
    }
}
