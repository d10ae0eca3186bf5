//! Per-warp runtime state.

use crate::scoreboard::Scoreboard;
use vt_isa::{SimtEntry, SimtStack, WARP_SIZE};
use vt_json::{decode_field, field, req_words, Codec, Count, Json, ToJson, Words};

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
    /// thread from its checkpoint ([`ToJson`]).
    ///
    /// # Errors
    ///
    /// Returns a message on malformed input, or a register frame of
    /// another width.
    pub fn restore(v: &Json, regs_per_thread: u16) -> Result<WarpRt, String> {
        // Issue indexes frames by the kernel's register numbers and reads
        // and writes every lane of a register.
        let width: u64 = field(v, "regs_per_thread")?;
        if width != u64::from(regs_per_thread) {
            return Err(format!(
                "registers: a warp has {width} per thread, the kernel {regs_per_thread}"
            ));
        }
        let regs = req_words(v, "regs", WARP_SIZE as usize * usize::from(regs_per_thread))
            .map_err(|e| format!("registers: {e}"))?;
        let entries = field::<Vec<(usize, Option<usize>, u32)>>(v, "stack")?
            .into_iter()
            .map(|(pc, rpc, mask)| SimtEntry { pc, rpc, mask })
            .collect();
        // Only a stack some run could have written: issue never runs an
        // instruction on no lanes, a jump or an advance never empties the
        // stack of a warp no exit finished, and every path pops where its
        // branch reconverges.
        let stack = SimtStack::from_saved(entries, field(v, "stack_max_depth")?);
        stack
            .check()
            .map_err(|(i, why)| format!("field `stack`[{i}] {why}"))?;
        Ok(WarpRt {
            cta_slot: field(v, "cta_slot")?,
            warp_in_cta: field(v, "warp_in_cta")?,
            first_tid: field(v, "first_tid")?,
            stack,
            scoreboard: field(v, "scoreboard")?,
            regs,
            regs_per_thread,
            waiting_barrier: field(v, "waiting_barrier")?,
            barrier_since: field(v, "barrier_since")?,
            pending_loads: field(v, "pending_loads")?,
            long_pending_loads: field(v, "long_pending_loads")?,
            done: field(v, "done")?,
            age: decode_field(v, "age", <Count as Codec<u64>>::decode)?,
        })
    }
}

/// The complete warp state — scheduling state (SIMT stack as `[pc, rpc,
/// mask]` entries, scoreboard, barrier flags) and capacity state
/// (register values) — for checkpointing.
impl ToJson for WarpRt {
    fn to_json(&self) -> Json {
        let stack: Vec<_> = self
            .stack
            .entries()
            .iter()
            .map(|e| (e.pc, e.rpc, e.mask))
            .collect();
        Json::Object(vec![
            ("cta_slot".into(), self.cta_slot.to_json()),
            ("warp_in_cta".into(), self.warp_in_cta.to_json()),
            ("first_tid".into(), self.first_tid.to_json()),
            ("stack".into(), stack.to_json()),
            ("stack_max_depth".into(), self.stack.max_depth().to_json()),
            ("scoreboard".into(), self.scoreboard.to_json()),
            ("regs".into(), Words::encode(&self.regs)),
            ("regs_per_thread".into(), self.regs_per_thread.to_json()),
            ("waiting_barrier".into(), self.waiting_barrier.to_json()),
            ("barrier_since".into(), self.barrier_since.to_json()),
            ("pending_loads".into(), self.pending_loads.to_json()),
            (
                "long_pending_loads".into(),
                self.long_pending_loads.to_json(),
            ),
            ("done".into(), self.done.to_json()),
            ("age".into(), self.age.to_json()),
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
