//! Per-warp runtime state.

use crate::scoreboard::Scoreboard;
use vt_isa::exec::{self, ThreadCtx};
use vt_isa::{Operand, Reg, SimtEntry, SimtStack, WARP_SIZE};
use vt_json::{elem_u64, req, req_array, req_bool, req_u64, Json};

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
    /// Register values, `[lane * regs_per_thread + reg]`.
    pub regs: Vec<u32>,
    /// Registers per thread (row stride of `regs`).
    pub regs_per_thread: u16,
    /// Waiting at a CTA barrier.
    pub waiting_barrier: bool,
    /// Cycle this warp arrived at the barrier it is waiting on (valid
    /// while `waiting_barrier`); feeds the barrier-wait histogram.
    pub barrier_since: u64,
    /// Outstanding global load/atomic *instructions* (not transactions).
    pub pending_loads: u32,
    /// Outstanding loads known to have missed the L1 — the long-latency
    /// stalls the Virtual Thread swap trigger reacts to.
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

    /// Register `reg` of `lane`.
    pub fn reg(&self, lane: u32, reg: u16) -> u32 {
        self.regs[lane as usize * self.regs_per_thread as usize + reg as usize]
    }

    /// The register frame of `lane`.
    pub fn lane_regs(&self, lane: u32) -> &[u32] {
        let stride = self.regs_per_thread as usize;
        let base = lane as usize * stride;
        &self.regs[base..base + stride]
    }

    /// Writes register `reg` of `lane`.
    pub fn set_reg(&mut self, lane: u32, reg: u16, value: u32) {
        self.regs[lane as usize * self.regs_per_thread as usize + reg as usize] = value;
    }

    /// Operand `op` on all 32 lanes: a register is a row gather, an
    /// immediate a splat, and a special register is computed per lane
    /// from `ctx`, lane 0's context.
    pub(crate) fn operand_lanes(&self, op: Operand, ctx: &ThreadCtx) -> [u32; 32] {
        match op {
            Operand::Reg(r) => {
                let mut row = [0u32; 32];
                let frames = self.regs.chunks_exact(self.regs_per_thread as usize);
                for (v, frame) in row.iter_mut().zip(frames) {
                    *v = frame[r.0 as usize];
                }
                row
            }
            Operand::Imm(v) => [v; 32],
            Operand::Sreg(_) => std::array::from_fn(|lane| {
                let lane_ctx = ThreadCtx {
                    tid: ctx.tid + lane as u32,
                    ..*ctx
                };
                exec::resolve(op, &[], &lane_ctx)
            }),
        }
    }

    /// Writes `values[lane]` to register `reg` of every lane in `mask`.
    pub(crate) fn set_lanes(&mut self, reg: Reg, mask: u32, values: &[u32; 32]) {
        let mut m = mask;
        while m != 0 {
            let lane = m.trailing_zeros();
            m &= m - 1;
            self.set_reg(lane, reg.0, values[lane as usize]);
        }
    }

    /// Serializes the complete warp state — scheduling state (SIMT stack,
    /// scoreboard, barrier flags) and capacity state (register values) —
    /// for checkpointing.
    pub fn snapshot(&self) -> Json {
        Json::Object(vec![
            ("cta_slot".into(), Json::UInt(self.cta_slot as u64)),
            (
                "warp_in_cta".into(),
                Json::UInt(u64::from(self.warp_in_cta)),
            ),
            ("first_tid".into(), Json::UInt(u64::from(self.first_tid))),
            (
                "stack".into(),
                Json::Array(
                    self.stack
                        .entries()
                        .iter()
                        .map(|e| {
                            Json::Array(vec![
                                Json::UInt(e.pc as u64),
                                match e.rpc {
                                    Some(rpc) => Json::UInt(rpc as u64),
                                    None => Json::Null,
                                },
                                Json::UInt(u64::from(e.mask)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "stack_max_depth".into(),
                Json::UInt(self.stack.max_depth() as u64),
            ),
            ("scoreboard".into(), self.scoreboard.snapshot()),
            (
                "regs".into(),
                Json::Array(
                    self.regs
                        .iter()
                        .map(|&r| Json::UInt(u64::from(r)))
                        .collect(),
                ),
            ),
            (
                "regs_per_thread".into(),
                Json::UInt(u64::from(self.regs_per_thread)),
            ),
            ("waiting_barrier".into(), Json::Bool(self.waiting_barrier)),
            ("barrier_since".into(), Json::UInt(self.barrier_since)),
            (
                "pending_loads".into(),
                Json::UInt(u64::from(self.pending_loads)),
            ),
            (
                "long_pending_loads".into(),
                Json::UInt(u64::from(self.long_pending_loads)),
            ),
            ("done".into(), Json::Bool(self.done)),
            ("age".into(), Json::UInt(self.age)),
        ])
    }

    /// Rebuilds a warp from [`WarpRt::snapshot`] output.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed input.
    pub fn restore(v: &Json) -> Result<WarpRt, String> {
        let mut entries = Vec::new();
        for item in req_array(v, "stack")? {
            let a = item.as_array().ok_or("SIMT entry is not an array")?;
            let rpc = match a.get(1) {
                Some(Json::Null) => None,
                Some(j) => Some(j.as_u64().ok_or("SIMT rpc is not a u64")? as usize),
                None => return Err("SIMT entry too short".to_string()),
            };
            entries.push(SimtEntry {
                pc: elem_u64(a, 0)? as usize,
                rpc,
                mask: elem_u64(a, 2)? as u32,
            });
        }
        let stack = SimtStack::from_saved(entries, req_u64(v, "stack_max_depth")? as usize);
        let regs = req_array(v, "regs")?
            .iter()
            .map(|r| r.as_u64().map(|x| x as u32).ok_or("reg is not a u64"))
            .collect::<Result<Vec<u32>, &str>>()?;
        let regs_per_thread = u16::try_from(req_u64(v, "regs_per_thread")?)
            .map_err(|_| "registers: regs_per_thread is out of range".to_string())?;
        // Issue reads and writes every lane's frame by index.
        let words = WARP_SIZE as usize * regs_per_thread as usize;
        if regs.len() != words {
            return Err(format!(
                "registers: warp holds {} words, expected {WARP_SIZE} lanes x {regs_per_thread}",
                regs.len()
            ));
        }
        Ok(WarpRt {
            cta_slot: req_u64(v, "cta_slot")? as usize,
            warp_in_cta: req_u64(v, "warp_in_cta")? as u32,
            first_tid: req_u64(v, "first_tid")? as u32,
            stack,
            scoreboard: Scoreboard::restore(req(v, "scoreboard")?)?,
            regs,
            regs_per_thread,
            waiting_barrier: req_bool(v, "waiting_barrier")?,
            barrier_since: req_u64(v, "barrier_since")?,
            pending_loads: req_u64(v, "pending_loads")? as u32,
            long_pending_loads: req_u64(v, "long_pending_loads")? as u32,
            done: req_bool(v, "done")?,
            age: req_u64(v, "age")?,
        })
    }

    /// Whether the warp is parked for a long-latency event: waiting at a
    /// barrier or holding outstanding global loads. Used by the swap
    /// trigger.
    pub fn long_stalled(&self) -> bool {
        self.waiting_barrier || self.pending_loads > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn reg_accessors_are_lane_major() {
        let mut w = WarpRt::new(0, 0, 32, 4, 0);
        w.set_reg(2, 3, 42);
        assert_eq!(w.reg(2, 3), 42);
        assert_eq!(w.lane_regs(2), &[0, 0, 0, 42]);
        assert_eq!(w.reg(3, 3), 0);
    }

    #[test]
    fn long_stall_detection() {
        let mut w = WarpRt::new(0, 0, 32, 4, 0);
        assert!(!w.long_stalled());
        w.pending_loads = 1;
        assert!(w.long_stalled());
        w.pending_loads = 0;
        w.waiting_barrier = true;
        assert!(w.long_stalled());
    }
}
