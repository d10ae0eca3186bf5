//! The SIMT reconvergence stack.
//!
//! Divergent branches are handled with the classic immediate-post-dominator
//! (IPDOM) stack: on divergence the executing entry is retargeted to the
//! reconvergence PC and one entry per path is pushed; a path entry pops when
//! its PC reaches its reconvergence PC, and when the last path pops the
//! original entry resumes with the original (merged) mask.
//!
//! This structure is exactly the "scheduling limit" state the Virtual
//! Thread paper virtualizes: each hardware warp slot owns one of these
//! stacks plus a PC, and VT swaps them to a small context buffer.

/// One entry of the reconvergence stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimtEntry {
    /// Next PC for the lanes of this entry.
    pub pc: usize,
    /// PC at which this entry pops (reconverges into the entry below);
    /// `None` for the top-level entry, which only drains via `exit`.
    pub rpc: Option<usize>,
    /// Lanes executing this entry.
    pub mask: u32,
}

/// A per-warp SIMT reconvergence stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimtStack {
    entries: Vec<SimtEntry>,
    max_depth: usize,
}

impl SimtStack {
    /// A stack with a single top-level entry at PC 0 covering
    /// `initial_mask`.
    pub fn new(initial_mask: u32) -> SimtStack {
        let entries = if initial_mask == 0 {
            Vec::new()
        } else {
            vec![SimtEntry {
                pc: 0,
                rpc: None,
                mask: initial_mask,
            }]
        };
        SimtStack {
            max_depth: entries.len(),
            entries,
        }
    }

    /// Rebuilds a stack from previously observed state (checkpoint
    /// restore): `entries` bottom to top as returned by
    /// [`SimtStack::entries`], and the historical [`SimtStack::max_depth`].
    /// The recorded maximum is kept at least as deep as `entries`.
    pub fn from_saved(entries: Vec<SimtEntry>, max_depth: usize) -> SimtStack {
        SimtStack {
            max_depth: max_depth.max(entries.len()),
            entries,
        }
    }

    /// Whether every lane has exited.
    pub fn is_done(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current PC (top of stack).
    ///
    /// # Panics
    ///
    /// Panics if the warp is done; callers check [`SimtStack::is_done`].
    pub fn pc(&self) -> usize {
        self.top().pc
    }

    /// Current active mask (top of stack).
    pub fn active_mask(&self) -> u32 {
        self.entries.last().map_or(0, |e| e.mask)
    }

    /// Current stack depth.
    pub fn depth(&self) -> usize {
        self.entries.len()
    }

    /// Deepest the stack has ever been; feeds the hardware-overhead model.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// The entries, bottom to top.
    pub fn entries(&self) -> &[SimtEntry] {
        &self.entries
    }

    fn top(&self) -> &SimtEntry {
        self.entries.last().expect("SIMT stack is empty")
    }

    fn top_mut(&mut self) -> &mut SimtEntry {
        self.entries.last_mut().expect("SIMT stack is empty")
    }

    /// Pops entries whose PC has reached their reconvergence PC.
    fn reconverge(&mut self) {
        while let Some(e) = self.entries.last() {
            if e.rpc == Some(e.pc) {
                self.entries.pop();
            } else {
                break;
            }
        }
    }

    /// Moves past a non-control instruction.
    pub fn advance(&mut self) {
        self.top_mut().pc += 1;
        self.reconverge();
    }

    /// Uniform jump: all active lanes move to `target`.
    pub fn jump(&mut self, target: usize) {
        self.top_mut().pc = target;
        self.reconverge();
    }

    /// Resolves a conditional branch at the current PC.
    ///
    /// `taken_mask` must be a subset of the active mask. Returns `true` if
    /// the warp diverged (both paths non-empty), which the simulator counts.
    pub fn branch(&mut self, taken_mask: u32, target: usize, reconv: usize) -> bool {
        let active = self.active_mask();
        debug_assert_eq!(taken_mask & !active, 0, "taken mask exceeds active mask");
        let fall_mask = active & !taken_mask;
        if taken_mask == 0 {
            self.advance();
            false
        } else if fall_mask == 0 {
            self.jump(target);
            false
        } else {
            let fall_pc = self.top().pc + 1;
            // The current entry becomes the reconvergence point, keeping
            // the merged mask; each path gets its own entry.
            self.top_mut().pc = reconv;
            self.entries.push(SimtEntry {
                pc: fall_pc,
                rpc: Some(reconv),
                mask: fall_mask,
            });
            self.entries.push(SimtEntry {
                pc: target,
                rpc: Some(reconv),
                mask: taken_mask,
            });
            self.max_depth = self.max_depth.max(self.entries.len());
            self.reconverge();
            true
        }
    }

    /// Retires the currently active lanes (an `exit` instruction); they are
    /// removed from every stack entry.
    pub fn exit(&mut self) {
        let m = self.active_mask();
        for e in &mut self.entries {
            e.mask &= !m;
        }
        self.entries.retain(|e| e.mask != 0);
        self.reconverge();
    }

    /// Checks the invariants every sequence of [`SimtStack::branch`],
    /// [`SimtStack::advance`], [`SimtStack::jump`] and [`SimtStack::exit`]
    /// keeps, so a stack rebuilt by [`SimtStack::from_saved`] is one a run
    /// can reach:
    ///
    /// * every entry has lanes;
    /// * only the bottom entry lacks a reconvergence PC;
    /// * a path entry reconverges at the PC of the entry below it, or,
    ///   as the taken side of a divergent branch, where its fall-through
    ///   sibling below it does;
    /// * the top entry is not at its reconvergence PC: it would have
    ///   popped. (An entry below the top may be: a branch at `p` that
    ///   reconverges at `p + 1` pushes its fall-through side there.)
    ///
    /// # Errors
    ///
    /// Returns the index (bottom is 0) of the first entry that breaks one,
    /// and which.
    pub fn check(&self) -> Result<(), (usize, &'static str)> {
        let top = self.entries.len().saturating_sub(1);
        for (i, e) in self.entries.iter().enumerate() {
            if e.mask == 0 {
                return Err((i, "has a SIMT mask of no lanes"));
            }
            let Some(below) = i.checked_sub(1).map(|b| self.entries[b]) else {
                if e.rpc.is_some() {
                    return Err((i, "is the bottom entry but has a reconvergence PC"));
                }
                continue;
            };
            let Some(rpc) = e.rpc else {
                return Err((i, "is a path entry without a reconvergence PC"));
            };
            if rpc != below.pc && Some(rpc) != below.rpc {
                return Err((
                    i,
                    "reconverges neither at the entry below it nor with its sibling",
                ));
            }
            if i == top && rpc == e.pc {
                return Err((i, "is the top entry but is at its reconvergence PC"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FULL: u32 = u32::MAX;

    #[test]
    fn fresh_stack() {
        let s = SimtStack::new(FULL);
        assert!(!s.is_done());
        assert_eq!(s.pc(), 0);
        assert_eq!(s.active_mask(), FULL);
        assert_eq!(s.depth(), 1);
        assert!(SimtStack::new(0).is_done());
    }

    #[test]
    fn advance_moves_pc() {
        let mut s = SimtStack::new(FULL);
        s.advance();
        s.advance();
        assert_eq!(s.pc(), 2);
    }

    #[test]
    fn uniform_branch_taken_and_not_taken() {
        let mut s = SimtStack::new(FULL);
        assert!(!s.branch(FULL, 10, 10), "all-taken is not divergent");
        assert_eq!(s.pc(), 10);
        assert_eq!(s.depth(), 1);

        let mut s = SimtStack::new(FULL);
        assert!(!s.branch(0, 10, 10), "none-taken is not divergent");
        assert_eq!(s.pc(), 1);
    }

    #[test]
    fn if_else_diverges_and_reconverges() {
        // pc0: brc -> taken lanes to 5, fall to 1, reconv at 9.
        let mut s = SimtStack::new(FULL);
        let taken = 0x0000_ffff;
        assert!(s.branch(taken, 5, 9));
        // Taken path executes first.
        assert_eq!(s.pc(), 5);
        assert_eq!(s.active_mask(), taken);
        assert_eq!(s.depth(), 3);
        // Taken path runs 5..9 then pops.
        for _ in 5..9 {
            s.advance();
        }
        // Now the fall-through path is on top.
        assert_eq!(s.pc(), 1);
        assert_eq!(s.active_mask(), !taken);
        // Fall path jumps over the else block: 1..4 then uniform jump to 9.
        for _ in 1..4 {
            s.advance();
        }
        s.jump(9);
        // Both popped; merged entry at reconvergence with full mask.
        assert_eq!(s.depth(), 1);
        assert_eq!(s.pc(), 9);
        assert_eq!(s.active_mask(), FULL);
        assert_eq!(s.max_depth(), 3);
    }

    #[test]
    fn loop_exit_branch_parks_lanes_at_reconvergence() {
        // while-loop shape: pc0 = brc.z cond -> exit @4 reconv @4;
        // body 1..3; pc3 = bra 0.
        let mut s = SimtStack::new(0b1111);
        // Iteration 1: lane 0 exits the loop, others stay.
        assert!(s.branch(0b0001, 4, 4));
        // Taken entry popped immediately (pc == rpc); body path on top.
        assert_eq!(s.pc(), 1);
        assert_eq!(s.active_mask(), 0b1110);
        s.advance(); // 2
        s.advance(); // 3
        s.jump(0); // back edge
        assert_eq!(s.pc(), 0);
        // Iteration 2: remaining lanes all exit.
        assert!(!s.branch(0b1110, 4, 4));
        // Body entry jumped to its rpc and popped; merged at 4, full mask.
        assert_eq!(s.depth(), 1);
        assert_eq!(s.pc(), 4);
        assert_eq!(s.active_mask(), 0b1111);
    }

    #[test]
    fn nested_divergence() {
        let mut s = SimtStack::new(0b1111);
        // Outer: lanes 0-1 taken to 10, reconv 20.
        s.branch(0b0011, 10, 20);
        assert_eq!(s.pc(), 10);
        // Inner (on taken path): lane 0 to 15, reconv 18.
        s.branch(0b0001, 15, 18);
        assert_eq!(s.pc(), 15);
        assert_eq!(s.depth(), 5);
        assert_eq!(s.max_depth(), 5);
        // Lane 0 runs 15..18, pops to inner fall path.
        for _ in 15..18 {
            s.advance();
        }
        assert_eq!(s.pc(), 11);
        assert_eq!(s.active_mask(), 0b0010);
        // Inner fall runs 11..18, pops to inner reconv entry (mask 0b0011).
        for _ in 11..18 {
            s.advance();
        }
        assert_eq!(s.pc(), 18);
        assert_eq!(s.active_mask(), 0b0011);
        // Outer taken continues 18..20, pops to outer fall.
        s.advance();
        s.advance();
        assert_eq!(s.pc(), 1);
        assert_eq!(s.active_mask(), 0b1100);
    }

    #[test]
    fn exit_removes_lanes_everywhere() {
        let mut s = SimtStack::new(0b1111);
        s.branch(0b0011, 10, 20);
        // Taken lanes exit inside the branch.
        s.exit();
        // Fall path on top.
        assert_eq!(s.pc(), 1);
        assert_eq!(s.active_mask(), 0b1100);
        // Fall path reaches reconvergence; merged entry has only live lanes.
        s.jump(20);
        assert_eq!(s.depth(), 1);
        assert_eq!(s.active_mask(), 0b1100);
        s.exit();
        assert!(s.is_done());
    }

    #[test]
    fn check_refuses_what_no_run_writes() {
        let mut s = SimtStack::new(0b1111);
        s.branch(0b0011, 10, 20);
        assert_eq!(s.check(), Ok(()));
        let e = s.entries().to_vec();
        let with = |i: usize, f: fn(&mut SimtEntry)| {
            let mut e = e.clone();
            f(&mut e[i]);
            SimtStack::from_saved(e, 3).check().map_err(|(i, _)| i)
        };
        assert_eq!(with(2, |t| t.pc = 20), Err(2), "top at its rpc");
        assert_eq!(with(1, |f| f.pc = 20), Ok(()), "a fall-through may be");
        assert_eq!(with(2, |t| t.rpc = Some(7)), Err(2), "foreign rpc");
        assert_eq!(with(1, |f| f.rpc = None), Err(1), "path without rpc");
        assert_eq!(with(0, |b| b.rpc = Some(20)), Err(0), "bottom with rpc");
        assert_eq!(with(1, |f| f.mask = 0), Err(1), "no lanes");
    }

    /// Random sequences of the four operations, from random masks, PCs and
    /// reconvergence points (a loop back-edge's `p + 1` among them), keep
    /// every invariant [`SimtStack::check`] states.
    #[test]
    fn every_operation_keeps_the_invariants() {
        let mut r = vt_prng::Prng::new(0x51_37ac);
        for case in 0..400 {
            let mut s = SimtStack::new(r.next_u32() | 1);
            for step in 0..200 {
                if s.is_done() {
                    break;
                }
                let pc = s.pc();
                match r.gen_range(0..8) {
                    0..=2 => s.advance(),
                    3 => s.jump(r.gen_range(0..32) as usize),
                    4 => s.exit(),
                    _ => {
                        let reconv = if r.gen_bool(0.3) {
                            pc + 1
                        } else {
                            r.gen_range(0..32) as usize
                        };
                        s.branch(
                            s.active_mask() & r.next_u32(),
                            r.gen_range(0..32) as usize,
                            reconv,
                        );
                    }
                }
                if let Err((i, why)) = s.check() {
                    panic!(
                        "case {case} step {step}: entry {i} {why}: {:?}",
                        s.entries()
                    );
                }
            }
        }
    }

    #[test]
    fn exit_all_lanes_immediately() {
        let mut s = SimtStack::new(FULL);
        s.exit();
        assert!(s.is_done());
        assert_eq!(s.active_mask(), 0);
    }
}
