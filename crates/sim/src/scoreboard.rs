//! Per-warp register scoreboard.

use vt_isa::{Instr, Reg};
use vt_json::{impl_json, Codec, FromJson, Json, ToJson};

/// Tracks which destination registers of a warp have results in flight.
/// Issue is blocked on RAW and WAW hazards against pending registers.
///
/// Sized for the ISA's maximum of 256 architectural registers per thread.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Scoreboard {
    pending: [u64; 4],
    count: u32,
}

/// Registers a [`Scoreboard`] can track: four 64-bit words.
const TRACKED_REGS: u64 = 256;

/// Decodes a checkpointed register number, refusing one the scoreboard
/// cannot index (which `as u16` would accept or silently alias).
pub(crate) fn reg_from_u64(n: u64) -> Result<Reg, String> {
    match u16::try_from(n) {
        Ok(r) if n < TRACKED_REGS => Ok(Reg(r)),
        _ => Err(format!(
            "register number {n} is out of range (the scoreboard tracks {TRACKED_REGS})"
        )),
    }
}

/// An optional destination register, checkpointed as its number or
/// `null` and decoded with [`reg_from_u64`].
pub(crate) struct RegNum;

impl Codec<Option<Reg>> for RegNum {
    fn encode(r: &Option<Reg>) -> Json {
        r.map(|r| r.0).to_json()
    }

    fn decode(v: &Json) -> Result<Option<Reg>, String> {
        match v {
            Json::Null => Ok(None),
            n => reg_from_u64(u64::from_json(n)?).map(Some),
        }
    }
}

impl Scoreboard {
    /// An empty scoreboard.
    pub fn new() -> Scoreboard {
        Scoreboard::default()
    }

    fn slot(reg: Reg) -> (usize, u64) {
        ((reg.0 / 64) as usize, 1u64 << (reg.0 % 64))
    }

    /// Marks `reg` as having a result in flight.
    pub fn set_pending(&mut self, reg: Reg) {
        let (i, m) = Self::slot(reg);
        if self.pending[i] & m == 0 {
            self.pending[i] |= m;
            self.count += 1;
        }
    }

    /// Clears `reg` (its result wrote back).
    pub fn clear(&mut self, reg: Reg) {
        let (i, m) = Self::slot(reg);
        if self.pending[i] & m != 0 {
            self.pending[i] &= !m;
            self.count -= 1;
        }
    }

    /// Whether `reg` has a result in flight.
    pub fn is_pending(&self, reg: Reg) -> bool {
        let (i, m) = Self::slot(reg);
        self.pending[i] & m != 0
    }

    /// Number of registers in flight.
    pub fn pending_count(&self) -> u32 {
        self.count
    }

    /// Checks the decoded `count`. It is redundant, and issue trusts it
    /// (`count == 0` admits everything), so a disagreeing one would
    /// diverge the run.
    fn check_count(&self) -> Result<(), String> {
        let set: u32 = self.pending.iter().map(|w| w.count_ones()).sum();
        if self.count != set {
            return Err(format!(
                "scoreboard count {} disagrees with its {set} pending registers",
                self.count
            ));
        }
        Ok(())
    }

    /// Whether `instr` can issue: none of its sources or its destination
    /// may be pending. The specification of [`Scoreboard::can_issue_uses`].
    pub fn can_issue(&self, instr: &Instr) -> bool {
        if self.count == 0 {
            return true;
        }
        if let Some(d) = instr.dst() {
            if self.is_pending(d) {
                return false;
            }
        }
        instr
            .sources_fixed()
            .into_iter()
            .flatten()
            .filter_map(|o| o.reg())
            .all(|r| !self.is_pending(r))
    }

    /// [`Scoreboard::can_issue`] for an instruction decoded to
    /// [`reg_uses`]: four ANDs.
    pub(crate) fn can_issue_uses(&self, uses: &[u64; 4]) -> bool {
        self.count == 0 || self.pending.iter().zip(uses).all(|(p, u)| p & u == 0)
    }
}

impl_json!(Scoreboard { pending, count } check Scoreboard::check_count);

/// The registers `instr` touches (its destination and its register
/// sources) as a scoreboard bit set, for [`Scoreboard::can_issue_uses`].
pub(crate) fn reg_uses(instr: &Instr) -> [u64; 4] {
    let mut uses = [0u64; 4];
    let srcs = instr
        .sources_fixed()
        .into_iter()
        .flatten()
        .filter_map(|o| o.reg());
    for reg in instr.dst().into_iter().chain(srcs) {
        let (i, m) = Scoreboard::slot(reg);
        uses[i] |= m;
    }
    uses
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_isa::{AluOp, Operand};

    /// `s.can_issue(i)`, checked against the decoded form the simulator
    /// actually uses.
    fn issues(s: &Scoreboard, i: &Instr) -> bool {
        let spec = s.can_issue(i);
        assert_eq!(s.can_issue_uses(&reg_uses(i)), spec, "{i}");
        spec
    }

    fn add(dst: u16, a: u16, b: u16) -> Instr {
        Instr::Alu {
            op: AluOp::Add,
            dst: Reg(dst),
            a: Operand::Reg(Reg(a)),
            b: Operand::Reg(Reg(b)),
        }
    }

    #[test]
    fn set_clear_pending() {
        let mut s = Scoreboard::new();
        assert!(!s.is_pending(Reg(5)));
        s.set_pending(Reg(5));
        assert!(s.is_pending(Reg(5)));
        assert_eq!(s.pending_count(), 1);
        s.set_pending(Reg(5));
        assert_eq!(s.pending_count(), 1, "idempotent");
        s.clear(Reg(5));
        assert!(!s.is_pending(Reg(5)));
        assert_eq!(s.pending_count(), 0);
        s.clear(Reg(5));
        assert_eq!(s.pending_count(), 0, "double clear is safe");
    }

    #[test]
    fn raw_hazard_blocks_issue() {
        let mut s = Scoreboard::new();
        s.set_pending(Reg(1));
        assert!(!issues(&s, &add(3, 1, 2)), "source pending");
        assert!(issues(&s, &add(3, 2, 2)));
    }

    #[test]
    fn waw_hazard_blocks_issue() {
        let mut s = Scoreboard::new();
        s.set_pending(Reg(3));
        assert!(!issues(&s, &add(3, 1, 2)), "destination pending");
    }

    #[test]
    fn high_register_indices_work() {
        let mut s = Scoreboard::new();
        s.set_pending(Reg(200));
        assert!(s.is_pending(Reg(200)));
        assert!(!s.is_pending(Reg(201)));
        assert!(!issues(&s, &add(0, 200, 0)));
    }

    #[test]
    fn barriers_and_branches_always_issue() {
        let mut s = Scoreboard::new();
        s.set_pending(Reg(0));
        assert!(issues(&s, &Instr::Bar));
        assert!(issues(&s, &Instr::Exit));
    }
}
