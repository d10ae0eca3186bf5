//! Per-CTA runtime state and the active/inactive phase machine.

use crate::warp::Trigger;
use vt_json::{
    decode_field, field, impl_row, req_rows, req_words, Codec, Json, Row, RowReader, RowWriter,
    Rows, ToJson, Words,
};

/// Lifecycle phase of a resident CTA.
///
/// The Virtual Thread state machine: CTAs are admitted up to the capacity
/// limit, but only CTAs in [`CtaPhase::Active`] own warp-scheduler slots.
/// Context switches move CTAs through the `Swapping*` phases, charging the
/// configured cycle costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtaPhase {
    /// Owns scheduling structures; its warps may issue.
    Active,
    /// Resident (registers + shared memory on chip) but not schedulable.
    /// `has_context` distinguishes a previously-run CTA (whose PCs/SIMT
    /// stacks sit in the context buffer) from a fresh one.
    Inactive {
        /// Whether saved scheduling state exists for this CTA.
        has_context: bool,
    },
    /// Scheduling state being saved to the context buffer.
    SwappingOut {
        /// Cycle at which the save completes.
        done_at: u64,
    },
    /// Scheduling state being restored (or initialised, for fresh CTAs).
    SwappingIn {
        /// Cycle at which the restore completes.
        done_at: u64,
    },
    /// All warps exited; the slot is reusable.
    Finished,
}

/// In a packed row a phase is two cells: its tag (0 active, 1 inactive,
/// 2 swapping out, 3 swapping in, 4 finished) and its payload
/// (`has_context` or `done_at`, absent for the other two).
impl Row for CtaPhase {
    const WIDTH: usize = 2;

    fn put(&self, w: &mut RowWriter) {
        let (tag, payload) = match *self {
            CtaPhase::Active => (0, None),
            CtaPhase::Inactive { has_context } => (1, Some(u64::from(has_context))),
            CtaPhase::SwappingOut { done_at } => (2, Some(done_at)),
            CtaPhase::SwappingIn { done_at } => (3, Some(done_at)),
            CtaPhase::Finished => (4, None),
        };
        w.cell(Some(tag));
        w.cell(payload);
    }

    fn take(r: &mut RowReader<'_>) -> Result<CtaPhase, String> {
        match (r.cell()?, r.cell()?) {
            (Some(0), None) => Ok(CtaPhase::Active),
            (Some(1), Some(c @ 0..=1)) => Ok(CtaPhase::Inactive {
                has_context: c == 1,
            }),
            (Some(2), Some(done_at)) => Ok(CtaPhase::SwappingOut { done_at }),
            (Some(3), Some(done_at)) => Ok(CtaPhase::SwappingIn { done_at }),
            (Some(4), None) => Ok(CtaPhase::Finished),
            (tag, payload) => Err(format!("unknown CTA phase {tag:?}, {payload:?}")),
        }
    }
}

/// The runtime state of one resident CTA.
#[derive(Debug, Clone)]
pub struct CtaRt {
    /// Index of this CTA in the kernel grid.
    pub cta_id: u32,
    /// Lifecycle phase.
    pub phase: CtaPhase,
    /// Warp slots (indices into the SM warp table) of this CTA.
    pub warps: Vec<usize>,
    /// Warps that have not yet exited.
    pub live_warps: u32,
    /// Warps currently waiting at the barrier.
    pub barrier_arrived: u32,
    /// Shared-memory contents (functional).
    pub smem: Vec<u32>,
    /// Register-file bytes this CTA holds.
    pub reg_bytes: u32,
    /// Shared-memory bytes this CTA holds.
    pub smem_bytes: u32,
    /// Outstanding global loads summed over the CTA's warps.
    pub pending_loads: u32,
    /// Admission order (used as an age tiebreak).
    pub seq: u64,
    /// Cycle the CTA last became inactive (admission or swap-out
    /// completion); measures the gap until its next swap-in starts.
    pub inactive_since: u64,
    /// Warps counted [`Trigger::BlockedLong`]. Derived: `Sm` keeps it at
    /// every event that changes a warp's class, and it is not serialised.
    pub(crate) warps_blocked_long: u32,
    /// Warps counted [`Trigger::Unblocked`]; derived like
    /// `warps_blocked_long`.
    pub(crate) warps_unblocked: u32,
}

impl CtaRt {
    /// Whether the CTA occupies an active slot. A CTA being swapped *out*
    /// releases its slot the moment the save starts (the incoming CTA's
    /// restore overlaps with the save through the dual-ported context
    /// buffer), so only `Active` and `SwappingIn` hold slots.
    pub fn holds_active_slot(&self) -> bool {
        matches!(self.phase, CtaPhase::Active | CtaPhase::SwappingIn { .. })
    }

    /// Whether the CTA is resident (counts against capacity).
    pub fn is_resident(&self) -> bool {
        !matches!(self.phase, CtaPhase::Finished)
    }

    /// Whether the CTA is schedulable right now.
    pub fn is_active(&self) -> bool {
        self.phase == CtaPhase::Active
    }

    /// Moves one warp's share of the trigger counters from class `old`
    /// to class `new`.
    pub(crate) fn recount(&mut self, old: Trigger, new: Trigger) {
        match old {
            Trigger::BlockedLong => self.warps_blocked_long -= 1,
            Trigger::Unblocked => self.warps_unblocked -= 1,
            Trigger::Parked => {}
        }
        match new {
            Trigger::BlockedLong => self.warps_blocked_long += 1,
            Trigger::Unblocked => self.warps_unblocked += 1,
            Trigger::Parked => {}
        }
    }

    /// Which swap triggers this CTA's warps meet, as
    /// `[AllWarpsStalled, AnyWarpStalled]`: some warp is stalled on a long
    /// load and, for the first, every other live warp is stalled too (on
    /// memory or at the barrier).
    pub(crate) fn stalls(&self) -> [bool; 2] {
        let mem_stalled = self.warps_blocked_long > 0;
        [mem_stalled && self.warps_unblocked == 0, mem_stalled]
    }

    /// A finished CTA slot: what [`crate::sm::Sm::admit`] pushes and
    /// then overwrites, and what a checkpoint restores from the slot's
    /// `finished` marker.
    pub(crate) fn finished() -> CtaRt {
        CtaRt {
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
        }
    }

    /// Rebuilds a CTA slot of a kernel with `smem_bytes` bytes of shared
    /// memory per CTA from its checkpoint ([`ToJson`]).
    ///
    /// # Errors
    ///
    /// Returns a message on malformed input, a CTA holding shared memory
    /// of another size, or a finished slot that writes more than its
    /// `finished` marker.
    pub fn restore(v: &Json, smem_bytes: u32) -> Result<CtaRt, String> {
        if v.get("finished").is_some() {
            only_fields(v, &["finished"], "a finished CTA slot")?;
            if !field::<bool>(v, "finished")? {
                return Err(
                    "field `finished`: a resident CTA writes its `state` row instead".into(),
                );
            }
            return Ok(CtaRt::finished());
        }
        let s: State = req_rows(v, "state", 1)?.pop().expect("one row");
        if s.phase == CtaPhase::Finished {
            return Err("field `state`: a finished CTA slot writes only `finished`".into());
        }
        // Every CTA slot holds what its kernel allocates: a shared-memory
        // access is bounded by the words held, and the words to decode are
        // bounded before they are allocated.
        if s.smem_bytes != smem_bytes {
            return Err(format!(
                "field `smem_bytes`: a CTA holds {} bytes of shared memory, the kernel {smem_bytes}",
                s.smem_bytes
            ));
        }
        Ok(CtaRt {
            cta_id: s.cta_id,
            phase: s.phase,
            warps: decode_field(v, "warps", <Rows as Codec<Vec<usize>>>::decode)?,
            live_warps: s.live_warps,
            barrier_arrived: s.barrier_arrived,
            smem: req_words(v, "smem", (smem_bytes as usize).div_ceil(4))?,
            reg_bytes: s.reg_bytes,
            smem_bytes,
            pending_loads: s.pending_loads,
            seq: s.seq,
            inactive_since: s.inactive_since,
            warps_blocked_long: 0,
            warps_unblocked: 0,
        })
    }
}

/// A resident CTA's scalar state, written as one packed row.
struct State {
    cta_id: u32,
    phase: CtaPhase,
    live_warps: u32,
    barrier_arrived: u32,
    reg_bytes: u32,
    smem_bytes: u32,
    pending_loads: u32,
    seq: u64,
    inactive_since: u64,
}

impl_row!(State [
    cta_id,
    phase,
    live_warps,
    barrier_arrived,
    reg_bytes,
    smem_bytes,
    pending_loads,
    seq,
    inactive_since,
]);

/// A resident CTA is written as its phase machine and counters (a
/// [`State`] row), its warp-slot list (one row per slot) and its
/// functional shared-memory contents (a word string); the trigger
/// counters are derived. A finished slot writes only `{"finished":true}`,
/// because admission overwrites the rest before anything reads it.
impl ToJson for CtaRt {
    fn to_json(&self) -> Json {
        if !self.is_resident() {
            return Json::Object(vec![("finished".into(), true.to_json())]);
        }
        let state = State {
            cta_id: self.cta_id,
            phase: self.phase,
            live_warps: self.live_warps,
            barrier_arrived: self.barrier_arrived,
            reg_bytes: self.reg_bytes,
            smem_bytes: self.smem_bytes,
            pending_loads: self.pending_loads,
            seq: self.seq,
            inactive_since: self.inactive_since,
        };
        Json::Object(vec![
            ("state".into(), Rows::encode(&vec![state])),
            ("warps".into(), Rows::encode(&self.warps)),
            ("smem".into(), Words::encode(&self.smem)),
        ])
    }
}

/// Refuses an object `what` that writes a key other than `keys`.
pub(crate) fn only_fields(v: &Json, keys: &[&str], what: &str) -> Result<(), String> {
    let Json::Object(fields) = v else {
        return Err(format!("{what} is not an object"));
    };
    match fields.iter().find(|(k, _)| !keys.contains(&k.as_str())) {
        Some((k, _)) => Err(format!(
            "field `{k}`: {what} writes only `{}`",
            keys.join("`, `")
        )),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cta(phase: CtaPhase) -> CtaRt {
        CtaRt {
            cta_id: 0,
            phase,
            warps: vec![0, 1],
            live_warps: 2,
            barrier_arrived: 0,
            smem: Vec::new(),
            reg_bytes: 1024,
            smem_bytes: 0,
            pending_loads: 0,
            seq: 0,
            inactive_since: 0,
            warps_blocked_long: 0,
            warps_unblocked: 2,
        }
    }

    #[test]
    fn phase_predicates() {
        assert!(cta(CtaPhase::Active).is_active());
        assert!(cta(CtaPhase::Active).holds_active_slot());
        assert!(!cta(CtaPhase::SwappingOut { done_at: 5 }).holds_active_slot());
        assert!(cta(CtaPhase::SwappingIn { done_at: 5 }).holds_active_slot());
        assert!(!cta(CtaPhase::Inactive { has_context: false }).holds_active_slot());
        assert!(!cta(CtaPhase::Finished).is_resident());
        assert!(cta(CtaPhase::Inactive { has_context: true }).is_resident());
        assert!(!cta(CtaPhase::SwappingIn { done_at: 1 }).is_active());
    }

    #[test]
    fn trigger_counters() {
        let mut c = cta(CtaPhase::Active);
        assert_eq!(c.stalls(), [false, false]);
        c.recount(Trigger::Unblocked, Trigger::BlockedLong);
        assert_eq!(c.stalls(), [false, true]);
        c.recount(Trigger::Unblocked, Trigger::Parked); // the other warp at a barrier
        assert_eq!(c.stalls(), [true, true]);
        c.recount(Trigger::BlockedLong, Trigger::Unblocked);
        assert_eq!((c.warps_blocked_long, c.warps_unblocked), (0, 1));
        assert_eq!(c.stalls(), [false, false]);
    }

    #[test]
    fn a_finished_slot_writes_only_its_marker() {
        let text = cta(CtaPhase::Finished).to_json().compact();
        assert_eq!(text, r#"{"finished":true}"#);
        let restored = CtaRt::restore(&Json::parse(&text).unwrap(), 0).unwrap();
        assert_eq!(restored.phase, CtaPhase::Finished);
        assert!(restored.warps.is_empty() && restored.live_warps == 0);
        let refused = |text: &str| CtaRt::restore(&Json::parse(text).unwrap(), 0).unwrap_err();
        assert_eq!(
            refused(r#"{"finished":true,"smem":""}"#),
            "field `smem`: a finished CTA slot writes only `finished`"
        );
        assert_eq!(
            refused(r#"{"finished":false}"#),
            "field `finished`: a resident CTA writes its `state` row instead"
        );
        let state = State {
            cta_id: 0,
            phase: CtaPhase::Finished,
            live_warps: 0,
            barrier_arrived: 0,
            reg_bytes: 0,
            smem_bytes: 0,
            pending_loads: 0,
            seq: 0,
            inactive_since: 0,
        };
        let state = Json::Object(vec![("state".into(), Rows::encode(&vec![state]))]);
        assert_eq!(
            CtaRt::restore(&state, 0).unwrap_err(),
            "field `state`: a finished CTA slot writes only `finished`"
        );
    }
}
