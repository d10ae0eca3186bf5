//! Per-CTA runtime state and the active/inactive phase machine.

use crate::warp::Trigger;
use vt_json::{decode_elem, elems, impl_json, req_words, FromJson, Json, ToJson, Words};

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

/// A phase is checkpointed as a `[tag, payload]` pair.
impl ToJson for CtaPhase {
    fn to_json(&self) -> Json {
        let (tag, payload) = match *self {
            CtaPhase::Active => ("active", Json::Null),
            CtaPhase::Inactive { has_context } => ("inactive", has_context.to_json()),
            CtaPhase::SwappingOut { done_at } => ("swapping_out", done_at.to_json()),
            CtaPhase::SwappingIn { done_at } => ("swapping_in", done_at.to_json()),
            CtaPhase::Finished => ("finished", Json::Null),
        };
        (tag, payload).to_json()
    }
}

impl FromJson for CtaPhase {
    fn from_json(v: &Json) -> Result<CtaPhase, String> {
        let [tag, payload] = elems(v, 2)? else {
            unreachable!("two elements")
        };
        let done_at = || decode_elem(1, payload, u64::from_json);
        match (tag.as_str(), payload) {
            (Some("active"), Json::Null) => Ok(CtaPhase::Active),
            (Some("inactive"), _) => Ok(CtaPhase::Inactive {
                has_context: decode_elem(1, payload, bool::from_json)?,
            }),
            (Some("swapping_out"), _) => Ok(CtaPhase::SwappingOut {
                done_at: done_at()?,
            }),
            (Some("swapping_in"), _) => Ok(CtaPhase::SwappingIn {
                done_at: done_at()?,
            }),
            (Some("finished"), Json::Null) => Ok(CtaPhase::Finished),
            _ => Err(format!("unknown CTA phase {}", v.compact())),
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

    /// Rebuilds a CTA of a kernel with `smem_bytes` bytes of shared
    /// memory per CTA from its checkpoint ([`ToJson`]).
    ///
    /// # Errors
    ///
    /// Returns a message on malformed input, or a CTA holding shared
    /// memory of another size.
    pub fn restore(v: &Json, smem_bytes: u32) -> Result<CtaRt, String> {
        let mut cta = CtaRt::from_json(v)?;
        // Every CTA slot holds what its kernel allocates: a shared-memory
        // access is bounded by the words held, and the words to decode are
        // bounded before they are allocated.
        if cta.smem_bytes != smem_bytes {
            return Err(format!(
                "field `smem_bytes`: a CTA holds {} bytes of shared memory, the kernel {smem_bytes}",
                cta.smem_bytes
            ));
        }
        cta.smem = req_words(v, "smem", (smem_bytes as usize).div_ceil(4))?;
        Ok(cta)
    }
}

// The phase machine, warp-slot list and functional shared-memory
// contents; the trigger counters are derived, and `smem` is decoded by
// `restore` once its length is checked.
impl_json!(CtaRt {
    cta_id,
    phase,
    warps,
    live_warps,
    barrier_arrived,
    smem: Words,
    reg_bytes,
    smem_bytes,
    pending_loads,
    seq,
    inactive_since,
} derived {
    warps_blocked_long: 0,
    warps_unblocked: 0,
});

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
}
