//! Trace sinks: where instrumented code sends its events.
//!
//! Instrumentation sites are generic over [`TraceSink`] and guard every
//! emission with `if S::ENABLED { ... }`. Because `ENABLED` is an
//! associated *constant*, the branch folds at monomorphization time: the
//! [`NullSink`] instantiation compiles to exactly the un-instrumented
//! code, so the default simulation path pays nothing for the hooks.

use crate::event::{TimedEvent, TraceEvent};
use std::collections::VecDeque;

/// A consumer of timed trace events.
pub trait TraceSink {
    /// Whether this sink observes events at all. Call sites must guard
    /// emissions with `if S::ENABLED`, letting the compiler delete the
    /// whole instrumentation block for disabled sinks.
    const ENABLED: bool;

    /// Record `ev` as having occurred at cycle `t`.
    fn emit(&mut self, t: u64, ev: TraceEvent);
}

/// The zero-overhead disabled sink. `ENABLED == false`, and `emit` is an
/// inlined no-op, so guarded call sites monomorphize to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn emit(&mut self, _t: u64, _ev: TraceEvent) {}
}

/// A bounded in-memory ring buffer. When full, the *oldest* events are
/// dropped (the tail of a run is usually the interesting part) and a drop
/// counter records how many were lost so exporters can refuse to present
/// a silently truncated trace as complete.
#[derive(Debug, Clone, Default)]
pub struct RingSink {
    buf: VecDeque<TimedEvent>,
    cap: usize,
    dropped: u64,
}

impl RingSink {
    /// Creates a sink holding at most `cap` events (`cap == 0` drops
    /// everything).
    pub fn new(cap: usize) -> RingSink {
        RingSink {
            buf: VecDeque::new(),
            cap,
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> &VecDeque<TimedEvent> {
        &self.buf
    }

    /// Consumes the sink, returning the retained events oldest-first.
    pub fn into_events(self) -> Vec<TimedEvent> {
        self.buf.into()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// How many events were evicted to respect the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl TraceSink for RingSink {
    const ENABLED: bool = true;

    fn emit(&mut self, t: u64, ev: TraceEvent) {
        if self.cap == 0 {
            self.dropped += 1;
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(TimedEvent { t, ev });
    }
}

/// An unbounded sink appending into a borrowed `Vec`, for callers that
/// want a run's whole event stream in memory (tests, mostly).
#[derive(Debug)]
pub struct BufSink<'a>(pub &'a mut Vec<TimedEvent>);

impl TraceSink for BufSink<'_> {
    const ENABLED: bool = true;

    #[inline]
    fn emit(&mut self, t: u64, ev: TraceEvent) {
        self.0.push(TimedEvent { t, ev });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn issue(pc: u32) -> TraceEvent {
        TraceEvent::WarpIssue {
            sm: 0,
            sched: 0,
            warp_slot: 0,
            pc,
        }
    }

    #[test]
    fn null_sink_is_disabled() {
        fn enabled<S: TraceSink>(_: &S) -> bool {
            S::ENABLED
        }
        let mut s = NullSink;
        assert!(!enabled(&s));
        s.emit(0, issue(0));
    }

    #[test]
    fn ring_sink_retains_in_order() {
        let mut s = RingSink::new(8);
        for pc in 0..5 {
            s.emit(pc as u64, issue(pc));
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.dropped(), 0);
        let ts: Vec<u64> = s.events().iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn ring_sink_drops_oldest_when_full() {
        let mut s = RingSink::new(3);
        for pc in 0..5 {
            s.emit(pc as u64, issue(pc));
        }
        assert_eq!(s.len(), 3);
        assert_eq!(s.dropped(), 2);
        let ts: Vec<u64> = s.events().iter().map(|e| e.t).collect();
        assert_eq!(ts, vec![2, 3, 4], "oldest evicted first");
    }

    #[test]
    fn buf_sink_appends_to_borrowed_vec() {
        let mut events = Vec::new();
        {
            let mut s = BufSink(&mut events);
            s.emit(3, issue(1));
            s.emit(4, issue(2));
        }
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].t, 3);
        assert_eq!(events[1].t, 4);
    }

    #[test]
    fn zero_capacity_counts_every_drop() {
        let mut s = RingSink::new(0);
        s.emit(1, issue(1));
        s.emit(2, issue(2));
        assert!(s.is_empty());
        assert_eq!(s.dropped(), 2);
    }
}
