//! Host-time spans recorded from outside the simulator: the harness
//! wraps each call into a layer's public function in a span and works
//! out per-layer self time afterwards.
//!
//! A [`Tracer`] belongs to one thread and keeps its spans in memory.
//! Work fanned out to pool workers records into a tracer of its own
//! (one per job, see [`Tracer::fork`]) that the caller merges back with
//! [`Tracer::adopt`], so nothing is shared while the clock runs and the
//! file is written once, at exit.

use std::collections::BTreeMap;
use std::time::Instant;
use vt_json::Json;

/// One closed span. `parent` indexes the tracer's span list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.execute`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// The span this one ran inside, if any.
    pub parent: Option<usize>,
    /// 0 for the harness thread, `n` for pool worker `vt-par-n`.
    pub worker: u32,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A single-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    worker: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for the calling (harness) thread; its creation is time 0.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            worker: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer sharing this one's epoch, for a job that may run on any
    /// pool thread. Call it *on* the thread that runs the job: the
    /// worker number is read from the thread's name.
    pub fn fork(epoch: Instant) -> Tracer {
        let worker = std::thread::current()
            .name()
            .and_then(|n| n.strip_prefix("vt-par-"))
            .and_then(|n| n.parse().ok())
            .unwrap_or(0);
        Tracer {
            epoch,
            worker,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The instant all of this tracer's times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`, nested in whichever span is
    /// open on this tracer.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            worker: self.worker,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Merges a forked tracer's spans in, hanging its roots under the
    /// span currently open here.
    pub fn adopt(&mut self, child: Tracer) {
        let offset = self.spans.len();
        let under = self.open.last().copied();
        self.spans.extend(child.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset).or(under);
            s
        }));
    }

    /// All closed spans, in the order they were opened or adopted.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// A span's self time: its duration minus its children's on the same
/// worker. Children on another worker ran in parallel with the parent's
/// own thread and are that worker's time, not this one's, so on every
/// worker the self times add up to the durations of that worker's
/// outermost spans.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            if spans[p].worker == s.worker {
                own[p] = own[p].saturating_sub(s.dur_ns());
            }
        }
    }
    own
}

/// Per-name totals: `(count, total ns, self ns)`.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += own_ns;
    }
    out
}

/// Total duration of every span called `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .sum()
}

/// The spans as Chrome trace events (`ph: "X"`, microsecond `ts`/`dur`),
/// which `chrome://tracing` and Perfetto load. `args` carries what the
/// viewer does not need but a script does: the span's index, its
/// parent's and exact nanosecond bounds.
pub fn chrome_events(spans: &[Span], pid: u64) -> Vec<Json> {
    spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Json::object(vec![
                ("name".into(), Json::Str(s.name.to_string())),
                ("ph".into(), Json::Str("X".into())),
                ("pid".into(), Json::UInt(pid)),
                ("tid".into(), Json::UInt(u64::from(s.worker))),
                ("ts".into(), Json::Float(s.start_ns as f64 / 1e3)),
                ("dur".into(), Json::Float(s.dur_ns() as f64 / 1e3)),
                (
                    "args".into(),
                    Json::object(vec![
                        ("id".into(), Json::UInt(id as u64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                        ),
                        ("start_ns".into(), Json::UInt(s.start_ns)),
                        ("end_ns".into(), Json::UInt(s.end_ns)),
                    ]),
                ),
            ])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_times_conserve() {
        let mut tr = Tracer::new();
        tr.span("root", |tr| {
            tr.span("a", |tr| tr.span("a.inner", |_| ()));
            tr.span("b", |_| ());
        });
        let names: Vec<_> = tr.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("root", None),
                ("a", Some(0)),
                ("a.inner", Some(1)),
                ("b", Some(0))
            ]
        );
        let own = self_times(tr.spans());
        assert_eq!(own.iter().sum::<u64>(), tr.spans()[0].dur_ns());
        assert_eq!(by_name(tr.spans())["a"].0, 1);
    }

    #[test]
    fn adopted_spans_hang_under_the_open_span_and_keep_their_worker() {
        let mut tr = Tracer::new();
        tr.span("pass", |tr| {
            let mut child = Tracer::fork(tr.epoch());
            child.worker = 1;
            child.span("cell", |c| c.span("sim.execute", |_| ()));
            tr.adopt(child);
        });
        let s = tr.spans();
        assert_eq!((s[1].name, s[1].parent, s[1].worker), ("cell", Some(0), 1));
        assert_eq!((s[2].name, s[2].parent), ("sim.execute", Some(1)));
        // Another worker's time is not taken off the parent's own.
        assert_eq!(self_times(s)[0], s[0].dur_ns());
    }
}
