//! Cycle-windowed metric series: the continuous-telemetry counterpart to
//! the event stream and the end-of-run aggregates in [`crate::hist`].
//!
//! A [`MetricsRegistry`] holds typed series sampled once per *window* (a
//! fixed number of cycles, default [`DEFAULT_WINDOW`]). Three kinds
//! exist:
//!
//! * **Rate** — a monotonically increasing counter sampled at each window
//!   boundary; the series stores the per-window *deltas* plus the last
//!   cumulative value, so a checkpointed registry resumes exactly where
//!   it left off.
//! * **Level** — an instantaneous value (resident warps, MSHR occupancy)
//!   read at each window boundary.
//! * **Dist** — a [`Histogram`] per window of values observed at the
//!   boundary (e.g. the per-SM issue balance).
//!
//! Every stored value is an integer, so series compare bit-identically
//! across checkpoint/resume stitches (the engine seals
//! whole windows only; a partial window rides inside the checkpoint as
//! the rates' cumulative baselines). The registry exports to Prometheus
//! text format ([`MetricsRegistry::to_prometheus`]) and to vt-json
//! through its [`ToJson`], which round-trips losslessly through
//! [`FromJson`] for the checkpoint layer.

use crate::hist::Histogram;
use vt_json::{decode_field, field, impl_json, Codec, Count, FromJson, Json, NonZero, ToJson};

/// Default sampling window in cycles.
pub const DEFAULT_WINDOW: u64 = 512;

/// Handle to a registered series; indexes are stable for the registry's
/// lifetime (series are never removed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SeriesId(usize);

/// The payload of one series.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesKind {
    /// Windowed rate of a cumulative counter.
    Rate {
        /// Cumulative value at the last sealed boundary.
        last: u64,
        /// Per-window increments.
        deltas: Vec<u64>,
    },
    /// Instantaneous level at each window boundary.
    Level {
        /// One sample per window.
        values: Vec<u64>,
    },
    /// A distribution of boundary observations per window.
    Dist {
        /// Observations accumulated for the window being built (boxed to
        /// keep the enum small next to the slim `Rate`/`Level` variants).
        current: Box<Histogram>,
        /// One sealed histogram per window.
        windows: Vec<Histogram>,
    },
}

/// One named series, optionally scoped to a single SM (`sm: None` means
/// whole-GPU aggregate).
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Metric name (snake_case, no `vt_` prefix).
    pub name: String,
    /// Scope: `Some(sm)` for a per-SM series, `None` for the aggregate.
    pub sm: Option<u32>,
    /// Payload.
    pub kind: SeriesKind,
}

impl Series {
    /// The per-window values: rate deltas or level samples. Empty for a
    /// distribution series (use [`Series::histograms`]).
    pub fn values(&self) -> &[u64] {
        match &self.kind {
            SeriesKind::Rate { deltas, .. } => deltas,
            SeriesKind::Level { values } => values,
            SeriesKind::Dist { .. } => &[],
        }
    }

    /// The sealed per-window histograms of a distribution series; empty
    /// for rates and levels.
    pub fn histograms(&self) -> &[Histogram] {
        match &self.kind {
            SeriesKind::Dist { windows, .. } => windows,
            _ => &[],
        }
    }

    /// Cumulative total: a rate's counter at the last sealed boundary, a
    /// level's latest sample, a distribution's observation count.
    pub fn total(&self) -> u64 {
        match &self.kind {
            SeriesKind::Rate { last, .. } => *last,
            SeriesKind::Level { values } => values.last().copied().unwrap_or(0),
            SeriesKind::Dist { windows, .. } => windows.iter().map(|h| h.count).sum(),
        }
    }

    /// Mean per-window value (0 for an empty or distribution series).
    pub fn mean(&self) -> f64 {
        let v = self.values();
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<u64>() as f64 / v.len() as f64
        }
    }

    /// Largest per-window value (0 when empty).
    pub fn max(&self) -> u64 {
        self.values().iter().copied().max().unwrap_or(0)
    }

    fn kind_tag(&self) -> &'static str {
        match self.kind {
            SeriesKind::Rate { .. } => "rate",
            SeriesKind::Level { .. } => "level",
            SeriesKind::Dist { .. } => "dist",
        }
    }
}

/// A registry of cycle-windowed series. See the module docs for the
/// sampling model; the engine-side sampler lives in `vt-sim`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsRegistry {
    window: u64,
    sealed: u64,
    series: Vec<Series>,
}

impl MetricsRegistry {
    /// An empty registry sampling every `window` cycles (clamped to ≥ 1).
    pub fn new(window: u64) -> MetricsRegistry {
        MetricsRegistry {
            window: window.max(1),
            sealed: 0,
            series: Vec::new(),
        }
    }

    /// Cycles per window.
    pub fn window(&self) -> u64 {
        self.window
    }

    /// Number of sealed (complete) windows.
    pub fn windows(&self) -> u64 {
        self.sealed
    }

    /// Number of registered series.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether no series are registered.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }

    /// All series, in registration order.
    pub fn series(&self) -> &[Series] {
        &self.series
    }

    /// The series `id` was registered as.
    pub fn series_at(&self, id: SeriesId) -> &Series {
        &self.series[id.0]
    }

    /// Looks a series up by name and scope.
    pub fn get(&self, name: &str, sm: Option<u32>) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name && s.sm == sm)
    }

    fn register(&mut self, name: &str, sm: Option<u32>, kind: SeriesKind) -> SeriesId {
        debug_assert!(
            self.get(name, sm).is_none(),
            "duplicate series {name:?}/{sm:?}"
        );
        self.series.push(Series {
            name: name.to_string(),
            sm,
            kind,
        });
        SeriesId(self.series.len() - 1)
    }

    /// Registers a rate series over a cumulative counter.
    pub fn rate(&mut self, name: &str, sm: Option<u32>) -> SeriesId {
        self.register(
            name,
            sm,
            SeriesKind::Rate {
                last: 0,
                deltas: Vec::new(),
            },
        )
    }

    /// Registers an instantaneous-level series.
    pub fn level(&mut self, name: &str, sm: Option<u32>) -> SeriesId {
        self.register(name, sm, SeriesKind::Level { values: Vec::new() })
    }

    /// Registers a per-window distribution series.
    pub fn dist(&mut self, name: &str, sm: Option<u32>) -> SeriesId {
        self.register(
            name,
            sm,
            SeriesKind::Dist {
                current: Box::default(),
                windows: Vec::new(),
            },
        )
    }

    /// Samples a rate series with the counter's *cumulative* value at
    /// this boundary, pushing and returning the delta since the previous
    /// boundary. Call exactly once per series per window, then
    /// [`MetricsRegistry::seal`].
    pub fn sample_total(&mut self, id: SeriesId, total: u64) -> u64 {
        let SeriesKind::Rate { last, deltas } = &mut self.series[id.0].kind else {
            panic!("sample_total on a non-rate series");
        };
        debug_assert!(total >= *last, "counter went backwards");
        let delta = total.saturating_sub(*last);
        *last = total;
        deltas.push(delta);
        delta
    }

    /// Samples a level series with the instantaneous value at this
    /// boundary. Call exactly once per series per window.
    pub fn sample_level(&mut self, id: SeriesId, value: u64) {
        let SeriesKind::Level { values } = &mut self.series[id.0].kind else {
            panic!("sample_level on a non-level series");
        };
        values.push(value);
    }

    /// Records one observation into a distribution series' current
    /// window.
    pub fn observe(&mut self, id: SeriesId, value: u64) {
        let SeriesKind::Dist { current, .. } = &mut self.series[id.0].kind else {
            panic!("observe on a non-dist series");
        };
        current.record(value);
    }

    /// Closes the current window: distribution series seal their current
    /// histogram, and every series must have been sampled exactly once
    /// since the previous seal (debug-asserted).
    pub fn seal(&mut self) {
        self.sealed += 1;
        for s in &mut self.series {
            match &mut s.kind {
                SeriesKind::Rate { deltas, .. } => {
                    debug_assert_eq!(deltas.len() as u64, self.sealed, "{} missed", s.name);
                }
                SeriesKind::Level { values } => {
                    debug_assert_eq!(values.len() as u64, self.sealed, "{} missed", s.name);
                }
                SeriesKind::Dist { current, windows } => {
                    windows.push(std::mem::take(current.as_mut()));
                }
            }
        }
    }

    /// Renders the registry in Prometheus text exposition format: rates
    /// as `counter`s (cumulative value at the last sealed boundary),
    /// levels as `gauge`s (latest sample), distributions as `histogram`s
    /// (all windows merged), with `sm` labels on per-SM series. Two meta
    /// gauges carry the window geometry.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        out.push_str("# HELP vt_metrics_window_cycles Cycles per metric window.\n");
        out.push_str("# TYPE vt_metrics_window_cycles gauge\n");
        let _ = writeln!(out, "vt_metrics_window_cycles {}", self.window);
        out.push_str("# HELP vt_metrics_windows Sealed metric windows in this exposition.\n");
        out.push_str("# TYPE vt_metrics_windows gauge\n");
        let _ = writeln!(out, "vt_metrics_windows {}", self.sealed);
        let mut typed: Vec<&str> = Vec::new();
        let meta = |out: &mut String, name: &str, kind: &str| {
            let _ = writeln!(out, "# HELP vt_{name} {}", series_help(name));
            let _ = writeln!(out, "# TYPE vt_{name} {kind}");
        };
        for s in &self.series {
            let label = match s.sm {
                Some(sm) => format!("{{sm=\"{}\"}}", escape_label_value(&sm.to_string())),
                None => String::new(),
            };
            match &s.kind {
                SeriesKind::Rate { last, .. } => {
                    if !typed.contains(&s.name.as_str()) {
                        typed.push(&s.name);
                        meta(&mut out, &s.name, "counter");
                    }
                    let _ = writeln!(out, "vt_{}_total{label} {last}", s.name);
                }
                SeriesKind::Level { values } => {
                    if !typed.contains(&s.name.as_str()) {
                        typed.push(&s.name);
                        meta(&mut out, &s.name, "gauge");
                    }
                    let v = values.last().copied().unwrap_or(0);
                    let _ = writeln!(out, "vt_{}{label} {v}", s.name);
                }
                SeriesKind::Dist { windows, .. } => {
                    if !typed.contains(&s.name.as_str()) {
                        typed.push(&s.name);
                        meta(&mut out, &s.name, "histogram");
                    }
                    let mut merged = Histogram::default();
                    for w in windows {
                        merged.merge(w);
                    }
                    let lbl = |le: &str| {
                        let le = escape_label_value(le);
                        match s.sm {
                            Some(sm) => {
                                format!(
                                    "{{sm=\"{}\",le=\"{le}\"}}",
                                    escape_label_value(&sm.to_string())
                                )
                            }
                            None => format!("{{le=\"{le}\"}}"),
                        }
                    };
                    let top = merged
                        .buckets
                        .iter()
                        .rposition(|&n| n > 0)
                        .map_or(0, |i| i + 1);
                    let mut cumulative = 0u64;
                    for (i, &n) in merged.buckets.iter().take(top).enumerate() {
                        cumulative += n;
                        // Bucket i covers values up to 2^i - 1 inclusive.
                        let le = Histogram::bucket_lo(i + 1).saturating_sub(1);
                        let _ = writeln!(
                            out,
                            "vt_{}_bucket{} {cumulative}",
                            s.name,
                            lbl(&le.to_string())
                        );
                    }
                    let _ = writeln!(out, "vt_{}_bucket{} {}", s.name, lbl("+Inf"), merged.count);
                    let _ = writeln!(out, "vt_{}_sum{label} {}", s.name, merged.sum);
                    let _ = writeln!(out, "vt_{}_count{label} {}", s.name, merged.count);
                }
            }
        }
        out
    }

    /// Checks every series has one sample per sealed window, as `seal`
    /// requires.
    fn check_sealed(&self) -> Result<(), String> {
        for s in &self.series {
            // A series has values or histograms, one per window.
            let windows = s.values().len() + s.histograms().len();
            if windows as u64 != self.sealed {
                return Err(format!(
                    "series {:?}/{:?} has {windows} windows, the registry sealed {}",
                    s.name, s.sm, self.sealed
                ));
            }
        }
        Ok(())
    }
}

// Every window of every series, plus the rates' cumulative baselines and
// the distributions' window in progress, so checkpoints resume exactly.
impl_json!(MetricsRegistry { window: NonZero, sealed: Count, series } check MetricsRegistry::check_sealed);

/// A series is its name, scope and kind tag, then the kind's payload: a
/// rate's `last` and `values`, a level's `values`, a distribution's
/// `current` and `windows`.
impl ToJson for Series {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".into(), self.name.to_json()),
            ("sm".into(), self.sm.to_json()),
            ("kind".into(), self.kind_tag().to_json()),
        ];
        match &self.kind {
            SeriesKind::Rate { last, deltas } => {
                fields.push(("last".into(), last.to_json()));
                fields.push(("values".into(), deltas.to_json()));
            }
            SeriesKind::Level { values } => fields.push(("values".into(), values.to_json())),
            SeriesKind::Dist { current, windows } => {
                fields.push(("current".into(), current.to_json()));
                fields.push(("windows".into(), windows.to_json()));
            }
        }
        Json::Object(fields)
    }
}

impl FromJson for Series {
    fn from_json(v: &Json) -> Result<Series, String> {
        let values = || decode_field(v, "values", <Count as Codec<Vec<u64>>>::decode);
        let kind = match field::<String>(v, "kind")?.as_str() {
            "rate" => SeriesKind::Rate {
                last: decode_field(v, "last", <Count as Codec<u64>>::decode)?,
                deltas: values()?,
            },
            "level" => SeriesKind::Level { values: values()? },
            "dist" => SeriesKind::Dist {
                current: Box::new(field(v, "current")?),
                windows: field(v, "windows")?,
            },
            other => return Err(format!("unknown series kind {other:?}")),
        };
        Ok(Series {
            name: field(v, "name")?,
            sm: field(v, "sm")?,
            kind,
        })
    }
}

/// Escapes a label value per the Prometheus text-format spec: backslash,
/// double quote and newline must be written as `\\`, `\"` and `\n`.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// The `# HELP` text for a series name. A static lookup at exposition
/// time — deliberately not stored in the registry, whose snapshot format
/// is frozen into checkpoints.
fn series_help(name: &str) -> &'static str {
    match name {
        "warp_instrs" => "Warp instructions issued.",
        "thread_instrs" => "Thread instructions executed (warp instruction x active lanes).",
        "issue_cycles" => "SM-cycles in which at least one instruction issued.",
        "idle_no_warps" => "Idle SM-cycles with no resident warps (see cpi_empty_* for the split).",
        "idle_memory" => "Idle SM-cycles blocked on outstanding global-memory results.",
        "idle_pipeline" => "Idle SM-cycles blocked on short ALU/SFU scoreboard dependencies.",
        "idle_barrier" => "Idle SM-cycles with every unfinished warp waiting at a barrier.",
        "idle_swapping" => "Idle SM-cycles while active CTAs were mid context switch.",
        "idle_other" => "Idle SM-cycles from structural hazards or unclassified causes.",
        "swaps_in" => "CTAs switched in (activated from the swapped-out state).",
        "swaps_out" => "CTAs switched out.",
        "ctas_completed" => "CTAs completed.",
        "cpi_issued" => "CPI stack: SM-cycles with at least one issue.",
        "cpi_stalled" => "CPI stack: SM-cycles stalled with warps resident.",
        "cpi_empty" => "CPI stack: SM-cycles with no resident warps.",
        "cpi_empty_scheduling" => {
            "Empty SM-cycles starved by the scheduling limit (CTA/warp slots) with work left."
        }
        "cpi_empty_capacity" => {
            "Empty SM-cycles starved by the capacity limit (registers/shared memory) with work left."
        }
        "cpi_empty_drain" => "Empty SM-cycles after the grid was fully dispatched (drain).",
        "resident_warps" => "Resident warps at the window boundary.",
        "active_warps" => "Schedulable (active-phase) warps at the window boundary.",
        "resident_ctas" => "Resident CTAs at the window boundary.",
        "active_ctas" => "CTAs holding active slots at the window boundary.",
        "reg_bytes" => "Allocated register-file bytes at the window boundary.",
        "smem_bytes" => "Allocated shared-memory bytes at the window boundary.",
        "mshr_in_flight" => "MSHR entries in flight at the window boundary.",
        "partition_queue" => "Queued requests across memory partitions at the window boundary.",
        "sm_issue_balance" => "Per-window distribution of per-SM issued instructions.",
        _ => "Simulator metric series.",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> MetricsRegistry {
        let mut m = MetricsRegistry::new(100);
        let r = m.rate("instrs", None);
        let l = m.level("warps", None);
        let d = m.dist("balance", None);
        let p = m.rate("instrs", Some(3));
        for (total, lvl) in [(10u64, 4u64), (25, 6), (25, 0)] {
            let delta = m.sample_total(r, total);
            m.sample_level(l, lvl);
            m.observe(d, delta);
            m.sample_total(p, total / 2);
            m.seal();
        }
        m
    }

    #[test]
    fn rates_store_deltas_and_baseline() {
        let m = sample_registry();
        assert_eq!(m.windows(), 3);
        let s = m.get("instrs", None).unwrap();
        assert_eq!(s.values(), &[10, 15, 0]);
        assert_eq!(s.total(), 25);
        assert_eq!(s.max(), 15);
        assert!((s.mean() - 25.0 / 3.0).abs() < 1e-12);
        let p = m.get("instrs", Some(3)).unwrap();
        assert_eq!(p.values(), &[5, 7, 0]);
        assert!(m.get("instrs", Some(9)).is_none());
    }

    #[test]
    fn levels_and_dists_record_per_window() {
        let m = sample_registry();
        let l = m.get("warps", None).unwrap();
        assert_eq!(l.values(), &[4, 6, 0]);
        assert_eq!(l.total(), 0, "level total is the latest sample");
        let d = m.get("balance", None).unwrap();
        assert_eq!(d.histograms().len(), 3);
        assert_eq!(d.histograms()[1].count, 1);
        assert_eq!(d.histograms()[1].sum, 15);
        assert!(d.values().is_empty());
    }

    #[test]
    fn snapshot_roundtrips_mid_window() {
        let mut m = sample_registry();
        // Leave state mid-window: a pending dist observation and advanced
        // rate baselines must survive the round trip.
        let d = SeriesId(2);
        m.observe(d, 42);
        let text = m.to_json().compact();
        let back = MetricsRegistry::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn prometheus_exposition_is_shaped() {
        let m = sample_registry();
        let text = m.to_prometheus();
        assert!(text.contains("# TYPE vt_instrs counter"));
        assert!(text.contains("# HELP vt_instrs "));
        assert!(text.contains("vt_instrs_total 25"));
        assert!(text.contains("vt_instrs_total{sm=\"3\"} 12"));
        assert!(text.contains("# TYPE vt_warps gauge"));
        assert!(text.contains("vt_warps 0"));
        assert!(text.contains("# TYPE vt_balance histogram"));
        assert!(text.contains("vt_balance_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("vt_balance_sum 25"));
        assert!(text.contains("vt_metrics_window_cycles 100"));
        // The HELP/TYPE lines for a name shared by aggregate + per-SM
        // series appear exactly once, HELP immediately before TYPE.
        assert_eq!(text.matches("# TYPE vt_instrs counter").count(), 1);
        assert_eq!(text.matches("# HELP vt_instrs ").count(), 1);
        let help_at = text.find("# HELP vt_instrs ").unwrap();
        let type_at = text.find("# TYPE vt_instrs ").unwrap();
        assert!(help_at < type_at);
        // Every series name carries HELP text.
        for known in ["warp_instrs", "cpi_empty_scheduling", "sm_issue_balance"] {
            assert_ne!(super::series_help(known), "Simulator metric series.");
        }
    }

    #[test]
    fn label_values_escape_per_spec() {
        assert_eq!(super::escape_label_value("plain"), "plain");
        assert_eq!(super::escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }

    #[test]
    fn json_export_carries_values() {
        let m = sample_registry();
        let j = m.to_json();
        assert_eq!(j.get("window").and_then(Json::as_u64), Some(100));
        let series = j.get("series").unwrap();
        let Json::Array(items) = series else {
            panic!("series is an array")
        };
        assert_eq!(items.len(), 4);
    }
}
