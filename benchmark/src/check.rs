//! Validation: what every simulated cell is checked against, and the
//! assertions that keep each workload what it claims to be. Violations
//! are named on stderr and counted; nothing here is timed.

use crate::cells::{Built, KernelEntry};
use crate::spec::TailClass;
use std::collections::BTreeMap;
use vt_core::{occupancy, CoreConfig, Report, RunStats, SimError};

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: u64, x: u64) -> u64 {
    x.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over everything a host-speed change must leave alone: cycles,
/// instruction counts, the CPI stack, swap counters and the final image.
fn stats_digest(r: &Report) -> u64 {
    let s = &r.stats;
    let counts = [s.cycles, s.warp_instrs, s.thread_instrs]
        .into_iter()
        .chain(s.cpi_stack().buckets().into_iter().map(|(_, v)| v))
        .chain([
            s.swaps.swaps_out,
            s.swaps.swaps_in,
            s.swaps.fresh_activations,
            s.swaps.swap_busy_cycles,
        ]);
    let image = r.mem_image.as_words().iter().map(|&w| u64::from(w));
    counts.chain(image).fold(FNV_SEED, fnv)
}

pub(crate) fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// How a pass runs its cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Mode {
    /// The workload's own way (see [`crate::spec::Kind`]).
    Main,
    /// `Session::run`, no pool, observers off: the reference digests of
    /// `sm_parallel` and `observed_sliced` come from this.
    Plain,
    /// `observed_sliced`'s observers, not sliced: the stats a stitched
    /// run must reproduce.
    ObservedWhole,
}

/// A cell as the simulator returned it.
pub(crate) struct RawCell {
    pub kernel: usize,
    pub arch: usize,
    /// Host nanoseconds inside the simulator call (0 under a sweep,
    /// where only the pass is timed).
    pub wall_ns: u64,
    /// Checkpoint cuts taken and their total text bytes (sliced only).
    pub cuts: u64,
    pub ckpt_bytes: u64,
    pub result: Result<Report, SimError>,
}

/// A validated cell: its image has been compared and dropped, so a pass
/// holds counters only and the harness stays small beside the simulator
/// in `peak_rss_mb`.
pub(crate) struct CellRun {
    pub kernel: usize,
    pub arch: usize,
    pub wall_ns: u64,
    pub cuts: u64,
    pub ckpt_bytes: u64,
    /// `None` if the simulation returned an error.
    pub stats: Option<RunStats>,
}

/// Sums `f` over the completed cells that `keep` selects.
pub(crate) fn sum(
    cells: &[CellRun],
    keep: impl Fn(&CellRun) -> bool,
    f: impl Fn(&RunStats) -> u64,
) -> u64 {
    cells
        .iter()
        .filter(|c| keep(c))
        .filter_map(|c| c.stats.as_ref())
        .map(f)
        .sum()
}

/// Per-cell validation state carried across passes. Cells are keyed by
/// `(kernel, architecture)` index.
pub(crate) struct Checker {
    workload: &'static str,
    num_sms: u64,
    /// Digest each cell must reproduce, set by the first pass that runs it.
    expected: BTreeMap<(usize, usize), u64>,
    /// Uninterrupted observed stats a sliced cell must stitch back to.
    whole: BTreeMap<(usize, usize), RunStats>,
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    pub fn new(workload: &'static str, num_sms: u32) -> Checker {
        Checker {
            workload,
            num_sms: u64::from(num_sms),
            expected: BTreeMap::new(),
            whole: BTreeMap::new(),
            attempted: 0,
            failed: 0,
        }
    }

    fn fail(&mut self, label: &str, why: &str) {
        self.failed += 1;
        eprintln!("FAIL {} {label}: {why}", self.workload);
    }

    /// Checks one cell, after its timed window has closed: the image
    /// against the interpreter's, CPI conservation, the digest against
    /// the first pass's and, where an uninterrupted observed run was
    /// recorded, the (stitched) stats against its.
    pub fn check(&mut self, raw: RawCell, entry: &KernelEntry, mode: Mode) -> CellRun {
        self.attempted += 1;
        let label = format!("{}[{}]", entry.name, raw.arch);
        let cell = (raw.kernel, raw.arch);
        let stats = match raw.result {
            Err(e) => {
                self.fail(&label, &format!("simulation error: {e}"));
                None
            }
            Ok(report) => {
                let digest = stats_digest(&report);
                let want = *self.expected.entry(cell).or_insert(digest);
                let s = report.stats;
                let why = if report.mem_image != entry.reference {
                    Some("final image differs from the interpreter's".to_string())
                } else if s.cpi_stack().total() != self.num_sms * s.cycles {
                    Some(format!(
                        "CPI stack {} != {} SMs x {} cycles",
                        s.cpi_stack().total(),
                        self.num_sms,
                        s.cycles
                    ))
                } else if want != digest {
                    Some(format!(
                        "stats digest {digest:#018x} != first pass's {want:#018x}"
                    ))
                } else if mode == Mode::Main && self.whole.get(&cell).is_some_and(|w| *w != s) {
                    Some("stitched stats differ from the uninterrupted observed run".into())
                } else {
                    None
                };
                if let Some(why) = why {
                    self.fail(&label, &why);
                }
                if mode == Mode::ObservedWhole {
                    self.whole.insert(cell, s.clone());
                }
                Some(s)
            }
        };
        CellRun {
            kernel: raw.kernel,
            arch: raw.arch,
            wall_ns: raw.wall_ns,
            cuts: raw.cuts,
            ckpt_bytes: raw.ckpt_bytes,
            stats,
        }
    }

    /// Checks a whole sweep's cells, then what only holds across them.
    pub fn check_all(&mut self, raws: Vec<RawCell>, built: &Built, mode: Mode) -> Vec<CellRun> {
        let cells: Vec<CellRun> = raws
            .into_iter()
            .map(|raw| {
                let entry = &built.kernels[raw.kernel];
                self.check(raw, entry, mode)
            })
            .collect();
        self.check_capacity(built, &cells);
        cells
    }

    /// VT may not change a kernel that registers or shared memory limit:
    /// its cycle count must equal the baseline's exactly.
    fn check_capacity(&mut self, built: &Built, cells: &[CellRun]) {
        for (k, entry) in built.kernels.iter().enumerate() {
            if !entry.capacity_limited {
                continue;
            }
            let cycles: Vec<u64> = cells
                .iter()
                .filter(|c| c.kernel == k)
                .filter_map(|c| c.stats.as_ref().map(|s| s.cycles))
                .collect();
            if cycles.windows(2).any(|w| w[0] != w[1]) {
                self.fail(
                    &entry.name,
                    &format!(
                        "capacity-limited kernel's cycles differ across architectures: {cycles:?}"
                    ),
                );
            }
        }
    }

    /// FNV over the fixed cells' digests in canonical order: the same on
    /// every seed, pinned in `digests.txt` at paper scale.
    pub fn fixed_digest(&self, built: &Built) -> u64 {
        self.expected
            .iter()
            .filter(|((k, _), _)| built.kernels[*k].fixed)
            .fold(FNV_SEED, |h, (_, &d)| fnv(h, d))
    }
}

/// The digest pinned for `workload`'s fixed cells at paper scale
/// (`digests.txt`: one `workload digest` pair per line).
pub(crate) fn stored_digest(workload: &str) -> Option<u64> {
    include_str!("../digests.txt").lines().find_map(|l| {
        let (name, hex) = l.split_once(' ')?;
        (name == workload)
            .then(|| u64::from_str_radix(hex.trim().trim_start_matches("0x"), 16).ok())
            .flatten()
    })
}

/// The assertions that keep the workloads what they claim to be, from
/// exact counts of the warm-up pass. Returns one line per violation.
pub(crate) fn design_violations(
    class: TailClass,
    core: &CoreConfig,
    built: &Built,
    cells: &[CellRun],
) -> Vec<String> {
    let mut out = Vec::new();
    let all = |_: &CellRun| true;
    let tail = |c: &CellRun| !built.kernels[c.kernel].fixed;
    // In simulated SM-cycles, not host time, so the verdict is exact.
    let share = ratio(
        sum(cells, tail, |s| s.occupancy.sm_cycles),
        sum(cells, all, |s| s.occupancy.sm_cycles),
    );
    if share > 0.30 {
        out.push(format!("tail is {share:.3} of the pass, want <= 0.30"));
    }
    let issued = |keep: &dyn Fn(&CellRun) -> bool| {
        ratio(
            sum(cells, keep, |s| s.issue_cycles),
            sum(cells, keep, |s| s.occupancy.sm_cycles),
        )
    };
    match class {
        TailClass::MemStalled => {
            // The tail is allowed more than the workload: one contended
            // atomic kernel alone issues about 0.43.
            for (what, f, most) in [
                ("workload", issued(&all), 0.40),
                ("tail", issued(&tail), 0.50),
            ] {
                if f > most {
                    out.push(format!("{what} issues {f:.3} of SM-cycles, want <= {most}"));
                }
            }
        }
        TailClass::ComputeBound => {
            for (what, f) in [("workload", issued(&all)), ("tail", issued(&tail))] {
                if f < 0.70 {
                    out.push(format!("{what} issues {f:.3} of SM-cycles, want >= 0.70"));
                }
            }
        }
        TailClass::SwapHeavy => {
            for e in built.kernels.iter().filter(|e| !e.fixed) {
                let limiter = occupancy::analyze(core, &e.kernel).limiter;
                if !limiter.is_scheduling() {
                    out.push(format!("{} is {limiter}-limited, want scheduling", e.name));
                }
            }
            if sum(cells, tail, |s| s.swaps.swaps_out) == 0 {
                out.push("tail never swaps a CTA out".into());
            }
            let over = ratio(
                sum(cells, all, |s| s.occupancy.resident_warp_cycles),
                sum(cells, all, |s| s.occupancy.active_warp_cycles),
            );
            if over <= 1.0 {
                out.push(format!("resident/active warps {over:.3}, want > 1"));
            }
        }
    }
    out
}
