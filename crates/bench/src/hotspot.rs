//! Per-PC hotspot profile records and their renderings, shared by
//! `vtprof` (`--profile` / `--annotate` / `--flame`) and `vtdiff
//! --pc`.
//!
//! A [`ProfileRecord`] is the portable form of a run's
//! [`vt_core::PcProfile`]: the kernel/arch identity, the kernel-level
//! CPI stack it conserves against, and one [`PcEntry`] per program
//! instruction carrying issue counts, per-reason stall blame,
//! round-trip memory latency, observed coalescing width, bank-conflict
//! rounds and branch-divergence activity. Everything is integer-valued
//! so records diff and golden-compare exactly.
//!
//! Renderings:
//!
//! * [`annotate`] — a `perf annotate`-style listing: disassembly with a
//!   per-line CPI mini-stack, cross-referencing observed coalescing
//!   against the static estimates of `vt-analysis`.
//! * [`flame_collapsed`] / [`flame_perfetto`] — collapsed-stack
//!   flamegraph text (`kernel;block@N;pc op  cycles`) and Perfetto
//!   counter tracks with the program counter as the x-axis.
//! * [`rank_deltas`] — per-instruction SM-cycle deltas between two
//!   comparable records, ranked by magnitude (`vtdiff --pc`).

use crate::cpi::CpiRecord;
use crate::{bar, Table};
use vt_analysis::MemSite;
use vt_core::{PcProfile, RunStats, StallReason};
use vt_isa::{Instr, Program};
use vt_json::{req, req_array, req_str, req_u64, Json};
use vt_sim::STALL_REASONS;
use vt_trace::Histogram;

/// Profile record format version.
pub const PROFILE_VERSION: u64 = 1;

/// Round-trip latency summary of the loads/atomics issued at one PC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemLatency {
    /// Completed round trips.
    pub count: u64,
    /// Sum of all round-trip latencies, in cycles.
    pub sum: u64,
    /// Fastest round trip.
    pub min: u64,
    /// Median round trip.
    pub p50: u64,
    /// 99th-percentile round trip.
    pub p99: u64,
    /// Slowest round trip.
    pub max: u64,
}

impl MemLatency {
    fn from_hist(h: &Histogram) -> Option<MemLatency> {
        (h.count > 0).then(|| MemLatency {
            count: h.count,
            sum: h.sum,
            min: h.min,
            p50: h.percentile(50.0),
            p99: h.percentile(99.0),
            max: h.max,
        })
    }
}

/// One instruction's dynamic profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcEntry {
    /// Program counter.
    pub pc: usize,
    /// Disassembled instruction.
    pub op: String,
    /// SM-cycles charged to this PC as the cycle's first issue.
    pub issued: u64,
    /// Warp instructions issued from this PC.
    pub warp_issues: u64,
    /// Thread instructions executed from this PC.
    pub thread_instrs: u64,
    /// Stall SM-cycles blamed on this PC, in `CpiStack` reason order
    /// (memory, pipeline, barrier, swap, structural).
    pub stalls: [u64; STALL_REASONS],
    /// Load/atomic round-trip latency, when any completed here.
    pub mem: Option<MemLatency>,
    /// Observed coalescing: `(accesses, total transactions, worst)`.
    pub coalesce: Option<(u64, u64, u64)>,
    /// Shared-memory behaviour: `(accesses, total conflict rounds)`.
    pub smem: Option<(u64, u64)>,
    /// Conditional branches executed at this PC.
    pub branches: u64,
    /// How many of them diverged.
    pub divergent: u64,
}

impl PcEntry {
    /// Total SM-cycles attributed to this PC (issued + all stall blame).
    pub fn total(&self) -> u64 {
        self.issued + self.stalls.iter().sum::<u64>()
    }

    /// Observed average transactions per global access, if any.
    pub fn lines_per_access(&self) -> Option<f64> {
        self.coalesce
            .map(|(accesses, lines, _)| lines as f64 / accesses.max(1) as f64)
    }
}

/// A portable per-PC hotspot profile of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRecord {
    /// Kernel name.
    pub kernel: String,
    /// Architecture label.
    pub arch: String,
    /// Simulated cycles of the run.
    pub cycles: u64,
    /// Thread instructions of the run.
    pub thread_instrs: u64,
    /// The kernel-level CPI stack the per-PC buckets conserve against.
    pub cpi: CpiRecord,
    /// One entry per program instruction, indexed by PC.
    pub pcs: Vec<PcEntry>,
    /// Stall SM-cycles with no blamable instruction, in reason order.
    pub unattributed: [u64; STALL_REASONS],
}

impl ProfileRecord {
    /// Builds a record from a profiled run.
    ///
    /// # Errors
    ///
    /// Returns a message when the run was not profiled or the profile
    /// does not cover `program`.
    pub fn from_run(
        kernel: &str,
        arch: &str,
        program: &Program,
        stats: &RunStats,
    ) -> Result<ProfileRecord, String> {
        let profile: &PcProfile = stats
            .hotspots
            .as_ref()
            .ok_or("run was not profiled (enable cfg.core.profile)")?;
        if profile.len() != program.len() {
            return Err(format!(
                "profile covers {} PCs, program has {}",
                profile.len(),
                program.len()
            ));
        }
        let pcs = program
            .iter()
            .map(|(pc, instr)| {
                let c = &profile.counters()[pc];
                PcEntry {
                    pc,
                    op: instr.to_string(),
                    issued: c.issued,
                    warp_issues: c.warp_issues,
                    thread_instrs: c.thread_instrs,
                    stalls: c.stalls,
                    mem: MemLatency::from_hist(&c.mem_latency),
                    coalesce: (c.mem_accesses > 0).then_some((
                        c.mem_accesses,
                        c.mem_lines,
                        c.mem_lines_max,
                    )),
                    smem: (c.smem_accesses > 0).then_some((c.smem_accesses, c.smem_rounds)),
                    branches: c.branches,
                    divergent: c.divergent,
                }
            })
            .collect();
        Ok(ProfileRecord {
            kernel: kernel.to_string(),
            arch: arch.to_string(),
            cycles: stats.cycles,
            thread_instrs: stats.thread_instrs,
            cpi: CpiRecord::from_stack(&stats.cpi_stack()),
            pcs,
            unattributed: profile.unattributed,
        })
    }

    /// Verifies the per-PC conservation identity against the kernel
    /// stack: Σ issued over PCs equals `cpi.issued`, and for each stall
    /// reason Σ blame + unattributed equals the matching bucket.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first violated bucket.
    pub fn check_conservation(&self) -> Result<(), String> {
        let issued: u64 = self.pcs.iter().map(|p| p.issued).sum();
        if issued != self.cpi.buckets[0] {
            return Err(format!(
                "Σ pcs.issued = {issued} but cpi.issued = {}",
                self.cpi.buckets[0]
            ));
        }
        for r in StallReason::ALL {
            let (i, reason) = (r.index(), r.name());
            let blamed: u64 = self.pcs.iter().map(|p| p.stalls[i]).sum();
            let total = blamed + self.unattributed[i];
            // Stall buckets sit at CpiRecord indices 1..=5.
            let bucket = self.cpi.buckets[i + 1];
            if total != bucket {
                return Err(format!(
                    "Σ pcs.{reason} + unattributed = {total} but cpi.{reason} = {bucket}"
                ));
            }
        }
        Ok(())
    }

    /// The comparability fingerprint two records must share for a
    /// per-PC diff: same kernel, architecture and program text.
    pub fn fingerprint(&self) -> String {
        let ops: Vec<&str> = self.pcs.iter().map(|p| p.op.as_str()).collect();
        format!(
            "kernel={} arch={} pcs={} ops={}",
            self.kernel,
            self.arch,
            self.pcs.len(),
            ops.join(";")
        )
    }

    /// Serializes the record (stable, integer-valued JSON).
    pub fn to_json(&self) -> Json {
        let pcs: Vec<Json> = self.pcs.iter().map(pc_json).collect();
        Json::object(vec![
            ("version".into(), Json::UInt(PROFILE_VERSION)),
            ("kernel".into(), Json::Str(self.kernel.clone())),
            ("arch".into(), Json::Str(self.arch.clone())),
            ("cycles".into(), Json::UInt(self.cycles)),
            ("thread_instrs".into(), Json::UInt(self.thread_instrs)),
            ("cpi".into(), cpi_json(&self.cpi)),
            (
                "unattributed".into(),
                Json::object(
                    StallReason::ALL
                        .iter()
                        .zip(self.unattributed)
                        .map(|(r, v)| (r.name().to_string(), Json::UInt(v)))
                        .collect(),
                ),
            ),
            ("pcs".into(), Json::Array(pcs)),
        ])
    }

    /// Parses a record produced by [`ProfileRecord::to_json`],
    /// re-verifying conservation.
    ///
    /// # Errors
    ///
    /// Returns a message on malformed input, a version mismatch or a
    /// conservation violation.
    pub fn from_json(j: &Json) -> Result<ProfileRecord, String> {
        let version = req_u64(j, "version")?;
        if version != PROFILE_VERSION {
            return Err(format!(
                "profile version {version}, this build understands {PROFILE_VERSION}"
            ));
        }
        let una = req(j, "unattributed")?;
        let mut unattributed = [0u64; STALL_REASONS];
        for (slot, r) in unattributed.iter_mut().zip(StallReason::ALL) {
            *slot = req_u64(una, r.name())?;
        }
        let pcs = req_array(j, "pcs")?
            .iter()
            .map(pc_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let rec = ProfileRecord {
            kernel: req_str(j, "kernel")?.to_string(),
            arch: req_str(j, "arch")?.to_string(),
            cycles: req_u64(j, "cycles")?,
            thread_instrs: req_u64(j, "thread_instrs")?,
            cpi: CpiRecord::from_json(req(j, "cpi")?)?,
            pcs,
            unattributed,
        };
        rec.check_conservation()?;
        Ok(rec)
    }

    /// Loads and validates a record file.
    ///
    /// # Errors
    ///
    /// Returns a message when the file is unreadable or invalid.
    pub fn load(path: &str) -> Result<ProfileRecord, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        ProfileRecord::from_json(&json).map_err(|e| format!("{path}: {e}"))
    }
}

fn cpi_json(cpi: &CpiRecord) -> Json {
    let mut fields: Vec<(String, Json)> = cpi
        .named()
        .map(|(n, v)| (n.to_string(), Json::UInt(v)))
        .collect();
    fields.push(("sm_cycles".into(), Json::UInt(cpi.total())));
    Json::object(fields)
}

fn pc_json(p: &PcEntry) -> Json {
    let mut fields = vec![
        ("pc".into(), Json::UInt(p.pc as u64)),
        ("op".into(), Json::Str(p.op.clone())),
        ("issued".into(), Json::UInt(p.issued)),
        ("warp_issues".into(), Json::UInt(p.warp_issues)),
        ("thread_instrs".into(), Json::UInt(p.thread_instrs)),
    ];
    for (r, v) in StallReason::ALL.iter().zip(p.stalls) {
        fields.push((r.name().to_string(), Json::UInt(v)));
    }
    fields.push((
        "mem".into(),
        p.mem.map_or(Json::Null, |m| {
            Json::object(vec![
                ("count".into(), Json::UInt(m.count)),
                ("sum".into(), Json::UInt(m.sum)),
                ("min".into(), Json::UInt(m.min)),
                ("p50".into(), Json::UInt(m.p50)),
                ("p99".into(), Json::UInt(m.p99)),
                ("max".into(), Json::UInt(m.max)),
            ])
        }),
    ));
    fields.push((
        "coalesce".into(),
        p.coalesce.map_or(Json::Null, |(accesses, lines, max)| {
            Json::object(vec![
                ("accesses".into(), Json::UInt(accesses)),
                ("lines".into(), Json::UInt(lines)),
                ("max".into(), Json::UInt(max)),
            ])
        }),
    ));
    fields.push((
        "smem".into(),
        p.smem.map_or(Json::Null, |(accesses, rounds)| {
            Json::object(vec![
                ("accesses".into(), Json::UInt(accesses)),
                ("rounds".into(), Json::UInt(rounds)),
            ])
        }),
    ));
    fields.push(("branches".into(), Json::UInt(p.branches)));
    fields.push(("divergent".into(), Json::UInt(p.divergent)));
    Json::object(fields)
}

fn pc_from_json(j: &Json) -> Result<PcEntry, String> {
    let mut stalls = [0u64; STALL_REASONS];
    for (slot, r) in stalls.iter_mut().zip(StallReason::ALL) {
        *slot = req_u64(j, r.name())?;
    }
    let mem = match req(j, "mem")? {
        Json::Null => None,
        m => Some(MemLatency {
            count: req_u64(m, "count")?,
            sum: req_u64(m, "sum")?,
            min: req_u64(m, "min")?,
            p50: req_u64(m, "p50")?,
            p99: req_u64(m, "p99")?,
            max: req_u64(m, "max")?,
        }),
    };
    let coalesce = match req(j, "coalesce")? {
        Json::Null => None,
        c => Some((
            req_u64(c, "accesses")?,
            req_u64(c, "lines")?,
            req_u64(c, "max")?,
        )),
    };
    let smem = match req(j, "smem")? {
        Json::Null => None,
        s => Some((req_u64(s, "accesses")?, req_u64(s, "rounds")?)),
    };
    Ok(PcEntry {
        pc: req_u64(j, "pc")? as usize,
        op: req_str(j, "op")?.to_string(),
        issued: req_u64(j, "issued")?,
        warp_issues: req_u64(j, "warp_issues")?,
        thread_instrs: req_u64(j, "thread_instrs")?,
        stalls,
        mem,
        coalesce,
        smem,
        branches: req_u64(j, "branches")?,
        divergent: req_u64(j, "divergent")?,
    })
}

/// Basic-block leader of every PC: leaders are PC 0, branch targets
/// (including reconvergence points) and the instruction after any
/// control transfer. Used as the middle flamegraph frame.
pub fn block_leaders(program: &Program) -> Vec<usize> {
    let n = program.len();
    let mut is_leader = vec![false; n];
    if n > 0 {
        is_leader[0] = true;
    }
    for (pc, instr) in program.iter() {
        match *instr {
            Instr::Bra { target } => {
                if target < n {
                    is_leader[target] = true;
                }
                if pc + 1 < n {
                    is_leader[pc + 1] = true;
                }
            }
            Instr::BraCond { target, reconv, .. } => {
                if target < n {
                    is_leader[target] = true;
                }
                if reconv < n {
                    is_leader[reconv] = true;
                }
                if pc + 1 < n {
                    is_leader[pc + 1] = true;
                }
            }
            Instr::Exit if pc + 1 < n => is_leader[pc + 1] = true,
            _ => {}
        }
    }
    let mut leaders = vec![0usize; n];
    let mut current = 0;
    for (pc, leader) in leaders.iter_mut().enumerate() {
        if is_leader[pc] {
            current = pc;
        }
        *leader = current;
    }
    leaders
}

/// Renders the record as collapsed-stack flamegraph text: one line per
/// PC, `kernel;block@LEADER;pcN MNEMONIC  CYCLES`, where the count is
/// the PC's total attributed SM-cycles. Unattributed stall cycles get
/// `kernel;unattributed;REASON` frames so the flamegraph total equals
/// the attributable part of the CPI stack. Feed to
/// `flamegraph.pl` / `inferno-flamegraph` as-is.
pub fn flame_collapsed(rec: &ProfileRecord, leaders: &[usize]) -> String {
    let mut out = String::new();
    for p in &rec.pcs {
        let total = p.total();
        if total == 0 {
            continue;
        }
        let mnemonic = p.op.split_whitespace().next().unwrap_or("?");
        let leader = leaders.get(p.pc).copied().unwrap_or(0);
        out.push_str(&format!(
            "{};block@{};pc{} {} {}\n",
            rec.kernel, leader, p.pc, mnemonic, total
        ));
    }
    for (r, v) in StallReason::ALL.iter().zip(rec.unattributed) {
        if v > 0 {
            out.push_str(&format!("{};unattributed;{} {}\n", rec.kernel, r.name(), v));
        }
    }
    out
}

/// Renders the record as Perfetto counter tracks with the program
/// counter as the x-axis: one track per attribution class (`issued`,
/// each stall reason) plus observed coalescing width ×100.
pub fn flame_perfetto(rec: &ProfileRecord) -> Json {
    let mut tracks: Vec<(String, Vec<(u64, u64)>)> = Vec::new();
    let series = |f: &dyn Fn(&PcEntry) -> u64| -> Vec<(u64, u64)> {
        rec.pcs.iter().map(|p| (p.pc as u64, f(p))).collect()
    };
    tracks.push(("issued".to_string(), series(&|p| p.issued)));
    for r in StallReason::ALL {
        tracks.push((r.name().to_string(), series(&|p| p.stalls[r.index()])));
    }
    tracks.push((
        "coalesce_lines_x100".to_string(),
        series(&|p| {
            p.lines_per_access()
                .map_or(0, |l| (l * 100.0).round() as u64)
        }),
    ));
    let process = format!("{} [{}] pc-profile", rec.kernel, rec.arch);
    vt_trace::counters_to_chrome_json(&process, &tracks)
}

/// A static coalescing/bank-conflict expectation for one PC, distilled
/// from `vt-analysis` [`MemSite`]s for the annotate cross-reference.
fn static_note(site: &MemSite, entry: &PcEntry) -> Option<String> {
    if let (Some(expect), Some(observed)) = (site.segments_per_warp, entry.lines_per_access()) {
        let verdict = if (observed - f64::from(expect)).abs() < 0.5 {
            "matches static"
        } else {
            "static disagrees"
        };
        let warn = if observed >= f64::from(vt_analysis::memaccess::UNCOALESCED_SEGMENTS) {
            "  UNCOALESCED"
        } else {
            ""
        };
        return Some(format!(
            "coalesce: {observed:.1} lines/access observed vs {expect} static ({verdict}){warn}"
        ));
    }
    if let (Some(ways), Some((accesses, rounds))) = (site.bank_conflict_ways, entry.smem) {
        let observed = rounds as f64 / accesses.max(1) as f64;
        return Some(format!(
            "smem: {observed:.1} conflict rounds/access observed vs {ways}-way static"
        ));
    }
    if entry.coalesce.is_some() {
        return Some("coalesce: data-dependent address (no static estimate)".to_string());
    }
    None
}

/// Renders a `perf annotate`-style listing: per instruction the share
/// of issued SM-cycles, the share and reason of blamed stall cycles,
/// the disassembly, and memory/branch annotations cross-referenced
/// against the static `vt-analysis` estimates in `sites`.
pub fn annotate(rec: &ProfileRecord, sites: &[MemSite], width: usize) -> String {
    let total = rec.cpi.total().max(1);
    let mut out = format!(
        "{} [{}] — {} cycles, {} thread instrs; per-PC share of {} SM-cycles\n",
        rec.kernel,
        rec.arch,
        rec.cycles,
        rec.thread_instrs,
        rec.cpi.total()
    );
    let mut t = Table::new(vec!["issued", "stalled", "top stall", "pc", "asm", ""]);
    for p in &rec.pcs {
        let stalled: u64 = p.stalls.iter().sum();
        let top = p
            .stalls
            .iter()
            .enumerate()
            .filter(|&(_, &v)| v > 0)
            .max_by_key(|&(i, &v)| (v, std::cmp::Reverse(i)))
            .map(|(i, _)| StallReason::ALL[i].name().trim_start_matches("stall_"));
        t.row(vec![
            format!("{:5.1}%", pct(p.issued, total)),
            format!("{:5.1}%", pct(stalled, total)),
            top.unwrap_or("-").to_string(),
            format!("@{}", p.pc),
            p.op.clone(),
            bar((p.issued + stalled) as f64, total as f64, width),
        ]);
    }
    out.push_str(&t.render());
    let mut notes = Vec::new();
    for p in &rec.pcs {
        let mut line_notes = Vec::new();
        if let Some(site) = sites.iter().find(|s| s.pc == p.pc) {
            if let Some(n) = static_note(site, p) {
                line_notes.push(n);
            }
        } else if p.coalesce.is_some() {
            line_notes.push("coalesce: data-dependent address (no static estimate)".to_string());
        }
        if let Some(m) = p.mem {
            line_notes.push(format!(
                "latency: n={} p50={} p99={} max={}",
                m.count, m.p50, m.p99, m.max
            ));
        }
        if p.branches > 0 {
            line_notes.push(format!(
                "divergence: {}/{} branches diverged",
                p.divergent, p.branches
            ));
        }
        if !line_notes.is_empty() {
            notes.push(format!("@{} {}: {}", p.pc, p.op, line_notes.join("; ")));
        }
    }
    if !notes.is_empty() {
        out.push_str("memory/divergence annotations:\n");
        for n in notes {
            out.push_str("  ");
            out.push_str(&n);
            out.push('\n');
        }
    }
    let unattributed: u64 = rec.unattributed.iter().sum();
    if unattributed > 0 {
        let parts: Vec<String> = StallReason::ALL
            .iter()
            .zip(rec.unattributed)
            .filter(|&(_, v)| v > 0)
            .map(|(r, v)| format!("{} {v}", r.name()))
            .collect();
        out.push_str(&format!(
            "unattributed stall SM-cycles (no blamable instruction): {}\n",
            parts.join(", ")
        ));
    }
    out
}

/// One PC's delta between two comparable records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcDelta {
    /// Program counter.
    pub pc: usize,
    /// Disassembled instruction.
    pub op: String,
    /// Total attributed SM-cycle delta (new − old).
    pub delta: i64,
    /// Per-class deltas: `("issued", d)` and each stall reason.
    pub classes: Vec<(&'static str, i64)>,
}

/// Ranks per-instruction SM-cycle deltas between two records, largest
/// magnitude first; PC order breaks ties. Only changed PCs appear.
///
/// # Errors
///
/// Returns a message when the records are not comparable (different
/// kernel, architecture or program).
pub fn rank_deltas(old: &ProfileRecord, new: &ProfileRecord) -> Result<Vec<PcDelta>, String> {
    if old.fingerprint() != new.fingerprint() {
        return Err(format!(
            "profiles are not comparable:\n  old: {} [{}], {} PCs\n  new: {} [{}], {} PCs",
            old.kernel,
            old.arch,
            old.pcs.len(),
            new.kernel,
            new.arch,
            new.pcs.len()
        ));
    }
    let mut deltas: Vec<PcDelta> = old
        .pcs
        .iter()
        .zip(&new.pcs)
        .filter_map(|(o, n)| {
            let mut classes = vec![("issued", n.issued as i64 - o.issued as i64)];
            for r in StallReason::ALL {
                let i = r.index();
                classes.push((r.name(), n.stalls[i] as i64 - o.stalls[i] as i64));
            }
            classes.retain(|&(_, d)| d != 0);
            if classes.is_empty() {
                return None;
            }
            Some(PcDelta {
                pc: o.pc,
                op: o.op.clone(),
                delta: n.total() as i64 - o.total() as i64,
                classes,
            })
        })
        .collect();
    deltas.sort_by_key(|d| (std::cmp::Reverse(d.delta.unsigned_abs()), d.pc));
    Ok(deltas)
}

fn pct(part: u64, whole: u64) -> f64 {
    part as f64 / whole as f64 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_isa::asm::assemble_program;

    fn sample_program() -> Program {
        assemble_program(
            "ld.g r1, [r0+0]\n\
             add r2, r1, 1\n\
             st.g [r0+0], r2\n\
             exit\n",
        )
        .expect("assembles")
    }

    fn sample_record() -> ProfileRecord {
        let mk = |pc: usize, op: &str, issued: u64, mem_stall: u64| PcEntry {
            pc,
            op: op.to_string(),
            issued,
            warp_issues: issued * 2,
            thread_instrs: issued * 64,
            stalls: [mem_stall, 0, 0, 0, 0],
            mem: None,
            coalesce: None,
            smem: None,
            branches: 0,
            divergent: 0,
        };
        let mut pcs = vec![
            mk(0, "ld.g r1, [r0+0]", 10, 0),
            mk(1, "add r2, r1, 1", 5, 37),
            mk(2, "st.g [r0+0], r2", 5, 0),
            mk(3, "exit", 2, 0),
        ];
        pcs[0].coalesce = Some((10, 80, 8));
        pcs[0].mem = Some(MemLatency {
            count: 10,
            sum: 4000,
            min: 300,
            p50: 400,
            p99: 500,
            max: 510,
        });
        ProfileRecord {
            kernel: "toy".into(),
            arch: "vt".into(),
            cycles: 100,
            thread_instrs: 1408,
            // issued 22, stall_memory 37 + 3 unattributed, drain 10.
            cpi: CpiRecord {
                buckets: [22, 40, 0, 0, 0, 0, 0, 0, 10],
            },
            pcs,
            unattributed: [3, 0, 0, 0, 0],
        }
    }

    #[test]
    fn record_json_round_trips_and_conserves() {
        let rec = sample_record();
        rec.check_conservation().expect("sample conserves");
        let j = rec.to_json();
        let back = ProfileRecord::from_json(&Json::parse(&j.pretty()).unwrap()).unwrap();
        assert_eq!(back, rec);
    }

    #[test]
    fn from_json_rejects_broken_conservation() {
        let mut rec = sample_record();
        rec.pcs[1].stalls[0] += 1;
        let err = ProfileRecord::from_json(&rec.to_json()).unwrap_err();
        assert!(err.contains("stall_memory"), "{err}");
    }

    #[test]
    fn block_leaders_split_at_branches() {
        let program = assemble_program(
            "add r1, r0, 1\n\
             brc.nz r1, @3, @4\n\
             add r2, r0, 2\n\
             add r3, r0, 3\n\
             exit\n",
        )
        .expect("assembles");
        let leaders = block_leaders(&program);
        // PC 2 starts the fallthrough block, 3 the taken target, 4 the
        // reconvergence block.
        assert_eq!(leaders, vec![0, 0, 2, 3, 4]);
    }

    #[test]
    fn flame_lines_carry_totals_and_unattributed() {
        let rec = sample_record();
        let leaders = block_leaders(&sample_program());
        let text = flame_collapsed(&rec, &leaders);
        assert!(text.contains("toy;block@0;pc0 ld.g 10\n"), "{text}");
        assert!(text.contains("toy;block@0;pc1 add 42\n"), "{text}");
        assert!(text.contains("toy;unattributed;stall_memory 3\n"));
        // The flamegraph total covers every attributable SM-cycle.
        let sum: u64 = text
            .lines()
            .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
            .sum();
        assert_eq!(sum, 22 + 40);
    }

    #[test]
    fn perfetto_export_tracks_every_class() {
        let j = flame_perfetto(&sample_record()).compact();
        assert!(j.contains(r#""issued""#));
        assert!(j.contains(r#""stall_memory""#));
        assert!(j.contains(r#""coalesce_lines_x100""#));
        // PC 0 coalesces 8.0 lines/access on average.
        assert!(j.contains(r#""value":800"#), "{j}");
    }

    #[test]
    fn annotate_cross_references_static_sites() {
        let rec = sample_record();
        let kernel = vt_isa::asm::assemble(
            ".kernel toy\n\
             .grid 1 32\n\
             .globalmem 64\n\
             ld.g r1, [r0+0]\n\
             add r2, r1, 1\n\
             st.g [r0+0], r2\n\
             exit\n",
        )
        .expect("kernel assembles");
        let model = vt_analysis::model(&kernel, &vt_analysis::ModelConfig::default());
        let text = annotate(&rec, &model.mem_sites, 12);
        assert!(text.contains("ld.g r1"), "{text}");
        assert!(
            text.contains("UNCOALESCED") || text.contains("lines/access"),
            "{text}"
        );
        assert!(text.contains("unattributed"), "{text}");
        assert!(text.contains("p99=500"), "{text}");
    }

    #[test]
    fn deltas_rank_by_magnitude() {
        let old = sample_record();
        let mut new = sample_record();
        new.pcs[1].stalls[0] += 50;
        new.cpi.buckets[1] += 50;
        new.pcs[2].issued += 5;
        new.cpi.buckets[0] += 5;
        let ranked = rank_deltas(&old, &new).unwrap();
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].pc, 1);
        assert_eq!(ranked[0].delta, 50);
        assert_eq!(ranked[0].classes, vec![("stall_memory", 50)]);
        assert_eq!(ranked[1].pc, 2);
        assert_eq!(ranked[1].classes, vec![("issued", 5)]);
    }

    #[test]
    fn deltas_reject_different_programs() {
        let old = sample_record();
        let mut new = sample_record();
        new.pcs[0].op = "ld.s r1, [r0+0]".into();
        assert!(rank_deltas(&old, &new).unwrap_err().contains("comparable"));
    }
}
