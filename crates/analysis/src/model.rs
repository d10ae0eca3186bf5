//! The static performance model: occupancy bounds, per-architecture
//! residency predictions, memory-behaviour estimates and divergence
//! depth for one kernel — everything `vtlint --model` prints and the
//! static-vs-dynamic oracle checks.
//!
//! A [`KernelModel`] is pure arithmetic over the kernel's footprint and
//! program text; it runs in microseconds where the simulator takes
//! seconds, which is the point: ROADMAP's workload zoo and architecture
//! head-to-heads can be *screened* statically and only the interesting
//! points simulated. The load-bearing guarantee is the oracle in
//! `tests/`: for every suite kernel × architecture, the model's
//! predicted peak residency must equal the peak of the engine's per-SM
//! `resident_ctas` metric series, and [`KernelModel::predicts_vt_gain`]
//! must agree with whether the measured VT IPC actually beats baseline.

use crate::diag::Diagnostic;
use crate::memaccess::{self, MemSite};
use crate::{Cfg, Liveness, Reaching, Uniformity};
use vt_core::Architecture;
use vt_isa::op::MemSpace;
use vt_isa::{Kernel, Occupancy, SmLimits};
use vt_json::Json;

/// Machine parameters of the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Per-SM scheduling/capacity limits.
    pub limits: SmLimits,
    /// Coalescing segment size in bytes (the memory system's line size).
    pub coalesce_segment_bytes: u32,
    /// Shared-memory banks.
    pub smem_banks: u32,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            limits: SmLimits::fermi(),
            coalesce_segment_bytes: 128,
            smem_banks: 32,
        }
    }
}

/// One architecture's predicted residency for the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchPrediction {
    /// The architecture's `vt_core::Architecture::label()`.
    pub arch: &'static str,
    /// Resident-CTA bound per SM under the architecture's admission policy
    /// (before clamping by the CTAs the grid actually assigns to an SM).
    pub resident_bound: u32,
}

/// The full static model of one kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelModel {
    /// Kernel name.
    pub kernel: String,
    /// Threads per CTA.
    pub threads_per_cta: u32,
    /// Warps per CTA.
    pub warps_per_cta: u32,
    /// Declared registers per thread.
    pub regs_per_thread: u16,
    /// Shared-memory bytes per CTA.
    pub smem_bytes_per_cta: u32,
    /// The occupancy bounds and limiter classification.
    pub occupancy: Occupancy,
    /// Predicted resident-CTA bound for each standard architecture.
    pub archs: Vec<ArchPrediction>,
    /// Every memory access site with its static estimates.
    pub mem_sites: Vec<MemSite>,
    /// Maximum divergent-branch nesting depth.
    pub divergence_nesting: u32,
    /// Register-pressure estimate (simultaneously-live registers).
    pub register_pressure: u16,
    /// Memory-behaviour and divergence lints.
    pub diagnostics: Vec<Diagnostic>,
}

impl KernelModel {
    /// The model's limiter-class verdict: does relaxing the scheduling
    /// limit (what Virtual Thread does) let more CTAs reside?
    pub fn scheduling_limited(&self) -> bool {
        self.occupancy.limiter.is_scheduling()
    }

    /// Predicted residency gain of the capacity-only policies over the
    /// baseline (1.0 = no gain).
    pub fn residency_gain(&self) -> f64 {
        self.occupancy.bounds.headroom()
    }

    /// Whether the model predicts Virtual Thread improves this kernel's
    /// throughput: extra residency must exist *and* there must be global
    /// memory accesses whose latency the extra CTAs can hide. A kernel
    /// that never touches DRAM gains nothing from deeper multithreading.
    pub fn predicts_vt_gain(&self) -> bool {
        self.scheduling_limited()
            && self.occupancy.bounds.capacity() > self.occupancy.bounds.baseline()
            && self
                .mem_sites
                .iter()
                .any(|s| s.space == MemSpace::Global && !s.is_store)
    }

    /// Count of global sites with no static address estimate
    /// (data-dependent gathers).
    pub fn unknown_global_sites(&self) -> usize {
        self.mem_sites
            .iter()
            .filter(|s| s.space == MemSpace::Global && s.stride.is_none())
            .count()
    }

    /// Worst (largest) coalescing width among estimated global sites,
    /// if any were estimable.
    pub fn worst_segments_per_warp(&self) -> Option<u32> {
        self.mem_sites
            .iter()
            .filter_map(|s| s.segments_per_warp)
            .max()
    }

    /// Worst bank-conflict degree among estimated shared sites.
    pub fn worst_bank_conflict_ways(&self) -> Option<u32> {
        self.mem_sites
            .iter()
            .filter_map(|s| s.bank_conflict_ways)
            .max()
    }
}

/// Runs the full static model over `kernel`.
pub fn model(kernel: &Kernel, cfg: &ModelConfig) -> KernelModel {
    let program = kernel.program();
    let num_regs = kernel.regs_per_thread().max(crate::used_regs(program));

    let graph = Cfg::build(program);
    let reachable = graph.reachable();
    let reaching = Reaching::compute(program, &graph, num_regs);
    let liveness = Liveness::compute(program, &graph, num_regs);
    let uniformity = Uniformity::compute(program, &reaching, &reachable);

    let occupancy = cfg.limits.occupancy(kernel);
    let archs = Architecture::standard()
        .iter()
        .map(|a| ArchPrediction {
            arch: a.label(),
            resident_bound: a.admission().resident_bound(&occupancy.bounds),
        })
        .collect();

    let mem_sites = memaccess::sites(
        program,
        &reaching,
        &uniformity,
        &reachable,
        cfg.coalesce_segment_bytes,
        cfg.smem_banks,
    );
    let divergence_nesting = memaccess::divergence_nesting(program, &uniformity, &reachable);
    let diagnostics = memaccess::lints(&mem_sites, divergence_nesting);

    KernelModel {
        kernel: kernel.name().to_string(),
        threads_per_cta: kernel.threads_per_cta(),
        warps_per_cta: kernel.warps_per_cta(),
        regs_per_thread: kernel.regs_per_thread(),
        smem_bytes_per_cta: kernel.smem_bytes_per_cta(),
        occupancy,
        archs,
        mem_sites,
        divergence_nesting,
        register_pressure: liveness.pressure(&reachable),
        diagnostics,
    }
}

impl vt_json::ToJson for MemSite {
    fn to_json(&self) -> Json {
        let opt = |v: Option<u32>| match v {
            Some(v) => Json::UInt(u64::from(v)),
            None => Json::Null,
        };
        Json::Object(vec![
            ("pc".to_string(), Json::UInt(self.pc as u64)),
            ("space".to_string(), Json::Str(self.space.to_string())),
            ("store".to_string(), Json::Bool(self.is_store)),
            (
                "stride".to_string(),
                match self.stride {
                    Some(k) => Json::Int(k),
                    None => Json::Null,
                },
            ),
            ("segments_per_warp".to_string(), opt(self.segments_per_warp)),
            (
                "bank_conflict_ways".to_string(),
                opt(self.bank_conflict_ways),
            ),
        ])
    }
}

impl vt_json::ToJson for KernelModel {
    fn to_json(&self) -> Json {
        let b = &self.occupancy.bounds;
        let smem_bound = if b.by_shared_memory == u32::MAX {
            Json::Null
        } else {
            Json::UInt(u64::from(b.by_shared_memory))
        };
        Json::Object(vec![
            ("kernel".to_string(), Json::Str(self.kernel.clone())),
            (
                "threads_per_cta".to_string(),
                Json::UInt(u64::from(self.threads_per_cta)),
            ),
            (
                "warps_per_cta".to_string(),
                Json::UInt(u64::from(self.warps_per_cta)),
            ),
            (
                "regs_per_thread".to_string(),
                Json::UInt(u64::from(self.regs_per_thread)),
            ),
            (
                "smem_bytes_per_cta".to_string(),
                Json::UInt(u64::from(self.smem_bytes_per_cta)),
            ),
            (
                "bounds".to_string(),
                Json::Object(vec![
                    (
                        "by_cta_slots".to_string(),
                        Json::UInt(u64::from(b.by_cta_slots)),
                    ),
                    (
                        "by_warp_slots".to_string(),
                        Json::UInt(u64::from(b.by_warp_slots)),
                    ),
                    (
                        "by_registers".to_string(),
                        Json::UInt(u64::from(b.by_registers)),
                    ),
                    ("by_shared_memory".to_string(), smem_bound),
                ]),
            ),
            (
                "limiter".to_string(),
                Json::Str(self.occupancy.limiter.to_string()),
            ),
            (
                "scheduling_limited".to_string(),
                Json::Bool(self.scheduling_limited()),
            ),
            (
                "residency".to_string(),
                Json::Object(
                    self.archs
                        .iter()
                        .map(|a| (a.arch.to_string(), Json::UInt(u64::from(a.resident_bound))))
                        .collect(),
                ),
            ),
            (
                "residency_gain".to_string(),
                Json::Float(self.residency_gain()),
            ),
            (
                "predicts_vt_gain".to_string(),
                Json::Bool(self.predicts_vt_gain()),
            ),
            (
                "divergence_nesting".to_string(),
                Json::UInt(u64::from(self.divergence_nesting)),
            ),
            (
                "register_pressure".to_string(),
                Json::UInt(u64::from(self.register_pressure)),
            ),
            (
                "mem_sites".to_string(),
                Json::Array(
                    self.mem_sites
                        .iter()
                        .map(vt_json::ToJson::to_json)
                        .collect(),
                ),
            ),
            (
                "diagnostics".to_string(),
                Json::Array(
                    self.diagnostics
                        .iter()
                        .map(vt_json::ToJson::to_json)
                        .collect(),
                ),
            ),
        ])
    }
}

/// Renders models as the tab02-style fixed-width table `vtlint --model`
/// prints: one row per kernel, the four per-resource bounds, the
/// limiter, per-arch residency and the memory/divergence summary.
pub fn table(models: &[KernelModel]) -> String {
    let mut out = String::new();
    let header = format!(
        "{:<14} {:>5} {:>4} {:>5} {:>6} | {:>4} {:>4} {:>4} {:>4} | {:<13} {:>4} {:>5} {:>5} | {:>4} {:>4} {:>3} vt?\n",
        "kernel", "t/cta", "w", "regs", "smem",
        "cta", "warp", "reg", "smem",
        "limiter", "base", "vt", "gain",
        "seg", "bank", "div",
    );
    out.push_str(&header);
    out.push_str(&"-".repeat(header.len() - 1));
    out.push('\n');
    for m in models {
        let b = &m.occupancy.bounds;
        let smem_bound = if b.by_shared_memory == u32::MAX {
            "inf".to_string()
        } else {
            b.by_shared_memory.to_string()
        };
        let vt_bound = m
            .archs
            .iter()
            .find(|a| a.arch == "vt")
            .map_or(0, |a| a.resident_bound);
        let opt = |v: Option<u32>| v.map_or_else(|| "?".to_string(), |v| v.to_string());
        out.push_str(&format!(
            "{:<14} {:>5} {:>4} {:>5} {:>6} | {:>4} {:>4} {:>4} {:>4} | {:<13} {:>4} {:>5} {:>5.2} | {:>4} {:>4} {:>3} {}\n",
            m.kernel,
            m.threads_per_cta,
            m.warps_per_cta,
            m.regs_per_thread,
            m.smem_bytes_per_cta,
            b.by_cta_slots,
            b.by_warp_slots,
            b.by_registers,
            smem_bound,
            m.occupancy.limiter.to_string(),
            b.baseline(),
            vt_bound,
            m.residency_gain(),
            opt(m.worst_segments_per_warp()),
            opt(m.worst_bank_conflict_ways()),
            m.divergence_nesting,
            if m.predicts_vt_gain() { "yes" } else { "no" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vt_isa::op::Operand;
    use vt_isa::KernelBuilder;
    use vt_json::ToJson;

    /// A scheduling-limited kernel with a coalesced global load.
    fn sched_kernel() -> Kernel {
        let mut b = KernelBuilder::new("sched");
        let data = b.alloc_global(4096);
        let gid = b.reg();
        let v = b.reg();
        b.global_thread_id(gid);
        b.shl(gid, Operand::Reg(gid), Operand::Imm(2));
        b.ld_global(v, Operand::Reg(gid), data as i32);
        b.st_global(Operand::Reg(gid), data as i32, Operand::Reg(v));
        b.pad_regs(16);
        b.exit();
        b.build(8, 64).unwrap()
    }

    /// A register-heavy capacity-limited kernel.
    fn cap_kernel() -> Kernel {
        let mut b = KernelBuilder::new("cap");
        let data = b.alloc_global(4096);
        let gid = b.reg();
        let v = b.reg();
        b.global_thread_id(gid);
        b.shl(gid, Operand::Reg(gid), Operand::Imm(2));
        b.ld_global(v, Operand::Reg(gid), data as i32);
        b.st_global(Operand::Reg(gid), data as i32, Operand::Reg(v));
        b.pad_regs(96);
        b.exit();
        b.build(8, 256).unwrap()
    }

    #[test]
    fn model_classifies_and_predicts() {
        let cfg = ModelConfig::default();
        let m = model(&sched_kernel(), &cfg);
        assert!(m.scheduling_limited());
        assert!(m.predicts_vt_gain());
        assert!(m.residency_gain() > 1.0);
        assert_eq!(m.archs.len(), 4);
        let base = m.archs.iter().find(|a| a.arch == "baseline").unwrap();
        let vt = m.archs.iter().find(|a| a.arch == "vt").unwrap();
        assert!(vt.resident_bound > base.resident_bound);
        assert_eq!(m.mem_sites.len(), 2);

        let m = model(&cap_kernel(), &cfg);
        assert!(!m.scheduling_limited());
        assert!(!m.predicts_vt_gain());
        assert!((m.residency_gain() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn json_shape_is_stable() {
        let m = model(&sched_kernel(), &ModelConfig::default());
        let j = m.to_json().compact();
        for key in [
            "\"kernel\"",
            "\"bounds\"",
            "\"by_cta_slots\"",
            "\"limiter\"",
            "\"scheduling_limited\"",
            "\"residency\"",
            "\"baseline\"",
            "\"vt\"",
            "\"ideal\"",
            "\"memswap\"",
            "\"residency_gain\"",
            "\"predicts_vt_gain\"",
            "\"divergence_nesting\"",
            "\"mem_sites\"",
            "\"diagnostics\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
    }

    #[test]
    fn table_has_one_row_per_kernel() {
        let cfg = ModelConfig::default();
        let models = vec![model(&sched_kernel(), &cfg), model(&cap_kernel(), &cfg)];
        let t = table(&models);
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 2 + 2, "header + rule + two rows");
        assert!(lines[2].starts_with("sched"));
        assert!(lines[3].starts_with("cap"));
        assert!(lines[2].contains("yes"));
        assert!(lines[3].ends_with("no"));
    }
}
