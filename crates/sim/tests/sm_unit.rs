//! White-box tests of the SM's CTA residency state machine: admission
//! accounting, activation order, the swap trigger, and slot bookkeeping,
//! driven cycle by cycle against a real memory system.

use vt_isa::kernel::MemImage;
use vt_isa::op::Operand;
use vt_isa::{Kernel, KernelBuilder};
use vt_mem::{MemConfig, MemSystem};
use vt_sim::config::{ActivePolicy, CoreConfig, ResidencyConfig, SwapConfig, SwapTrigger};
use vt_sim::sm::{Ctx, EmptyAttr, Run, Sm};
use vt_sim::stats::RunStats;
use vt_sim::AdmissionPolicy;
use vt_trace::NullSink;

/// One-warp CTAs that immediately issue a (missing) global load, then a
/// dependent add — the canonical long-latency stall.
fn load_kernel(ctas: u32) -> Kernel {
    let mut b = KernelBuilder::new("stall");
    let data = b.alloc_global(65536);
    let gid = b.reg();
    let v = b.reg();
    b.global_thread_id(gid);
    b.shl(gid, Operand::Reg(gid), Operand::Imm(2));
    b.ld_global(v, Operand::Reg(gid), data as i32);
    b.add(v, Operand::Reg(v), Operand::Imm(1));
    b.st_global(Operand::Reg(gid), data as i32, Operand::Reg(v));
    b.pad_regs(16);
    b.build(ctas, 32).unwrap()
}

fn vt_residency() -> ResidencyConfig {
    ResidencyConfig {
        admission: AdmissionPolicy::CapacityOnly {
            max_resident_ctas: None,
        },
        active: ActivePolicy::SchedulingLimit,
        swap: Some(SwapConfig {
            trigger: SwapTrigger::AllWarpsStalled,
            save_cycles: 2,
            restore_cycles: 2,
            fresh_activation_cycles: 0,
            throttle: None,
        }),
    }
}

struct Rig {
    sm: Sm,
    mem: MemSystem,
    image: MemImage,
    core: CoreConfig,
    res: ResidencyConfig,
    stats: RunStats,
    sink: NullSink,
    cycle: u64,
}

impl Rig {
    fn new(res: ResidencyConfig) -> Rig {
        let core = CoreConfig::default();
        let mem_cfg = MemConfig::default();
        Rig {
            sm: Sm::new(0, &core, mem_cfg.line_bytes),
            mem: MemSystem::new(&mem_cfg, 1),
            image: MemImage::zeroed(65536 / 4 * 4),
            core,
            res,
            stats: RunStats::default(),
            sink: NullSink,
            cycle: 0,
        }
    }

    fn run<'a>(&'a self, kernel: &'a Kernel) -> Run<'a> {
        Run::new(kernel, &self.core, &self.res)
    }

    /// The SM and the context it ticks and admits under at this cycle.
    fn split<'a>(&'a mut self, kernel: &'a Kernel) -> (&'a mut Sm, Ctx<'a, NullSink>) {
        let ctx = Ctx {
            run: Run::new(kernel, &self.core, &self.res),
            now: self.cycle,
            mem: &mut self.mem,
            image: &mut self.image,
            stats: &mut self.stats,
            sink: &mut self.sink,
        };
        (&mut self.sm, ctx)
    }

    fn tick(&mut self, kernel: &Kernel) {
        self.mem.tick(self.cycle);
        let (sm, mut ctx) = self.split(kernel);
        sm.tick(&mut ctx, EmptyAttr::drained()).expect("no traps");
        self.cycle += 1;
    }

    fn admit(&mut self, cta_id: u32, kernel: &Kernel) {
        let (sm, mut ctx) = self.split(kernel);
        sm.admit(cta_id, &mut ctx);
    }

    fn admit_while_possible(&mut self, kernel: &Kernel, limit: u32) -> u32 {
        let mut admitted = 0;
        while admitted < limit && self.sm.can_admit(self.run(kernel)) {
            self.admit(admitted, kernel);
            admitted += 1;
        }
        admitted
    }
}

#[test]
fn baseline_admission_stops_at_cta_slots() {
    let k = load_kernel(64);
    let mut rig = Rig::new(ResidencyConfig::baseline());
    let admitted = rig.admit_while_possible(&k, 64);
    assert_eq!(admitted, rig.core.max_ctas_per_sm, "CTA slots bind");
    assert_eq!(rig.sm.resident_ctas(), 8);
    assert_eq!(
        rig.sm.slot_ctas(),
        8,
        "baseline activates everything admitted"
    );
}

#[test]
fn capacity_admission_goes_to_the_register_limit() {
    let k = load_kernel(64);
    let mut rig = Rig::new(vt_residency());
    let admitted = rig.admit_while_possible(&k, 128);
    // 32 threads x 16 regs x 4 B = 2 KiB per CTA; 128 KiB register file.
    assert_eq!(admitted, 64);
    assert_eq!(rig.sm.resident_ctas(), 64);
    assert_eq!(
        rig.sm.slot_ctas(),
        8,
        "active slots still respect the scheduling limit"
    );
}

#[test]
fn explicit_cap_bounds_admission() {
    let k = load_kernel(64);
    let mut rig = Rig::new(ResidencyConfig {
        admission: AdmissionPolicy::CapacityOnly {
            max_resident_ctas: Some(13),
        },
        ..vt_residency()
    });
    assert_eq!(rig.admit_while_possible(&k, 128), 13);
}

#[test]
fn unlimited_active_policy_activates_everything() {
    let k = load_kernel(64);
    let mut rig = Rig::new(ResidencyConfig {
        admission: AdmissionPolicy::CapacityOnly {
            max_resident_ctas: None,
        },
        active: ActivePolicy::Unlimited,
        swap: None,
    });
    rig.admit_while_possible(&k, 128);
    assert_eq!(rig.sm.slot_ctas(), 64, "ideal machine has no active limit");
}

#[test]
fn all_warps_stalled_trigger_swaps_against_ready_ctas() {
    let k = load_kernel(64);
    let mut rig = Rig::new(vt_residency());
    rig.admit_while_possible(&k, 128);
    // Run until the active CTAs have issued their loads and stalled; the
    // trigger must rotate parked fresh CTAs in.
    for _ in 0..200 {
        rig.tick(&k);
    }
    assert!(
        rig.stats.swaps.swaps_out > 0,
        "stalled CTAs must be switched out"
    );
    assert!(
        rig.stats.swaps.fresh_activations > 8,
        "parked CTAs took the slots"
    );
    assert!(rig.sm.slot_ctas() <= 8);
}

#[test]
fn never_trigger_blocks_rotation_until_completion() {
    let k = load_kernel(64);
    let mut rig = Rig::new(ResidencyConfig {
        swap: Some(SwapConfig {
            trigger: SwapTrigger::Never,
            save_cycles: 2,
            restore_cycles: 2,
            fresh_activation_cycles: 0,
            throttle: None,
        }),
        ..vt_residency()
    });
    rig.admit_while_possible(&k, 128);
    for _ in 0..300 {
        rig.tick(&k);
    }
    assert_eq!(rig.stats.swaps.swaps_out, 0, "never means never");
    // Activation still happens when CTAs finish.
    if rig.stats.ctas_completed > 0 {
        assert!(rig.stats.swaps.fresh_activations > 8);
    }
}

#[test]
fn throttle_settles_and_stays_functional() {
    let k = load_kernel(64);
    let mut rig = Rig::new(ResidencyConfig {
        swap: Some(SwapConfig {
            trigger: SwapTrigger::AllWarpsStalled,
            save_cycles: 2,
            restore_cycles: 2,
            fresh_activation_cycles: 0,
            throttle: Some(vt_sim::config::ThrottleConfig {
                window_cycles: 64,
                phase_windows: 2,
                probe_every_phases: 2,
            }),
        }),
        ..vt_residency()
    });
    rig.admit_while_possible(&k, 128);
    for _ in 0..50_000 {
        rig.tick(&k);
        if rig.sm.idle() && rig.mem.quiesced() {
            break;
        }
    }
    assert_eq!(
        rig.stats.ctas_completed, 64,
        "throttled runs still complete"
    );
    assert!(rig.sm.slot_ctas() == 0);
}

#[test]
fn resident_ctas_drain_to_zero() {
    let k = load_kernel(16);
    let mut rig = Rig::new(vt_residency());
    let admitted = rig.admit_while_possible(&k, 16);
    assert_eq!(admitted, 16);
    let mut done_at = None;
    for _ in 0..50_000 {
        rig.tick(&k);
        if rig.sm.idle() && rig.mem.quiesced() {
            done_at = Some(rig.cycle);
            break;
        }
    }
    assert!(done_at.is_some(), "SM drained");
    assert_eq!(rig.stats.ctas_completed, 16);
    assert_eq!(rig.sm.resident_ctas(), 0);
    assert_eq!(rig.sm.slot_ctas(), 0);
}

#[test]
fn admission_respects_shared_memory_capacity() {
    let mut b = KernelBuilder::new("smem-hog");
    b.pad_smem(12 * 1024);
    b.exit();
    let k = b.build(16, 32).unwrap();
    let mut rig = Rig::new(vt_residency());
    // 48 KiB / 12 KiB = 4 CTAs, far below the register limit.
    assert_eq!(rig.admit_while_possible(&k, 16), 4);
}

/// Admission, as the one bound `AdmissionPolicy::resident_bound` gives,
/// against its definition per resource: on random footprints and SM
/// limits, filling an SM never overfills a limit the policy respects, and
/// stops only when one more CTA would (a warp-slot bound among them, the
/// case `swap_config` builds). Activation, as the one bound `Run` works
/// out from `CtaBounds::scheduling`, against its definition too: the
/// CTAs holding an active slot fit the CTA and warp slots, and one more
/// would not unless every resident CTA is active (no bound under
/// `ActivePolicy::Unlimited`).
#[test]
fn admission_fills_to_the_first_respected_limit_and_no_further() {
    let mut r = vt_prng::Prng::new(0xad_0175);
    for case in 0..200 {
        let threads = 32 * r.gen_range(1..17);
        let mut b = KernelBuilder::new("fill");
        b.pad_regs(r.gen_range(1..64) as u16);
        b.pad_smem(256 * r.gen_range(0..40));
        b.exit();
        let k = b.build(512, threads).unwrap();
        let policy = match r.gen_range(0..3) {
            0 => AdmissionPolicy::SchedulingAndCapacity,
            1 => AdmissionPolicy::CapacityOnly {
                max_resident_ctas: None,
            },
            _ => AdmissionPolicy::CapacityOnly {
                max_resident_ctas: Some(r.gen_range(1..40)),
            },
        };
        let active = if r.gen_bool(0.5) {
            ActivePolicy::SchedulingLimit
        } else {
            ActivePolicy::Unlimited
        };
        let mut rig = Rig::new(ResidencyConfig {
            admission: policy,
            active,
            ..vt_residency()
        });
        rig.core.max_ctas_per_sm = r.gen_range(1..17);
        rig.core.max_warps_per_sm = k.warps_per_cta() * r.gen_range(1..9);
        let admitted = rig.admit_while_possible(&k, 512);
        assert!(admitted < 512, "case {case}: no limit bound");

        let (core, sm) = (&rig.core, &rig.sm);
        let fits = |ctas: u32, warps: u32, regs: u32, smem: u32| {
            let scheduling = match policy {
                AdmissionPolicy::SchedulingAndCapacity => {
                    ctas <= core.max_ctas_per_sm && warps <= core.max_warps_per_sm
                }
                AdmissionPolicy::CapacityOnly { max_resident_ctas } => {
                    max_resident_ctas.is_none_or(|cap| ctas <= cap)
                }
            };
            scheduling && regs <= core.regfile_bytes && smem <= core.smem_bytes
        };
        let now = (
            sm.resident_ctas(),
            sm.resident_warps(),
            sm.resident_reg_bytes(),
            sm.resident_smem_bytes(),
        );
        assert_eq!(now.0, admitted, "case {case}");
        assert!(fits(now.0, now.1, now.2, now.3), "case {case}: overfilled");
        assert!(
            !fits(
                now.0 + 1,
                now.1 + k.warps_per_cta(),
                now.2 + k.reg_bytes_per_cta(),
                now.3 + k.smem_bytes_per_cta()
            ),
            "case {case}: stopped at {admitted} CTAs with room for another under {policy:?}"
        );

        let wpc = k.warps_per_cta();
        let activates = |ctas: u32| match active {
            ActivePolicy::SchedulingLimit => {
                ctas <= core.max_ctas_per_sm && ctas * wpc <= core.max_warps_per_sm
            }
            ActivePolicy::Unlimited => true,
        };
        let slots = sm.slot_ctas();
        assert!(
            activates(slots),
            "case {case}: {slots} active CTAs under {active:?}"
        );
        assert!(
            slots == admitted || !activates(slots + 1),
            "case {case}: {slots} of {admitted} CTAs active with room for another"
        );
    }
}

#[test]
#[should_panic(expected = "admit called without can_admit")]
fn admit_without_capacity_panics() {
    let k = load_kernel(64);
    let mut rig = Rig::new(ResidencyConfig::baseline());
    rig.admit_while_possible(&k, 64);
    rig.admit(99, &k);
}
