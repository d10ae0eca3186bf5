//! Occupancy explorer: sweep a kernel's resource footprint and see which
//! limit binds where — the paper's Figure-1 analysis as an interactive
//! tool.
//!
//! ```text
//! cargo run --release -p vt-examples --bin occupancy_explorer [threads] [smem-bytes]
//! ```

use vt_core::{occupancy, CoreConfig};
use vt_workloads::SyntheticParams;

fn main() {
    let mut args = std::env::args().skip(1);
    let threads: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(64);
    let smem: u32 = args.next().and_then(|a| a.parse().ok()).unwrap_or(0);
    let core = CoreConfig::default();

    println!(
        "Occupancy of a {threads}-thread/{smem}-B-smem CTA on {} warp slots / {} CTA slots / \
         {} KiB registers / {} KiB shared memory per SM:\n",
        core.max_warps_per_sm,
        core.max_ctas_per_sm,
        core.regfile_bytes / 1024,
        core.smem_bytes / 1024
    );
    println!("regs/thread  cta-slots  warp-slots  registers  smem  baseline  capacity  limiter        VT headroom");
    for regs in [8u16, 12, 16, 24, 32, 48, 64, 96, 128] {
        let kernel = SyntheticParams {
            threads_per_cta: threads,
            regs_per_thread: regs,
            smem_bytes: smem,
            ctas: 1,
            iters: 1,
            ..SyntheticParams::default()
        }
        .build();
        let occ = occupancy::analyze(&core, &kernel);
        let b = occ.bounds;
        let smem_col = if b.by_shared_memory == u32::MAX {
            "-".to_string()
        } else {
            b.by_shared_memory.to_string()
        };
        println!(
            "{:11} {:10} {:11} {:10} {:>5} {:9} {:9} {:14} {:.1}x",
            regs,
            b.by_cta_slots,
            b.by_warp_slots,
            b.by_registers,
            smem_col,
            b.baseline(),
            b.capacity(),
            occ.limiter.to_string(),
            b.headroom()
        );
    }
    println!(
        "\nRows where the limiter is cta-slots/warp-slots are the kernels Virtual Thread\n\
         accelerates: the capacity column shows how many CTAs it can make resident."
    );
}
