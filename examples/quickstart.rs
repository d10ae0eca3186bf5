//! Quickstart: build a kernel with the DSL, run it on the baseline GPU
//! and on Virtual Thread, and compare.
//!
//! ```text
//! cargo run --release -p vt-examples --bin quickstart
//! ```

use vt_core::{Architecture, Gpu, GpuConfig};
use vt_isa::op::Operand;
use vt_isa::KernelBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A memory-latency-bound kernel: every thread chases pointers through
    // an L2-resident table. Small CTAs mean the baseline GPU runs out of
    // CTA slots long before it runs out of registers.
    let nodes = 32 * 1024u32;
    let mut b = KernelBuilder::new("chase");
    // Warp-coherent chase: every entry points at a 32-aligned node, so a
    // warp starting from an aligned node stays together and each hop is
    // one coalesced transaction to a random L2-resident line.
    let next: Vec<u32> = (0..nodes)
        .map(|i| ((i / 32) * 2654435761 % nodes) & !31)
        .collect();
    let table = b.alloc_global_init(&next);
    let out = b.alloc_global(nodes as usize);

    let gid = b.reg();
    let v = b.reg();
    let off = b.reg();
    let i = b.reg();
    b.global_thread_id(gid);
    b.and_(v, Operand::Reg(gid), Operand::Imm((nodes - 1) & !31));
    b.or_(v, Operand::Reg(v), Operand::Sreg(vt_isa::Sreg::Lane));
    b.for_range(i, Operand::Imm(0), Operand::Imm(8), 1, |b, _| {
        b.shl(off, Operand::Reg(v), Operand::Imm(2));
        b.ld_global(v, Operand::Reg(off), table as i32);
        b.or_(v, Operand::Reg(v), Operand::Sreg(vt_isa::Sreg::Lane));
    });
    b.shl(off, Operand::Reg(gid), Operand::Imm(2));
    b.st_global(Operand::Reg(off), out as i32, Operand::Reg(v));
    let kernel = b.build(480, 64)?; // 480 CTAs of 64 threads

    println!("kernel `{}`:", kernel.name());
    println!(
        "  {} CTAs x {} threads, {} regs/thread",
        kernel.num_ctas(),
        kernel.threads_per_cta(),
        kernel.regs_per_thread()
    );

    // What limits its occupancy?
    let gpu = Gpu::new(GpuConfig::default());
    let occ = gpu.occupancy(&kernel);
    println!(
        "  occupancy: {} CTAs/SM under the baseline (limited by {}), {} under capacity-only",
        occ.bounds.baseline(),
        occ.limiter,
        occ.bounds.capacity()
    );

    // Run it on both architectures.
    let base = gpu.run(&kernel)?;
    let vt = Gpu::new(GpuConfig::with_arch(Architecture::virtual_thread())).run(&kernel)?;
    assert_eq!(base.mem_image, vt.mem_image, "same functional result");

    println!("\n              cycles      IPC    resident warps   swaps");
    for r in [&base, &vt] {
        println!(
            "  {:9} {:8} {:8.1} {:12.1} {:11}",
            r.arch.label(),
            r.stats.cycles,
            r.ipc(),
            r.stats.occupancy.avg_resident_warps(),
            r.stats.swaps.swaps_out
        );
    }
    println!("\nVirtual Thread speedup: {:.2}x", vt.speedup_over(&base));
    Ok(())
}
