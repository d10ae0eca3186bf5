//! The experiment runner: experiments that share cells simulate them
//! once, and sharing changes neither their records nor their tables.

use vt_bench::{experiments, Harness};
use vt_workloads::Scale;

/// Two SMs and six-CTA grids keep a debug build fast. The paper's shapes
/// do not hold at this scale, so verdicts are not asserted.
fn shrunken() -> Harness {
    let mut h = Harness::new(false);
    h.scale = Scale::test();
    h.core.num_sms = 2;
    h
}

#[test]
fn shared_cells_run_once_and_change_no_output() {
    let h = shrunken();
    // Both run streamcluster and bfs under the baseline and default VT
    // (fig06's 32-words/cycle point): four shared cells.
    let names = ["fig06_swap_latency", "fig13_adaptive_throttle"].map(String::from);
    let alone: Vec<_> = names
        .iter()
        .map(|n| experiments::run(&h, std::slice::from_ref(n), 1).expect("runs"))
        .collect();
    let (joint, simulated) = experiments::run(&h, &names, 2).expect("runs");
    let separately: usize = alone.iter().map(|(_, cells)| cells).sum();
    assert_eq!(simulated, separately - 4, "shared cells are simulated once");
    assert_eq!(joint.len(), names.len());
    for ((outputs, _), shared) in alone.iter().zip(&joint) {
        let own = &outputs[0];
        assert_eq!(shared.name, own.name);
        assert_eq!(shared.text, own.text, "{}", own.name);
        assert_eq!(shared.record.pretty(), own.record.pretty(), "{}", own.name);
    }
}
