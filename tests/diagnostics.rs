//! Diagnostics-footer ordering: failed cells render in slot order — row
//! by row, column by column, exactly as the table is laid out — and the
//! whole rendering is byte-identical at any `FSMC_THREADS`, so a footer
//! never reshuffles between runs or machines.

use fsmc::bench::weighted_ipc_suite_with;
use fsmc::core::sched::SchedulerKind as K;
use fsmc::dram::DeviceGeneration;
use fsmc::sim::{Engine, FaultKind, FaultPlan, TimingField};
use fsmc::workload::{BenchProfile, WorkloadMix};

/// A suite where the FS column fails on every mix (infeasible perturbed
/// timing rejects the pipeline at construction). The mixes are declared
/// in deliberately non-alphabetical order so slot order and lexical
/// order disagree.
fn failing_table(threads: usize) -> String {
    let mixes = [
        WorkloadMix::rate(BenchProfile::zeusmp(), 8),
        WorkloadMix::rate(BenchProfile::milc(), 8),
        WorkloadMix::rate(BenchProfile::astar(), 8),
    ];
    let kinds = [K::FsRankPartitioned, K::TpBankPartitioned { turn: 60 }];
    let infeasible =
        FaultPlan::new(5).with(FaultKind::PerturbTiming { field: TimingField::TRtrs, delta: 600 });
    let table = weighted_ipc_suite_with(
        &Engine::with_threads(threads),
        DeviceGeneration::Ddr3_1600,
        &mixes,
        &kinds,
        4_000,
        42,
        &[(K::FsRankPartitioned, infeasible)],
    );
    table.render("weighted IPC")
}

#[test]
fn diagnostics_footer_is_slot_ordered_and_thread_count_stable() {
    let serial = failing_table(1);
    let parallel = failing_table(8);
    assert_eq!(serial, parallel, "rendered table differs across FSMC_THREADS");
    let pos = |needle: &str| {
        serial.find(needle).unwrap_or_else(|| panic!("missing {needle:?} in:\n{serial}"))
    };
    // Slot order (zeusmp, milc, astar), not completion or lexical order.
    let (z, m, a) = (pos("zeusmp/FS_RP:"), pos("milc/FS_RP:"), pos("astar/FS_RP:"));
    assert!(z < m && m < a, "diagnostics footer not in slot order:\n{serial}");
}
