//! Determinism: simulations are exactly reproducible given a seed — the
//! property that makes the non-interference comparisons meaningful.
//!
//! This includes the event-driven fast path: time-skipping must produce
//! *bit-identical* statistics, command logs and execution profiles to
//! per-cycle stepping for every scheduler, or it is not an optimisation
//! but a different simulator.

use fsmc::bench::weighted_ipc_suite_with;
use fsmc::core::sched::{ReconfigEvent, SchedulerKind as K};
use fsmc::dram::command::TimedCommand;
use fsmc::dram::DeviceGeneration;
use fsmc::sim::{Engine, ExperimentJob, FaultPlan, System, SystemConfig};
use fsmc::workload::{BenchProfile, WorkloadMix};

fn fingerprint(kind: K, seed: u64) -> (Vec<f64>, u64, u64) {
    let cfg = SystemConfig::paper_default(kind);
    let mix = WorkloadMix::mix2();
    let mut sys = System::from_mix(&cfg, &mix, seed);
    let stats = sys.run_cycles(10_000);
    (stats.ipcs(), stats.reads_completed, stats.mc.row_hits + stats.mc.row_misses)
}

#[test]
fn all_policies_are_bit_deterministic() {
    for kind in [
        K::Baseline,
        K::BaselinePrefetch,
        K::FsRankPartitioned,
        K::FsReorderedBankPartitioned,
        K::FsTripleAlternation,
        K::TpBankPartitioned { turn: 60 },
        K::TpNoPartition { turn: 172 },
    ] {
        assert_eq!(fingerprint(kind, 3), fingerprint(kind, 3), "{kind} not deterministic");
    }
}

#[test]
fn different_seeds_differ() {
    let a = fingerprint(K::Baseline, 3);
    let b = fingerprint(K::Baseline, 4);
    assert_ne!(a, b, "seeds should change the workload");
}

/// Every scheduler kind the simulator can build.
fn all_kinds() -> [K; 13] {
    [
        K::Baseline,
        K::BaselinePrefetch,
        K::FsRankPartitioned,
        K::FsRankPartitionedPrefetch,
        K::FsBankPartitioned,
        K::FsReorderedBankPartitioned,
        K::FsNoPartitionNaive,
        K::FsTripleAlternation,
        K::TpBankPartitioned { turn: 60 },
        K::TpNoPartition { turn: 172 },
        K::TpFence { period: 300 },
        K::ChannelPartitioned,
        K::FsMultiChannel { channels: 4 },
    ]
}

/// Runs `cycles` DRAM cycles of mix2 under `kind` with command
/// recording and the online monitor armed, with or without the
/// event-driven fast path, and returns everything observable: the full
/// statistics snapshot and the command log.
fn run_both_ways(kind: K, seed: u64, cycles: u64, fast: bool) -> (String, Vec<TimedCommand>) {
    run_both_ways_on(DeviceGeneration::Ddr3_1600, kind, seed, cycles, fast)
}

fn run_both_ways_on(
    device: DeviceGeneration,
    kind: K,
    seed: u64,
    cycles: u64,
    fast: bool,
) -> (String, Vec<TimedCommand>) {
    let mut cfg = SystemConfig::for_device(device, kind, 8);
    cfg.record_commands = true;
    cfg.monitor = true;
    let mix = WorkloadMix::mix2();
    let mut sys = System::from_mix(&cfg, &mix, seed);
    if !fast {
        sys.disable_fastpath();
    }
    let stats = sys.try_run_cycles(cycles).expect("clean run");
    (format!("{stats:?}"), sys.take_command_log())
}

/// The fast path's contract: skipping time changes nothing observable.
/// Statistics (per-core cycle and stall counts included) and the full
/// command log must be bit-identical for every policy and seed.
#[test]
fn fast_path_is_bit_identical_for_every_policy() {
    for kind in all_kinds() {
        for seed in [3, 7, 11] {
            let fast = run_both_ways(kind, seed, 8_000, true);
            let slow = run_both_ways(kind, seed, 8_000, false);
            assert_eq!(fast.0, slow.0, "{kind} seed {seed}: stats diverge");
            assert_eq!(fast.1, slow.1, "{kind} seed {seed}: command logs diverge");
        }
    }
}

/// The same contract on every device generation: the fast path's
/// `next_event_bound` folds the bank-group CAS floors and the LPDDR4/HBM
/// timing extremes into its skip bounds, so a single missed wake-up on
/// any profile would surface here as a stats or command-log diff.
#[test]
fn fast_path_is_bit_identical_on_every_device_generation() {
    for device in DeviceGeneration::all() {
        for kind in [
            K::Baseline,
            K::FsRankPartitioned,
            K::FsBankPartitioned,
            K::FsReorderedBankPartitioned,
            K::TpBankPartitioned { turn: 60 },
        ] {
            let fast = run_both_ways_on(device, kind, 3, 8_000, true);
            let slow = run_both_ways_on(device, kind, 3, 8_000, false);
            assert_eq!(fast.0, slow.0, "{device} {kind}: stats diverge");
            assert_eq!(fast.1, slow.1, "{device} {kind}: command logs diverge");
        }
    }
}

/// Execution profiles — the paper's attacker observable — must also be
/// unaffected: a bucket boundary landing one cycle off would fabricate
/// or mask leakage. Skipped spans carry computing cores, whose compute
/// floor is divided by the CPU:DRAM ratio, so every device generation
/// runs (ratios 4, 4, 2 and 3), and a compute-heavy mix makes compute
/// spans the common case.
#[test]
fn fast_path_preserves_execution_profiles_and_read_runs() {
    let compute_heavy = WorkloadMix::rate(BenchProfile::xalancbmk(), 8);
    for device in DeviceGeneration::all() {
        for mix in [WorkloadMix::mix1(), compute_heavy.clone()] {
            for kind in [K::FsRankPartitioned, K::Baseline, K::TpBankPartitioned { turn: 60 }] {
                let cfg = SystemConfig::for_device(device, kind, 8);
                let mut fast = System::from_mix(&cfg, &mix, 5);
                let mut slow = System::from_mix(&cfg, &mix, 5);
                slow.disable_fastpath();
                assert_eq!(
                    fast.run_profile(0, 500, 12),
                    slow.run_profile(0, 500, 12),
                    "{device} {kind}: profiles diverge"
                );
                let mut fast = System::from_mix(&cfg, &mix, 6);
                let mut slow = System::from_mix(&cfg, &mix, 6);
                slow.disable_fastpath();
                fast.observe(0);
                slow.observe(0);
                let sf = fast.run_reads(600);
                let ss = slow.run_reads(600);
                assert_eq!(
                    format!("{sf:?}"),
                    format!("{ss:?}"),
                    "{device} {kind}: read-run stats diverge"
                );
                assert_eq!(
                    fast.take_observations(),
                    slow.take_observations(),
                    "{device} {kind}: observations"
                );
                assert_eq!(
                    fast.dram_cycle(),
                    slow.dram_cycle(),
                    "{device} {kind}: end cycles diverge"
                );
            }
        }
    }
}

/// A profile taken while another tenant leaves mid-run and later
/// rejoins: the detached core is bulk-charged inside skipped spans while
/// the profiled core computes through them.
#[test]
fn fast_path_preserves_execution_profiles_across_churn() {
    for kind in [K::FsRankPartitioned, K::Baseline] {
        let cfg = SystemConfig::paper_default(kind);
        let mix = WorkloadMix::rate(BenchProfile::xalancbmk(), 8);
        let mut fast = System::from_mix(&cfg, &mix, 8);
        let mut slow = System::from_mix(&cfg, &mix, 8);
        slow.disable_fastpath();
        for sys in [&mut fast, &mut slow] {
            sys.schedule_reconfig(1_000, ReconfigEvent::DomainLeave { domain: 2 });
            sys.schedule_reconfig(4_000, ReconfigEvent::DomainJoin { domain: 2 });
        }
        let pf = fast.try_run_profile(0, 4_000, 24).expect("clean fast run");
        let ps = slow.try_run_profile(0, 4_000, 24).expect("clean slow run");
        assert_eq!(pf, ps, "{kind}: profiles diverge");
        assert!(fast.dram_cycle() > 5_000, "{kind}: the run must span the rejoin");
        assert_eq!(format!("{:?}", fast.stats()), format!("{:?}", slow.stats()), "{kind}: stats");
        let counts = fast.core_counters();
        assert!(counts.computed > 0, "{kind}: no compute span taken: {counts:?}");
    }
}

/// `FSMC_NO_FASTPATH=1` is the escape hatch; mutable controller access
/// and armed fault plans drop to per-cycle stepping automatically.
#[test]
fn fast_path_disarms_on_env_mutation_and_faults() {
    let cfg = SystemConfig::paper_default(K::FsRankPartitioned);
    let mix = WorkloadMix::mix1();
    std::env::set_var("FSMC_NO_FASTPATH", "1");
    let sys = System::from_mix(&cfg, &mix, 1);
    std::env::remove_var("FSMC_NO_FASTPATH");
    assert!(!sys.fastpath_enabled(), "FSMC_NO_FASTPATH=1 must force per-cycle stepping");

    let mut sys = System::from_mix(&cfg, &mix, 1);
    assert!(sys.fastpath_enabled(), "fast path is the default");
    let _ = sys.controller_mut();
    assert!(!sys.fastpath_enabled(), "controller mutation must disarm the fast path");

    // A faulted job runs per-cycle, and stays deterministic.
    let plan = FaultPlan::parse_spec(9, "delay(50,5,1)").expect("valid spec");
    let job = ExperimentJob::new(mix, K::FsRankPartitioned, 6_000, 3).with_faults(plan);
    let a = job.run();
    let b = job.run();
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "faulted runs must be reproducible");
}

/// The tentpole guarantee: the parallel experiment engine produces
/// byte-identical rendered tables and CSVs at any worker count.
#[test]
fn suite_output_is_byte_identical_across_thread_counts() {
    let mixes = [WorkloadMix::mix1(), WorkloadMix::mix2()];
    let kinds = [K::FsRankPartitioned, K::TpBankPartitioned { turn: 60 }];
    let t1 = weighted_ipc_suite_with(&Engine::with_threads(1), &mixes, &kinds, 4_000, 11, &[]);
    let t8 = weighted_ipc_suite_with(&Engine::with_threads(8), &mixes, &kinds, 4_000, 11, &[]);
    assert_eq!(t1.render("weighted IPC"), t8.render("weighted IPC"));
    assert_eq!(t1.to_csv(), t8.to_csv());
}

/// FS fast-forward straddles wall-clock refresh windows bit-identically:
/// with no monitor armed the span is replayed inside the controller,
/// and 30k cycles cross many tREFI boundaries (quiesce, refresh
/// commands, recovery) for every FS variant.
#[test]
fn fs_fast_forward_is_bit_identical_across_refresh_windows() {
    for kind in [
        K::FsRankPartitioned,
        K::FsRankPartitionedPrefetch,
        K::FsBankPartitioned,
        K::FsReorderedBankPartitioned,
        K::FsNoPartitionNaive,
        K::FsTripleAlternation,
    ] {
        let cfg = SystemConfig::paper_default(kind);
        let mix = WorkloadMix::mix1();
        let mut fast = System::from_mix(&cfg, &mix, 7);
        let mut slow = System::from_mix(&cfg, &mix, 7);
        slow.disable_fastpath();
        let sf = fast.run_cycles(30_000);
        let ss = slow.run_cycles(30_000);
        assert_eq!(format!("{sf:?}"), format!("{ss:?}"), "{kind}: stats diverge");
        assert_eq!(fast.dram_cycle(), slow.dram_cycle(), "{kind}: end cycles diverge");
    }
}

/// FS fast-forward around a reconfiguration epoch boundary: the skip
/// clamps at the event promotion and adoption cycles, so a domain
/// leaving and a bank dying mid-run reproduce per-cycle stepping
/// exactly.
#[test]
fn fs_fast_forward_is_bit_identical_across_reconfig_epochs() {
    for kind in [K::FsRankPartitioned, K::FsBankPartitioned] {
        let cfg = SystemConfig::paper_default(kind);
        let mix = WorkloadMix::mix1();
        let mut fast = System::from_mix(&cfg, &mix, 9);
        let mut slow = System::from_mix(&cfg, &mix, 9);
        slow.disable_fastpath();
        for sys in [&mut fast, &mut slow] {
            sys.schedule_reconfig(4_000, ReconfigEvent::DomainLeave { domain: 2 });
            sys.schedule_reconfig(9_000, ReconfigEvent::StuckBank { rank: 1, bank: 3 });
            sys.schedule_reconfig(14_000, ReconfigEvent::DomainJoin { domain: 2 });
        }
        let sf = fast.try_run_cycles(20_000).expect("clean fast run");
        let ss = slow.try_run_cycles(20_000).expect("clean slow run");
        assert_eq!(format!("{sf:?}"), format!("{ss:?}"), "{kind}: stats diverge");
        assert_eq!(fast.dram_cycle(), slow.dram_cycle(), "{kind}: end cycles diverge");
    }
}
