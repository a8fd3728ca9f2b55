//! Determinism: simulations are exactly reproducible given a seed — the
//! property that makes the non-interference comparisons meaningful.
//!
//! This includes the event-driven fast path: time-skipping must produce
//! *bit-identical* statistics, command logs and execution profiles to
//! per-cycle stepping for every scheduler, or it is not an optimisation
//! but a different simulator.

use fsmc::bench::weighted_ipc_suite_with;
use fsmc::core::sched::{ReconfigEvent, SchedulerKind as K};
use fsmc::cpu::trace::{MemOp, TraceOp, TraceSource, VecTrace};
use fsmc::dram::command::TimedCommand;
use fsmc::dram::DeviceGeneration;
use fsmc::leak::{default_secret, Protocol};
use fsmc::security::covert_system;
use fsmc::sim::{Engine, ExperimentJob, FaultPlan, System, SystemConfig};
use fsmc::workload::{BenchProfile, IdleTrace, SyntheticTrace, WorkloadMix};

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

/// Only a skipped span elides controller ticks (a stepped cycle always
/// ticks), so a fast-path run never elides more ticks than it skips
/// cycles.
fn assert_elided_within_spans(sys: &System, what: &str) {
    let (skipped, elided) = sys.fastpath_counters();
    assert!(elided <= skipped, "{what}: {elided} ticks elided but only {skipped} cycles skipped");
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
    assert_elided_within_spans(&sys, &format!("{device} {kind} seed {seed}"));
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

/// The same contract on every device generation: the FR-FCFS event
/// floors (`rank_event_floors`, completed by `next_event_bound`) fold the
/// bank-group CAS floors and the LPDDR4/HBM timing extremes into the fast
/// path's skip bounds, so a single missed wake-up on
/// any profile would surface here as a stats or command-log diff. The
/// fence window and TP-NP's CAS-slot prediction also follow each
/// device's timing.
#[test]
fn fast_path_is_bit_identical_on_every_device_generation() {
    for device in DeviceGeneration::all() {
        for kind in [
            K::Baseline,
            K::FsRankPartitioned,
            K::FsBankPartitioned,
            K::FsReorderedBankPartitioned,
            K::TpBankPartitioned { turn: 60 },
            K::TpNoPartition { turn: 172 },
            K::TpFence { period: 300 },
            K::FsMultiChannel { channels: 2 },
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
                assert_elided_within_spans(&fast, &format!("{device} {kind}"));
            }
        }
    }
}

/// A profile taken while another tenant leaves mid-run and later
/// rejoins: the detached core is bulk-charged as stalled inside skipped
/// spans while the profiled core computes through them.
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
        assert_elided_within_spans(&fast, &format!("{kind}"));
        let counts = fast.core_counters();
        assert!(counts.computed > 0, "{kind}: no compute span taken: {counts:?}");
        assert!(counts.stalled > 0, "{kind}: nothing bulk-charged as stalled: {counts:?}");
    }
}

/// `FSMC_NO_FASTPATH=1` is the escape hatch; armed faults keep every
/// fast-path tier on, and every faulted run still equals per-cycle
/// stepping with most cycles in skipped spans.
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
    let plan = FaultPlan::parse_spec(9, "delay(50,5,1)+stretch-refresh(2)").expect("valid spec");
    plan.arm(&mut sys);
    assert!(sys.fastpath_enabled(), "armed faults keep the fast path");

    // A faulted job stays deterministic.
    let plan = FaultPlan::parse_spec(9, "delay(50,5,1)").expect("valid spec");
    let job = ExperimentJob::new(mix.clone(), K::FsRankPartitioned, 6_000, 3).with_faults(plan);
    let a = job.run();
    let b = job.run();
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "faulted runs must be reproducible");

    // No fault switches off a tier: configuration-only faults act
    // before the build, controller faults keep the `next_event` bound.
    for spec in ["shared-arbiter()", "perturb(twtr,1)", "delay(50,5,1)"] {
        let plan = FaultPlan::parse_spec(9, spec).expect("valid spec");
        let mut cfg = SystemConfig::paper_default(K::FsRankPartitioned);
        plan.configure(&mut cfg);
        let (mut fast, mut slow) =
            (System::from_mix(&cfg, &mix, 3), System::from_mix(&cfg, &mix, 3));
        slow.disable_fastpath();
        for sys in [&mut fast, &mut slow] {
            plan.arm(sys);
            sys.observe(0);
        }
        assert!(fast.fastpath_enabled(), "{spec}: controller-side tiers");
        let (sf, ss) = (fast.try_run_cycles(6_000), slow.try_run_cycles(6_000));
        assert_eq!(format!("{sf:?}"), format!("{ss:?}"), "{spec}: stats diverge");
        assert_eq!(fast.take_observations(), slow.take_observations(), "{spec}: observations");
        assert_elided_within_spans(&fast, spec);
        let counts = fast.core_counters();
        assert!(counts.computed > 0, "{spec}: no core carried as computing: {counts:?}");
        let skipped = fast.fastpath_counters().0;
        assert!(skipped * 2 > 6_000, "{spec}: spans cover only {skipped} of 6000 cycles");
    }
}

/// Faults that end a health-checked leak-harness run inside what would
/// be a skipped span: the span stops right after the poisoning or
/// breaching tick (the watchdog already bounds it), so the run ends
/// with the same error at the same cycle as per-cycle stepping, with
/// the monitor off and on. The cycle each run ends at is pinned: a
/// stretched refresh poisons FS-BP, dropped reads wake the watchdog,
/// and delayed commands breach the monitor's cadence check while the
/// controller alone only degrades.
#[test]
fn faults_end_runs_at_the_per_cycle_cycle() {
    let cases = [
        ("stretch-refresh(40)", K::FsBankPartitioned, [12_482, 12_482]),
        ("drop(3,0)", K::FsRankPartitioned, [21_882, 21_882]),
        ("delay(50,5,1)", K::FsRankPartitioned, [25_000, 349]),
        ("delay(20,7,0)", K::FsRankPartitioned, [25_000, 1_298]),
    ];
    for (spec, kind, ends) in cases {
        for (monitor, end) in [false, true].into_iter().zip(ends) {
            let plan = FaultPlan::parse_spec(9, spec).expect("valid spec");
            let mut cfg = SystemConfig::paper_default(kind);
            cfg.monitor = monitor;
            plan.configure(&mut cfg);
            let build = || {
                let (sender, _) = Protocol::Intensity.build(&default_secret());
                let mut sys = covert_system(&cfg, sender).expect("a feasible configuration");
                plan.arm(&mut sys);
                sys
            };
            let (mut fast, mut slow) = (build(), build());
            slow.disable_fastpath();
            let (rf, rs) = (fast.try_run_cycles(25_000), slow.try_run_cycles(25_000));
            let what = format!("{spec} on {kind}, monitor {monitor}");
            assert_eq!(format!("{rf:?}"), format!("{rs:?}"), "{what}: results diverge");
            assert_eq!(slow.dram_cycle(), end, "{what}: per-cycle run ended elsewhere");
            assert_eq!(rs.is_ok(), end == 25_000, "{what}: {rs:?}");
            assert_eq!(fast.dram_cycle(), end, "{what}: ended at another cycle");
            assert_eq!(format!("{:?}", fast.stats()), format!("{:?}", slow.stats()), "{what}");
            assert!(fast.fastpath_counters().0 > 0, "{what}: no span was skipped");
        }
    }
}

/// The leak harness's shape: a probe, a sender and six idle cores under
/// FS-RP with the fault plan `spec`, on one system stepped per cycle and
/// one on the fast path. Returns the fast system once every 2,500-cycle
/// window's observations and core statistics have matched.
fn leak_windows_match(spec: &str) -> System {
    let plan = FaultPlan::parse_spec(3, spec).expect("valid spec");
    let build = || {
        let mut cfg = SystemConfig::paper_default(K::FsRankPartitioned);
        plan.configure(&mut cfg);
        let (sender, _) = Protocol::Intensity.build(&default_secret());
        let mut sys = covert_system(&cfg, sender).expect("a feasible configuration");
        plan.arm(&mut sys);
        sys
    };
    let (mut fast, mut slow) = (build(), build());
    slow.disable_fastpath();
    for window in 0..8 {
        fast.run_cycles(2_500);
        slow.run_cycles(2_500);
        let obs = fast.take_observations();
        assert!(!obs.is_empty(), "{spec} window {window}: the probe saw nothing");
        assert_eq!(obs, slow.take_observations(), "{spec} window {window}: observations");
        for core in 0..8 {
            assert_eq!(
                fast.core_stats(core),
                slow.core_stats(core),
                "{spec} window {window}: core {core} statistics"
            );
        }
    }
    assert_eq!(format!("{:?}", fast.stats()), format!("{:?}", slow.stats()), "{spec}: stats");
    assert_elided_within_spans(&fast, spec);
    fast
}

/// At least three quarters of a leak harness run's cycles lie in
/// skipped spans: the refused probe rides them, and so do the parked
/// idle cores.
fn assert_spans_cover_most_cycles(sys: &System, spec: &str) {
    let (skipped, cycles) = (sys.fastpath_counters().0, sys.dram_cycle());
    assert!(skipped * 4 >= cycles * 3, "{spec}: spans cover only {skipped} of {cycles} cycles");
}

/// With delayed commands armed the controller-side tiers stay on: the
/// idle cores stay parked in compute spans, and the probe, refused by
/// its full queue, rides the spans across every tick that keeps the
/// queue full.
#[test]
fn faulted_leak_windows_match_per_cycle_stepping() {
    let fast = leak_windows_match("delay(64,2,16)");
    assert!(fast.fastpath_enabled(), "a delay fault keeps the controller-side tiers");
    assert_spans_cover_most_cycles(&fast, "delay(64,2,16)");
    let counts = fast.core_counters();
    assert!(counts.computed > counts.stepped, "idle cores should compute in spans: {counts:?}");
    assert!(counts.rejected > 0, "the probe's refused offers should be carried: {counts:?}");
}

/// The clean twin: the refused probe rides skipped spans across every
/// tick that keeps its queue full, and so do the six idle cores, parked
/// in compute spans.
#[test]
fn clean_leak_windows_match_per_cycle_stepping() {
    let fast = leak_windows_match("perturb(twtr,1)");
    assert!(fast.fastpath_enabled(), "a configuration-only fault keeps the whole fast path");
    let counts = fast.core_counters();
    assert!(counts.rejected > counts.stepped, "refusals should be carried: {counts:?}");
    assert!(fast.fastpath_counters().0 > 0, "no span was skipped");
    assert_spans_cover_most_cycles(&fast, "perturb(twtr,1)");
    let idle = 6 * fast.config().timing.cpu_ratio as u64 * fast.dram_cycle();
    assert!(counts.computed * 100 >= idle * 99, "idle cores should compute in spans: {counts:?}");
}

/// Clean runs with the command tap off, so FS `fast_forward` hops the
/// spans: two benchmark cores and six idle ones on a CPU:DRAM ratio of 4
/// (DDR3-1600) and 3 (HBM2). The idle cores park once and stay parked
/// across the skipped spans; a profile unparks the profiled core every
/// iteration. Results and bucket boundaries equal per-cycle stepping.
#[test]
fn parked_cores_ride_skipped_spans_bit_identically() {
    for device in [DeviceGeneration::Ddr3_1600, DeviceGeneration::Hbm2] {
        for kind in [
            K::Baseline,
            K::FsRankPartitioned,
            K::FsReorderedBankPartitioned,
            K::TpBankPartitioned { turn: 60 },
            K::TpFence { period: 300 },
        ] {
            let cfg = SystemConfig::for_device(device, kind, 8);
            let build = |fast: bool| {
                let busy = [BenchProfile::xalancbmk(), BenchProfile::mcf()];
                let mut traces: Vec<Box<dyn TraceSource>> = busy
                    .into_iter()
                    .zip(4..)
                    .map(|(p, seed)| Box::new(SyntheticTrace::new(p, seed)) as Box<dyn TraceSource>)
                    .collect();
                traces.extend((2..cfg.cores).map(|_| Box::new(IdleTrace) as Box<dyn TraceSource>));
                let mut sys = System::new(&cfg, traces);
                if !fast {
                    sys.disable_fastpath();
                }
                sys
            };
            let (mut fast, mut slow) = (build(true), build(false));
            let (sf, ss) = (fast.run_cycles(20_000), slow.run_cycles(20_000));
            assert_eq!(format!("{sf:?}"), format!("{ss:?}"), "{device} {kind}: stats diverge");
            assert!(fast.fastpath_counters().0 > 0, "{device} {kind}: no span was skipped");
            assert_elided_within_spans(&fast, &format!("{device} {kind}"));
            let counts = fast.core_counters();
            let idle = 6 * cfg.timing.cpu_ratio as u64 * 20_000;
            assert!(counts.computed >= idle * 99 / 100, "{device} {kind}: idle cores {counts:?}");

            let (mut fast, mut slow) = (build(true), build(false));
            let (pf, ps) = (fast.run_profile(0, 2_000, 16), slow.run_profile(0, 2_000, 16));
            assert_eq!(pf, ps, "{device} {kind}: profiles diverge");
            assert_eq!(
                format!("{:?}", fast.stats()),
                format!("{:?}", slow.stats()),
                "{device} {kind}"
            );
            assert_elided_within_spans(&fast, &format!("{device} {kind} profile"));
        }
    }
}

/// Eight streaming cores on the prefetching FR-FCFS baseline: queues
/// stay full, so refused cores are carried, and a prefetch fill can turn
/// a refused read into a buffer hit, which must wake the core (each of
/// these runs diverges from per-cycle stepping without that wake-up).
#[test]
fn refused_cores_wake_on_prefetch_fills() {
    for (device, profile, seed) in [
        (DeviceGeneration::Ddr3_1600, BenchProfile::lbm(), 3),
        (DeviceGeneration::Ddr3_1600, BenchProfile::libquantum(), 3),
        (DeviceGeneration::Hbm2, BenchProfile::lbm(), 5),
    ] {
        let cfg = SystemConfig::for_device(device, K::BaselinePrefetch, 8);
        let mix = WorkloadMix::rate(profile, 8);
        let (mut fast, mut slow) =
            (System::from_mix(&cfg, &mix, seed), System::from_mix(&cfg, &mix, seed));
        slow.disable_fastpath();
        let (sf, ss) = (fast.run_cycles(20_000), slow.run_cycles(20_000));
        let name = profile.name;
        assert_eq!(format!("{sf:?}"), format!("{ss:?}"), "{device} {name}: stats diverge");
        assert_elided_within_spans(&fast, &format!("{device} {name}"));
        let counts = fast.core_counters();
        assert!(counts.rejected > 0, "{device} {name}: no refusal was carried: {counts:?}");
    }
}

/// An execution profile of the refused core itself: core 0 streams
/// posted writes into a full queue while the others idle. Its writes
/// retire while it is refused, so the profiled core still vetoes a span
/// (no compute floor bounds its retirements; each of these profiles
/// diverges without that veto), but is carried across each cycle after
/// its tick.
#[test]
fn profile_of_a_refused_core_matches_per_cycle_stepping() {
    for kind in [K::FsRankPartitioned, K::Baseline] {
        let build = || {
            let cfg = SystemConfig::paper_default(kind);
            let writes = (0..64).map(|a| TraceOp::with_mem(3, MemOp::write(a * 97))).collect();
            let mut traces: Vec<Box<dyn TraceSource>> = vec![Box::new(VecTrace::new(writes))];
            traces.extend((1..cfg.cores).map(|_| Box::new(IdleTrace) as Box<dyn TraceSource>));
            System::new(&cfg, traces)
        };
        let (mut fast, mut slow) = (build(), build());
        slow.disable_fastpath();
        let (pf, ps) = (fast.run_profile(0, 20, 24), slow.run_profile(0, 20, 24));
        assert_eq!(pf, ps, "{kind}: profiles diverge");
        assert_eq!(format!("{:?}", fast.stats()), format!("{:?}", slow.stats()), "{kind}: stats");
        assert_elided_within_spans(&fast, &format!("{kind}"));
        let counts = fast.core_counters();
        assert!(counts.rejected > 0, "{kind}: the writer was never carried: {counts:?}");
    }
}

/// The tentpole guarantee: the parallel experiment engine produces
/// byte-identical rendered tables and CSVs at any worker count.
#[test]
fn suite_output_is_byte_identical_across_thread_counts() {
    let mixes = [WorkloadMix::mix1(), WorkloadMix::mix2()];
    let kinds = [K::FsRankPartitioned, K::TpBankPartitioned { turn: 60 }];
    let suite = |threads| {
        let (engine, device) = (Engine::with_threads(threads), DeviceGeneration::Ddr3_1600);
        weighted_ipc_suite_with(&engine, device, &mixes, &kinds, 4_000, 11, &[])
    };
    let (t1, t8) = (suite(1), suite(8));
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
        assert_elided_within_spans(&fast, &format!("{kind}"));
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
        assert_elided_within_spans(&fast, &format!("{kind}"));
    }
}
