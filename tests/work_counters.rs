//! Exact work counters of small fixed seed-42 runs, pinned.
//!
//! Every wall-clock claim about the simulator rests on counters that do
//! not vary between runs: how the cores' CPU sub-cycles were simulated
//! ([`CoreCounters`]), how many DRAM cycles lay in skipped spans and how
//! many controller ticks inside them were elided
//! ([`System::fastpath_counters`]), the commands the device issued and
//! the demand reads that completed. A change that claims to leave the
//! simulator's work alone proves it by leaving this file untouched; a
//! change whose point is to alter that work updates the pins and states
//! old → new.

use fsmc::core::sched::SchedulerKind as K;
use fsmc::dram::DeviceGeneration;
use fsmc::leak::{default_secret, generate_leak_population, LeakCampaignConfig, Protocol};
use fsmc::security::covert_system;
use fsmc::sim::{CoreCounters, FaultPlan, System, SystemConfig};
use fsmc::workload::WorkloadMix;

/// The pinned work of one run.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    cores: CoreCounters,
    skipped: u64,
    elided: u64,
    commands: u64,
    reads: u64,
    end: u64,
}

/// Reads the pins off a system whose run has returned.
fn work(sys: &mut System) -> Work {
    let stats = sys.stats();
    let (skipped, elided) = sys.fastpath_counters();
    let commands = sys
        .controller()
        .aggregate_counters()
        .ranks()
        .iter()
        .map(|r| r.activates + r.reads + r.writes + r.precharges + r.refreshes + r.suppressed)
        .sum();
    Work {
        cores: sys.core_counters(),
        skipped,
        elided,
        commands,
        reads: stats.reads_completed,
        end: sys.dram_cycle(),
    }
}

fn pinned(
    [stepped, computed, stalled, rejected]: [u64; 4],
    [skipped, elided, commands, reads, end]: [u64; 5],
) -> Work {
    Work {
        cores: CoreCounters { stepped, computed, stalled, rejected },
        skipped,
        elided,
        commands,
        reads,
        end,
    }
}

fn mix2(device: DeviceGeneration, kind: K) -> System {
    System::from_mix(&SystemConfig::for_device(device, kind, 8), &WorkloadMix::mix2(), 42)
}

/// Baseline, FS-RP and TP-BP on two device generations through
/// `run_cycles`: the skipped spans, parked cores and refused riders of
/// each controller family.
#[test]
fn run_cycles_work_is_pinned() {
    use DeviceGeneration::{Ddr3_1600, Hbm2};
    let cases = [
        (
            Ddr3_1600,
            K::Baseline,
            pinned([26_772, 264_272, 668_956, 0], [21_633, 10_540, 9_097, 4_181, 30_000]),
        ),
        (
            Ddr3_1600,
            K::FsRankPartitioned,
            pinned([18_660, 313_728, 627_612, 0], [24_367, 2_702, 8_265, 2_656, 30_000]),
        ),
        (
            Ddr3_1600,
            K::TpBankPartitioned { turn: 60 },
            pinned([8_832, 102_340, 848_828, 0], [27_095, 1_662, 2_861, 1_326, 30_000]),
        ),
        (
            Hbm2,
            K::Baseline,
            pinned([28_758, 337_044, 354_198, 0], [18_748, 6_685, 13_206, 5_809, 30_000]),
        ),
        (
            Hbm2,
            K::FsRankPartitioned,
            pinned([14_022, 259_728, 446_250, 0], [24_311, 408, 13_821, 2_659, 30_000]),
        ),
        (
            Hbm2,
            K::TpBankPartitioned { turn: 60 },
            pinned([5_268, 84_084, 630_648, 0], [27_713, 1_147, 2_341, 1_023, 30_000]),
        ),
    ];
    for (device, kind, want) in cases {
        let mut sys = mix2(device, kind);
        sys.run_cycles(30_000);
        assert_eq!(work(&mut sys), want, "{device} {kind}");
    }
}

/// The other entry points: a health-checked run with the invariant
/// monitor armed, a run to a read count, and an execution profile.
#[test]
fn health_checked_read_count_and_profile_work_is_pinned() {
    let mut cfg = SystemConfig::paper_default(K::FsRankPartitioned);
    cfg.monitor = true;
    let mut sys = System::from_mix(&cfg, &WorkloadMix::mix2(), 42);
    sys.try_run_cycles(20_000).expect("a clean run is healthy");
    assert_eq!(
        work(&mut sys),
        pinned([12_288, 208_160, 419_552, 0], [16_273, 7_641, 5_484, 1_745, 20_000]),
        "try_run_cycles"
    );

    let mut sys = mix2(DeviceGeneration::Ddr3_1600, K::TpBankPartitioned { turn: 60 });
    sys.run_reads(1_000);
    assert_eq!(
        work(&mut sys),
        pinned([6_708, 79_188, 637_368, 0], [20_396, 1_437, 2_147, 1_000, 22_602]),
        "run_reads"
    );

    let mut sys = mix2(DeviceGeneration::Hbm2, K::FsRankPartitioned);
    let profile = sys.run_profile(0, 1_000, 20);
    assert_eq!(profile.last(), Some(&57_150), "run_profile: last bucket boundary");
    assert_eq!(
        work(&mut sys),
        pinned([8_934, 166_545, 281_721, 0], [15_438, 275, 8_849, 1_684, 19_050]),
        "run_profile"
    );
}

/// A faulted leak case (a probe refused by its full queue, a sender and
/// six idle cores), and a faulted health-checked run that ends in an
/// error at a pinned cycle.
#[test]
fn faulted_work_is_pinned() {
    let campaign = LeakCampaignConfig::new(42);
    let plan = generate_leak_population(&campaign)
        .into_iter()
        .find(|p| p.spec() == "perturb(twtr,1)")
        .expect("the seed-42 leak population holds a lone perturbation");
    let mut cfg = SystemConfig::for_device(campaign.device, campaign.scheduler, 8);
    plan.configure(&mut cfg);
    let (sender, _) = Protocol::Intensity.build(&default_secret());
    let mut sys = covert_system(&cfg, sender).expect("a feasible configuration");
    plan.arm(&mut sys);
    sys.run_cycles(20_000);
    assert_eq!(
        work(&mut sys),
        pinned([5_492, 479_980, 77_264, 77_264], [18_296, 8_590, 5_482, 679, 20_000]),
        "leak case"
    );

    let plan = FaultPlan::parse_spec(9, "stretch-refresh(40)").expect("valid spec");
    let mut cfg = SystemConfig::paper_default(K::FsBankPartitioned);
    plan.configure(&mut cfg);
    let (sender, _) = Protocol::Intensity.build(&default_secret());
    let mut sys = covert_system(&cfg, sender).expect("a feasible configuration");
    plan.arm(&mut sys);
    assert!(sys.try_run_cycles(25_000).is_err(), "a stretched refresh poisons FS-BP");
    assert_eq!(
        work(&mut sys),
        pinned([880, 299_548, 49_496, 49_500], [12_219, 10_351, 830, 103, 12_482]),
        "poisoned run"
    );
}
