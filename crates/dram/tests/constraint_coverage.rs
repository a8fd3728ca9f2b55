//! One deliberately-early (or state-illegal) command per `TimingChecker`
//! constraint: every rule's *violation* path has an executable witness, not
//! just its legal-stream path.
//!
//! Each witness stream is checked twice — once through the batch
//! [`TimingChecker`] and once through the online [`StreamMonitor`] — so the
//! two implementations are pinned to agree on every individual rule.

use fsmc_dram::command::{Command, TimedCommand};
use fsmc_dram::geometry::{BankId, ColId, RankId, RowId};
use fsmc_dram::{
    Cycle, DeviceGeneration, Geometry, StreamMonitor, TimingChecker, TimingParams, Violation,
};

fn tc(cmd: Command, cycle: Cycle) -> TimedCommand {
    TimedCommand::new(cmd, cycle)
}

fn act(r: u8, b: u8, row: u32, c: Cycle) -> TimedCommand {
    tc(Command::activate(RankId(r), BankId(b), RowId(row)), c)
}

fn rda(r: u8, b: u8, row: u32, c: Cycle) -> TimedCommand {
    tc(Command::read_ap(RankId(r), BankId(b), RowId(row), ColId(0)), c)
}

fn rd(r: u8, b: u8, row: u32, c: Cycle) -> TimedCommand {
    tc(Command::read(RankId(r), BankId(b), RowId(row), ColId(0)), c)
}

fn wra(r: u8, b: u8, row: u32, c: Cycle) -> TimedCommand {
    tc(Command::write_ap(RankId(r), BankId(b), RowId(row), ColId(0)), c)
}

fn wr(r: u8, b: u8, row: u32, c: Cycle) -> TimedCommand {
    tc(Command::write(RankId(r), BankId(b), RowId(row), ColId(0)), c)
}

fn pre(r: u8, b: u8, c: Cycle) -> TimedCommand {
    tc(Command::precharge(RankId(r), BankId(b)), c)
}

fn refresh(r: u8, c: Cycle) -> TimedCommand {
    tc(Command::refresh(RankId(r)), c)
}

fn pde(r: u8, c: Cycle) -> TimedCommand {
    tc(Command::power_down(RankId(r)), c)
}

fn pdx(r: u8, c: Cycle) -> TimedCommand {
    tc(Command::power_up(RankId(r)), c)
}

/// (constraint name, minimal stream whose check() must flag it).
///
/// The name list mirrors every `&'static str` constraint in
/// `monitor.rs` — if a rule is added there without a witness here, the
/// completeness assertion in `all_constraints_have_a_witness` fails.
fn witnesses() -> Vec<(&'static str, Vec<TimedCommand>)> {
    vec![
        ("command-bus collision", vec![act(0, 0, 1, 10), act(1, 0, 1, 10)]),
        // CAS 2 apart: bursts (23..27) and (25..29) collide on the data bus.
        (
            "data-bus overlap",
            vec![act(0, 0, 5, 0), act(1, 0, 5, 1), rda(0, 0, 5, 12), rda(1, 0, 5, 14)],
        ),
        // CAS 4 apart: contiguous bursts, but the rank switch needs tRTRS=2.
        (
            "tRTRS rank-to-rank data gap",
            vec![act(0, 0, 5, 0), act(1, 0, 5, 1), rda(0, 0, 5, 12), rda(1, 0, 5, 16)],
        ),
        // RDA@11 precharges at max(11+tRTP, tRAS)=28; next ACT legal at 39.
        ("tRP", vec![act(0, 0, 5, 0), rda(0, 0, 5, 11), act(0, 0, 6, 38)]),
        // tRC = tRAS + tRP = 39 binds at exactly the same cycle.
        ("tRC", vec![act(0, 0, 5, 0), rda(0, 0, 5, 11), act(0, 0, 6, 38)]),
        ("tRCD", vec![act(0, 0, 5, 0), rda(0, 0, 5, 10)]),
        ("activate while a row is open", vec![act(0, 0, 1, 0), act(0, 0, 2, 50)]),
        ("CAS on a closed bank", vec![rda(0, 0, 5, 10)]),
        ("CAS to a row that is not open", vec![act(0, 0, 5, 0), rda(0, 0, 6, 11)]),
        ("tRAS", vec![act(0, 0, 5, 0), pre(0, 0, 27)]),
        ("tRTP", vec![act(0, 0, 5, 0), rd(0, 0, 5, 11), pre(0, 0, 16)]),
        // Write recovery: PRE legal at 11 + tCWD + tBURST + tWR = 32.
        ("write recovery (tWR)", vec![act(0, 0, 5, 0), wr(0, 0, 5, 11), pre(0, 0, 31)]),
        // Implicit precharge of the RDA completes at 28; REF legal at 39.
        ("tRP before REF", vec![act(0, 0, 5, 0), rda(0, 0, 5, 11), refresh(0, 38)]),
        ("refresh with a row open", vec![act(0, 0, 5, 0), refresh(0, 40)]),
        ("tRRD", vec![act(0, 0, 1, 0), act(0, 1, 1, 4)]),
        // Five activates 5 apart satisfy tRRD but break the tFAW=24 window.
        (
            "tFAW",
            vec![
                act(0, 0, 1, 0),
                act(0, 1, 1, 5),
                act(0, 2, 1, 10),
                act(0, 3, 1, 15),
                act(0, 4, 1, 20),
            ],
        ),
        ("tCCD", vec![act(0, 0, 5, 0), act(0, 1, 5, 5), rda(0, 0, 5, 16), rda(0, 1, 5, 19)]),
        (
            "read-to-write turnaround",
            vec![act(0, 0, 5, 0), act(0, 1, 5, 5), rd(0, 0, 5, 16), wra(0, 1, 5, 25)],
        ),
        (
            "tWTR write-to-read",
            vec![act(0, 0, 5, 0), act(0, 1, 5, 5), wra(0, 0, 5, 11), rda(0, 1, 5, 25)],
        ),
        ("tRFC", vec![refresh(0, 0), refresh(0, 207)]),
        ("command during tRFC", vec![refresh(0, 0), act(0, 0, 1, 100)]),
        ("already powered down", vec![pde(0, 0), pde(0, 5)]),
        ("power-up of an active rank", vec![pdx(0, 5)]),
        ("command to a powered-down rank", vec![pde(0, 0), act(0, 0, 1, 5)]),
        ("tXP power-down exit", vec![pde(0, 0), pdx(0, 10), act(0, 0, 1, 15)]),
    ]
}

#[test]
fn every_constraint_violation_path_is_exercised() {
    let geom = Geometry::paper_default();
    let t = TimingParams::ddr3_1600();
    let checker = TimingChecker::new(geom, t);
    for (name, stream) in witnesses() {
        let vs = checker.check(&stream);
        assert!(
            vs.iter().any(|v| v.constraint == name),
            "checker missed {name:?}: got {vs:?} for {stream:?}"
        );
        // The online monitor must flag the same rule on the same stream.
        let mut mon = StreamMonitor::new(geom, t);
        let online: Vec<_> = stream.iter().flat_map(|c| mon.observe(c)).collect();
        assert!(
            online.iter().any(|v| v.constraint == name),
            "monitor missed {name:?}: got {online:?} for {stream:?}"
        );
    }
}

#[test]
fn all_constraints_have_a_witness() {
    // Every constraint string the rule engine can emit.
    let expected = [
        "command-bus collision",
        "data-bus overlap",
        "tRTRS rank-to-rank data gap",
        "activate while a row is open",
        "tRP",
        "tRC",
        "CAS on a closed bank",
        "CAS to a row that is not open",
        "tRCD",
        "tRAS",
        "tRTP",
        "write recovery (tWR)",
        "refresh with a row open",
        "tRP before REF",
        "tRRD",
        "tFAW",
        "tCCD",
        "read-to-write turnaround",
        "tWTR write-to-read",
        "tRFC",
        "already powered down",
        "power-up of an active rank",
        "command during tRFC",
        "command to a powered-down rank",
        "tXP power-down exit",
    ];
    let have: Vec<&str> = witnesses().iter().map(|(n, _)| *n).collect();
    for name in expected {
        assert!(have.contains(&name), "no violation witness for {name:?}");
    }
    assert_eq!(have.len(), expected.len(), "stale witness entries");
}

/// A command addressed outside the geometry (rank `ranks_per_channel`,
/// or bank `banks_per_rank`) is one typed violation per command from
/// both the batch checker and the online monitor: never a panic, and
/// never a phantom bank tracked as legal. The stream is otherwise legal.
#[test]
fn out_of_geometry_commands_are_typed_violations() {
    for gen in [DeviceGeneration::Ddr3_1600, DeviceGeneration::Ddr4_2400] {
        let p = gen.profile();
        let (t, geom) = (p.timing, p.geometry);
        for (r, b) in [(geom.ranks_per_channel(), 0), (0, geom.banks_per_rank())] {
            let stream = [act(r, b, 5, 0), rd(r, b, 5, t.t_rcd as Cycle), pre(r, b, 1000)];
            let expect: Vec<Violation> = stream
                .iter()
                .map(|c| Violation::state(c.cmd, c.cycle, "rank or bank outside the geometry"))
                .collect();
            let batch = TimingChecker::new(geom, t).check(&stream);
            assert_eq!(batch, expect, "{gen}: rank {r} bank {b} via check");
            let mut mon = StreamMonitor::new(geom, t);
            for (c, v) in stream.iter().zip(&expect) {
                assert_eq!(mon.observe(c), [*v], "{gen}: rank {r} bank {b} via observe");
            }
        }
    }
}

/// The bank-group rule needs per-generation witnesses: the witness table
/// above runs on the paper's flat DDR3 part, where `tCCD_L same bank
/// group` can never fire. On every grouped generation a same-group CAS
/// pair spaced at exactly tCCD_S — a gap the *cross*-group rule permits
/// — must be flagged by both the batch checker and the online monitor,
/// and the identically-spaced cross-group pair must stay legal. Flat
/// generations must never emit the constraint at all.
#[test]
fn same_group_cas_pair_is_flagged_on_every_grouped_generation() {
    for gen in DeviceGeneration::all() {
        let p = gen.profile();
        let (t, geom) = (p.timing, p.geometry);
        let groups = geom.bank_groups();
        // Group = bank % groups: bank 0 and bank `groups` share group 0,
        // bank 0 and bank 1 never do (on grouped parts).
        let cas0 = (t.t_rcd + t.t_rrd) as Cycle;
        let stream = |other: u8| {
            vec![
                act(0, 0, 5, 0),
                act(0, other, 5, t.t_rrd as Cycle),
                rda(0, 0, 5, cas0),
                rda(0, other, 5, cas0 + t.t_ccd as Cycle),
            ]
        };
        let check_both = |stream: &[TimedCommand]| {
            let batch = TimingChecker::new(geom, t).check(stream);
            let mut mon = StreamMonitor::new(geom, t);
            let online: Vec<_> = stream.iter().flat_map(|c| mon.observe(c)).collect();
            (batch, online)
        };
        if groups > 1 {
            let (batch, online) = check_both(&stream(groups));
            assert!(
                batch.iter().any(|v| v.constraint == "tCCD_L same bank group"),
                "{gen}: checker missed the same-group tCCD_S pair: {batch:?}"
            );
            assert!(
                online.iter().any(|v| v.constraint == "tCCD_L same bank group"),
                "{gen}: monitor missed the same-group tCCD_S pair: {online:?}"
            );
            let (batch, online) = check_both(&stream(1));
            assert!(batch.is_empty(), "{gen}: cross-group pair at tCCD_S is legal: {batch:?}");
            assert!(
                online.is_empty(),
                "{gen}: monitor flagged a legal cross-group pair: {online:?}"
            );
        } else {
            let (batch, online) = check_both(&stream(1));
            assert!(batch.is_empty(), "{gen}: flat part flagged a tCCD_S pair: {batch:?}");
            assert!(
                online.is_empty(),
                "{gen}: flat-part monitor flagged a tCCD_S pair: {online:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// Degraded-topology re-certification replay
// ---------------------------------------------------------------------
//
// The FS reconfiguration contract says masks change *which* banks slots
// may touch, never *when* slots fire. The property test below drives the
// real re-certifier (`FsScheduler::reconfigure` on random stuck-bank /
// dead-rank / thermal-refresh sets) and, for every topology it accepts,
// replays a worst-case command stream on the surviving silicon through
// the online `StreamMonitor`. The per-rule witnesses above pin the
// monitor's detection power for every Table-1 constraint, so a clean
// replay here means the accepted schedule genuinely satisfies them all.

use fsmc_core::sched::fs::{EnergyOptions, FsPipeline, FsScheduler};
use fsmc_core::sched::{MemoryController, ReconfigEvent, SchedulerKind};
use proptest::prelude::*;

/// Worst-case ACT/CAS stream for `schedule` on the masked topology:
/// four intervals of slots, alternating directions and rows, with each
/// slot's rank/bank drawn from the owning domain's *healthy* silicon
/// (mirroring `remap_unhealthy`). Slots whose domain has no healthy
/// silicon left — a dead rank under rank partitioning — decay to
/// bubbles, which can never add a violation.
fn degraded_stream(
    schedule: &fsmc_core::solver::SlotSchedule,
    geom: &Geometry,
    kind: SchedulerKind,
    stuck: &[(u8, u8)],
    dead: &[u8],
) -> Vec<TimedCommand> {
    let n = schedule.threads() as u64;
    let ranks = geom.ranks_per_channel();
    let banks = geom.banks_per_rank();
    let mut out = Vec::new();
    for i in 0..n * 4 {
        let p = schedule.plan(i);
        let owner = (i % n) as u8;
        let interval = i / n;
        let spot = match kind {
            SchedulerKind::FsRankPartitioned => {
                // Domain owns rank `owner`; banks rotate over the rank's
                // healthy banks so consecutive own-slots avoid stuck ones.
                let rank = owner % ranks;
                if dead.contains(&rank) {
                    None
                } else {
                    let healthy: Vec<u8> =
                        (0..banks).filter(|&b| !stuck.contains(&(rank, b))).collect();
                    (!healthy.is_empty())
                        .then(|| (rank, healthy[interval as usize % healthy.len()]))
                }
            }
            _ => {
                // Bank striping: the domain keeps its bank index and
                // remaps off dead/stuck ranks (worst case: everyone who
                // can piles onto the first healthy rank).
                let bank = owner % banks;
                (0..ranks)
                    .find(|&r| !dead.contains(&r) && !stuck.contains(&(r, bank)))
                    .map(|r| (r, bank))
            }
        };
        let Some((rank, bank)) = spot else { continue };
        let row = if interval.is_multiple_of(2) { 11 } else { 29 };
        if i % 2 == 0 {
            out.push(act(rank, bank, row, p.read_act));
            out.push(rda(rank, bank, row, p.read_cas));
        } else {
            out.push(act(rank, bank, row, p.write_act));
            out.push(wra(rank, bank, row, p.write_cas));
        }
    }
    out.sort_by_key(|c| c.cycle);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn accepted_degraded_solves_replay_cleanly_through_the_monitor(
        (stuck, dead, factor, domains, device_idx) in (
            proptest::collection::vec((0u8..8, 0u8..16), 0..3),
            proptest::collection::vec(0u8..8, 0..2),
            1u8..4,
            2u8..9,
            0usize..4,
        )
    ) {
        // Every generation's re-certifier gets replayed, not just the
        // paper's DDR3 part: fault sites are drawn over the widest
        // geometry and folded onto the profile's actual rank/bank count.
        let p = DeviceGeneration::all()[device_idx].profile();
        let (geom, t) = (p.geometry, p.timing);
        let ranks = geom.ranks_per_channel();
        let banks = geom.banks_per_rank();
        let stuck: Vec<(u8, u8)> =
            stuck.iter().map(|&(r, b)| (r % ranks, b % banks)).collect();
        let dead: Vec<u8> = dead.iter().map(|&r| r % ranks).collect();
        let mut events: Vec<ReconfigEvent> = stuck
            .iter()
            .map(|&(rank, bank)| ReconfigEvent::StuckBank { rank, bank })
            .collect();
        events.extend(dead.iter().map(|&rank| ReconfigEvent::DeadRank { rank }));
        if factor > 1 {
            events.push(ReconfigEvent::ThermalRefresh { factor });
        }
        if events.is_empty() {
            return;
        }
        for kind in [SchedulerKind::FsRankPartitioned, SchedulerKind::FsBankPartitioned] {
            let weights = vec![1; domains as usize];
            let mut fs = FsScheduler::try_new(geom, t, &weights, kind, EnergyOptions::default())
                .expect("every profile's undegraded topology must solve");
            if fs.reconfigure(&events, 0).is_err() {
                // The re-certifier rejected this topology: nothing to replay.
                continue;
            }
            prop_assert!(fs.epoch() >= 1, "accepted reconfiguration must advance the epoch");
            let FsPipeline::Slots(s) = fs.pipeline() else { continue };
            let stream = degraded_stream(s, &geom, kind, &stuck, &dead);
            let mut mon = StreamMonitor::new(geom, t);
            let vs: Vec<_> = stream.iter().flat_map(|c| mon.observe(c)).collect();
            prop_assert!(
                vs.is_empty(),
                "accepted degraded solve ({} {kind:?}, stuck {stuck:?}, dead {dead:?}) \
                 violated Table-1: {vs:?}",
                p.generation
            );
        }
    }
}

/// Each witness becomes legal when its offending command is moved to the
/// first legal cycle the violation reports — the `earliest` hint is not
/// just documentation.
#[test]
fn earliest_hints_are_actionable() {
    let geom = Geometry::paper_default();
    let t = TimingParams::ddr3_1600();
    let checker = TimingChecker::new(geom, t);
    for (name, stream) in witnesses() {
        let vs = checker.check(&stream);
        let Some(v) = vs.iter().find(|v| v.constraint == name) else { continue };
        let Some(earliest) = v.earliest else { continue };
        let fixed: Vec<TimedCommand> = stream
            .iter()
            .map(|c| {
                if c.cmd == v.cmd && c.cycle == v.cycle {
                    TimedCommand::new(c.cmd, earliest)
                } else {
                    *c
                }
            })
            .collect();
        let still: Vec<_> =
            checker.check(&fixed).iter().filter(|w| w.constraint == name).cloned().collect();
        assert!(still.is_empty(), "{name:?}: still flagged after moving to earliest: {still:?}");
    }
}

/// Every timing-bound witness reports a `Some(earliest)` hint, online and
/// in replay alike, so `earliest_hints_are_actionable` can skip none of
/// them. State rules (bus overlap, row and power state) have no such
/// cycle and are exempt.
#[test]
fn timing_bound_violations_carry_an_earliest_hint() {
    const STATE_RULES: [&str; 9] = [
        "command-bus collision",
        "data-bus overlap",
        "activate while a row is open",
        "CAS on a closed bank",
        "CAS to a row that is not open",
        "refresh with a row open",
        "already powered down",
        "power-up of an active rank",
        "command to a powered-down rank",
    ];
    let geom = Geometry::paper_default();
    let t = TimingParams::ddr3_1600();
    let checker = TimingChecker::new(geom, t);
    for (name, stream) in witnesses() {
        if STATE_RULES.contains(&name) {
            continue;
        }
        let mut mon = StreamMonitor::new(geom, t);
        let online: Vec<_> = stream.iter().flat_map(|c| mon.observe(c)).collect();
        for (path, vs) in [("observe", online), ("check", checker.check(&stream))] {
            let v = vs.iter().find(|v| v.constraint == name).expect("witness fires");
            assert!(v.earliest.is_some(), "{name:?} via {path} has no earliest hint: {v:?}");
        }
    }
}
