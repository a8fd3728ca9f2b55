//! Property tests for the FS scheduler as a whole: legality and exact
//! non-interference under adversarial (randomised) traffic.

use fsmc_core::domain::DomainId;
use fsmc_core::sched::fs::{EnergyOptions, FsScheduler};
use fsmc_core::sched::{MemoryController, SchedulerKind as K};
use fsmc_core::txn::{Transaction, TxnId};
use fsmc_dram::geometry::{Geometry, LineAddr};
use fsmc_dram::{Cycle, TimingChecker, TimingParams};
use proptest::prelude::*;

/// One randomly timed enqueue: (domain, local line, is_write, gap before).
#[derive(Debug, Clone, Copy)]
struct Arrival {
    domain: u8,
    local: u64,
    is_write: bool,
    gap: u8,
}

fn arrival() -> impl Strategy<Value = Arrival> {
    (0u8..8, 0u64..100_000, any::<bool>(), 0u8..40)
        .prop_map(|(domain, local, is_write, gap)| Arrival { domain, local, is_write, gap })
}

fn mk(kind: K) -> FsScheduler {
    let (geom, t) = (Geometry::paper_default(), TimingParams::ddr3_1600());
    FsScheduler::try_new(geom, t, &[1; 8], kind, EnergyOptions::default()).unwrap()
}

fn drive(mc: &mut FsScheduler, arrivals: &[Arrival], cycles: u64) -> Vec<(u64, Cycle)> {
    let geom = Geometry::paper_default();
    let policy = mc.kind().partition_policy();
    let mut completions = Vec::new();
    let mut next = 0usize;
    let mut next_at: Cycle = arrivals.first().map(|a| a.gap as Cycle).unwrap_or(u64::MAX);
    let mut id = 0u64;
    for c in 0..cycles {
        while next < arrivals.len() && next_at <= c {
            let a = arrivals[next];
            if mc.can_accept(DomainId(a.domain)) {
                let loc = policy.map(&geom, DomainId(a.domain), LineAddr(a.local));
                let txn = if a.is_write {
                    Transaction::write(TxnId(id), DomainId(a.domain), loc, c)
                } else {
                    Transaction::read(TxnId(id), DomainId(a.domain), loc, c)
                };
                id += 1;
                let _ = mc.enqueue(txn);
            }
            next += 1;
            next_at =
                c.saturating_add(arrivals.get(next).map(|a| a.gap as Cycle).unwrap_or(u64::MAX));
        }
        for comp in mc.tick(c) {
            completions.push((comp.txn.id.0, comp.finish));
        }
    }
    completions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any arrival pattern, every variant: the command stream is legal.
    #[test]
    fn fs_streams_are_always_legal(
        arrivals in prop::collection::vec(arrival(), 0..120),
        variant_sel in 0usize..5,
    ) {
        let variant = [
            K::FsRankPartitioned,
            K::FsBankPartitioned,
            K::FsReorderedBankPartitioned,
            K::FsNoPartitionNaive,
            K::FsTripleAlternation,
        ][variant_sel];
        let mut mc = mk(variant);
        mc.record_commands();
        drive(&mut mc, &arrivals, 6_000);
        let checker = TimingChecker::new(Geometry::paper_default(), TimingParams::ddr3_1600());
        let v = checker.check(&mc.take_command_log());
        prop_assert!(v.is_empty(), "{variant:?}: first violation: {}", v[0]);
    }

    /// Exact non-interference: domain 0's completions are identical for
    /// *any two* behaviours of the other domains.
    #[test]
    fn fs_domain0_service_is_corunner_invariant(
        victim in prop::collection::vec((0u64..10_000, any::<bool>(), 1u8..30), 1..30),
        others_a in prop::collection::vec(arrival(), 0..100),
        others_b in prop::collection::vec(arrival(), 0..100),
        variant_sel in 0usize..3,
    ) {
        let variant = [
            K::FsRankPartitioned,
            K::FsBankPartitioned,
            K::FsTripleAlternation,
        ][variant_sel];
        let run = |others: &[Arrival]| -> Vec<(u64, Cycle)> {
            // Interleave: victim arrivals on domain 0 (ids < 1000),
            // co-runner arrivals on domains 1..8.
            let mut arrivals: Vec<Arrival> = victim
                .iter()
                .map(|&(local, w, gap)| Arrival { domain: 0, local, is_write: w, gap })
                .collect();
            arrivals.extend(others.iter().map(|a| Arrival { domain: 1 + a.domain % 7, ..*a }));
            // Keep victim arrival *times* fixed: sort by nothing; instead
            // drive two queues independently.
            let mut mc = mk(variant);
            let geom = Geometry::paper_default();
            let policy = mc.kind().partition_policy();
            let mut completions = Vec::new();
            let mut vic_idx = 0usize;
            let mut vic_at: Cycle = victim.first().map(|v| v.2 as Cycle).unwrap_or(u64::MAX);
            let mut oth_idx = 0usize;
            let mut oth_at: Cycle = others.first().map(|a| a.gap as Cycle).unwrap_or(u64::MAX);
            let mut id = 0u64;
            for c in 0..6_000u64 {
                while vic_idx < victim.len() && vic_at <= c {
                    let (local, w, _) = victim[vic_idx];
                    if mc.can_accept(DomainId(0)) {
                        let loc = policy.map(&geom, DomainId(0), LineAddr(local));
                        let txn = if w {
                            Transaction::write(TxnId(id), DomainId(0), loc, c)
                        } else {
                            Transaction::read(TxnId(id), DomainId(0), loc, c)
                        };
                        id += 1;
                        let _ = mc.enqueue(txn);
                        vic_idx += 1;
                    } else {
                        break; // deterministic retry next cycle
                    }
                    vic_at = c.saturating_add(victim.get(vic_idx).map(|v| v.2 as Cycle).unwrap_or(u64::MAX));
                }
                while oth_idx < others.len() && oth_at <= c {
                    let a = others[oth_idx];
                    let d = DomainId(1 + a.domain % 7);
                    if mc.can_accept(d) {
                        let loc = policy.map(&geom, d, LineAddr(a.local));
                        let txn = if a.is_write {
                            Transaction::write(TxnId(1_000_000 + oth_idx as u64), d, loc, c)
                        } else {
                            Transaction::read(TxnId(1_000_000 + oth_idx as u64), d, loc, c)
                        };
                        let _ = mc.enqueue(txn);
                    }
                    oth_idx += 1;
                    oth_at = c.saturating_add(others.get(oth_idx).map(|a| a.gap as Cycle).unwrap_or(u64::MAX));
                }
                for comp in mc.tick(c) {
                    if comp.txn.domain == DomainId(0) {
                        completions.push((comp.txn.id.0, comp.finish));
                    }
                }
            }
            completions
        };
        prop_assert_eq!(run(&others_a), run(&others_b), "{:?} leaked across co-runner change", variant);
    }
}
