//! Channel partitioning (Section 4.1): when the thread count does not
//! exceed the channel count, "it is most efficient to map each thread to
//! one or more channels. Since two threads don't share memory resources
//! in this case, there are no timing channels."
//!
//! Each domain gets a private channel running the *non-secure* FR-FCFS
//! scheduler at full speed — security comes from physical isolation, not
//! from scheduling, so there is no shaping, no dummies and no throughput
//! loss beyond the per-domain bandwidth cap.

use crate::domain::DomainId;
use crate::queues::QueueFull;
use crate::sched::baseline::BaselineScheduler;
use crate::sched::{Completion, McStats, MemoryController, SchedulerKind};
use crate::txn::Transaction;
use fsmc_dram::command::TimedCommand;
use fsmc_dram::geometry::Geometry;
use fsmc_dram::{ActivityCounters, Cycle, DramDevice, TimingParams};

/// One private channel (and FR-FCFS controller) per security domain.
///
/// The command tap ([`MemoryController::record_obs`] and the command-log
/// views of it) covers channel 0 only, domain 0's channel: arming it
/// through the trait arms that channel alone, and every trait drain
/// reports it.
#[derive(Debug)]
pub struct ChannelPartitionedController {
    channels: Vec<BaselineScheduler>,
    stats: McStats,
    domains: u8,
    /// Reusable per-tick completion buffer for the hot path.
    scratch: Vec<Completion>,
}

impl ChannelPartitionedController {
    /// Creates `domains` private channels, each with the geometry `geom`
    /// (interpreted per channel: its ranks and banks belong wholly to the
    /// owning domain).
    ///
    /// # Panics
    ///
    /// Panics if `domains` is zero.
    pub fn new(geom: Geometry, t: TimingParams, domains: u8) -> Self {
        assert!(domains > 0, "domains must be non-zero");
        ChannelPartitionedController {
            channels: (0..domains).map(|_| BaselineScheduler::new(geom, t, 1, false)).collect(),
            stats: McStats::new(domains as usize),
            domains,
            scratch: Vec::new(),
        }
    }

    /// Per-channel recorded command logs (each is a valid single-channel
    /// stream; they are deliberately *not* merged, since different
    /// channels share no buses). Channels whose tap was never armed
    /// report empty logs.
    pub fn take_channel_logs(&mut self) -> Vec<Vec<TimedCommand>> {
        self.channels.iter_mut().map(|c| c.take_command_log()).collect()
    }

    /// Folds the per-channel controller statistics into the aggregate
    /// per-domain view.
    fn refresh_stats(&mut self) {
        let mut stats = McStats::new(self.domains as usize);
        for (d, ch) in self.channels.iter().enumerate() {
            let inner = ch.stats();
            *stats.domain_mut(DomainId(d as u8)) = *inner.domain(DomainId(0));
            stats.row_hits += inner.row_hits;
            stats.row_misses += inner.row_misses;
        }
        self.stats = stats;
    }
}

impl MemoryController for ChannelPartitionedController {
    fn can_accept(&self, domain: DomainId) -> bool {
        self.channels[domain.0 as usize].can_accept(DomainId(0))
    }

    fn enqueue(&mut self, txn: Transaction) -> Result<(), QueueFull> {
        let domain = txn.domain;
        // The inner controller is single-domain; remap and restore the id
        // on completion so the producer's routing still works.
        let inner_txn = Transaction { domain: DomainId(0), ..txn };
        self.channels[domain.0 as usize].enqueue(inner_txn).map_err(|_| QueueFull { domain })
    }

    fn tick(&mut self, now: Cycle) -> Vec<Completion> {
        let mut out = Vec::new();
        self.tick_into(now, &mut out);
        out
    }

    fn tick_into(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        let scratch = &mut self.scratch;
        for (d, ch) in self.channels.iter_mut().enumerate() {
            ch.tick_into(now, scratch);
            for completion in scratch.drain(..) {
                let txn = Transaction { domain: DomainId(d as u8), ..completion.txn };
                out.push(Completion { txn, ..completion });
            }
        }
    }

    fn next_event(&self, now: Cycle) -> Cycle {
        self.channels.iter().map(|ch| ch.next_event(now)).min().unwrap_or(now + 1)
    }

    fn device(&self) -> &DramDevice {
        self.channels[0].device()
    }

    fn aggregate_counters(&self) -> ActivityCounters {
        let mut agg = self.channels[0].device().counters().clone();
        for ch in &self.channels[1..] {
            agg.merge(ch.device().counters());
        }
        agg
    }

    fn finish(&mut self, now: Cycle) {
        for ch in &mut self.channels {
            ch.finish(now);
        }
        self.refresh_stats();
    }

    fn stats(&self) -> &McStats {
        &self.stats
    }

    fn kind(&self) -> SchedulerKind {
        SchedulerKind::ChannelPartitioned
    }

    fn record_obs(&mut self) {
        // Only channel 0: it is the one every drain below reports, and
        // merged logs from independent buses would spuriously violate
        // single-channel rules.
        self.channels[0].record_obs();
    }

    fn take_obs_into(&mut self, out: &mut Vec<fsmc_dram::ObsCommand>) {
        self.channels[0].take_obs_into(out);
    }

    fn has_sched_events(&self) -> bool {
        self.channels[0].has_sched_events()
    }

    fn take_sched_events_into(&mut self, out: &mut Vec<crate::sched::SchedEvent>) {
        self.channels[0].take_sched_events_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::PartitionPolicy;
    use crate::txn::TxnId;
    use fsmc_dram::geometry::LineAddr;
    use fsmc_dram::TimingChecker;

    fn txn(id: u64, domain: u8, local: u64) -> Transaction {
        let geom = Geometry::paper_default();
        let loc = PartitionPolicy::None.map(&geom, DomainId(0), LineAddr(local));
        Transaction::read(TxnId(id), DomainId(domain), loc, 0)
    }

    #[test]
    fn domains_route_to_private_channels() {
        let mut mc = ChannelPartitionedController::new(
            Geometry::paper_default(),
            TimingParams::ddr3_1600(),
            4,
        );
        mc.enqueue(txn(1, 2, 100)).unwrap();
        mc.enqueue(txn(2, 3, 100)).unwrap();
        let mut done = Vec::new();
        for c in 0..100 {
            done.extend(mc.tick(c));
        }
        assert_eq!(done.len(), 2);
        // Completions carry the original domain ids.
        let mut domains: Vec<u8> = done.iter().map(|c| c.txn.domain.0).collect();
        domains.sort_unstable();
        assert_eq!(domains, vec![2, 3]);
        // Identical requests on private channels finish at identical times:
        // perfect isolation.
        assert_eq!(done[0].finish, done[1].finish);
    }

    #[test]
    fn channels_are_fully_isolated() {
        // Domain 0's timing must be unaffected by floods on domain 1.
        let run = |flood: bool| -> Vec<Cycle> {
            let mut mc = ChannelPartitionedController::new(
                Geometry::paper_default(),
                TimingParams::ddr3_1600(),
                2,
            );
            let mut finishes = Vec::new();
            let mut id = 10;
            for c in 0..3000u64 {
                if c % 40 == 0 && mc.can_accept(DomainId(0)) {
                    mc.enqueue(Transaction { arrival: c, ..txn(id, 0, id * 13) }).unwrap();
                    id += 1;
                }
                if flood && mc.can_accept(DomainId(1)) {
                    mc.enqueue(Transaction { arrival: c, ..txn(100_000 + id, 1, id * 7) }).unwrap();
                }
                for comp in mc.tick(c) {
                    if comp.txn.domain == DomainId(0) && !comp.txn.is_write {
                        finishes.push(comp.finish);
                    }
                }
            }
            finishes
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn per_channel_logs_are_each_legal() {
        let mut mc = ChannelPartitionedController::new(
            Geometry::paper_default(),
            TimingParams::ddr3_1600(),
            4,
        );
        for ch in &mut mc.channels {
            ch.record_commands();
        }
        for i in 0..32u64 {
            mc.enqueue(txn(i, (i % 4) as u8, i * 61)).unwrap();
        }
        for c in 0..2000 {
            mc.tick(c);
        }
        let checker = TimingChecker::new(Geometry::paper_default(), TimingParams::ddr3_1600());
        for (ch, log) in mc.take_channel_logs().into_iter().enumerate() {
            assert!(!log.is_empty(), "channel {ch} idle");
            let v = checker.check(&log);
            assert!(v.is_empty(), "channel {ch}: {v:?}");
        }
    }

    #[test]
    fn trait_tap_records_only_the_channel_it_drains() {
        let mut mc = ChannelPartitionedController::new(
            Geometry::paper_default(),
            TimingParams::ddr3_1600(),
            4,
        );
        mc.record_commands();
        for i in 0..32u64 {
            mc.enqueue(txn(i, (i % 4) as u8, i * 61)).unwrap();
        }
        let mut drained = Vec::new();
        for c in 0..2000 {
            mc.tick(c);
            mc.take_command_log_into(&mut drained);
        }
        assert!(!drained.is_empty(), "channel 0 idle");
        for (ch, log) in mc.take_channel_logs().into_iter().enumerate().skip(1) {
            assert!(log.is_empty(), "channel {ch} recorded {} undrainable commands", log.len());
        }
    }

    #[test]
    fn aggregate_counters_cover_all_channels() {
        let mut mc = ChannelPartitionedController::new(
            Geometry::paper_default(),
            TimingParams::ddr3_1600(),
            2,
        );
        mc.enqueue(txn(1, 0, 5)).unwrap();
        mc.enqueue(txn(2, 1, 9)).unwrap();
        for c in 0..100 {
            mc.tick(c);
        }
        mc.finish(100);
        let agg = mc.aggregate_counters();
        assert_eq!(agg.total_reads(), 2);
        assert_eq!(agg.ranks().len(), 16); // 2 channels x 8 ranks
        assert_eq!(mc.stats().domain(DomainId(0)).demand_reads, 1);
        assert_eq!(mc.stats().domain(DomainId(1)).demand_reads, 1);
    }
}
