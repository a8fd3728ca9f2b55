//! Security domains sharded over private channels, each driven by its
//! own single-channel controller. Two of the paper's configurations are
//! shards of this one shape:
//!
//! * **Channel partitioning** (Section 4.1): when the thread count does
//!   not exceed the channel count, "it is most efficient to map each
//!   thread to one or more channels. Since two threads don't share memory
//!   resources in this case, there are no timing channels." Each domain
//!   gets a private channel running the *non-secure* FR-FCFS scheduler at
//!   full speed — security comes from physical isolation, not from
//!   scheduling, so there is no shaping, no dummies and no throughput
//!   loss beyond the per-domain bandwidth cap.
//! * **Multi-channel FS** (Section 6): the paper's "32-core processor with
//!   4 channels". Section 4.1's rank-partitioning rule assigns each thread
//!   one of the 32 ranks in the system — domains are *split across
//!   channels*, and every channel that serves multiple domains runs the
//!   FS policy independently.
//!
//! Domains `c*k .. (c+1)*k` live on channel `c`, where `k` is the domain
//! count of each channel's controller. Cross-channel timing interaction
//! is physically impossible, so each channel's non-interference argument
//! is the single-channel one.

use crate::domain::DomainId;
use crate::queues::QueueFull;
use crate::sched::{Completion, McStats, MemoryController, SchedEvent, SchedulerKind};
use crate::txn::Transaction;
use fsmc_dram::command::TimedCommand;
use fsmc_dram::{ActivityCounters, Cycle, DramDevice};

/// One controller per private channel, with the system's domains split
/// evenly over them.
///
/// The command tap ([`MemoryController::record_obs`] and the command-log
/// views of it) covers channel 0 only: arming it through the trait arms
/// that channel alone, and every trait drain reports it.
#[derive(Debug)]
pub struct ShardedController<C> {
    kind: SchedulerKind,
    channels: Vec<C>,
    /// Domains per channel.
    dpc: u8,
    stats: McStats,
    /// Reusable per-tick completion buffer for the hot path.
    scratch: Vec<Completion>,
}

impl<C: MemoryController> ShardedController<C> {
    /// Shards `channels.len() * k` domains over `channels`, where `k` is
    /// the domain count of `channels[0]` (every channel must serve the
    /// same number). `kind` is the policy the whole system reports.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is empty.
    pub fn new(kind: SchedulerKind, channels: Vec<C>) -> Self {
        let dpc = channels[0].stats().domains().len() as u8;
        let domains = dpc as usize * channels.len();
        ShardedController { kind, channels, dpc, stats: McStats::new(domains), scratch: Vec::new() }
    }

    fn channel_of(&self, domain: DomainId) -> usize {
        (domain.0 / self.dpc) as usize
    }

    fn local(&self, domain: DomainId) -> DomainId {
        DomainId(domain.0 % self.dpc)
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
        let mut stats = McStats::new(self.dpc as usize * self.channels.len());
        for (c, ch) in self.channels.iter().enumerate() {
            let inner = ch.stats();
            for l in 0..self.dpc {
                let global = DomainId(c as u8 * self.dpc + l);
                *stats.domain_mut(global) = *inner.domain(DomainId(l));
            }
            stats.row_hits += inner.row_hits;
            stats.row_misses += inner.row_misses;
            stats.boosted_row_hits += inner.boosted_row_hits;
            stats.bubbles += inner.bubbles;
            stats.power_downs += inner.power_downs;
        }
        self.stats = stats;
    }
}

impl<C: MemoryController> MemoryController for ShardedController<C> {
    fn can_accept(&self, domain: DomainId) -> bool {
        self.channels[self.channel_of(domain)].can_accept(self.local(domain))
    }

    fn enqueue(&mut self, txn: Transaction) -> Result<(), QueueFull> {
        // The inner controller numbers its domains from 0; remap, and
        // restore the id on completion so the producer's routing works.
        let ch = self.channel_of(txn.domain);
        let inner = Transaction { domain: self.local(txn.domain), ..txn };
        self.channels[ch].enqueue(inner).map_err(|_| QueueFull { domain: txn.domain })
    }

    fn tick_into(&mut self, now: Cycle, out: &mut Vec<Completion>) {
        let dpc = self.dpc;
        let scratch = &mut self.scratch;
        for (c, ch) in self.channels.iter_mut().enumerate() {
            ch.tick_into(now, scratch);
            for completion in scratch.drain(..) {
                let global = DomainId(c as u8 * dpc + completion.txn.domain.0);
                let txn = Transaction { domain: global, ..completion.txn };
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
        self.kind
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

    fn take_sched_events_into(&mut self, out: &mut Vec<SchedEvent>) {
        self.channels[0].take_sched_events_into(out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::PartitionPolicy;
    use crate::sched::baseline::BaselineScheduler;
    use crate::sched::fs::{EnergyOptions, FsScheduler};
    use crate::txn::TxnId;
    use fsmc_dram::geometry::{Geometry, LineAddr};
    use fsmc_dram::{TimingChecker, TimingParams};

    /// Channel partitioning: one private FR-FCFS channel per domain.
    fn channel_part(domains: u8) -> ShardedController<BaselineScheduler> {
        let (g, t) = (Geometry::paper_default(), TimingParams::ddr3_1600());
        let channels =
            (0..domains).map(|_| BaselineScheduler::try_new(g, t, 1, false).unwrap()).collect();
        ShardedController::new(SchedulerKind::ChannelPartitioned, channels)
    }

    /// Rank-partitioned FS over `channels` channels.
    fn fs_mc(domains: u8, channels: u8) -> ShardedController<FsScheduler> {
        let (g, t) = (Geometry::paper_default(), TimingParams::ddr3_1600());
        let shards = (0..channels)
            .map(|_| {
                let weights = vec![1; (domains / channels) as usize];
                let kind = SchedulerKind::FsRankPartitioned;
                FsScheduler::try_new(g, t, &weights, kind, EnergyOptions::default()).unwrap()
            })
            .collect();
        ShardedController::new(SchedulerKind::FsMultiChannel { channels }, shards)
    }

    /// A read for channel partitioning (each channel maps its one domain
    /// as domain 0).
    fn cp_txn(id: u64, domain: u8, local: u64) -> Transaction {
        let geom = Geometry::paper_default();
        let loc = PartitionPolicy::None.map(&geom, DomainId(0), LineAddr(local));
        Transaction::read(TxnId(id), DomainId(domain), loc, 0)
    }

    /// A read for multi-channel FS with `dpc` domains per channel.
    fn fs_txn(id: u64, domain: u8, dpc: u8, local: u64) -> Transaction {
        let geom = Geometry::paper_default();
        let loc = PartitionPolicy::Rank.map(&geom, DomainId(domain % dpc), LineAddr(local));
        Transaction::read(TxnId(id), DomainId(domain), loc, 0)
    }

    #[test]
    fn domains_route_to_private_channels() {
        let mut mc = channel_part(4);
        mc.enqueue(cp_txn(1, 2, 100)).unwrap();
        mc.enqueue(cp_txn(2, 3, 100)).unwrap();
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
            let mut mc = channel_part(2);
            let mut finishes = Vec::new();
            let mut id = 10;
            for c in 0..3000u64 {
                if c % 40 == 0 && mc.can_accept(DomainId(0)) {
                    mc.enqueue(Transaction { arrival: c, ..cp_txn(id, 0, id * 13) }).unwrap();
                    id += 1;
                }
                if flood && mc.can_accept(DomainId(1)) {
                    mc.enqueue(Transaction { arrival: c, ..cp_txn(100_000 + id, 1, id * 7) })
                        .unwrap();
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
    fn paper_target_system_32_cores_4_channels() {
        let mc = fs_mc(32, 4);
        assert_eq!(mc.dpc, 8);
        assert_eq!(mc.stats().domains().len(), 32);
        assert_eq!(mc.kind(), SchedulerKind::FsMultiChannel { channels: 4 });
    }

    #[test]
    fn domains_shard_onto_channels_and_complete() {
        let mut mc = fs_mc(16, 2);
        // One read per domain.
        for d in 0..16u8 {
            mc.enqueue(fs_txn(d as u64, d, 8, d as u64 * 977)).unwrap();
        }
        let mut done = Vec::new();
        for c in 0..400 {
            done.extend(mc.tick(c));
        }
        let reads: Vec<&Completion> = done.iter().filter(|c| !c.txn.is_write).collect();
        assert_eq!(reads.len(), 16);
        // Domains with the same per-channel slot finish simultaneously on
        // their own channels (d and d+8 hold slot d%8 of channels 0 and 1).
        for d in 0..8usize {
            let a = reads.iter().find(|c| c.txn.domain.0 == d as u8).unwrap();
            let b = reads.iter().find(|c| c.txn.domain.0 == d as u8 + 8).unwrap();
            assert_eq!(a.finish, b.finish, "channels should be independent mirrors");
        }
    }

    #[test]
    fn cross_channel_domains_cannot_interfere() {
        // Domain 0 (channel 0) timing vs domain 8..15 (channel 1) load.
        let run = |flood: bool| -> Vec<Cycle> {
            let mut mc = fs_mc(16, 2);
            let mut finishes = Vec::new();
            let mut id = 1u64;
            for c in 0..3000u64 {
                if c % 60 == 0 && mc.can_accept(DomainId(0)) {
                    mc.enqueue(Transaction { arrival: c, ..fs_txn(id, 0, 8, id * 997) }).unwrap();
                    id += 1;
                }
                if flood {
                    for d in 8..16u8 {
                        if mc.can_accept(DomainId(d)) {
                            mc.enqueue(Transaction {
                                arrival: c,
                                ..fs_txn(1_000_000 + id * d as u64, d, 8, id * 13)
                            })
                            .unwrap();
                        }
                    }
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

    /// Arms every channel directly, runs `txns`, and checks each
    /// channel's log on its own.
    fn assert_per_channel_logs_legal<C: MemoryController>(
        mut mc: ShardedController<C>,
        txns: impl Iterator<Item = Transaction>,
    ) {
        for ch in &mut mc.channels {
            ch.record_commands();
        }
        for t in txns {
            mc.enqueue(t).unwrap();
        }
        for c in 0..2000 {
            mc.tick(c);
        }
        let checker = TimingChecker::new(Geometry::paper_default(), TimingParams::ddr3_1600());
        for (ch, log) in mc.take_channel_logs().into_iter().enumerate() {
            assert!(!log.is_empty(), "{}: channel {ch} idle", mc.kind);
            let v = checker.check(&log);
            assert!(v.is_empty(), "{}: channel {ch}: {v:?}", mc.kind);
        }
    }

    #[test]
    fn per_channel_logs_are_each_legal() {
        assert_per_channel_logs_legal(
            channel_part(4),
            (0..32u64).map(|i| cp_txn(i, (i % 4) as u8, i * 61)),
        );
        assert_per_channel_logs_legal(
            fs_mc(16, 2),
            (0..64u64).map(|i| fs_txn(i, (i % 16) as u8, 8, i * 31)),
        );
    }

    /// Arms the tap through the trait and checks that only channel 0,
    /// the one the trait drains, records.
    fn assert_trait_tap_is_channel_0<C: MemoryController>(
        mut mc: ShardedController<C>,
        txns: impl Iterator<Item = Transaction>,
    ) {
        mc.record_commands();
        for t in txns {
            mc.enqueue(t).unwrap();
        }
        let mut drained = Vec::new();
        for c in 0..2000 {
            mc.tick(c);
            mc.take_command_log_into(&mut drained);
        }
        assert!(!drained.is_empty(), "{}: channel 0 idle", mc.kind);
        for (ch, log) in mc.take_channel_logs().into_iter().enumerate().skip(1) {
            assert!(log.is_empty(), "{}: channel {ch} recorded {} commands", mc.kind, log.len());
        }
    }

    #[test]
    fn trait_tap_records_only_the_channel_it_drains() {
        assert_trait_tap_is_channel_0(
            channel_part(4),
            (0..32u64).map(|i| cp_txn(i, (i % 4) as u8, i * 61)),
        );
        assert_trait_tap_is_channel_0(
            fs_mc(16, 4),
            (0..64u64).map(|i| fs_txn(i, (i % 16) as u8, 4, i * 31)),
        );
    }

    #[test]
    fn aggregate_counters_cover_all_channels() {
        let mut mc = channel_part(2);
        mc.enqueue(cp_txn(1, 0, 5)).unwrap();
        mc.enqueue(cp_txn(2, 1, 9)).unwrap();
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
