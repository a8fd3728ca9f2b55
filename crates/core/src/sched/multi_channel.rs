//! The paper's full target system (Section 6): "a 32-core processor with
//! 4 channels". Section 4.1's rank-partitioning rule assigns each thread
//! one of the 32 ranks in the system — i.e. domains are *split across
//! channels*, and every channel that serves multiple domains runs the FS
//! policy independently.
//!
//! This controller shards `domains` security domains over `channels`
//! private FS controllers (domains `c*k .. (c+1)*k` on channel `c`);
//! cross-channel timing interaction is physically impossible, and each
//! channel's non-interference argument is the single-channel one.

use crate::domain::DomainId;
use crate::queues::QueueFull;
use crate::sched::fs::{EnergyOptions, FsScheduler, FsVariant};
use crate::sched::{Completion, McStats, MemoryController, SchedulerKind};
use crate::txn::Transaction;
use fsmc_dram::command::TimedCommand;
use fsmc_dram::geometry::Geometry;
use fsmc_dram::{ActivityCounters, Cycle, DramDevice, TimingParams};

/// FS sharded over multiple channels.
///
/// The command tap ([`MemoryController::record_obs`] and the command-log
/// views of it) covers channel 0 only: arming it through the trait arms
/// that channel alone, and every trait drain reports it.
#[derive(Debug)]
pub struct MultiChannelFs {
    channels: Vec<FsScheduler>,
    /// Domains per channel.
    dpc: u8,
    stats: McStats,
    domains: u8,
    /// Reusable per-tick completion buffer for the hot path.
    scratch: Vec<Completion>,
}

impl MultiChannelFs {
    /// Creates `channels` FS controllers, each serving
    /// `domains / channels` domains on its own copy of the per-channel
    /// geometry `geom`.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero or does not divide `domains`.
    pub fn new(
        geom: Geometry,
        t: TimingParams,
        domains: u8,
        channels: u8,
        variant: FsVariant,
        energy: EnergyOptions,
    ) -> Self {
        assert!(channels > 0, "channels must be non-zero");
        assert!(
            domains.is_multiple_of(channels) && domains >= channels,
            "domains ({domains}) must be a positive multiple of channels ({channels})"
        );
        let dpc = domains / channels;
        MultiChannelFs {
            channels: (0..channels)
                .map(|_| FsScheduler::new(geom, t, dpc, variant, false, energy))
                .collect(),
            dpc,
            stats: McStats::new(domains as usize),
            domains,
            scratch: Vec::new(),
        }
    }

    fn channel_of(&self, domain: DomainId) -> usize {
        (domain.0 / self.dpc) as usize
    }

    fn local(&self, domain: DomainId) -> DomainId {
        DomainId(domain.0 % self.dpc)
    }

    /// Per-channel command logs (each independently checkable). Channels
    /// whose tap was never armed report empty logs.
    pub fn take_channel_logs(&mut self) -> Vec<Vec<TimedCommand>> {
        self.channels.iter_mut().map(|c| c.take_command_log()).collect()
    }

    /// Domains served per channel.
    pub fn domains_per_channel(&self) -> u8 {
        self.dpc
    }

    fn refresh_stats(&mut self) {
        let mut stats = McStats::new(self.domains as usize);
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

impl MemoryController for MultiChannelFs {
    fn can_accept(&self, domain: DomainId) -> bool {
        self.channels[self.channel_of(domain)].can_accept(self.local(domain))
    }

    fn enqueue(&mut self, txn: Transaction) -> Result<(), QueueFull> {
        let ch = self.channel_of(txn.domain);
        let local = self.local(txn.domain);
        let inner = Transaction { domain: local, ..txn };
        self.channels[ch].enqueue(inner).map_err(|_| QueueFull { domain: txn.domain })
    }

    fn tick(&mut self, now: Cycle) -> Vec<Completion> {
        let mut out = Vec::new();
        self.tick_into(now, &mut out);
        out
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
        SchedulerKind::FsMultiChannel { channels: self.channels.len() as u8 }
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

    fn mk(domains: u8, channels: u8) -> MultiChannelFs {
        MultiChannelFs::new(
            Geometry::paper_default(),
            TimingParams::ddr3_1600(),
            domains,
            channels,
            FsVariant::RankPartitioned,
            EnergyOptions::default(),
        )
    }

    fn txn(id: u64, domain: u8, dpc: u8, local: u64) -> Transaction {
        let geom = Geometry::paper_default();
        let loc = PartitionPolicy::Rank.map(&geom, DomainId(domain % dpc), LineAddr(local));
        Transaction::read(TxnId(id), DomainId(domain), loc, 0)
    }

    #[test]
    fn paper_target_system_32_cores_4_channels() {
        let mc = mk(32, 4);
        assert_eq!(mc.domains_per_channel(), 8);
        assert_eq!(mc.kind(), SchedulerKind::FsMultiChannel { channels: 4 });
    }

    #[test]
    fn domains_shard_onto_channels_and_complete() {
        let mut mc = mk(16, 2);
        // One read per domain.
        for d in 0..16u8 {
            mc.enqueue(txn(d as u64, d, 8, d as u64 * 977)).unwrap();
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
    fn per_channel_streams_are_legal() {
        let mut mc = mk(16, 2);
        for ch in &mut mc.channels {
            ch.record_commands();
        }
        for i in 0..64u64 {
            mc.enqueue(txn(i, (i % 16) as u8, 8, i * 31)).unwrap();
        }
        for c in 0..2000 {
            mc.tick(c);
        }
        let checker = TimingChecker::new(Geometry::paper_default(), TimingParams::ddr3_1600());
        for (ch, log) in mc.take_channel_logs().into_iter().enumerate() {
            assert!(!log.is_empty());
            let v = checker.check(&log);
            assert!(v.is_empty(), "channel {ch}: {v:?}");
        }
    }

    #[test]
    fn trait_tap_records_only_the_channel_it_drains() {
        let mut mc = mk(16, 4);
        mc.record_commands();
        for i in 0..64u64 {
            mc.enqueue(txn(i, (i % 16) as u8, 4, i * 31)).unwrap();
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
    fn cross_channel_domains_cannot_interfere() {
        // Domain 0 (channel 0) timing vs domain 8..15 (channel 1) load.
        let run = |flood: bool| -> Vec<Cycle> {
            let mut mc = mk(16, 2);
            let mut finishes = Vec::new();
            let mut id = 1u64;
            for c in 0..3000u64 {
                if c % 60 == 0 && mc.can_accept(DomainId(0)) {
                    mc.enqueue(Transaction { arrival: c, ..txn(id, 0, 8, id * 997) }).unwrap();
                    id += 1;
                }
                if flood {
                    for d in 8..16u8 {
                        if mc.can_accept(DomainId(d)) {
                            mc.enqueue(Transaction {
                                arrival: c,
                                ..txn(1_000_000 + id * d as u64, d, 8, id * 13)
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

    #[test]
    #[should_panic(expected = "multiple of channels")]
    fn uneven_sharding_rejected() {
        mk(10, 4);
    }
}
