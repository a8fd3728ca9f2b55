//! Security domains and spatial-partition assignment.
//!
//! A *security domain* is the unit of isolation: a VM, container or
//! process group whose memory traffic must not be observable by other
//! domains. The OS/hypervisor assigns each domain a share of memory
//! capacity and bandwidth (the SLA); the partition policy decides how
//! that capacity maps onto ranks and banks.

use fsmc_dram::geometry::{BankId, ChannelId, ColId, Geometry, LineAddr, Location, RankId, RowId};
use std::fmt;

/// Identifies a security domain (thread / VM).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct DomainId(pub u8);

impl fmt::Display for DomainId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dom{}", self.0)
    }
}

/// How memory is spatially split among domains (Section 4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PartitionPolicy {
    /// Each domain owns one or more ranks; with eight domains and eight
    /// ranks per channel, domain *d* owns rank *d*.
    Rank,
    /// Each domain owns one bank index *across all ranks* (bank striping);
    /// domains therefore share ranks but never share a bank.
    BankStriped,
    /// No spatial partitioning: domains share all banks; addresses are
    /// interleaved with per-domain row offsets.
    None,
}

impl PartitionPolicy {
    /// Maps a domain-local line address into a global DRAM location under
    /// this policy.
    ///
    /// Domain-local addresses preserve locality: consecutive local lines
    /// walk the columns of one row before moving on, so a streaming
    /// workload enjoys row-buffer locality in the baseline and maps to a
    /// well-formed footprint under FS.
    pub fn map(&self, geom: &Geometry, domain: DomainId, local: LineAddr) -> Location {
        let cols = geom.cols_per_row() as u64;
        let banks = geom.banks_per_rank() as u64;
        let ranks = geom.ranks_per_channel() as u64;
        let rows = geom.rows_per_bank() as u64;
        let d = domain.0 as u64;
        match self {
            PartitionPolicy::Rank => {
                // col (low), bank, row (high); rank fixed to the domain.
                let mut a = local.0 % (cols * banks * rows);
                let col = a % cols;
                a /= cols;
                let bank = a % banks;
                a /= banks;
                let row = a % rows;
                Location {
                    channel: ChannelId(0),
                    rank: RankId((d % ranks) as u8),
                    bank: BankId(bank as u8),
                    row: RowId(row as u32),
                    col: ColId(col as u16),
                }
            }
            PartitionPolicy::BankStriped => {
                // col (low), rank, row (high); bank fixed to the domain.
                let mut a = local.0 % (cols * ranks * rows);
                let col = a % cols;
                a /= cols;
                let rank = a % ranks;
                a /= ranks;
                let row = a % rows;
                Location {
                    channel: ChannelId(0),
                    rank: RankId(rank as u8),
                    bank: BankId((d % banks) as u8),
                    row: RowId(row as u32),
                    col: ColId(col as u16),
                }
            }
            PartitionPolicy::None => {
                // Shared banks: col (low), bank, rank, row (high), with the
                // row space offset per domain so working sets are disjoint
                // (the OS still gives each domain its own pages).
                let mut a = local.0 % (cols * banks * ranks * rows);
                let col = a % cols;
                a /= cols;
                let bank = a % banks;
                a /= banks;
                let rank = a % ranks;
                a /= ranks;
                let row = (a + d * (rows / 16).max(1)) % rows;
                Location {
                    channel: ChannelId(0),
                    rank: RankId(rank as u8),
                    bank: BankId(bank as u8),
                    row: RowId(row as u32),
                    col: ColId(col as u16),
                }
            }
        }
    }

    /// True if `loc` lies inside `domain`'s partition.
    pub fn owns(&self, geom: &Geometry, domain: DomainId, loc: &Location) -> bool {
        match self {
            PartitionPolicy::Rank => loc.rank.0 == domain.0 % geom.ranks_per_channel(),
            PartitionPolicy::BankStriped => loc.bank.0 == domain.0 % geom.banks_per_rank(),
            PartitionPolicy::None => true,
        }
    }

    /// The ranks a domain may touch under this policy.
    pub fn ranks_of(&self, geom: &Geometry, domain: DomainId) -> Vec<RankId> {
        match self {
            PartitionPolicy::Rank => vec![RankId(domain.0 % geom.ranks_per_channel())],
            _ => (0..geom.ranks_per_channel()).map(RankId).collect(),
        }
    }

    /// The banks (rank, bank) pairs a domain may touch.
    pub fn banks_of(&self, geom: &Geometry, domain: DomainId) -> Vec<(RankId, BankId)> {
        match self {
            PartitionPolicy::Rank => {
                let r = RankId(domain.0 % geom.ranks_per_channel());
                (0..geom.banks_per_rank()).map(|b| (r, BankId(b))).collect()
            }
            PartitionPolicy::BankStriped => {
                let b = BankId(domain.0 % geom.banks_per_rank());
                (0..geom.ranks_per_channel()).map(|r| (RankId(r), b)).collect()
            }
            PartitionPolicy::None => (0..geom.ranks_per_channel())
                .flat_map(|r| (0..geom.banks_per_rank()).map(move |b| (RankId(r), BankId(b))))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_partition_confines_domain_to_its_rank() {
        let g = Geometry::paper_default();
        let p = PartitionPolicy::Rank;
        for d in 0..8u8 {
            for a in [0u64, 1, 1000, 123_456] {
                let loc = p.map(&g, DomainId(d), LineAddr(a));
                assert_eq!(loc.rank.0, d);
                assert!(p.owns(&g, DomainId(d), &loc));
                assert!(g.contains(&loc));
            }
        }
    }

    #[test]
    fn bank_striped_confines_domain_to_its_bank_index() {
        let g = Geometry::paper_default();
        let p = PartitionPolicy::BankStriped;
        for d in 0..8u8 {
            let loc = p.map(&g, DomainId(d), LineAddr(999));
            assert_eq!(loc.bank.0, d);
            assert!(p.owns(&g, DomainId(d), &loc));
        }
        // Different domains never share a bank.
        let a = p.map(&g, DomainId(0), LineAddr(5));
        let b = p.map(&g, DomainId(1), LineAddr(5));
        assert_ne!(a.bank, b.bank);
    }

    #[test]
    fn locality_preserved_for_consecutive_lines() {
        let g = Geometry::paper_default();
        for p in [PartitionPolicy::Rank, PartitionPolicy::BankStriped, PartitionPolicy::None] {
            let l0 = p.map(&g, DomainId(3), LineAddr(0));
            let l1 = p.map(&g, DomainId(3), LineAddr(1));
            assert_eq!(l0.row, l1.row, "{p:?}");
            assert_eq!(l0.bank, l1.bank, "{p:?}");
            assert_eq!(l0.rank, l1.rank, "{p:?}");
        }
    }

    #[test]
    fn banks_of_counts() {
        let g = Geometry::paper_default();
        assert_eq!(PartitionPolicy::Rank.banks_of(&g, DomainId(2)).len(), 8);
        assert_eq!(PartitionPolicy::BankStriped.banks_of(&g, DomainId(2)).len(), 8);
        assert_eq!(PartitionPolicy::None.banks_of(&g, DomainId(2)).len(), 64);
    }

    #[test]
    fn none_partition_separates_working_sets_by_row() {
        let g = Geometry::paper_default();
        let p = PartitionPolicy::None;
        let a = p.map(&g, DomainId(0), LineAddr(0));
        let b = p.map(&g, DomainId(1), LineAddr(0));
        // Same bank (shared) but different rows.
        assert_eq!(a.bank, b.bank);
        assert_ne!(a.row, b.row);
    }
}
