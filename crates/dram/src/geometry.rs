//! Device geometry: identifiers and the channel/rank/bank/row/column shape.

use std::fmt;

/// Identifies a memory channel (each channel has its own controller,
/// command bus and data bus).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ChannelId(pub u8);

/// Identifies a rank within a channel. A rank is a set of DRAM chips that
/// operate in unison to serve one cache-line transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RankId(pub u8);

/// Identifies a bank within a rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BankId(pub u8);

/// Identifies a DRAM row within a bank (the unit cached by the row buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct RowId(pub u32);

/// Identifies a column (cache-line slot) within a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ColId(pub u16);

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}
impl fmt::Display for RankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}
impl fmt::Display for BankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// A cache-line-granularity physical address (byte address >> 6 for the
/// 64-byte lines used throughout the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// Byte address of the start of this line (64-byte lines).
    pub fn byte_addr(self) -> u64 {
        self.0 << 6
    }

    /// Line address containing the given byte address.
    pub fn from_byte_addr(addr: u64) -> Self {
        LineAddr(addr >> 6)
    }
}

/// A fully decoded DRAM location for one cache-line access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Location {
    pub channel: ChannelId,
    pub rank: RankId,
    pub bank: BankId,
    pub row: RowId,
    pub col: ColId,
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{}/{}/row{}/col{}",
            self.channel, self.rank, self.bank, self.row.0, self.col.0
        )
    }
}

/// The channel/rank/bank/row/column shape of the memory system.
///
/// All counts must be powers of two; [`Geometry::new`] validates this so the
/// bit-slicing address mappings in [`crate::mapping`] are exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    channels: u8,
    ranks_per_channel: u8,
    banks_per_rank: u8,
    /// Bank groups per rank; 1 for generations without bank groups
    /// (DDR3, LPDDR4). Bank `b` belongs to group `b % bank_groups`, so
    /// consecutive bank ids interleave across groups — the arrangement
    /// DDR4 controllers exploit to stay on the short tCCD_S spacing.
    bank_groups: u8,
    rows_per_bank: u32,
    cols_per_row: u16,
}

impl Geometry {
    /// Creates a geometry without bank groups, validating that every
    /// dimension is a non-zero power of two.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or not a power of two.
    pub fn new(
        channels: u8,
        ranks_per_channel: u8,
        banks_per_rank: u8,
        rows_per_bank: u32,
        cols_per_row: u16,
    ) -> Self {
        Geometry::with_bank_groups(
            channels,
            ranks_per_channel,
            banks_per_rank,
            1,
            rows_per_bank,
            cols_per_row,
        )
    }

    /// Creates a geometry with `bank_groups` bank groups per rank
    /// (DDR4/HBM). `bank_groups` must be a power of two no larger than
    /// `banks_per_rank`; pass 1 for generations without bank groups.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, not a power of two, or
    /// `bank_groups > banks_per_rank`.
    pub fn with_bank_groups(
        channels: u8,
        ranks_per_channel: u8,
        banks_per_rank: u8,
        bank_groups: u8,
        rows_per_bank: u32,
        cols_per_row: u16,
    ) -> Self {
        fn check(v: u64, name: &str) {
            assert!(v > 0 && v.is_power_of_two(), "{name} must be a power of two, got {v}");
        }
        check(channels as u64, "channels");
        check(ranks_per_channel as u64, "ranks_per_channel");
        check(banks_per_rank as u64, "banks_per_rank");
        check(bank_groups as u64, "bank_groups");
        check(rows_per_bank as u64, "rows_per_bank");
        check(cols_per_row as u64, "cols_per_row");
        assert!(
            bank_groups <= banks_per_rank,
            "bank_groups ({bank_groups}) must not exceed banks_per_rank ({banks_per_rank})"
        );
        Geometry {
            channels,
            ranks_per_channel,
            banks_per_rank,
            bank_groups,
            rows_per_bank,
            cols_per_row,
        }
    }

    /// The single-channel configuration used for most experiments in the
    /// paper: 1 channel, 8 ranks/channel, 8 banks/rank, 4 Gb chips.
    ///
    /// With 64-byte lines, 32768 rows x 128 columns per bank gives an 8 KB
    /// row and 2 GB per rank (matching a rank of x8 4 Gb parts in spirit —
    /// capacity is not performance-relevant in this study, timing is).
    pub fn paper_default() -> Self {
        Geometry::new(1, 8, 8, 32768, 128)
    }

    /// The paper's full target system: 4 channels, 8 ranks each.
    pub fn paper_full_system() -> Self {
        Geometry::new(4, 8, 8, 32768, 128)
    }

    /// A tiny geometry for fast unit tests.
    pub fn tiny() -> Self {
        Geometry::new(1, 2, 4, 64, 16)
    }

    pub fn channels(&self) -> u8 {
        self.channels
    }
    pub fn ranks_per_channel(&self) -> u8 {
        self.ranks_per_channel
    }
    pub fn banks_per_rank(&self) -> u8 {
        self.banks_per_rank
    }
    /// Bank groups per rank (1 when the generation has none).
    pub fn bank_groups(&self) -> u8 {
        self.bank_groups
    }
    /// The bank group `bank` belongs to: `bank % bank_groups`, so
    /// consecutive bank ids land in different groups.
    pub fn bank_group_of(&self, bank: BankId) -> u8 {
        // The group count is a power of two, so the remainder is a mask.
        bank.0 & (self.bank_groups - 1)
    }
    pub fn rows_per_bank(&self) -> u32 {
        self.rows_per_bank
    }
    pub fn cols_per_row(&self) -> u16 {
        self.cols_per_row
    }

    /// Total banks across the whole system.
    pub fn total_banks(&self) -> u32 {
        self.channels as u32 * self.ranks_per_channel as u32 * self.banks_per_rank as u32
    }

    /// Total cache lines addressable by this geometry.
    pub fn total_lines(&self) -> u64 {
        self.total_banks() as u64 * self.rows_per_bank as u64 * self.cols_per_row as u64
    }

    /// Total capacity in bytes (64-byte lines).
    pub fn capacity_bytes(&self) -> u64 {
        self.total_lines() * 64
    }

    /// Returns true if `loc` is within this geometry's bounds.
    pub fn contains(&self, loc: &Location) -> bool {
        loc.channel.0 < self.channels
            && loc.rank.0 < self.ranks_per_channel
            && loc.bank.0 < self.banks_per_rank
            && loc.row.0 < self.rows_per_bank
            && loc.col.0 < self.cols_per_row
    }
}

impl Default for Geometry {
    fn default() -> Self {
        Geometry::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_shape() {
        let g = Geometry::paper_default();
        assert_eq!(g.channels(), 1);
        assert_eq!(g.ranks_per_channel(), 8);
        assert_eq!(g.banks_per_rank(), 8);
        assert_eq!(g.total_banks(), 64);
    }

    #[test]
    fn capacity_is_positive_and_line_addressable() {
        let g = Geometry::paper_default();
        // 8 ranks x 8 banks x 32768 rows x 128 cols x 64 B = 16 GiB.
        assert_eq!(g.capacity_bytes(), 16 * 1024 * 1024 * 1024);
        assert_eq!(g.total_lines() * 64, g.capacity_bytes());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        Geometry::new(3, 8, 8, 32768, 128);
    }

    #[test]
    fn contains_checks_all_fields() {
        let g = Geometry::tiny();
        let ok = Location {
            channel: ChannelId(0),
            rank: RankId(1),
            bank: BankId(3),
            row: RowId(63),
            col: ColId(15),
        };
        assert!(g.contains(&ok));
        let bad = Location { rank: RankId(2), ..ok };
        assert!(!g.contains(&bad));
    }

    #[test]
    fn line_addr_roundtrip() {
        let a = LineAddr::from_byte_addr(0x1234_5678);
        assert_eq!(a.byte_addr(), 0x1234_5640); // rounded down to 64B
        assert_eq!(LineAddr::from_byte_addr(a.byte_addr()), a);
    }
}
