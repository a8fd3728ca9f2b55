//! # fsmc-dram — cycle-accurate DDR3 DRAM substrate
//!
//! This crate models the DRAM side of the memory system used by the
//! Fixed-Service (FS) memory-controller study: device geometry
//! (channels / ranks / banks / rows / columns), physical-address mapping,
//! the full DDR3 timing-parameter set of the paper's Table 1, per-bank and
//! per-rank state machines, shared command/data-bus occupancy, refresh and
//! power-down states.
//!
//! The JEDEC timing rules are implemented twice, independently:
//!
//! * [`device::DramDevice`] — an *incremental* model that a memory
//!   controller drives cycle by cycle (`can_issue` / `issue`), and
//! * [`monitor::StreamMonitor`] — the rule engine, which judges a command
//!   stream one command at a time. It has an *online* entry point (feed
//!   the monitor as the stream is produced) and a *replay* entry point,
//!   [`checker::TimingChecker`], which sorts a recorded log by cycle and
//!   feeds it through a fresh monitor.
//!
//! Property tests cross-check the device's streams against the rule
//! engine; the replay checker is also the executable witness for the
//! paper's claim that FS pipelines are free of resource conflicts, and the
//! online monitor turns that one-shot audit into a continuously-enforced
//! invariant.
//!
//! ## Example
//!
//! ```
//! use fsmc_dram::geometry::Geometry;
//! use fsmc_dram::timing::TimingParams;
//! use fsmc_dram::device::DramDevice;
//! use fsmc_dram::command::Command;
//! use fsmc_dram::geometry::{RankId, BankId, RowId, ColId};
//!
//! let geom = Geometry::paper_default();
//! let timing = TimingParams::ddr3_1600();
//! let mut dev = DramDevice::new(geom, timing);
//! let act = Command::activate(RankId(0), BankId(0), RowId(42));
//! assert!(dev.can_issue(&act, 10).is_ok());
//! dev.issue(&act, 10);
//! let rd = Command::read_ap(RankId(0), BankId(0), RowId(42), ColId(3));
//! // tRCD = 11 must elapse before the column read.
//! assert!(dev.can_issue(&rd, 20).is_err());
//! assert!(dev.can_issue(&rd, 21).is_ok());
//! ```

pub mod bank;
pub mod channel;
pub mod checker;
pub mod command;
pub mod counters;
pub mod device;
pub mod geometry;
pub mod mapping;
pub mod monitor;
pub mod profile;
pub mod rank;
pub mod timing;

pub use bank::{BankArrays, NO_ROW};
pub use checker::{TimingChecker, Violation};
pub use command::{Command, CommandKind};
pub use counters::ActivityCounters;
pub use device::{DramDevice, ObsCommand};
pub use geometry::{BankId, ChannelId, ColId, Geometry, LineAddr, Location, RankId, RowId};
pub use mapping::{AddressMapping, MappingScheme};
pub use monitor::StreamMonitor;
pub use profile::{DeviceGeneration, DeviceProfile};
pub use timing::TimingParams;

/// A simulation timestamp in DRAM bus cycles.
///
/// All timing parameters in this crate are expressed in this clock domain
/// (800 MHz for the DDR3-1600 part of the paper). The CPU clock of the
/// full-system simulator runs at a fixed 4:1 ratio to this clock.
pub type Cycle = u64;
