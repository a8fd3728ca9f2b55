//! # fsmc-core — Fixed-Service memory controller policies
//!
//! The paper's primary contribution, implemented as a library:
//!
//! * [`solver`] — the mathematical framework of Section 3/4: given DDR3
//!   timing parameters, an anchor discipline (fixed periodic data, RAS or
//!   CAS) and a spatial-partitioning level, derive the minimum slot pitch
//!   `l` such that the resulting pipeline has **zero resource conflicts**,
//!   and materialise concrete slot schedules (including the reordered
//!   bank-partitioned and triple-alternation variants).
//! * [`sched`] — three memory-controller implementations sharing one
//!   trait: the non-secure FR-FCFS baseline, Temporal Partitioning (TP,
//!   the prior state of the art), and Fixed Service (FS) in all the
//!   paper's variants.
//! * [`domain`] — security domains and spatial partition assignment.
//! * [`txn`] / [`queues`] — memory transactions and the per-domain
//!   transaction queues of the proposed microarchitecture.
//! * [`prefetch`] — the sandbox prefetcher used to turn dummy slots into
//!   useful work.
//! * [`refresh`] — the deterministic, domain-independent refresh manager
//!   shared by every policy.
//!
//! ## Example: solve for the paper's pipelines
//!
//! ```
//! use fsmc_core::solver::{solve, Anchor, PartitionLevel};
//! use fsmc_dram::TimingParams;
//!
//! let t = TimingParams::ddr3_1600();
//! let rank = solve(&t, Anchor::FixedPeriodicData, PartitionLevel::Rank).unwrap();
//! assert_eq!(rank.l, 7); // Section 3.1: "the smallest value of l ... is 7"
//! let bank = solve(&t, Anchor::FixedPeriodicRas, PartitionLevel::Bank).unwrap();
//! assert_eq!(bank.l, 15); // Section 4.2
//! ```

pub mod domain;
pub mod error;
pub mod prefetch;
pub mod queues;
pub mod refresh;
pub mod sched;
pub mod solver;
pub mod txn;

pub use domain::{DomainId, PartitionPolicy};
pub use error::{ConfigError, CoreError};
pub use sched::{
    CadenceSpec, Completion, MemoryController, SchedEvent, SchedulerKind, SlotGrantKind,
};
pub use txn::{Transaction, TxnId, TxnKind};
