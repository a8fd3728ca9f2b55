//! # fsmc-obs — observability subsystem
//!
//! Structured tracing and per-domain metrics for the FS memory-controller
//! simulator. The crate is deliberately a dependency-free leaf: events
//! carry plain integers (rank/bank/domain as `u8`, rows as `u32`, cycles
//! as `u64`) so every layer of the workspace — `fsmc-dram`, `fsmc-core`,
//! `fsmc-sim` — can feed it without a dependency cycle. The simulation
//! layer owns the conversion from its native command/transaction types.
//!
//! ## Overhead contract
//!
//! Observability is `Option`-gated at every hook site: a `System` holds
//! `Option<TraceSink>` / `Option<MetricsCollector>`, the DRAM device an
//! `Option<Vec<..>>` command tap. When disabled (the default) the hooks
//! reduce to a `None` check — no allocation, no event construction — and
//! simulation results are bit-identical with the hooks compiled in
//! (`tests/determinism.rs` proves this end to end).
//!
//! ## Determinism contract
//!
//! All metrics are *event-based*, never wall-clock- or poll-based:
//! latencies are recorded when a transaction retires, row locality is
//! classified from the drained command stream, queue occupancy is
//! sampled at each arrival. The fast-path (`skip_ahead`/`run_span`)
//! and per-cycle simulation paths therefore produce identical reports,
//! and because each engine slot computes its own report single-threaded,
//! output is byte-identical at any `FSMC_THREADS`.

pub mod chrome;
pub mod event;
pub mod metrics;
pub mod sink;

pub use chrome::{ChromeTraceBuilder, LaneLayout, LanePartition};
pub use event::{CmdClass, SlotKind, TraceEvent};
pub use metrics::{DomainLatency, LatencyHistogram, MetricsCollector, MetricsReport};
pub use sink::TraceSink;
