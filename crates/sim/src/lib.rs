//! # fsmc-sim — the full-system simulator
//!
//! Wires the substrates together: out-of-order cores ([`fsmc_cpu`])
//! driven by synthetic traces ([`fsmc_workload`]) issue memory requests
//! through per-core MSHRs into a memory controller ([`fsmc_core`]) that
//! drives a cycle-accurate DDR3 channel ([`fsmc_dram`]); activity
//! counters feed the energy model ([`fsmc_energy`]).
//!
//! The CPU runs four cycles per DRAM bus cycle (3.2 GHz vs 800 MHz,
//! Table 1).
//!
//! * [`config`] — [`config::SystemConfig`], defaulting to the paper's
//!   Table 1 system.
//! * [`system`] — [`system::System`], the cycle loop.
//! * [`stats`] — run statistics and weighted-IPC helpers.
//! * [`runner`] — experiment orchestration: run a workload mix under the
//!   baseline to obtain normalisation IPCs, then under each policy.
//! * [`engine`] — the deterministic parallel experiment engine:
//!   declare a grid of independent jobs as an [`engine::ExperimentPlan`],
//!   execute them on an `FSMC_THREADS`-sized worker pool with memoized
//!   trace synthesis, and read byte-identical per-slot results at any
//!   thread count.
//! * [`error`] — the typed failure hierarchy ([`error::FsmcError`]):
//!   solver infeasibility, bad configuration, runtime timing poisoning,
//!   trace corruption, watchdog-detected starvation and online invariant
//!   breaches — failing runs carry fault-plan provenance for one-line
//!   repro.
//! * [`faults`] — deterministic, seedable fault injection
//!   ([`faults::FaultPlan`]) for robustness experiments.
//! * [`monitor`] — the online invariant monitor
//!   ([`monitor::InvariantMonitor`]): Table-1 stream legality, FS slot
//!   cadence, refresh deadlines and queue bounds, checked as commands
//!   issue.
//! * [`campaign`] — the chaos campaign: seeded fault-plan populations,
//!   outcome classification against a fault-free reference, and greedy
//!   shrinking of failing plans to 1-minimal fault sets.
//! * [`spec`] — serializable job specs for the experiment service
//!   ([`spec::JobSpec`]): canonical text encoding, a stable SHA-256
//!   cache key, and bit-exact result/failure payloads for transport
//!   between worker processes and the result cache.
//! * [`mod@env`] — every `FSMC_*` environment knob, parsed in one place
//!   with uniform malformed-value warnings.
//!
//! Observability ([`fsmc_obs`]) hooks into [`system::System`] via
//! [`system::System::enable_tracing`] /
//! [`system::System::enable_metrics`]: both are `Option`-gated, so a
//! system with neither armed runs the exact pre-observability hot path.

pub mod campaign;
pub mod config;
pub mod engine;
pub mod env;
pub mod error;
pub mod faults;
pub mod monitor;
pub mod runner;
pub mod spec;
pub mod stats;
pub mod system;

pub use campaign::{
    classify, generate_population, run_campaign, run_single, shrink, CampaignConfig,
    CampaignReport, CaseReport, Outcome, SplitMix64,
};
pub use config::SystemConfig;
pub use engine::{ControllerFactory, Engine, ExperimentJob, ExperimentPlan};
pub use error::{
    FaultProvenance, FsmcError, InvariantBreach, MonitorFinding, ServiceFailure, TimingFault,
    WatchdogReport,
};
pub use faults::{FaultKind, FaultPlan, TimingField};
pub use monitor::InvariantMonitor;
pub use runner::{
    run_mix, run_mix_faulted, run_mix_suite, run_mix_suite_faulted, RunResult, SuiteResult,
};
pub use spec::JobSpec;
pub use stats::SystemStats;
pub use system::{CoreCounters, System};
