//! # fsmc-perf — the end-to-end and per-layer benchmark of `fsmc`
//!
//! Four workloads (`fig-frfcfs`, `fig-secure`, `campaigns`, `serve`)
//! time the system as its users run it, with every layer timed from
//! outside, at its public boundary: decorators around the memory
//! controller and the trace sources, direct calls into the device,
//! monitor, metrics collector, leak estimator, result cache and service
//! client, and the public `monitor` / `with_metrics` toggles. See
//! `README.md` for the workloads, metrics and bounds.

#[cfg(not(target_os = "linux"))]
compile_error!("fsmc-perf reads peak RSS from /proc/<pid>/status");

mod campaigns;
pub mod compare;
pub mod decor;
mod fig;
pub mod json;
mod layers;
pub mod report;
mod serve;
pub mod spans;
mod speed;
pub mod stats;
pub mod workloads;
