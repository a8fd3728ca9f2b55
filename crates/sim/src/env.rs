//! Environment knobs, parsed in one place.
//!
//! Every `FSMC_*` variable the workspace honours goes through this
//! module, so malformed values produce one uniform warning (never a
//! silent fallback, never a panic) and the set of knobs is documented by
//! the accessor list below:
//!
//! * [`cycles`] — `FSMC_CYCLES`, cycle budget for figure binaries.
//! * [`seed`] — `FSMC_SEED`, workload seed for figure binaries.
//! * [`threads`] — `FSMC_THREADS`, worker-pool width (results are
//!   byte-identical at any value; only wall-clock time changes).
//! * [`no_fastpath`] — `FSMC_NO_FASTPATH`, force per-cycle stepping.
//! * [`results_dir`] — `FSMC_RESULTS_DIR`, where experiment binaries
//!   write their CSV/JSON outputs.
//! * [`device`] — `FSMC_DEVICE`, the device generation to simulate
//!   (`ddr3-1600`, `ddr4-2400`, `lpddr4-3200`, `hbm2`).
//! * [`serve_socket`] — `FSMC_SERVE`, path of the experiment-service
//!   socket; when set, suite/figure runs submit through the daemon.
//! * [`serve_workers`] — `FSMC_SERVE_WORKERS`, worker-process pool size
//!   for `fsmc serve`.
//! * [`job_timeout_ms`] — `FSMC_JOB_TIMEOUT`, per-job deadline in
//!   milliseconds enforced by the service watchdog.
//! * [`cache_dir`] — `FSMC_CACHE_DIR`, root of the content-addressed
//!   result cache.

use fsmc_dram::DeviceGeneration;
use std::path::PathBuf;

/// Reads an integer environment knob, warning (rather than silently
/// defaulting) when the variable is set but malformed.
pub fn env_u64(name: &str, default: u64) -> u64 {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => default,
        Err(std::env::VarError::NotUnicode(v)) => {
            eprintln!("warning: {name}={v:?} is not valid unicode; using default {default}");
            default
        }
        Ok(s) => match s.trim().parse() {
            Ok(v) => v,
            Err(_) => {
                eprintln!("warning: {name}={s:?} is not a valid integer; using default {default}");
                default
            }
        },
    }
}

/// Reads a boolean environment knob (`1`/`true`/`yes`/`on` vs
/// `0`/`false`/`no`/`off`), warning (rather than silently defaulting)
/// when the variable is set but malformed.
pub fn env_flag(name: &str, default: bool) -> bool {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => default,
        Err(std::env::VarError::NotUnicode(v)) => {
            eprintln!("warning: {name}={v:?} is not valid unicode; using default {default}");
            default
        }
        Ok(s) => match s.trim().to_ascii_lowercase().as_str() {
            "" => default,
            "1" | "true" | "yes" | "on" => true,
            "0" | "false" | "no" | "off" => false,
            other => {
                eprintln!(
                    "warning: {name}={other:?} is not a boolean flag; using default {default}"
                );
                default
            }
        },
    }
}

/// `FSMC_CYCLES`: DRAM-cycle budget for experiment binaries.
pub fn cycles(default: u64) -> u64 {
    env_u64("FSMC_CYCLES", default)
}

/// `FSMC_SEED`: workload seed for experiment binaries.
pub fn seed(default: u64) -> u64 {
    env_u64("FSMC_SEED", default)
}

/// `FSMC_THREADS`: worker-pool width for the experiment engine,
/// defaulting to the machine's available parallelism. Zero (like any
/// malformed value) is reported and replaced by the default.
pub fn threads() -> usize {
    let default = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let threads = env_u64("FSMC_THREADS", default as u64);
    if threads == 0 {
        eprintln!("warning: FSMC_THREADS=0 is not a valid thread count; using {default}");
        return default;
    }
    threads as usize
}

/// `FSMC_NO_FASTPATH`: force per-cycle stepping (results are
/// bit-identical either way; only wall-clock time changes).
pub fn no_fastpath() -> bool {
    env_flag("FSMC_NO_FASTPATH", false)
}

/// `FSMC_DEVICE`: the device generation experiment binaries simulate.
/// Accepts any [`DeviceGeneration::parse`] spelling (case-insensitive,
/// `_` or `-`); a malformed value is reported and replaced by the
/// default.
pub fn device(default: DeviceGeneration) -> DeviceGeneration {
    match std::env::var("FSMC_DEVICE") {
        Err(std::env::VarError::NotPresent) => default,
        Err(std::env::VarError::NotUnicode(v)) => {
            eprintln!("warning: FSMC_DEVICE={v:?} is not valid unicode; using default {default}");
            default
        }
        Ok(s) => match DeviceGeneration::parse(s.trim()) {
            Some(d) => d,
            None => {
                eprintln!(
                    "warning: FSMC_DEVICE={s:?} is not a known device generation \
                     (expected one of ddr3-1600, ddr4-2400, lpddr4-3200, hbm2); \
                     using default {default}"
                );
                default
            }
        },
    }
}

/// `FSMC_RESULTS_DIR`: where experiment binaries write their outputs.
/// `None` when unset; an empty value is reported and treated as unset.
pub fn results_dir() -> Option<PathBuf> {
    let v = std::env::var_os("FSMC_RESULTS_DIR")?;
    if v.is_empty() {
        eprintln!("warning: FSMC_RESULTS_DIR is set but empty; ignoring it");
        return None;
    }
    Some(PathBuf::from(v))
}

/// `FSMC_SERVE`: path of the experiment-service Unix socket. `None`
/// when unset; an empty value is reported and treated as unset. When
/// this returns `Some`, suite and figure runs submit their jobs through
/// the daemon instead of simulating in-process.
pub fn serve_socket() -> Option<PathBuf> {
    let v = std::env::var_os("FSMC_SERVE")?;
    if v.is_empty() {
        eprintln!("warning: FSMC_SERVE is set but empty; ignoring it");
        return None;
    }
    Some(PathBuf::from(v))
}

/// `FSMC_SERVE_WORKERS`: worker-process pool size for `fsmc serve`,
/// defaulting to the machine's available parallelism. Zero (like any
/// malformed value) is reported and replaced by the default.
pub fn serve_workers() -> usize {
    let default = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let workers = env_u64("FSMC_SERVE_WORKERS", default as u64);
    if workers == 0 {
        eprintln!("warning: FSMC_SERVE_WORKERS=0 is not a valid pool size; using {default}");
        return default;
    }
    workers as usize
}

/// `FSMC_JOB_TIMEOUT`: per-job deadline in milliseconds enforced by the
/// experiment-service watchdog; a worker past its deadline is killed and
/// its job retried. Zero (like any malformed value) is reported and
/// replaced by the default (120 s).
pub fn job_timeout_ms() -> u64 {
    const DEFAULT: u64 = 120_000;
    let ms = env_u64("FSMC_JOB_TIMEOUT", DEFAULT);
    if ms == 0 {
        eprintln!("warning: FSMC_JOB_TIMEOUT=0 is not a valid deadline; using {DEFAULT} ms");
        return DEFAULT;
    }
    ms
}

/// `FSMC_CACHE_DIR`: root of the content-addressed result cache,
/// defaulting to `results/cache`. An empty value is reported and
/// replaced by the default.
pub fn cache_dir() -> PathBuf {
    const DEFAULT: &str = "results/cache";
    match std::env::var_os("FSMC_CACHE_DIR") {
        None => PathBuf::from(DEFAULT),
        Some(v) if v.is_empty() => {
            eprintln!("warning: FSMC_CACHE_DIR is set but empty; using default {DEFAULT}");
            PathBuf::from(DEFAULT)
        }
        Some(v) => PathBuf::from(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Each test owns its real variable name. Concurrent tests in this
    // binary may observe the temporary values, but every knob here is
    // results-neutral by design (thread count, fast path) or unread by
    // the test suite (cycles, seed, results dir), so cross-test races
    // cannot change any assertion.

    #[test]
    fn env_u64_rejects_garbage_with_default() {
        std::env::set_var("FSMC_ENGINE_TEST_KNOB", "not-a-number");
        assert_eq!(env_u64("FSMC_ENGINE_TEST_KNOB", 17), 17);
        std::env::set_var("FSMC_ENGINE_TEST_KNOB", " 23 ");
        assert_eq!(env_u64("FSMC_ENGINE_TEST_KNOB", 17), 23);
        std::env::remove_var("FSMC_ENGINE_TEST_KNOB");
        assert_eq!(env_u64("FSMC_ENGINE_TEST_KNOB", 17), 17);
    }

    #[test]
    fn fsmc_cycles_parses_and_rejects_garbage() {
        std::env::set_var("FSMC_CYCLES", "120000");
        assert_eq!(cycles(7), 120_000);
        std::env::set_var("FSMC_CYCLES", "a-lot");
        assert_eq!(cycles(7), 7);
        std::env::remove_var("FSMC_CYCLES");
        assert_eq!(cycles(7), 7);
    }

    #[test]
    fn fsmc_seed_parses_with_whitespace() {
        std::env::set_var("FSMC_SEED", " 99 ");
        assert_eq!(seed(42), 99);
        std::env::set_var("FSMC_SEED", "");
        assert_eq!(seed(42), 42);
        std::env::remove_var("FSMC_SEED");
        assert_eq!(seed(42), 42);
    }

    #[test]
    fn fsmc_threads_rejects_zero_and_garbage() {
        let fallback = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        std::env::set_var("FSMC_THREADS", "3");
        assert_eq!(threads(), 3);
        std::env::set_var("FSMC_THREADS", "0");
        assert_eq!(threads(), fallback);
        std::env::set_var("FSMC_THREADS", "many");
        assert_eq!(threads(), fallback);
        std::env::remove_var("FSMC_THREADS");
        assert_eq!(threads(), fallback);
    }

    #[test]
    fn fsmc_no_fastpath_accepts_boolean_spellings() {
        for (v, expect) in [("1", true), ("yes", true), ("ON", true), ("0", false), ("no", false)] {
            std::env::set_var("FSMC_NO_FASTPATH", v);
            assert_eq!(no_fastpath(), expect, "FSMC_NO_FASTPATH={v}");
        }
        std::env::set_var("FSMC_NO_FASTPATH", "maybe");
        assert!(!no_fastpath(), "malformed value falls back to the default");
        std::env::remove_var("FSMC_NO_FASTPATH");
        assert!(!no_fastpath());
    }

    #[test]
    fn fsmc_device_parses_and_rejects_garbage() {
        std::env::set_var("FSMC_DEVICE", "lpddr4-3200");
        assert_eq!(device(DeviceGeneration::Ddr3_1600), DeviceGeneration::Lpddr4_3200);
        std::env::set_var("FSMC_DEVICE", " HBM2 ");
        assert_eq!(device(DeviceGeneration::Ddr3_1600), DeviceGeneration::Hbm2);
        std::env::set_var("FSMC_DEVICE", "ddr5-9999");
        assert_eq!(device(DeviceGeneration::Ddr4_2400), DeviceGeneration::Ddr4_2400);
        std::env::remove_var("FSMC_DEVICE");
        assert_eq!(device(DeviceGeneration::Ddr3_1600), DeviceGeneration::Ddr3_1600);
    }

    #[test]
    fn fsmc_serve_ignores_empty() {
        std::env::set_var("FSMC_SERVE", "/tmp/fsmc.sock");
        assert_eq!(serve_socket(), Some(PathBuf::from("/tmp/fsmc.sock")));
        std::env::set_var("FSMC_SERVE", "");
        assert_eq!(serve_socket(), None);
        std::env::remove_var("FSMC_SERVE");
        assert_eq!(serve_socket(), None);
    }

    #[test]
    fn fsmc_serve_workers_rejects_zero_and_garbage() {
        let fallback = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        std::env::set_var("FSMC_SERVE_WORKERS", "5");
        assert_eq!(serve_workers(), 5);
        std::env::set_var("FSMC_SERVE_WORKERS", "0");
        assert_eq!(serve_workers(), fallback);
        std::env::set_var("FSMC_SERVE_WORKERS", "a-few");
        assert_eq!(serve_workers(), fallback);
        std::env::remove_var("FSMC_SERVE_WORKERS");
        assert_eq!(serve_workers(), fallback);
    }

    #[test]
    fn fsmc_job_timeout_rejects_zero_and_garbage() {
        std::env::set_var("FSMC_JOB_TIMEOUT", "2500");
        assert_eq!(job_timeout_ms(), 2500);
        std::env::set_var("FSMC_JOB_TIMEOUT", "0");
        assert_eq!(job_timeout_ms(), 120_000);
        std::env::set_var("FSMC_JOB_TIMEOUT", "soon");
        assert_eq!(job_timeout_ms(), 120_000);
        std::env::remove_var("FSMC_JOB_TIMEOUT");
        assert_eq!(job_timeout_ms(), 120_000);
    }

    #[test]
    fn fsmc_cache_dir_defaults_and_ignores_empty() {
        std::env::set_var("FSMC_CACHE_DIR", "/tmp/fsmc-cache");
        assert_eq!(cache_dir(), PathBuf::from("/tmp/fsmc-cache"));
        std::env::set_var("FSMC_CACHE_DIR", "");
        assert_eq!(cache_dir(), PathBuf::from("results/cache"));
        std::env::remove_var("FSMC_CACHE_DIR");
        assert_eq!(cache_dir(), PathBuf::from("results/cache"));
    }

    #[test]
    fn fsmc_results_dir_ignores_empty() {
        std::env::set_var("FSMC_RESULTS_DIR", "/tmp/fsmc-results");
        assert_eq!(results_dir(), Some(PathBuf::from("/tmp/fsmc-results")));
        std::env::set_var("FSMC_RESULTS_DIR", "");
        assert_eq!(results_dir(), None);
        std::env::remove_var("FSMC_RESULTS_DIR");
        assert_eq!(results_dir(), None);
    }
}
