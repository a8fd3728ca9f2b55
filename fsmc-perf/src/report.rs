//! Metric catalogue and the per-run result record.
//!
//! The metric names here are the ones `BENCHMARK.json` declares; a test
//! keeps the two lists in step.

use crate::json::{self, Json};

/// End-to-end metrics `(name, unit)`: reported by every untraced run.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("makespan_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`: reported by every traced run.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("sim.self_ns_per_cycle", "ns"),
    ("sim.skipped_frac", "ratio"),
    ("sim.elided_frac", "ratio"),
    ("sim.build_us", "us"),
    ("sim.engine_idle_frac", "ratio"),
    ("sim.monitor_overhead_frac", "ratio"),
    ("sim.chaos_job_ms", "ms"),
    ("core.tick_per_kcycle", "count"),
    ("core.tick_ns", "ns"),
    ("core.tick_share", "ratio"),
    ("core.tick_issue_ratio", "ratio"),
    ("core.next_event_per_kcycle", "count"),
    ("core.next_event_ns", "ns"),
    ("core.next_event_gain_ratio", "ratio"),
    ("core.fast_forward_per_kcycle", "count"),
    ("core.fast_forward_accept_ratio", "ratio"),
    ("core.fast_forward_cycle_frac", "ratio"),
    ("core.enqueue_per_kcycle", "count"),
    ("core.enqueue_ns", "ns"),
    ("core.can_accept_reject_ratio", "ratio"),
    ("workload.next_op_per_kcycle", "count"),
    ("workload.next_op_ns", "ns"),
    ("workload.trace_share", "ratio"),
    ("dram.cmd_per_kcycle", "count"),
    ("dram.issue_ns_per_cmd", "ns"),
    ("dram.monitor_ns_per_cmd", "ns"),
    ("obs.metrics_overhead_frac", "ratio"),
    ("obs.on_event_ns", "ns"),
    ("obs.events_per_kcycle", "count"),
    ("leak.case_ms", "ms"),
    ("leak.shrink_share", "ratio"),
    ("leak.record_ns", "ns"),
    ("serve.ping_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.key_us", "us"),
    ("serve.decode_us", "us"),
    ("serve.cache_get_us", "us"),
    ("serve.cache_put_ms", "ms"),
    ("serve.worker_exec_ms", "ms"),
    ("serve.cold_overhead_ms", "ms"),
    ("trace_overhead_frac", "ratio"),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples the value was computed from.
    pub n: u64,
    /// Free-form qualifier, e.g. the percentile level of a tail metric.
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, n: usize) -> Metric {
        let unit = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .find(|(m, _)| *m == name)
            .map(|(_, u)| *u)
            .unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            n: n as u64,
            note: String::new(),
        }
    }

    pub fn with_note(mut self, note: String) -> Metric {
        self.note = note;
        self
    }
}

/// Everything one run of one workload measured and checked.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    /// Worker threads / processes the workload ran at.
    pub threads: u64,
    /// Wall-clock start of the run (ms since the Unix epoch), so paired
    /// runs of two commits can be checked for alternation.
    pub started_unix_ms: u64,
    /// Operations attempted: jobs, requests or campaigns.
    pub attempted: u64,
    /// Operations that returned an error or failed a correctness check.
    pub failed: u64,
    /// Correctness-check failures, one line each.
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
    /// `(label, sha256)` of every job result and campaign report.
    pub digests: Vec<(String, String)>,
}

impl RunReport {
    pub fn new(workload: &str, seed: u64, traced: bool, threads: usize) -> RunReport {
        let started_unix_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        RunReport {
            workload: workload.to_string(),
            seed,
            traced,
            threads: threads as u64,
            started_unix_ms,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            metrics: Vec::new(),
            digests: Vec::new(),
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, what: String) {
        self.failures.push(what);
    }

    pub fn push(&mut self, metric: Metric) {
        self.metrics.push(metric);
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Checks that exactly the catalogue's metrics for this kind of run
    /// are present, each finite.
    pub fn check_complete(&mut self) {
        let want: &[(&str, &str)] = if self.traced { &PER_LAYER } else { &END_TO_END };
        for (name, _) in want {
            match self.metric(name) {
                None => self.fail(format!("metric {name} was not measured")),
                Some(m) if !m.value.is_finite() => {
                    let v = m.value;
                    self.fail(format!("metric {name} is not finite ({v})"));
                }
                Some(_) => {}
            }
        }
        let extra: Vec<String> = self
            .metrics
            .iter()
            .filter(|m| !want.iter().any(|(n, _)| *n == m.name))
            .map(|m| m.name.clone())
            .collect();
        for name in extra {
            self.fail(format!("metric {name} is not in the catalogue for this run"));
        }
    }

    /// Human-readable lines: `workload metric value unit n=<samples>`.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let note = if m.note.is_empty() { String::new() } else { format!(" ({})", m.note) };
            out.push_str(&format!(
                "{} {} {} {} n={}{note}\n",
                self.workload, m.name, m.value, m.unit, m.n
            ));
        }
        let frac =
            if self.attempted == 0 { 0.0 } else { self.failed as f64 / self.attempted as f64 };
        out.push_str(&format!("{} fail_frac {frac} ratio n={}\n", self.workload, self.attempted));
        for f in &self.failures {
            out.push_str(&format!("{} CHECK FAILED: {f}\n", self.workload));
        }
        out
    }

    /// The one-line result object: `correct`, `attempted`, `failed`,
    /// `metrics` (`{name: {value, unit}}`).
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(&m.name),
                    num(m.value),
                    json::quote(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The full record, for the JSON copy under `<target>/perf/`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"workload\": {},\n", json::quote(&self.workload)));
        // A string, so seeds beyond 2^53 survive the float-only reader.
        out.push_str(&format!("  \"seed\": \"{}\",\n", self.seed));
        out.push_str(&format!("  \"traced\": {},\n", self.traced));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        out.push_str(&format!("  \"started_unix_ms\": {},\n", self.started_unix_ms));
        out.push_str(&format!("  \"correct\": {},\n", self.correct()));
        out.push_str(&format!("  \"attempted\": {},\n", self.attempted));
        out.push_str(&format!("  \"failed\": {},\n", self.failed));
        let failures: Vec<String> = self.failures.iter().map(|f| json::quote(f)).collect();
        out.push_str(&format!("  \"failures\": [{}],\n", failures.join(", ")));
        out.push_str("  \"metrics\": [\n");
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "    {{\"name\": {}, \"value\": {}, \"unit\": {}, \"n\": {}, \"note\": {}}}",
                    json::quote(&m.name),
                    num(m.value),
                    json::quote(&m.unit),
                    m.n,
                    json::quote(&m.note)
                )
            })
            .collect();
        out.push_str(&metrics.join(",\n"));
        out.push_str("\n  ],\n  \"digests\": [\n");
        let digests: Vec<String> = self
            .digests
            .iter()
            .map(|(l, d)| format!("    [{}, {}]", json::quote(l), json::quote(d)))
            .collect();
        out.push_str(&digests.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Inverse of [`RunReport::to_json`].
    ///
    /// # Errors
    ///
    /// A description of the first missing or mistyped field.
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        let v = json::parse(text)?;
        let num = |k: &str| -> Result<f64, String> {
            v.get(k).and_then(Json::as_f64).ok_or_else(|| format!("field {k} missing"))
        };
        let int = |k: &str| num(k).map(|x| x as u64);
        let traced = match v.get("traced") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("field traced missing".into()),
        };
        let strs = |j: &Json| -> Result<Vec<String>, String> {
            j.as_array()
                .ok_or("expected array")?
                .iter()
                .map(|s| s.as_str().map(str::to_string).ok_or_else(|| "expected string".into()))
                .collect()
        };
        let mut metrics = Vec::new();
        for m in v.get("metrics").and_then(Json::as_array).ok_or("field metrics missing")? {
            let s = |k: &str| -> Result<String, String> {
                m.get(k).and_then(Json::as_str).map(str::to_string).ok_or(format!("metric {k}"))
            };
            metrics.push(Metric {
                name: s("name")?,
                value: m.get("value").and_then(Json::as_f64).ok_or("metric value")?,
                unit: s("unit")?,
                n: m.get("n").and_then(Json::as_f64).ok_or("metric n")? as u64,
                note: s("note")?,
            });
        }
        let mut digests = Vec::new();
        for d in v.get("digests").and_then(Json::as_array).ok_or("field digests missing")? {
            let pair = strs(d)?;
            match <[String; 2]>::try_from(pair) {
                Ok([l, h]) => digests.push((l, h)),
                Err(_) => return Err("digest entries are [label, sha256] pairs".into()),
            }
        }
        Ok(RunReport {
            workload: v
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("field workload missing")?
                .to_string(),
            seed: v
                .get("seed")
                .and_then(Json::as_str)
                .and_then(|s| s.parse().ok())
                .ok_or("field seed missing")?,
            traced,
            threads: int("threads")?,
            started_unix_ms: int("started_unix_ms")?,
            attempted: int("attempted")?,
            failed: int("failed")?,
            failures: strs(v.get("failures").ok_or("field failures missing")?)?,
            metrics,
            digests,
        })
    }
}

/// A finite float as a JSON number with every digit Rust needs to read
/// it back exactly.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}
