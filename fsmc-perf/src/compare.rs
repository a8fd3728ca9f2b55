//! `fsmc-perf compare PARENT_DIR CHANGE_DIR`: the paired-runs rule for
//! judging a change against its parent, one row per (workload, metric).
//!
//! Runs pair up by (workload, traced, seed). A gain needs at least ten
//! pairs, the change winning at least nine of every ten (ties count for
//! neither side), and medians further apart than the parent's
//! interquartile range. A metric whose parent spread exceeds its bound is
//! unresolved unless every change run beats every parent run.

use crate::json::{self, Json};
use crate::report::RunReport;
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::path::Path;

pub const MIN_PAIRS: usize = 10;

/// A metric's direction and regression bound, from `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rule {
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen;
    /// `None` for per-layer metrics, which have no bound.
    pub bound: Option<f64>,
}

/// Reads the metric rules from a `BENCHMARK.json` document.
///
/// # Errors
///
/// A description of the first malformed entry.
pub fn rules(benchmark_json: &str) -> Result<BTreeMap<String, Rule>, String> {
    let doc = json::parse(benchmark_json)?;
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in doc.get(key).and_then(Json::as_array).ok_or(format!("{key} missing"))? {
            let name = m.get("name").and_then(Json::as_str).ok_or("metric without a name")?;
            let lower_is_better = match m.get("better").and_then(Json::as_str) {
                Some("lower") => true,
                Some("higher") => false,
                _ => return Err(format!("{name}: better must be lower or higher")),
            };
            let bound = m.get("bound").and_then(Json::as_f64);
            out.insert(name.to_string(), Rule { lower_is_better, bound });
        }
    }
    Ok(out)
}

/// Every result record in `dir` (`*.json` files other than span traces).
///
/// # Errors
///
/// The directory cannot be read, or a result file does not parse.
pub fn load(dir: &Path) -> Result<Vec<RunReport>, String> {
    let mut out = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if !name.ends_with(".json") || name.ends_with(".trace.json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{name}: {e}"))?;
        out.push(RunReport::from_json(&text).map_err(|e| format!("{name}: {e}"))?);
    }
    Ok(out)
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    fn of(v: &[f64]) -> Side {
        let (q1, q3) = quartiles(v);
        Side { median: median(v), q1, q3 }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub pairs: usize,
    pub wins: usize,
    pub parent: Side,
    pub change: Side,
    /// `better`, `worse`, `no-regression`, `same`, `unresolved`, or
    /// `too-few-pairs`.
    pub verdict: &'static str,
    /// Whether the pairs alternated which side ran first.
    pub alternating: bool,
}

/// One parent run and the change run of the same seed, for one metric.
#[derive(Debug, Clone, Copy)]
struct Pair {
    started_ms: u64,
    parent: f64,
    change: f64,
    parent_first: bool,
}

/// Applies the rule to every (workload, metric) both sides measured.
pub fn compare(
    parent: &[RunReport],
    change: &[RunReport],
    rules: &BTreeMap<String, Rule>,
) -> Vec<Row> {
    let mut pairs: BTreeMap<(String, String), Vec<Pair>> = BTreeMap::new();
    for p in parent {
        let Some(c) = change
            .iter()
            .find(|c| c.workload == p.workload && c.traced == p.traced && c.seed == p.seed)
        else {
            continue;
        };
        for pm in &p.metrics {
            if let Some(cm) = c.metric(&pm.name) {
                pairs.entry((p.workload.clone(), pm.name.clone())).or_default().push(Pair {
                    started_ms: p.started_unix_ms.min(c.started_unix_ms),
                    parent: pm.value,
                    change: cm.value,
                    parent_first: p.started_unix_ms < c.started_unix_ms,
                });
            }
        }
    }
    let mut rows = Vec::new();
    for ((workload, metric), mut v) in pairs {
        v.sort_by_key(|x| x.started_ms);
        let rule =
            rules.get(&metric).copied().unwrap_or(Rule { lower_is_better: true, bound: None });
        rows.push(row(workload, metric, &v, rule));
    }
    rows
}

fn row(workload: String, metric: String, v: &[Pair], rule: Rule) -> Row {
    let beats = |a: f64, b: f64| if rule.lower_is_better { a < b } else { a > b };
    let pv: Vec<f64> = v.iter().map(|x| x.parent).collect();
    let cv: Vec<f64> = v.iter().map(|x| x.change).collect();
    let (parent, change) = (Side::of(&pv), Side::of(&cv));
    let wins = v.iter().filter(|x| beats(x.change, x.parent)).count();
    let losses = v.iter().filter(|x| beats(x.parent, x.change)).count();
    let alternating = v.windows(2).all(|w| w[0].parent_first != w[1].parent_first);
    let iqr = parent.q3 - parent.q1;
    let apart = (change.median - parent.median).abs() > iqr;
    let n = v.len();
    let verdict = if n < MIN_PAIRS {
        "too-few-pairs"
    } else if wins * 10 >= n * 9 && apart && beats(change.median, parent.median) {
        "better"
    } else if let Some(bound) = rule.bound {
        let scale = parent.median.abs();
        let spread = if scale == 0.0 { 0.0 } else { iqr / scale };
        let every_run_better = if rule.lower_is_better {
            cv.iter().copied().fold(f64::MIN, f64::max)
                < pv.iter().copied().fold(f64::MAX, f64::min)
        } else {
            cv.iter().copied().fold(f64::MAX, f64::min)
                > pv.iter().copied().fold(f64::MIN, f64::max)
        };
        let worse_by = if rule.lower_is_better {
            change.median - parent.median
        } else {
            parent.median - change.median
        };
        if spread > bound && !every_run_better {
            "unresolved"
        } else if worse_by > bound * scale {
            "worse"
        } else {
            "no-regression"
        }
    } else if losses * 10 >= n * 9 && apart {
        "worse"
    } else {
        "same"
    };
    Row { workload, metric, pairs: n, wins, parent, change, verdict, alternating }
}

/// One line per row, after a header.
pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<11} {:<32} {:>5} {:>4} {:>34} {:>34}  verdict\n",
        "workload", "metric", "pairs", "wins", "parent median [q1, q3]", "change median [q1, q3]"
    );
    let side = |s: &Side| format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3);
    for r in rows {
        out.push_str(&format!(
            "{:<11} {:<32} {:>5} {:>4} {:>34} {:>34}  {}{}\n",
            r.workload,
            r.metric,
            r.pairs,
            r.wins,
            side(&r.parent),
            side(&r.change),
            r.verdict,
            if r.alternating { "" } else { " (pairs did not alternate)" }
        ));
    }
    out
}
