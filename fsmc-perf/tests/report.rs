use fsmc_perf::compare::{self, Rule};
use fsmc_perf::json::{self, Json};
use fsmc_perf::report::{Metric, RunReport, END_TO_END};
use std::collections::BTreeMap;

fn sample(seed: u64, makespan: f64, started: u64) -> RunReport {
    let mut r = RunReport::new("fig-secure", seed, false, 2);
    r.started_unix_ms = started;
    r.attempted = 2916;
    r.failed = 1;
    r.fail("mix1/hbm2/fs-rp/43: per-cycle run differs \"quoted\"\nsecond line".to_string());
    r.push(Metric::new("setup_s", 0.000249671, 11));
    r.push(Metric::new("makespan_s", makespan, 5));
    r.push(Metric::new("job_tail_ms", 39.364405440000006, 2880).with_note("p99".to_string()));
    r.push(Metric::new("peak_rss_mb", 1e-7, 1));
    r.digests = vec![("mix1/ddr3-1600/fs-rp/42".to_string(), "ab".repeat(32))];
    r
}

#[test]
fn result_json_round_trips_exactly() {
    let r = sample(u64::MAX - 1, 2.767681286, 1_790_000_000_123);
    let back = RunReport::from_json(&r.to_json()).expect("parses");
    assert_eq!(back, r);
    assert_eq!(back.metrics[1].value.to_bits(), r.metrics[1].value.to_bits());
}

#[test]
fn result_line_has_exactly_the_contract_keys() {
    let r = sample(7, 2.5, 0);
    let v = json::parse(&r.result_line()).expect("result line is JSON");
    let keys: Vec<&String> = v.as_object().expect("object").keys().collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(v.get("correct"), Some(&Json::Bool(false)));
    let m = v.get("metrics").and_then(|m| m.get("makespan_s")).expect("makespan");
    assert_eq!(m.get("value").and_then(Json::as_f64), Some(2.5));
    assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
}

#[test]
fn completeness_check_flags_missing_metrics() {
    let mut r = sample(7, 2.5, 0);
    r.failures.clear();
    r.check_complete();
    assert_eq!(r.failures.len(), 1, "{:?}", r.failures);
    assert!(r.failures[0].contains("job_p50_ms"));
    assert_eq!(END_TO_END.len(), 5);
}

#[test]
fn compare_applies_the_paired_rule() {
    let rules: BTreeMap<String, Rule> =
        [("makespan_s".to_string(), Rule { lower_is_better: true, bound: Some(0.1) })].into();
    let runs = |base: f64, step: f64, t0: u64| -> Vec<RunReport> {
        (0..10).map(|i| sample(i, base + step * i as f64, t0 + 2 * i * 1000)).collect()
    };
    let row = |parent: &[RunReport], change: &[RunReport]| {
        compare::compare(parent, change, &rules)
            .into_iter()
            .find(|r| r.metric == "makespan_s")
            .expect("makespan row")
    };
    let parent = runs(3.0, 0.001, 0);
    // Alternating: the change side runs first in every other pair.
    let faster: Vec<RunReport> = runs(2.0, 0.001, 1000)
        .into_iter()
        .enumerate()
        .map(|(i, mut r)| {
            if i % 2 == 1 {
                r.started_unix_ms -= 1500;
            }
            r
        })
        .collect();
    let better = row(&parent, &faster);
    assert_eq!((better.verdict, better.wins, better.pairs), ("better", 10, 10));
    assert!(better.alternating);
    assert_eq!(row(&parent, &runs(3.5, 0.001, 1000)).verdict, "worse");
    assert_eq!(row(&parent, &runs(3.1, 0.001, 1000)).verdict, "no-regression");
    assert_eq!(row(&parent, &parent[..5]).verdict, "too-few-pairs");
    let noisy = runs(3.0, 0.3, 0);
    assert_eq!(row(&noisy, &runs(3.2, 0.3, 1000)).verdict, "unresolved");
}
