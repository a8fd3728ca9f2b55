//! `BENCHMARK.json` and the code's metric catalogue must agree.

use fsmc_perf::json::{self, Json};
use fsmc_perf::report::{END_TO_END, PER_LAYER};
use fsmc_perf::workloads::Workload;

fn benchmark() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names(list: &Json) -> Vec<(String, String)> {
    list.as_array()
        .expect("array")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn declares_exactly_the_measured_metrics_and_workloads() {
    let b = benchmark();
    let keys: Vec<&String> = b.as_object().expect("object").keys().collect();
    assert_eq!(keys, ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]);
    let want = |l: &[(&str, &str)]| -> Vec<(String, String)> {
        l.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    };
    assert_eq!(names(b.get("end_to_end").unwrap()), want(&END_TO_END));
    assert_eq!(names(b.get("per_layer").unwrap()), want(&PER_LAYER));
    let workloads: Vec<&str> = b
        .get("workloads")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    assert_eq!(workloads, Workload::ALL.map(Workload::name));
}

#[test]
fn bounds_are_within_the_limit_and_setup_has_the_largest() {
    let b = benchmark();
    let e2e = b.get("end_to_end").and_then(Json::as_array).unwrap();
    let bound = |m: &Json| m.get("bound").and_then(Json::as_f64).expect("bound");
    let setup = e2e.iter().find(|m| m.get("name") == Some(&Json::Str("setup_s".into()))).unwrap();
    for m in e2e {
        assert!(bound(m) > 0.0 && bound(m) <= 0.25);
        assert!(bound(m) <= bound(setup));
    }
    let seconds = b.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
}
