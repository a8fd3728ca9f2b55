//! A corrupted golden digest must make the command fail.

use std::path::Path;
use std::process::Command;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/golden/seed-42.txt");

/// Runs one fig-secure body at the golden seed from `root`, where
/// `fsmc-perf/golden/seed-42.txt` holds `golden`.
fn run_with(root: &Path, golden: &str) -> (bool, String) {
    let dir = root.join("fsmc-perf/golden");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("seed-42.txt"), golden).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_fsmc-perf"))
        .args(["--workload", "fig-secure", "--seed", "42", "--seconds", "1", "--trace", "0"])
        .current_dir(root)
        .output()
        .expect("fsmc-perf runs");
    (out.status.success(), String::from_utf8_lossy(&out.stdout).into_owned())
}

#[test]
fn corrupted_golden_digest_fails_the_run() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden-check");
    let golden = std::fs::read_to_string(GOLDEN).expect("committed golden digests");

    let (ok, out) = run_with(&root, &golden);
    assert!(ok, "intact golden digests must pass:\n{out}");

    let line = golden.lines().find(|l| l.starts_with("fig-secure ")).expect("fig-secure digests");
    let digest = line.rsplit(' ').next().unwrap();
    let flipped: String = digest
        .chars()
        .enumerate()
        .map(|(i, c)| {
            if i == 0 && c != '0' {
                '0'
            } else if i == 0 {
                '1'
            } else {
                c
            }
        })
        .collect();
    let corrupted = golden.replacen(line, &line.replace(digest, &flipped), 1);
    let (ok, out) = run_with(&root, &corrupted);
    assert!(!ok, "a corrupted digest must fail the run:\n{out}");
    assert!(out.contains("golden"), "{out}");
    assert!(out.lines().last().unwrap_or_default().contains("\"correct\": false"), "{out}");
}
