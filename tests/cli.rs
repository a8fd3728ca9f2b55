//! The `fsmc` binary parses scheduler names with the same grammar as
//! service job specs (`KIND[:param]`), and `fsmc suite` runs on the
//! device generation `--device` or `FSMC_DEVICE` names.

use std::process::{Command, Output};

fn fsmc(args: &[&str]) -> Output {
    fsmc_with(args, None)
}

/// Runs `fsmc` with `FSMC_DEVICE` set to `device`, or unset.
fn fsmc_with(args: &[&str], device: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fsmc"));
    cmd.args(args).env_remove("FSMC_DEVICE").env_remove("FSMC_SERVE");
    if let Some(d) = device {
        cmd.env("FSMC_DEVICE", d);
    }
    cmd.output().expect("spawn fsmc")
}

#[test]
fn simulate_accepts_parameterised_schedulers() {
    for sched in ["fs-mc:2", "tp-bp:90"] {
        let out = fsmc(&["simulate", "--scheduler", sched, "--cycles", "2000"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{sched}: {stderr}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("IPC sum"), "{sched}");
    }
}

#[test]
fn simulate_rejects_malformed_schedulers_cleanly() {
    for (sched, message) in [
        ("fs-rp:3", "unknown scheduler \"fs-rp:3\""),
        ("fs-mc:3", "8 cores do not shard evenly over 3 channels"),
        ("tp-bp:5", "turn length 5 leaves no usable issue window"),
        ("tp-fence:50", "turn length 50 leaves no usable issue window"),
    ] {
        let out = fsmc(&["simulate", "--scheduler", sched, "--cycles", "2000"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{sched} accepted");
        assert!(stderr.starts_with("error: ") && stderr.contains(message), "{sched}: {stderr}");
        assert!(!stderr.contains("panicked"), "{sched}: {stderr}");
    }
}

#[test]
fn suite_runs_on_the_requested_device() {
    let suite = |flag: &[&str], env: Option<&str>| {
        let mut args = vec!["suite", "--schedulers", "tp-bp", "--cycles", "2000"];
        args.extend_from_slice(flag);
        let out = fsmc_with(&args, env);
        assert!(out.status.success(), "{flag:?}: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).expect("utf-8 table")
    };
    let ddr3 = suite(&[], None);
    let hbm2 = suite(&["--device", "hbm2"], None);
    assert!(ddr3.contains("AM") && hbm2.contains("AM"), "{ddr3}\n{hbm2}");
    assert_ne!(ddr3, hbm2, "--device hbm2 printed the DDR3-1600 table");
    assert_eq!(suite(&["--device", "ddr3-1600"], None), ddr3);
    assert_eq!(suite(&[], Some("hbm2")), hbm2, "FSMC_DEVICE=hbm2 differs from --device hbm2");
}

/// Runs `fsmc` and returns its stdout, failing on a non-zero exit.
fn stdout_of(args: &[&str]) -> String {
    let out = fsmc(args);
    assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// The arguments of a printed `fsmc <command>` repro line, quotes
/// stripped, or `None` when `line` is not one.
fn repro_args(line: &str, command: &str) -> Option<Vec<String>> {
    let line = line.trim_start();
    let line = line.strip_prefix("repro: ").unwrap_or(line);
    let args = line.strip_prefix("fsmc ")?;
    args.starts_with(&format!("{command} --"))
        .then(|| args.split_whitespace().map(|a| a.trim_matches('\'').to_string()).collect())
}

#[test]
fn chaos_repro_lines_replay_the_run_that_printed_them() {
    let campaign = ["--scheduler", "tp-bp:90", "--device", "hbm2", "--cores", "8"];
    let mut args = vec!["chaos", "--population", "8", "--cycles", "6000"];
    args.extend_from_slice(&campaign);
    let report = stdout_of(&args);
    let lines: Vec<&str> = report.lines().collect();
    let mut replayed = 0;
    for (i, line) in lines.iter().enumerate() {
        let Some(repro) = repro_args(line, "chaos") else { continue };
        for flag in campaign.chunks(2) {
            assert!(line.contains(&flag.join(" ")), "{line} drops {flag:?}");
        }
        // The line follows its case header: `case N  OUTCOME  seed ...`.
        let classified = lines[..i]
            .iter()
            .rev()
            .find_map(|l| l.strip_prefix("case "))
            .and_then(|l| l.split_whitespace().nth(1))
            .expect("case header before its repro line");
        let repro: Vec<&str> = repro.iter().map(String::as_str).collect();
        let replay = stdout_of(&repro);
        assert!(replay.contains(&format!("outcome    {classified}\n")), "{line}:\n{replay}");
        replayed += 1;
    }
    assert!(replayed > 0, "no failing case to replay:\n{report}");
}

#[test]
fn leak_repro_lines_replay_the_run_that_printed_them() {
    let campaign = ["--scheduler", "tp-bp:90", "--device", "hbm2", "--windows", "30"];
    let mut args = vec!["leak", "--campaign", "--population", "4", "--seed", "1"];
    args.extend_from_slice(&campaign);
    let report = stdout_of(&args);
    let lines: Vec<&str> = report.lines().collect();
    let mut replayed = 0;
    for (i, line) in lines.iter().enumerate() {
        let Some(repro) = repro_args(line, "leak") else { continue };
        for flag in campaign.chunks(2) {
            assert!(line.contains(&flag.join(" ")), "{line} drops {flag:?}");
        }
        // A single-fault plan replays unshrunk: its verdict line, two
        // lines up, carries the exact MI and sample count.
        let verdict = lines[i - 2].trim_start();
        let Some(verdict) = verdict.strip_prefix("leak-detected: faults='shared-arbiter()' ")
        else {
            continue;
        };
        let (mi, samples) = verdict
            .strip_prefix("mi=")
            .and_then(|v| v.split_once(" samples="))
            .expect("mi and samples on the verdict line");
        let repro: Vec<&str> = repro.iter().map(String::as_str).collect();
        let replay = stdout_of(&repro);
        assert!(
            replay.contains(&format!("online MI  {mi} bits ({samples} samples)\n")),
            "{replay}"
        );
        assert!(replay.contains("outcome    leak-detected\n"), "{replay}");
        replayed += 1;
    }
    assert!(replayed > 0, "no single-fault leak to replay:\n{report}");
}
