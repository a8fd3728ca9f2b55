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
