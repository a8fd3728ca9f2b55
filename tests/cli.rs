//! The `fsmc` binary parses scheduler names with the same grammar as
//! service job specs: `KIND[:param]`.

use std::process::{Command, Output};

fn fsmc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fsmc")).args(args).output().expect("spawn fsmc")
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
