//! `FSMC_NO_FASTPATH` must act identically on `fsmc chaos` repro mode
//! (`run_single`) and campaign mode (`run_campaign`): both construct
//! systems through the same path, so forcing per-cycle stepping changes
//! wall-clock time and nothing else — also for reconfiguration plans,
//! which keep the whole fast path (as do plans that only change the
//! configuration, such as `shared-arbiter()` or `perturb`), while
//! command and refresh faults keep its core-side tiers.
//!
//! This lives in its own test binary on purpose: the env var is
//! process-global, and the single `#[test]` here is the only code in
//! its process, so setting it cannot race another test's `System`
//! construction.

use fsmc::sim::{run_campaign, run_single, CampaignConfig, Engine, FaultKind, FaultPlan};

#[test]
fn no_fastpath_is_honored_identically_in_repro_and_campaign_modes() {
    let mut cfg = CampaignConfig::new(1);
    cfg.population = 6;
    cfg.cycles = 6_000;
    cfg.churn = true;
    let plan = FaultPlan::new(5).with(FaultKind::DomainLeave { domain: 1, at: 2_000 });
    assert!(plan.is_pure_reconfig());

    let fast_single = run_single(&cfg, plan.clone()).expect("reference run");
    let fast_campaign = run_campaign(&Engine::with_threads(4), &cfg).expect("reference run");

    std::env::set_var("FSMC_NO_FASTPATH", "1");
    let slow_single = run_single(&cfg, plan).expect("reference run");
    let slow_campaign = run_campaign(&Engine::with_threads(4), &cfg).expect("reference run");
    std::env::remove_var("FSMC_NO_FASTPATH");

    assert_eq!(fast_single.outcome, slow_single.outcome, "repro-mode classification changed");
    assert_eq!(fast_single.error, slow_single.error);
    assert_eq!(
        fast_single.minimal_plan().spec(),
        slow_single.minimal_plan().spec(),
        "repro-mode shrinking changed"
    );
    assert_eq!(
        fast_campaign.render(),
        slow_campaign.render(),
        "campaign-mode report changed under FSMC_NO_FASTPATH"
    );
}
