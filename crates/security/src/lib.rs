//! # fsmc-security — timing-channel measurement and verification
//!
//! The executable counterpart of the paper's security analysis:
//!
//! * [`profile`] — execution profiles (time to complete every N
//!   instructions, Figure 4) and divergence metrics between them.
//! * [`noninterference`] — the harness that runs an attacker thread
//!   against maximally different co-runner environments and checks
//!   whether its timing changes. Under FS the profiles must be
//!   **bit-identical**; under the non-secure baseline they diverge.
//! * [`leakage`] — a histogram mutual-information estimator between
//!   observed latencies and a secret, plus binary-channel capacity.
//! * [`channel`] — an end-to-end covert channel: a sender domain
//!   modulates its memory intensity with a secret bit string, a receiver
//!   domain probes memory and decodes. Reports bit-error rate and
//!   capacity; FS drives the channel to zero.

pub mod channel;
pub mod leakage;
pub mod noninterference;
pub mod profile;

pub use channel::{
    covert_system, covert_windows, intensity_sender, run_covert_channel, run_covert_channel_on,
    run_covert_protocol, ChannelParams, CovertChannelReport,
};
pub use leakage::{
    binary_channel_capacity, mutual_information, try_mutual_information, LeakageError,
};
pub use noninterference::{
    check_churn_noninterference, check_noninterference, execution_profile, ChurnEnv, ChurnReport,
    NonInterferenceReport,
};
pub use profile::ExecutionProfile;
