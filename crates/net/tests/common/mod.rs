//! Shared helpers for the dordis-net integration suites.

use dordis_net::runtime::{
    run_session_client, FailPoint, SessionClientOptions, SessionClientReport,
};
use dordis_net::transport::Channel;
use dordis_net::NetError;
use dordis_secagg::client::{ClientInput, Identity};

/// The compute-plane worker counts every equivalence suite runs under:
/// serial (`0`) and pooled (`2`) unmasking. Both must produce bit-equal
/// rounds; editing this one const widens (or narrows) every suite
/// together.
#[allow(dead_code)]
pub const WORKERS: [usize; 2] = [0, 2];

/// Plays one client of a one-round `run_coordinator` session: joins,
/// contributes `input` (and `identity`, in the malicious model), fires
/// `fail` if given, and returns once the session ends. The round runs
/// on `round_rng_seed(opts.rng_seed, round)`, so driver pins must seed
/// their reference the same way.
#[allow(dead_code)]
pub fn one_round_client(
    chan: &mut dyn Channel,
    opts: &SessionClientOptions,
    fail: Option<FailPoint>,
    input: ClientInput,
    identity: Option<Identity>,
) -> Result<SessionClientReport, NetError> {
    run_session_client(
        chan,
        opts,
        |_| None,
        move |_| fail,
        move |_, _, _, _| Ok(input.clone()),
        move |_| identity.clone(),
    )
}
