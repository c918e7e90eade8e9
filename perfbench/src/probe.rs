//! Warm micro-probes of the primitives the round is built from, for the
//! traced run's per-layer table and the `model_ratio.*` comparison with
//! `dordis_sim::cost::UnitCosts::rust_native()`.

use std::time::Instant;

use dordis_crypto::ka::KeyPair;
use dordis_crypto::prg::Prg;
use dordis_crypto::vrf::VrfSecretKey;
use dordis_crypto::{aead, shamir};
use dordis_dp::mechanism::skellam_vector;
use rand::SeedableRng;

use crate::stats::median;

/// Timed samples per probe (after one warm-up sample).
const SAMPLES: usize = 15;

/// Shamir probe shape: a 32-byte seed shared `t = 9` of `n = 17`, the
/// share-holder count of a 16-client complete graph.
pub const SHAMIR_T: usize = 9;
/// See [`SHAMIR_T`].
pub const SHAMIR_N: usize = 17;
/// AEAD probe plaintext: a share bundle.
pub const AEAD_BYTES: usize = 2048;
/// ChaCha probe length in ring elements.
pub const CHACHA_ELEMS: usize = 1 << 16;
/// Skellam probe length and per-element variance (Atkinson regime).
pub const SKELLAM_ELEMS: usize = 1 << 14;
/// See [`SKELLAM_ELEMS`].
pub const SKELLAM_VARIANCE: f64 = 4096.0;

/// Median per-operation costs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probes {
    /// X25519 agreement, µs.
    pub x25519_agree_us: f64,
    /// One Shamir `share` call ([`SHAMIR_T`] of [`SHAMIR_N`]), µs.
    pub shamir_share_us: f64,
    /// AEAD seal, ns per plaintext byte.
    pub aead_seal_ns_per_byte: f64,
    /// ChaCha `fill_mod2b`, million ring elements per second.
    pub chacha_melem_per_s: f64,
    /// Skellam sampling, ns per element.
    pub skellam_ns_per_elem: f64,
    /// VRF evaluate (prove), µs.
    pub vrf_prove_us: f64,
    /// VRF verify, µs.
    pub vrf_verify_us: f64,
}

/// Median ns per operation of `op`, run `batch` times per sample.
fn per_op_ns(batch: usize, mut op: impl FnMut()) -> f64 {
    op(); // warm-up
    let samples: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                op();
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&samples)
}

/// Runs every probe.
#[must_use]
pub fn run() -> Probes {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let a = KeyPair::generate(&mut rng);
    let b = KeyPair::generate(&mut rng);
    let x25519 = per_op_ns(16, || {
        std::hint::black_box(a.agree(&b.public));
    });

    let secret = [9u8; 32];
    let shamir_ns = per_op_ns(32, || {
        std::hint::black_box(shamir::share(&secret, SHAMIR_T, SHAMIR_N, &mut rng).ok());
    });

    let key = [5u8; 32];
    let bundle = vec![0u8; AEAD_BYTES];
    let aead_ns = per_op_ns(64, || {
        std::hint::black_box(aead::seal(&key, b"aad", &bundle, &mut rng));
    });

    let mut out = vec![0u64; CHACHA_ELEMS];
    let chacha_ns = per_op_ns(4, || {
        Prg::new(&[7u8; 32], b"probe").fill_mod2b(16, &mut out);
        std::hint::black_box(out[0]);
    });

    let skellam_ns = per_op_ns(1, || {
        std::hint::black_box(skellam_vector(
            &[3u8; 32],
            b"probe",
            SKELLAM_ELEMS,
            SKELLAM_VARIANCE,
        ));
    });

    let sk = VrfSecretKey::from_seed(&[11u8; 32]);
    let pk = sk.public_key();
    let input = b"dordis.sampling.round probe";
    let (_, proof) = sk.evaluate(input);
    let prove_ns = per_op_ns(8, || {
        std::hint::black_box(sk.evaluate(input));
    });
    let verify_ns = per_op_ns(8, || {
        std::hint::black_box(pk.verify(input, &proof).ok());
    });

    Probes {
        x25519_agree_us: x25519 / 1e3,
        shamir_share_us: shamir_ns / 1e3,
        aead_seal_ns_per_byte: aead_ns / AEAD_BYTES as f64,
        chacha_melem_per_s: CHACHA_ELEMS as f64 / chacha_ns * 1e3,
        skellam_ns_per_elem: skellam_ns / SKELLAM_ELEMS as f64,
        vrf_prove_us: prove_ns / 1e3,
        vrf_verify_us: verify_ns / 1e3,
    }
}
