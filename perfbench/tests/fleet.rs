//! The lockstep fleet against the production session, pinned bit-equal
//! to the in-memory driver round for round.
//!
//! ```sh
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use dordis_core::sampling::SamplingConfig;
use perfbench::runner::{run, Limit, RunOptions};
use perfbench::workload::{GraphSpec, SeatingSpec, Spec, Workload};

fn every_round(rounds: u64) -> RunOptions {
    RunOptions {
        limit: Limit::Rounds(rounds),
        trace: false,
        driver_every_round: true,
    }
}

#[test]
fn roster_session_with_a_reconnecting_dropper_matches_the_driver() {
    let spec = Spec {
        name: "roster-6",
        population: 6,
        seating: SeatingSpec::Roster,
        graph: GraphSpec::Complete,
        dim: 64,
        bit_width: 16,
        chunks: 4,
        xnoise: false,
        droppers: 1,
        drop_after_chunks: 1,
    };
    let out = run(&spec, 11, every_round(4)).expect("run");
    assert!(out.correct(), "{:?}", out.failures);
    // Warm-up round plus four measured rounds, each re-run in memory.
    assert_eq!(out.driver_matches, 5);
    assert_eq!(out.rounds.len(), 4);
    // Roster seating needs all six every round: each round's dropper
    // reconnected and re-joined the next one.
    assert!(out
        .rounds
        .iter()
        .all(|r| r.seated == 6 && r.unscripted == 0));
}

#[test]
fn claims_session_with_declines_matches_the_driver() {
    let sample = SamplingConfig {
        target_sample: 5,
        population: 12,
        over_selection: 1.6,
    };
    let spec = Spec {
        name: "claims-12",
        population: 12,
        seating: SeatingSpec::Claims(sample),
        graph: GraphSpec::Complete,
        dim: 64,
        bit_width: 20,
        chunks: 2,
        xnoise: true,
        droppers: 1,
        drop_after_chunks: 1,
    };
    let seed = 5;
    let out = run(&spec, seed, every_round(3)).expect("run");
    assert!(out.correct(), "{:?}", out.failures);
    assert_eq!(out.driver_matches, 4);
    // Some members declined every round: fewer claims than members.
    let w = Workload::new(spec.clone(), seed);
    for r in &out.rounds {
        let claims = (0..12).filter(|&id| w.claim(r.round, id).is_some()).count();
        assert!(claims < 12, "round {}: nobody declined", r.round);
        assert!(r.seated <= 5 && r.seated >= 2);
        assert!(r.residual_ratio.is_some());
    }
}

#[test]
fn a_run_never_uses_more_threads_than_cores() {
    let dir = env!("CARGO_TARGET_TMPDIR");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "wide-cohort", "--seed", "3", "--seconds", "1"])
        .args(["--trace", "0", "--out", dir])
        .output()
        .expect("spawn perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    let threads: u64 = stdout
        .split_whitespace()
        .find_map(|w| w.strip_prefix("threads_max="))
        .and_then(|v| v.parse().ok())
        .expect("threads_max in the output");
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    assert!(threads >= 2, "the fleet thread was never seen");
    assert!(
        threads as usize <= nproc,
        "{threads} threads on {nproc} cores"
    );
    let last = stdout.lines().last().unwrap_or_default();
    assert!(last.starts_with("{\"correct\": true"), "{last}");
}
