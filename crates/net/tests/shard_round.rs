//! Sharded-session equivalence: partitioning the cohort across
//! parallel aggregation shards must stay bit-equal to the unsharded
//! in-memory driver for `S ∈ {1, 2, 4}` under serial and pooled
//! unmasking — including XNoise rounds, mid-stream dropout with rejoin,
//! and stale-round frames.
//!
//! Removal seeds are the one field that legitimately differs: each
//! shard recovers the range `(shard_dropped + 1)..=T`, a superset of
//! the union range `(union_dropped + 1)..=T`. Equivalence therefore
//! filters the merged seeds down to the union range before comparing.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dordis_crypto::prg::Seed;
use dordis_net::codec::{Envelope, StageTag};
use dordis_net::coordinator::{CollectMode, CoordinatorConfig, DropKind, NetRoundReport};
use dordis_net::faults::FaultPlan;
use dordis_net::runtime::{
    round_rng_seed, run_session_client, FailAction, FailPoint, FailStage, SessionClientOptions,
    SessionEndKind,
};
use dordis_net::session::{shard_of, shard_rosters, Seating, Session, SessionConfig};
use dordis_net::transport::{Channel, LoopbackChannel, LoopbackHub};
use dordis_net::NetError;
use dordis_secagg::client::ClientInput;
use dordis_secagg::driver::{run_round, DropStage, DropoutSchedule, RoundSpec};
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::server::RoundOutcome;
use dordis_secagg::{ClientId, RoundParams, ThreatModel};

use dordis_telemetry::Telemetry;

mod common;
use common::WORKERS;

const BITS: u32 = 16;
const DIM: usize = 16;
const SEED: u64 = 7_171_717;
// 12 clients: the splitmix64 partition gives shard sizes {7, 5} at
// S = 2 and {2, 3, 5, 2} at S = 4 — every shard keeps ≥ 2 members, so
// no grid point silently falls back to the unsharded path (pinned by
// `partition_keeps_every_shard_viable` below).
const N: u32 = 12;
const CHUNKS: usize = 4;
const NOISE_T: usize = 3;
/// Mid-stream dropout victim: lives in the largest shard at both
/// S = 2 and S = 4, so every shard keeps quorum after the drop.
const VICTIM: ClientId = 4;

fn params_for_round(round: u64, noise: bool) -> RoundParams {
    RoundParams {
        round,
        clients: (0..N).collect(),
        threshold: N as usize / 2 + 1,
        bit_width: BITS,
        vector_len: DIM,
        noise_components: if noise { NOISE_T } else { 0 },
        threat_model: ThreatModel::SemiHonest,
        graph: MaskingGraph::Complete,
    }
}

fn input_for(id: ClientId, round: u64, noise: bool) -> ClientInput {
    let mask = (1u64 << BITS) - 1;
    ClientInput {
        vector: (0..DIM)
            .map(|i| (u64::from(id) * 131 + round * 977 + i as u64 * 17) & mask)
            .collect(),
        noise_seeds: if noise {
            vec![[id as u8 + 1; 32]; NOISE_T + 1]
        } else {
            Vec::new()
        },
    }
}

/// The same round through the unsharded in-memory driver, with the
/// session's per-round seed derivation.
fn driver_round(round: u64, drops: &[ClientId], noise: bool) -> RoundOutcome {
    let mut dropout = DropoutSchedule::none();
    for &id in drops {
        dropout.drop_at(id, DropStage::BeforeMaskedInput);
    }
    let inputs: BTreeMap<ClientId, ClientInput> =
        (0..N).map(|id| (id, input_for(id, round, noise))).collect();
    let (outcome, _) = run_round(RoundSpec {
        params: params_for_round(round, noise),
        inputs,
        dropout,
        rng_seed: round_rng_seed(SEED, round),
    })
    .expect("driver round");
    outcome
}

/// Sorted removal seeds restricted to components `k > dropped` — the
/// union range a single coordinator would have recovered.
fn seeds_in_union_range(
    seeds: &[(ClientId, usize, Seed)],
    dropped: usize,
) -> Vec<(ClientId, usize, Seed)> {
    let mut out: Vec<_> = seeds
        .iter()
        .filter(|(_, k, _)| *k > dropped)
        .copied()
        .collect();
    out.sort_unstable_by_key(|(c, k, _)| (*c, *k));
    out
}

/// Runs an R-round roster session split across `shards` aggregation
/// shards; `dropper(round)` names a client that fails mid-chunk-stream
/// that round (it reconnects and re-joins the next round).
fn run_sharded_session(
    rounds: u64,
    workers: usize,
    shards: usize,
    noise: bool,
    dropper: impl Fn(u64) -> Option<(ClientId, u16)> + Send + Sync + 'static,
) -> Vec<NetRoundReport> {
    let (hub, mut acceptor) = LoopbackHub::new();
    let dropper = Arc::new(dropper);
    let mut handles = Vec::new();
    for id in 0..N {
        let hub = hub.clone();
        let dropper = Arc::clone(&dropper);
        handles.push(std::thread::spawn(move || -> Result<(), String> {
            loop {
                let mut chan = hub
                    .connect(&format!("c{id}"))
                    .map_err(|e| format!("connect: {e}"))?;
                let opts = SessionClientOptions {
                    id,
                    rng_seed: SEED,
                    recv_timeout: Duration::from_secs(30),
                    silent_linger: Duration::from_secs(1),
                };
                let report = run_session_client(
                    &mut chan,
                    &opts,
                    |_| None,
                    |r| {
                        dropper(r).and_then(|(who, k)| {
                            (who == id).then_some(FailPoint {
                                stage: FailStage::MaskedInputAfterChunks(k),
                                action: FailAction::Disconnect,
                            })
                        })
                    },
                    |r, _params, _cohort, _payload| Ok(input_for(id, r, noise)),
                    |_| None,
                )
                .map_err(|e| format!("client {id}: {e}"))?;
                match report.end {
                    SessionEndKind::Ended => return Ok(()),
                    SessionEndKind::Failed { .. } => continue, // rejoin
                    other => return Err(format!("client {id}: unexpected end {other:?}")),
                }
            }
        }));
    }

    let cfg = SessionConfig {
        first_round: 1,
        rounds,
        join_timeout: Duration::from_secs(10),
        stage_timeout: Duration::from_secs(10),
        chunks: CHUNKS,
        chunk_compute: None,
        tick: CoordinatorConfig::DEFAULT_TICK,
        mode: CollectMode::Reactor,
        workers,
        shards,
        ingress_budget: 0,
        announce: true,
        population: (0..N).collect(),
        seating: Seating::Roster,
        params_for: Box::new(move |round, _| params_for_round(round, noise)),
        telemetry: Telemetry::enabled(),
        metrics_addr: None,
        replica: None,
        faults: FaultPlan::none(),
    };
    let mut session = Session::new(&mut acceptor, cfg).expect("session");
    let mut reports = Vec::new();
    for _ in 0..rounds {
        reports.push(session.run_round(&[]).expect("round"));
    }
    session.finish();
    for h in handles {
        h.join().expect("client thread").expect("client result");
    }
    reports
}

#[test]
fn partition_keeps_every_shard_viable() {
    // Pin the facts the rest of this suite relies on: the partition is
    // deterministic, order-preserving, exhaustive, and at N = 12 every
    // shard has ≥ 2 members for S ∈ {2, 4} (so nothing falls back to
    // the unsharded path).
    let cohort: Vec<ClientId> = (0..N).collect();
    for shards in [2usize, 4] {
        let rosters = shard_rosters(&cohort, shards);
        assert_eq!(rosters.len(), shards);
        for (s, roster) in rosters.iter().enumerate() {
            assert!(roster.len() >= 2, "S={shards}: shard {s} has {roster:?}");
            // Order-preserving within the shard, consistent with the
            // partition function.
            assert!(roster.windows(2).all(|w| w[0] < w[1]));
            assert!(roster.iter().all(|&id| shard_of(id, shards) == s));
        }
        let mut all: Vec<ClientId> = rosters.into_iter().flatten().collect();
        all.sort_unstable();
        assert_eq!(all, cohort, "S={shards}: not a partition");
        // Determinism: a second call yields the same rosters.
        assert_eq!(
            shard_rosters(&cohort, shards),
            shard_rosters(&cohort, shards)
        );
    }
    // S ≤ 1 keeps the cohort whole.
    assert_eq!(shard_rosters(&cohort, 0), vec![cohort.clone()]);
    assert_eq!(shard_rosters(&cohort, 1), vec![cohort.clone()]);
}

#[test]
fn shard_grid_matches_unsharded_driver() {
    // The tentpole pin: S ∈ {1, 2, 4} × workers ∈ {0, 2}, all
    // bit-equal to the in-memory driver, with per-round metrics deltas
    // still attached through the shared registry.
    for workers in WORKERS {
        for shards in [1usize, 2, 4] {
            let reports = run_sharded_session(2, workers, shards, false, |_| None);
            assert_eq!(reports.len(), 2);
            for (i, report) in reports.iter().enumerate() {
                let round = i as u64 + 1;
                let tag = format!("{workers}w/S{shards} round {round}");
                assert_eq!(report.round, round, "{tag}");
                let mem = driver_round(round, &[], false);
                assert_eq!(report.outcome.sum, mem.sum, "{tag}");
                assert_eq!(report.outcome.survivors, mem.survivors, "{tag}");
                assert_eq!(report.outcome.dropped, mem.dropped, "{tag}");
                assert!(report.dropouts.is_empty(), "{tag}: {:?}", report.dropouts);
                // Chunk layout is identical across shards and rides in
                // the merged report.
                assert_eq!(report.chunks, CHUNKS, "{tag}");
                // Uplink bytes land on the unlabeled series for S = 1
                // and on per-shard labeled series otherwise — either
                // way they ride in the round's metrics delta.
                let m = report.metrics.as_ref().expect("metrics delta");
                let uplink: u64 = if shards <= 1 {
                    m.get(
                        "dordis_frame_bytes_total{direction=\"in\",stage=\"MaskedInputCollection\"}",
                    )
                } else {
                    (0..shards)
                        .map(|s| {
                            m.get(&format!(
                                "dordis_frame_bytes_total{{direction=\"in\",shard=\"{s}\",\
                                 stage=\"MaskedInputCollection\"}}"
                            ))
                        })
                        .sum()
                };
                assert!(uplink > 0, "{tag}: no uplink bytes in the round delta");
            }
            assert_ne!(reports[0].outcome.sum, reports[1].outcome.sum);
        }
    }
}

#[test]
fn sharded_xnoise_matches_driver_modulo_seed_range() {
    // XNoise rounds: sums and survivors stay bit-equal; the merged
    // removal seeds, filtered to the union range, equal the driver's.
    for workers in WORKERS {
        for shards in [1usize, 2, 4] {
            let reports = run_sharded_session(1, workers, shards, true, |_| None);
            let report = &reports[0];
            let tag = format!("{workers}w/S{shards}");
            let mem = driver_round(1, &[], true);
            assert_eq!(report.outcome.sum, mem.sum, "{tag}");
            assert_eq!(report.outcome.survivors, mem.survivors, "{tag}");
            let union_dropped = report.outcome.dropped.len();
            assert_eq!(union_dropped, 0, "{tag}");
            assert_eq!(
                seeds_in_union_range(&report.outcome.removal_seeds, union_dropped),
                seeds_in_union_range(&mem.removal_seeds, union_dropped),
                "{tag}: union-range removal seeds diverge"
            );
        }
    }
}

#[test]
fn sharded_dropout_then_rejoin_with_xnoise() {
    // The victim drops mid-chunk-stream in round 1 (after 1 of 4 chunk
    // frames) inside its shard, reconnects, and completes rounds 2–3.
    // The privacy-critical part: every shard recovers removal seeds
    // over a range keyed to the *union* dropout count's superset, so
    // the union-range filter must reproduce the driver exactly.
    for workers in WORKERS {
        for shards in [1usize, 2, 4] {
            let tag = format!("{workers}w/S{shards}");
            let reports = run_sharded_session(3, workers, shards, true, |r| {
                (r == 1).then_some((VICTIM, 1))
            });

            let r1 = &reports[0];
            assert!(!r1.outcome.survivors.contains(&VICTIM), "{tag}");
            assert_eq!(r1.outcome.dropped, vec![VICTIM], "{tag}");
            let detected = r1
                .dropouts
                .iter()
                .find(|d| d.client == VICTIM)
                .unwrap_or_else(|| panic!("{tag}: dropout not detected"));
            assert_eq!(detected.stage, "MaskedInputCollection", "{tag}");
            assert_eq!(detected.kind, DropKind::Disconnected, "{tag}");
            let mem1 = driver_round(1, &[VICTIM], true);
            assert_eq!(r1.outcome.sum, mem1.sum, "{tag} dropout round");
            assert_eq!(r1.outcome.survivors, mem1.survivors, "{tag}");
            let union_dropped = r1.outcome.dropped.len();
            assert_eq!(
                seeds_in_union_range(&r1.outcome.removal_seeds, union_dropped),
                seeds_in_union_range(&mem1.removal_seeds, union_dropped),
                "{tag}: union-range removal seeds diverge after dropout"
            );

            // Rejoined over a fresh connection: full cohort again,
            // bit-equal to the full-roster driver round.
            for (i, report) in reports.iter().enumerate().skip(1) {
                let round = i as u64 + 1;
                assert!(
                    report.outcome.survivors.contains(&VICTIM),
                    "{tag}: victim did not rejoin round {round}"
                );
                let mem = driver_round(round, &[], true);
                assert_eq!(report.outcome.sum, mem.sum, "{tag} round {round}");
                assert_eq!(report.outcome.survivors, mem.survivors, "{tag}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Stale frames inside a shard.
// ---------------------------------------------------------------------

/// Duplicates the client's first AdvertiseKeys frame with a stale round
/// id just before the real one — the owning *shard* must discard the
/// stale copy, and the merged report must surface the count.
struct StaleInjector {
    inner: LoopbackChannel,
    injected: Arc<AtomicU32>,
}

impl Channel for StaleInjector {
    fn send(&mut self, frame: &[u8]) -> Result<(), NetError> {
        if self.injected.load(Ordering::SeqCst) == 0 {
            if let Ok(env) = Envelope::decode(frame) {
                if env.stage == StageTag::AdvertiseKeys {
                    self.injected.store(1, Ordering::SeqCst);
                    let stale = Envelope::new(StageTag::AdvertiseKeys, env.round - 1, env.body);
                    self.inner.send(&stale.encode())?;
                }
            }
        }
        self.inner.send(frame)
    }

    fn recv_deadline(&mut self, deadline: Instant) -> Result<Vec<u8>, NetError> {
        self.inner.recv_deadline(deadline)
    }

    fn peer(&self) -> String {
        self.inner.peer()
    }
}

#[test]
fn shard_discards_stale_frame_and_merged_report_counts_it() {
    for shards in [2usize, 4] {
        let (hub, mut acceptor) = LoopbackHub::new();
        let injected = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for id in 0..N {
            let hub = hub.clone();
            let injected = Arc::clone(&injected);
            handles.push(std::thread::spawn(move || -> Result<(), String> {
                let inner = hub.connect(&format!("c{id}")).map_err(|e| e.to_string())?;
                let opts = SessionClientOptions {
                    id,
                    rng_seed: SEED,
                    recv_timeout: Duration::from_secs(20),
                    silent_linger: Duration::from_secs(1),
                };
                let run = |chan: &mut dyn Channel| {
                    run_session_client(
                        chan,
                        &opts,
                        |_| None,
                        |_| None,
                        |r, _params, _cohort, _payload| Ok(input_for(id, r, false)),
                        |_| None,
                    )
                };
                let report = if id == VICTIM {
                    let mut chan = StaleInjector { inner, injected };
                    run(&mut chan)
                } else {
                    let mut chan = inner;
                    run(&mut chan)
                }
                .map_err(|e| format!("client {id}: {e}"))?;
                match report.end {
                    SessionEndKind::Ended => Ok(()),
                    other => Err(format!("client {id}: unexpected end {other:?}")),
                }
            }));
        }
        let cfg = SessionConfig {
            first_round: 1,
            rounds: 1,
            join_timeout: Duration::from_secs(10),
            stage_timeout: Duration::from_secs(10),
            chunks: CHUNKS,
            chunk_compute: None,
            tick: CoordinatorConfig::DEFAULT_TICK,
            mode: CollectMode::Reactor,
            workers: 0,
            shards,
            ingress_budget: 0,
            announce: true,
            population: (0..N).collect(),
            seating: Seating::Roster,
            params_for: Box::new(|round, _| params_for_round(round, false)),
            telemetry: Telemetry::enabled(),
            metrics_addr: None,
            replica: None,
            faults: FaultPlan::none(),
        };
        let mut session = Session::new(&mut acceptor, cfg).expect("session");
        let report = session.run_round(&[]).expect("round");
        session.finish();
        for h in handles {
            h.join().expect("client thread").expect("client result");
        }
        assert_eq!(report.stale_frames, 1, "S={shards}");
        assert!(
            report.dropouts.is_empty(),
            "S={shards}: {:?}",
            report.dropouts
        );
        let mem = driver_round(1, &[], false);
        assert_eq!(report.outcome.sum, mem.sum, "S={shards}");
        assert_eq!(report.outcome.survivors, mem.survivors, "S={shards}");
    }
}

// ---------------------------------------------------------------------
// Sparse shard graphs.
// ---------------------------------------------------------------------

/// A cohort big enough that the splitmix64 split at S = 2 leaves both
/// shards (40/40) above [`MaskingGraph::RECOMMENDED_COMPLETE_MAX`], so
/// `shard_params` hands each shard the Harary graph instead of
/// Complete.
const BIG_N: u32 = 80;
/// Mid-stream dropout victim for the big cohort; lands in shard 0.
const BIG_VICTIM: ClientId = 4;

fn big_params(round: u64) -> RoundParams {
    RoundParams {
        round,
        clients: (0..BIG_N).collect(),
        threshold: BIG_N as usize / 2 + 1,
        bit_width: BITS,
        vector_len: DIM,
        noise_components: NOISE_T,
        threat_model: ThreatModel::SemiHonest,
        graph: MaskingGraph::recommended(BIG_N as usize),
    }
}

fn big_driver_round(round: u64, drops: &[ClientId]) -> RoundOutcome {
    let mut dropout = DropoutSchedule::none();
    for &id in drops {
        dropout.drop_at(id, DropStage::BeforeMaskedInput);
    }
    let inputs: BTreeMap<ClientId, ClientInput> = (0..BIG_N)
        .map(|id| (id, input_for(id, round, true)))
        .collect();
    let (outcome, _) = run_round(RoundSpec {
        params: big_params(round),
        inputs,
        dropout,
        rng_seed: round_rng_seed(SEED, round),
    })
    .expect("big driver round");
    outcome
}

#[test]
fn sparse_shards_match_unsharded_driver() {
    // PR 7 pinned shard params to `MaskingGraph::Complete`; now shards
    // above `RECOMMENDED_COMPLETE_MAX` members get the sparse Harary
    // graph (which is also what lets a shard roster exceed 255). The
    // merged outcome must still equal the unsharded driver — with an
    // XNoise round and a mid-stream dropout to force neighborhood
    // share reconstruction inside a sparse shard.
    let cohort: Vec<ClientId> = (0..BIG_N).collect();
    let rosters = shard_rosters(&cohort, 2);
    for (s, roster) in rosters.iter().enumerate() {
        assert!(
            roster.len() > MaskingGraph::RECOMMENDED_COMPLETE_MAX,
            "shard {s} has only {} members; bump BIG_N",
            roster.len()
        );
        assert!(
            matches!(
                MaskingGraph::recommended(roster.len()),
                MaskingGraph::Harary { .. }
            ),
            "shard {s} would not get a sparse graph"
        );
    }
    assert!(
        rosters[0].contains(&BIG_VICTIM),
        "victim moved shards; pick another"
    );

    let (hub, mut acceptor) = LoopbackHub::new();
    let mut handles = Vec::new();
    for id in 0..BIG_N {
        let hub = hub.clone();
        handles.push(std::thread::spawn(move || -> Result<(), String> {
            loop {
                let mut chan = hub
                    .connect(&format!("c{id}"))
                    .map_err(|e| format!("connect: {e}"))?;
                let opts = SessionClientOptions {
                    id,
                    rng_seed: SEED,
                    recv_timeout: Duration::from_secs(60),
                    silent_linger: Duration::from_secs(1),
                };
                let report = run_session_client(
                    &mut chan,
                    &opts,
                    |_| None,
                    |r| {
                        (r == 1 && id == BIG_VICTIM).then_some(FailPoint {
                            stage: FailStage::MaskedInputAfterChunks(1),
                            action: FailAction::Disconnect,
                        })
                    },
                    |r, _params, _cohort, _payload| Ok(input_for(id, r, true)),
                    |_| None,
                )
                .map_err(|e| format!("client {id}: {e}"))?;
                match report.end {
                    SessionEndKind::Ended => return Ok(()),
                    SessionEndKind::Failed { .. } => continue, // rejoin
                    other => return Err(format!("client {id}: unexpected end {other:?}")),
                }
            }
        }));
    }

    let cfg = SessionConfig {
        first_round: 1,
        rounds: 2,
        join_timeout: Duration::from_secs(30),
        stage_timeout: Duration::from_secs(60),
        chunks: CHUNKS,
        chunk_compute: None,
        tick: CoordinatorConfig::DEFAULT_TICK,
        mode: CollectMode::Reactor,
        workers: 0,
        shards: 2,
        ingress_budget: 0,
        announce: true,
        population: (0..BIG_N).collect(),
        seating: Seating::Roster,
        params_for: Box::new(|round, _| big_params(round)),
        telemetry: Telemetry::enabled(),
        metrics_addr: None,
        replica: None,
        faults: FaultPlan::none(),
    };
    let mut session = Session::new(&mut acceptor, cfg).expect("session");
    let mut reports = Vec::new();
    for _ in 0..2 {
        reports.push(session.run_round(&[]).expect("round"));
    }
    session.finish();
    for h in handles {
        h.join().expect("client thread").expect("client result");
    }

    // Round 1: victim dropped mid-stream inside its sparse shard, so
    // its neighbors' shares reconstruct its pairwise masks — the merge
    // must equal the unsharded driver with the same drop.
    let r1 = &reports[0];
    assert!(!r1.outcome.survivors.contains(&BIG_VICTIM));
    assert_eq!(r1.outcome.dropped, vec![BIG_VICTIM]);
    let mem1 = big_driver_round(1, &[BIG_VICTIM]);
    assert_eq!(r1.outcome.sum, mem1.sum, "sparse dropout round");
    assert_eq!(r1.outcome.survivors, mem1.survivors);
    let union_dropped = r1.outcome.dropped.len();
    assert_eq!(
        seeds_in_union_range(&r1.outcome.removal_seeds, union_dropped),
        seeds_in_union_range(&mem1.removal_seeds, union_dropped),
        "sparse shards: union-range removal seeds diverge"
    );

    // Round 2: victim rejoined; full sparse cohort, no drops.
    let r2 = &reports[1];
    assert!(r2.outcome.survivors.contains(&BIG_VICTIM));
    let mem2 = big_driver_round(2, &[]);
    assert_eq!(r2.outcome.sum, mem2.sum, "sparse full round");
    assert_eq!(r2.outcome.survivors, mem2.survivors);
    assert_eq!(
        seeds_in_union_range(&r2.outcome.removal_seeds, 0),
        seeds_in_union_range(&mem2.removal_seeds, 0),
    );
}
