//! Multi-round federated training sessions: the trainer's per-round
//! semantics (local train → clip → encode → perturb → aggregate →
//! excess removal → decode → FedAvg → privacy ledger) driven over
//! `dordis-net` sessions with per-round VRF cohort resampling (§7).
//!
//! Two execution paths produce the identical [`TrainingReport`]:
//!
//! - [`train_session`]: the in-memory reference. Each round's cohort is
//!   sampled by VRF self-selection + [`seat_claims`] verify-and-trim,
//!   and the round itself runs through the in-memory secagg *driver*
//!   ([`run_round`]) with scripted dropouts.
//! - [`train_session_networked`]: the deployed shape. A [`Session`]
//!   coordinator runs R rounds back to back over persistent loopback
//!   connections; every population member keeps one connection open,
//!   answers each round's announce with a VRF participation claim (or a
//!   decline), receives the current global model in the Setup payload,
//!   trains locally, and streams its masked update. Scripted droppers
//!   fail mid-chunk-stream and *reconnect* to re-join the next round.
//!
//! Both paths derive every random artefact (VRF keys, per-round protocol
//! seeds, encoding rotations, noise seeds) from the same
//! `(spec.seed, round)` functions, so the per-round modular aggregates
//! are bit-equal and the reports match field for field — the
//! session-level analogue of the single-round equivalence pins.

use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Duration;

use dordis_crypto::prg::{Prg, Seed};
use dordis_crypto::vrf::{VrfPublicKey, VrfSecretKey};
use dordis_dp::accountant::Mechanism;
use dordis_dp::encoding::Encoder;
use dordis_dp::ledger::PrivacyLedger;
use dordis_dp::mechanism::skellam_vector;
use dordis_dp::planner::{plan, PlannerConfig};
use dordis_fl::data::{dirichlet_partition, synthetic_classification, train_test_split, Dataset};
use dordis_fl::eval::{accuracy, perplexity};
use dordis_fl::fedavg::apply_update;
use dordis_net::coordinator::CollectMode;
use dordis_net::faults::{FaultPlan, KillPoint};
use dordis_net::reactor::EventedChannel;
use dordis_net::replication::{run_backup, BackupOutcome};
use dordis_net::runtime::{
    run_session_client, Backoff, FailAction, FailPoint, FailStage, SessionClientOptions,
    SessionEndKind,
};
use dordis_net::session::{Seating, SeatingOutcome, Session, SessionConfig};
use dordis_net::transport::{LoopbackChannel, LoopbackHub};
use dordis_net::NetError;
use dordis_secagg::client::ClientInput;
use dordis_secagg::driver::{round_rng_seed, run_round, DropStage, DropoutSchedule, RoundSpec};
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::{ClientId, RoundParams, ThreatModel};
use dordis_telemetry::Telemetry;
use dordis_xnoise::decomposition::XNoisePlan;
use dordis_xnoise::enforcement::{derive_component_seeds, perturb, remove_excess};
use serde::{Deserialize, Serialize};

use crate::config::{TaskSpec, Variant};
use crate::protocol::client_round_seed;
use crate::sampling::{
    decode_claim, encode_claim, seat_claims, self_select, SamplingConfig, SeatedCohort,
};
use crate::trainer::{
    achieved_noise_multiplier, add_noise_mod, build_model, build_optimizer, clipped_local_delta,
    master_seed, RoundRecord, TrainingReport,
};
use crate::DordisError;

/// A scripted mid-stream dropout: `client` sends `after_chunks` masked
/// chunk frames in round `round` (0-based index), then disconnects —
/// and, on the networked path, reconnects to re-join the next round.
#[derive(Clone, Copy, Debug)]
pub struct MidStreamDrop {
    /// 0-based session round index the failure fires in.
    pub round: u32,
    /// The failing client (must be in that round's cohort to fire).
    pub client: ClientId,
    /// Chunk frames delivered before the disconnect.
    pub after_chunks: u16,
}

/// Options for a multi-round FL session.
pub struct FlSessionOptions {
    /// Rounds to run.
    pub rounds: u32,
    /// VRF sampling parameters (`population` must equal the task
    /// spec's).
    pub sample: SamplingConfig,
    /// Requested chunk count for the networked data plane.
    pub chunks: usize,
    /// Compute-plane worker threads for the networked coordinator
    /// (`0` = serial unmasking; results are bit-equal either way).
    pub workers: usize,
    /// Aggregation shard count `S` for the networked coordinator
    /// (`1` = the classic single round machine; results are bit-equal
    /// for any `S` — see `dordis-net`'s session module docs).
    pub shards: usize,
    /// Scripted mid-stream dropouts.
    pub droppers: Vec<MidStreamDrop>,
    /// Join/claim window per round (networked path).
    pub join_timeout: Duration,
    /// Per-stage deadline within a round (networked path).
    pub stage_timeout: Duration,
    /// Telemetry handle threaded through the networked session (spans
    /// and metrics); the default disabled handle costs nothing.
    pub telemetry: Telemetry,
    /// Ingress byte budget for the coordinator reactor's shared frame
    /// pool (`0` = unlimited, the bit-equal reference path).
    pub ingress_budget: u64,
}

impl FlSessionOptions {
    /// Sensible defaults for in-process sessions.
    #[must_use]
    pub fn new(rounds: u32, sample: SamplingConfig) -> FlSessionOptions {
        FlSessionOptions {
            rounds,
            sample,
            chunks: 4,
            workers: 0,
            shards: 1,
            droppers: Vec::new(),
            join_timeout: Duration::from_secs(20),
            stage_timeout: Duration::from_secs(20),
            telemetry: Telemetry::disabled(),
            ingress_budget: 0,
        }
    }
}

/// One session round's aggregate-level outcome (the bit-equality
/// surface of the equivalence tests).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SessionRoundOutcome {
    /// 0-based round index.
    pub round: u32,
    /// Round id on the wire (`round + 1`; round 0 is reserved for
    /// eager legacy joins).
    pub wire_round: u64,
    /// The VRF-seated cohort, in seating order.
    pub cohort: Vec<ClientId>,
    /// Survivors whose inputs reached the aggregate (U3).
    pub survivors: Vec<ClientId>,
    /// Cohort members that dropped.
    pub dropped: Vec<ClientId>,
    /// The modular aggregate after excessive-noise removal.
    pub sum: Vec<u64>,
    /// Stale frames the coordinator discarded (networked path only).
    pub stale_frames: u64,
}

/// Result of a session run: the trainer-level report plus per-round
/// aggregates.
#[derive(Debug)]
pub struct FlSessionReport {
    /// The same report shape the in-memory [`crate::trainer::train`]
    /// emits.
    pub training: TrainingReport,
    /// Per-round aggregate outcomes.
    pub rounds: Vec<SessionRoundOutcome>,
}

/// Wire round id for a 0-based session round index.
#[must_use]
pub fn wire_round(index: u32) -> u64 {
    u64::from(index) + 1
}

/// The driver's durable round-boundary state: everything a successor
/// coordinator needs to resume the session exactly where the committed
/// prefix ended. Travels as the opaque `app_state` of a
/// [`SessionCheckpoint`](dordis_net::replication::SessionCheckpoint).
///
/// The ledger inside carries its replay watermark, so a resumed driver
/// that tried to re-record an already-committed round would be rejected
/// — losing or double-counting ledger state is a *privacy* bug, not
/// just a bookkeeping one.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DriverCheckpoint {
    /// 0-based index of the first round the successor must run.
    pub next_round: u32,
    /// Privacy ledger with every committed round recorded.
    pub ledger: PrivacyLedger,
    /// Global model after the last committed round's FedAvg step.
    pub global: Vec<f32>,
    /// Trainer-level records for the committed prefix.
    pub records: Vec<RoundRecord>,
    /// Aggregate-level outcomes for the committed prefix.
    pub rounds: Vec<SessionRoundOutcome>,
}

impl DriverCheckpoint {
    /// Serializes for the replication channel (JSON: float fields
    /// round-trip bit-exactly through the vendored codec).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        serde_json::to_string(self)
            .expect("driver checkpoint serializes")
            .into_bytes()
    }

    /// Restores a checkpoint shipped by a former primary.
    ///
    /// # Errors
    ///
    /// Malformed UTF-8 or JSON.
    pub fn from_bytes(bytes: &[u8]) -> Result<DriverCheckpoint, DordisError> {
        let text = core::str::from_utf8(bytes)
            .map_err(|_| DordisError::Config("driver checkpoint is not UTF-8".into()))?;
        serde_json::from_str(text)
            .map_err(|e| DordisError::Config(format!("driver checkpoint parse: {e}")))
    }
}

/// Deterministic per-client VRF key (stands in for PKI key
/// registration).
#[must_use]
pub fn vrf_key_for(seed: u64, id: ClientId) -> VrfSecretKey {
    let mut s = [0u8; 32];
    s[..8].copy_from_slice(&seed.to_le_bytes());
    s[8..12].copy_from_slice(&id.to_le_bytes());
    s[31] = 0x7f;
    VrfSecretKey::from_seed(&s)
}

/// The VRF public-key registry both verifier and tests use.
pub fn vrf_registry(seed: u64, population: u32) -> impl Fn(ClientId) -> Option<VrfPublicKey> {
    move |id| (id < population).then(|| vrf_key_for(seed, id).public_key())
}

/// The cohort each round will seat, computed offline (VRF outputs are
/// deterministic) — how tests script per-round droppers.
#[must_use]
pub fn planned_cohorts(spec: &TaskSpec, opts: &FlSessionOptions) -> Vec<Vec<ClientId>> {
    let keys = vrf_registry(spec.seed, spec.population as u32);
    (0..opts.rounds)
        .map(|i| {
            let r = wire_round(i);
            let claims: Vec<_> = (0..spec.population as u32)
                .filter_map(|id| self_select(&vrf_key_for(spec.seed, id), id, r, &opts.sample))
                .collect();
            seat_claims(&claims, &keys, r, &opts.sample).seated
        })
        .collect()
}

// ---------------------------------------------------------------------
// Shared deterministic derivations (both execution paths).
// ---------------------------------------------------------------------

/// Everything both paths derive identically before the first round.
struct Statics {
    spec: TaskSpec,
    root: Seed,
    z_star: f64,
    target_variance: f64,
    /// Model parameter count (the decode length).
    dim: usize,
    data: Dataset,
    train_set: Dataset,
    test_set: Dataset,
    shards: Vec<Vec<usize>>,
}

fn statics(spec: &TaskSpec, opts: &FlSessionOptions) -> Result<Statics, DordisError> {
    spec.validate().map_err(DordisError::Config)?;
    if spec.variant == Variant::NonPrivate {
        return Err(DordisError::Config(
            "sessions aggregate through secagg and need an integer encoding; \
             use a DP variant"
                .into(),
        ));
    }
    if opts.sample.population != spec.population {
        return Err(DordisError::Config(format!(
            "sampling population {} disagrees with task population {}",
            opts.sample.population, spec.population
        )));
    }
    if opts.rounds == 0 {
        return Err(DordisError::Config(
            "sessions need at least one round".into(),
        ));
    }
    let data = synthetic_classification(&spec.dataset);
    let (train_set, test_set) = train_test_split(&data, spec.test_fraction);
    let shards = dirichlet_partition(&train_set, spec.population, spec.dirichlet_alpha, spec.seed);
    let model = build_model(spec, &data);
    let dim = model.num_params();
    let enc_cfg = &spec.privacy.encoding;
    let mechanism = Mechanism::Skellam {
        l1_per_l2: enc_cfg.l1_per_l2(dim),
    };
    let noise_plan = plan(&PlannerConfig {
        epsilon: spec.privacy.epsilon,
        delta: spec.privacy.delta,
        rounds: opts.rounds,
        sample_rate: opts.sample.target_sample as f64 / spec.population as f64,
        mechanism,
    })?;
    let delta2 = enc_cfg.l2_sensitivity(dim);
    let sigma = noise_plan.noise_multiplier * delta2;
    Ok(Statics {
        spec: spec.clone(),
        root: master_seed(spec),
        z_star: noise_plan.noise_multiplier,
        target_variance: sigma * sigma,
        dim,
        data,
        train_set,
        test_set,
        shards,
    })
}

/// Per-round encoding rotation seed.
fn rotation_for(root: &Seed, r: u64) -> Seed {
    Prg::fork(root, b"session.rotation", r)
}

/// Per-(round, client) encoding/noise seed.
fn encode_seed_for(root: &Seed, r: u64, id: ClientId) -> Seed {
    Prg::fork(root, b"session.client", (r << 20) ^ u64::from(id))
}

/// The XNoise dropout tolerance for a cohort of `n` (must agree between
/// the coordinator's `noise_components` and the clients' plans).
fn xnoise_tolerance(variant: Variant, n: usize) -> usize {
    match variant {
        Variant::XNoise { tolerance_frac, .. } => {
            (((n as f64) * tolerance_frac).floor() as usize).min(n.saturating_sub(1))
        }
        _ => 0,
    }
}

/// The round's XNoise plan for a cohort of `n` (None for non-XNoise
/// variants).
fn xplan_for(st: &Statics, n: usize) -> Result<Option<XNoisePlan>, DordisError> {
    match st.spec.variant {
        Variant::XNoise { collusion_frac, .. } => {
            let tolerance = xnoise_tolerance(st.spec.variant, n);
            let threshold = n / 2 + 1;
            let collusion = ((threshold as f64) * collusion_frac).floor() as usize;
            Ok(Some(XNoisePlan::new(
                st.target_variance,
                n,
                tolerance,
                collusion,
                threshold,
            )?))
        }
        _ => Ok(None),
    }
}

/// One client's clipped local delta for a round, from the given global
/// model.
fn client_update(st: &Statics, round_index: u32, id: ClientId, global: &[f32]) -> Vec<f32> {
    let mut model = build_model(&st.spec, &st.data);
    let mut opt = build_optimizer(&st.spec);
    clipped_local_delta(
        &st.spec,
        model.as_mut(),
        opt.as_mut(),
        global,
        &st.train_set,
        &st.shards[id as usize],
        round_index,
        u64::from(id),
    )
}

/// Encodes + perturbs one client's update into its round input: the
/// DSkellam encoding, the variant's noise, and (XNoise) the component
/// seeds to be Shamir-backed through secagg.
fn encoded_input(
    st: &Statics,
    r: u64,
    id: ClientId,
    update: &[f32],
    n: usize,
    xplan: Option<&XNoisePlan>,
) -> Result<ClientInput, DordisError> {
    let enc_cfg = &st.spec.privacy.encoding;
    let bits = enc_cfg.bit_width;
    let encoder = Encoder::new(enc_cfg, rotation_for(&st.root, r));
    let update_f64: Vec<f64> = update.iter().map(|&x| f64::from(x)).collect();
    let round_seed = encode_seed_for(&st.root, r, id);
    let mut enc = encoder
        .encode(&update_f64, &round_seed)
        .map_err(DordisError::Dp)?;
    let noise_seeds = match st.spec.variant {
        Variant::Orig | Variant::Early => {
            let noise = skellam_vector(
                &Prg::fork(&round_seed, b"orig.noise", 0),
                b"dordis.orig",
                enc.len(),
                st.target_variance / n as f64,
            );
            add_noise_mod(&mut enc, &noise, bits);
            Vec::new()
        }
        Variant::Conservative { est_dropout } => {
            let noise = skellam_vector(
                &Prg::fork(&round_seed, b"con.noise", 0),
                b"dordis.con",
                enc.len(),
                st.target_variance / ((n as f64) * (1.0 - est_dropout)),
            );
            add_noise_mod(&mut enc, &noise, bits);
            Vec::new()
        }
        Variant::XNoise { .. } => {
            let plan = xplan.expect("xnoise plan built for xnoise variant");
            // The seeds travel through secagg's Shamir backup, so the
            // server can recover exactly the removable components —
            // keyed like the protocol path so the recovery is
            // reproducible.
            let seeds = derive_component_seeds(
                &client_round_seed(st.spec.seed, r, id),
                plan.dropout_tolerance,
            );
            perturb(&mut enc, &seeds, plan, bits)?;
            seeds
        }
        Variant::NonPrivate => unreachable!("rejected in statics()"),
    };
    Ok(ClientInput {
        vector: enc,
        noise_seeds,
    })
}

/// The round parameters for a seated cohort.
fn round_params(st: &Statics, r: u64, cohort: &[ClientId]) -> RoundParams {
    let n = cohort.len();
    RoundParams {
        round: r,
        clients: cohort.to_vec(),
        threshold: n / 2 + 1,
        bit_width: st.spec.privacy.encoding.bit_width,
        vector_len: Encoder::padded_len(st.dim),
        noise_components: xnoise_tolerance(st.spec.variant, n),
        threat_model: ThreatModel::SemiHonest,
        graph: MaskingGraph::Complete,
    }
}

/// What a round execution engine must hand back to the shared driver.
struct RoundNet {
    /// The modular aggregate before excess removal.
    sum: Vec<u64>,
    /// Survivors (U3), in outcome order.
    survivors: Vec<ClientId>,
    /// Recovered XNoise removal seeds.
    removal_seeds: Vec<(ClientId, usize, Seed)>,
    /// Stale frames discarded (0 for the in-memory engine).
    stale_frames: u64,
}

// ---------------------------------------------------------------------
// The shared session driver.
// ---------------------------------------------------------------------

/// Runs the full session given a per-round execution engine; everything
/// else — VRF cohorts, removal, decode, FedAvg, evaluation, the privacy
/// ledger — is this one code path for both engines.
fn run_fl_session(
    st: &Statics,
    opts: &FlSessionOptions,
    exec: impl FnMut(
        &Statics,
        u32,
        u64,
        &[ClientId],
        Option<&XNoisePlan>,
        &[f32],
    ) -> Result<RoundNet, DordisError>,
) -> Result<FlSessionReport, DordisError> {
    run_fl_session_at(st, opts, None, None, exec)
}

/// Round-commit callback: `(wire_round, serialized candidate
/// checkpoint)`; an `Err` unwinds the round before it takes effect.
type CommitFn<'a> = &'a mut dyn FnMut(u64, &[u8]) -> Result<(), DordisError>;

/// The resumable driver behind [`run_fl_session`]: optionally starts
/// from a restored [`DriverCheckpoint`] instead of round 0, and
/// optionally gates every round on a `commit` callback (checkpoint
/// replication). The commit is called with the serialized candidate
/// state *before* that state is installed — a round whose commit errors
/// leaves no trace in the ledger, the model, or the records, which is
/// exactly the crash-consistency contract the failover path relies on.
fn run_fl_session_at(
    st: &Statics,
    opts: &FlSessionOptions,
    resume: Option<DriverCheckpoint>,
    mut commit: Option<CommitFn<'_>>,
    mut exec: impl FnMut(
        &Statics,
        u32,
        u64,
        &[ClientId],
        Option<&XNoisePlan>,
        &[f32],
    ) -> Result<RoundNet, DordisError>,
) -> Result<FlSessionReport, DordisError> {
    let spec = &st.spec;
    let enc_cfg = &spec.privacy.encoding;
    let bits = enc_cfg.bit_width;
    let rate = opts.sample.target_sample as f64 / spec.population as f64;
    let cohorts = planned_cohorts(spec, opts);

    let mut model = build_model(spec, &st.data);
    let (start, mut ledger, mut global, mut records, mut rounds) = match resume {
        Some(ckpt) => {
            if ckpt.next_round > opts.rounds {
                return Err(DordisError::Config(format!(
                    "checkpoint resumes at round {} past the {}-round horizon",
                    ckpt.next_round, opts.rounds
                )));
            }
            (
                ckpt.next_round,
                ckpt.ledger,
                ckpt.global,
                ckpt.records,
                ckpt.rounds,
            )
        }
        None => {
            let mechanism = Mechanism::Skellam {
                l1_per_l2: enc_cfg.l1_per_l2(st.dim),
            };
            let ledger = PrivacyLedger::new(mechanism, spec.privacy.epsilon, spec.privacy.delta)?;
            (0, ledger, model.params(), Vec::new(), Vec::new())
        }
    };

    for i in start..opts.rounds {
        let r = wire_round(i);
        let cohort = &cohorts[i as usize];
        if cohort.len() < 2 {
            return Err(DordisError::Config(format!(
                "round {i}: VRF seated only {} client(s); raise over_selection or population",
                cohort.len()
            )));
        }
        let xplan = xplan_for(st, cohort.len())?;
        let net = exec(st, i, r, cohort, xplan.as_ref(), &global)?;
        let dropped_ct = cohort.len() - net.survivors.len();
        let mut sum = net.sum;
        if let Some(plan) = &xplan {
            if dropped_ct <= plan.dropout_tolerance {
                remove_excess(&mut sum, &net.removal_seeds, &net.survivors, plan, bits)?;
            }
        }
        let encoder = Encoder::new(enc_cfg, rotation_for(&st.root, r));
        let decoded = encoder.decode(&sum, st.dim);
        let achieved = achieved_noise_multiplier(
            spec.variant,
            st.z_star,
            st.target_variance,
            cohort.len(),
            net.survivors.len(),
            xplan.as_ref(),
        );
        // The watermark-guarded record: a resumed driver that replayed
        // an already-committed round would be rejected here instead of
        // double-counting privacy budget.
        ledger
            .record_round_at(r, rate, achieved)
            .map_err(DordisError::Dp)?;

        // FedAvg over survivors, then evaluate on the cadence.
        let mean: Vec<f32> = decoded
            .iter()
            .map(|&v| (v / net.survivors.len() as f64) as f32)
            .collect();
        apply_update(&mut global, &mean, 1.0);
        model.set_params(&global);
        let evaluate = i % spec.eval_every == spec.eval_every - 1 || i + 1 == opts.rounds;
        let (acc, ppl) = if evaluate {
            (
                Some(accuracy(model.as_ref(), &st.test_set)),
                Some(perplexity(model.as_ref(), &st.test_set)),
            )
        } else {
            (None, None)
        };
        records.push(RoundRecord {
            round: i,
            epsilon: ledger.realized_epsilon(),
            dropped: dropped_ct,
            achieved_multiplier: achieved,
            accuracy: acc,
            perplexity: ppl,
        });
        let dropped: Vec<ClientId> = cohort
            .iter()
            .copied()
            .filter(|id| !net.survivors.contains(id))
            .collect();
        rounds.push(SessionRoundOutcome {
            round: i,
            wire_round: r,
            cohort: cohort.clone(),
            survivors: net.survivors,
            dropped,
            sum,
            stale_frames: net.stale_frames,
        });

        // Checkpoint-then-commit: ship the round's candidate state and
        // only treat it as durable once the commit callback returns. A
        // commit error unwinds the whole session — the caller must
        // discard this driver (a backup may already hold a divergent
        // view), so nothing recorded above ever escapes uncommitted.
        if let Some(cb) = commit.as_mut() {
            let ckpt = DriverCheckpoint {
                next_round: i + 1,
                ledger: ledger.clone(),
                global: global.clone(),
                records: records.clone(),
                rounds: rounds.clone(),
            };
            cb(r, &ckpt.to_bytes())?;
        }
    }

    model.set_params(&global);
    Ok(FlSessionReport {
        training: TrainingReport {
            task: spec.name.clone(),
            rounds_completed: opts.rounds,
            epsilon_consumed: ledger.realized_epsilon(),
            final_accuracy: accuracy(model.as_ref(), &st.test_set),
            final_perplexity: perplexity(model.as_ref(), &st.test_set),
            stopped_early: false,
            records,
        },
        rounds,
    })
}

/// The droppers that fire in round `i` *and* are seated in its cohort.
fn round_droppers(opts: &FlSessionOptions, i: u32, cohort: &[ClientId]) -> Vec<MidStreamDrop> {
    opts.droppers
        .iter()
        .copied()
        .filter(|d| d.round == i && cohort.contains(&d.client))
        .collect()
}

// ---------------------------------------------------------------------
// In-memory reference path.
// ---------------------------------------------------------------------

/// Runs the session fully in memory: per-round VRF cohorts, the secagg
/// *driver* with scripted dropouts, and the shared FedAvg/ledger tail.
///
/// # Errors
///
/// Invalid configuration, protocol aborts, noise-enforcement failures.
pub fn train_session(
    spec: &TaskSpec,
    opts: &FlSessionOptions,
) -> Result<FlSessionReport, DordisError> {
    let st = statics(spec, opts)?;
    run_fl_session(&st, opts, |st, i, r, cohort, xplan, global| {
        let mut inputs = std::collections::BTreeMap::new();
        for &id in cohort {
            let update = client_update(st, i, id, global);
            inputs.insert(id, encoded_input(st, r, id, &update, cohort.len(), xplan)?);
        }
        let mut dropout = DropoutSchedule::none();
        for d in round_droppers(opts, i, cohort) {
            // A mid-chunk-stream failure never reaches U3: in the
            // driver's stage model that is a BeforeMaskedInput drop.
            dropout.drop_at(d.client, DropStage::BeforeMaskedInput);
        }
        let (outcome, _stats) = run_round(RoundSpec {
            params: round_params(st, r, cohort),
            inputs,
            dropout,
            rng_seed: round_rng_seed(st.spec.seed, r),
        })
        .map_err(DordisError::SecAgg)?;
        Ok(RoundNet {
            sum: outcome.sum,
            survivors: outcome.survivors,
            removal_seeds: outcome.removal_seeds,
            stale_frames: 0,
        })
    })
}

// ---------------------------------------------------------------------
// Networked path.
// ---------------------------------------------------------------------

/// Serializes the global model into the Setup payload.
fn global_to_bytes(global: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(global.len() * 4);
    for v in global {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Parses a Setup payload back into the global model.
fn bytes_to_global(payload: &[u8]) -> Result<Vec<f32>, NetError> {
    if !payload.len().is_multiple_of(4) {
        return Err(NetError::Protocol(format!(
            "global-model payload length {} is not a multiple of 4",
            payload.len()
        )));
    }
    Ok(payload
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes(b.try_into().expect("4 bytes")))
        .collect())
}

/// Builds the coordinator `SessionConfig` shared by the networked
/// drivers: VRF-claim seating, round params derived from the shared
/// statics — and, for the failover path, a replication link plus an
/// injected-crash plan. `first_index` is the 0-based session round the
/// coordinator starts at (a takeover successor starts past the
/// committed prefix).
fn networked_session_cfg(
    st: &Arc<Statics>,
    opts: &FlSessionOptions,
    first_index: u32,
    replica: Option<Box<dyn EventedChannel>>,
    faults: FaultPlan,
) -> SessionConfig<'static> {
    let population = st.spec.population as u32;
    let sample = opts.sample;
    let registry = vrf_registry(st.spec.seed, population);
    let params_st = Arc::clone(st);
    SessionConfig {
        first_round: wire_round(first_index),
        rounds: u64::from(opts.rounds - first_index),
        join_timeout: opts.join_timeout,
        stage_timeout: opts.stage_timeout,
        chunks: opts.chunks,
        chunk_compute: None,
        tick: dordis_net::coordinator::CoordinatorConfig::DEFAULT_TICK,
        mode: CollectMode::Reactor,
        workers: opts.workers,
        shards: opts.shards,
        ingress_budget: opts.ingress_budget,
        announce: true,
        population: (0..population).collect(),
        seating: Seating::Claims(Box::new(move |r, raw_claims| {
            let mut claims = Vec::new();
            let mut rejected = Vec::new();
            for (id, bytes) in raw_claims {
                match decode_claim(bytes) {
                    Ok(c) if c.client == *id => claims.push(c),
                    Ok(_) => rejected.push((*id, "claim names another client".to_string())),
                    Err(why) => rejected.push((*id, why)),
                }
            }
            let SeatedCohort {
                seated,
                rejected: invalid,
            } = seat_claims(&claims, &registry, r, &sample);
            rejected.extend(invalid);
            SeatingOutcome { seated, rejected }
        })),
        params_for: Box::new(move |r, seated| round_params(&params_st, r, seated)),
        telemetry: opts.telemetry.clone(),
        metrics_addr: None,
        replica,
        faults,
    }
}

/// Executes one networked round through `session` and validates what
/// the coordinator seated against the driver's planned VRF cohort.
///
/// The driver's noise plan, removal, and ledger entry are all derived
/// from the *planned* cohort — if the coordinator seated anything else
/// (a slow claim missed the join window), those derivations are wrong
/// for what actually ran, so fail loudly instead of recording a
/// corrupted round.
fn networked_round(
    session: &mut Session,
    r: u64,
    cohort: &[ClientId],
    global: &[f32],
) -> Result<RoundNet, NetError> {
    let report = session.run_round(&global_to_bytes(global))?;
    if report.round != r {
        return Err(NetError::Protocol(format!(
            "session executed round {} where the driver expected {r}",
            report.round
        )));
    }
    let mut seated: Vec<ClientId> = report
        .outcome
        .survivors
        .iter()
        .chain(report.outcome.dropped.iter())
        .copied()
        .collect();
    seated.sort_unstable();
    let mut planned = cohort.to_vec();
    planned.sort_unstable();
    if seated != planned {
        return Err(NetError::Protocol(format!(
            "round {r}: seated cohort {seated:?} diverged from the planned VRF cohort \
             {planned:?} (a claim missed the join window?)"
        )));
    }
    Ok(RoundNet {
        sum: report.outcome.sum,
        survivors: report.outcome.survivors,
        removal_seeds: report.outcome.removal_seeds,
        stale_frames: report.stale_frames,
    })
}

/// Runs the session over `dordis-net`: a session coordinator on this
/// thread, one persistent loopback connection per population member,
/// per-round VRF claims verified-and-trimmed at the join stage, the
/// global model broadcast in each Setup payload, and scripted
/// mid-stream droppers that reconnect and re-join the next round.
///
/// # Errors
///
/// Invalid configuration, protocol aborts, transport failures,
/// noise-enforcement failures.
pub fn train_session_networked(
    spec: &TaskSpec,
    opts: &FlSessionOptions,
) -> Result<FlSessionReport, DordisError> {
    let st = Arc::new(statics(spec, opts)?);
    let population = spec.population as u32;
    let sample = opts.sample;
    let seed = spec.seed;
    let droppers: Arc<Vec<MidStreamDrop>> = Arc::new(opts.droppers.clone());
    let (hub, mut acceptor) = LoopbackHub::new();

    // ---- Client threads: one persistent connection each, reconnect
    // after scripted failures. ----
    let mut handles = Vec::new();
    for id in 0..population {
        let hub = hub.clone();
        let st = Arc::clone(&st);
        let droppers = Arc::clone(&droppers);
        handles.push(std::thread::spawn(move || -> Result<(), String> {
            let key = vrf_key_for(seed, id);
            loop {
                let mut chan = hub
                    .connect(&format!("client-{id}"))
                    .map_err(|e| format!("client {id} connect: {e}"))?;
                let client_opts = SessionClientOptions {
                    id,
                    rng_seed: seed,
                    recv_timeout: Duration::from_secs(120),
                    silent_linger: Duration::from_secs(1),
                };
                let report = run_session_client(
                    &mut chan,
                    &client_opts,
                    |r| self_select(&key, id, r, &sample).map(|c| encode_claim(&c)),
                    |r| {
                        droppers
                            .iter()
                            .find(|d| wire_round(d.round) == r && d.client == id)
                            .map(|d| FailPoint {
                                stage: FailStage::MaskedInputAfterChunks(d.after_chunks),
                                action: FailAction::Disconnect,
                            })
                    },
                    |r, _params, cohort, payload| {
                        let global = bytes_to_global(payload)?;
                        let i = (r - 1) as u32;
                        // XNoise planning and encoding key off the
                        // *union* cohort size from Setup: in a sharded
                        // round `params.clients` is just this client's
                        // shard roster, and a shard-sized noise plan
                        // would corrupt the privacy accounting.
                        let n = usize::from(cohort);
                        let update = client_update(&st, i, id, &global);
                        let xplan = xplan_for(&st, n)
                            .map_err(|e| NetError::Protocol(format!("xnoise plan: {e}")))?;
                        encoded_input(&st, r, id, &update, n, xplan.as_ref())
                            .map_err(|e| NetError::Protocol(format!("encode: {e}")))
                    },
                    |_| None,
                )
                .map_err(|e| format!("client {id}: {e}"))?;
                match report.end {
                    SessionEndKind::Ended => return Ok(()),
                    // Scripted dropout: reconnect and re-join from the
                    // next round's announce.
                    SessionEndKind::Failed { .. } => continue,
                    SessionEndKind::Aborted { round, reason } => {
                        return Err(format!("client {id} aborted in round {round}: {reason}"))
                    }
                    SessionEndKind::ServerAborted { reason } => {
                        return Err(format!("client {id}: server aborted: {reason}"))
                    }
                }
            }
        }));
    }

    // ---- The session coordinator. ----
    let session_cfg = networked_session_cfg(&st, opts, 0, None, FaultPlan::none());
    let mut session = Session::new(&mut acceptor, session_cfg)
        .map_err(|e| DordisError::Config(format!("session: {e}")))?;

    let result = run_fl_session(&st, opts, |_st, _i, r, cohort, _xplan, global| {
        networked_round(&mut session, r, cohort, global)
            .map_err(|e| DordisError::Config(format!("networked round {r}: {e}")))
    });
    session.finish();
    for h in handles {
        h.join()
            .map_err(|_| DordisError::Config("client thread panicked".into()))?
            .map_err(DordisError::Config)?;
    }
    result
}

// ---------------------------------------------------------------------
// Failover path: replicated primary, backup takeover, client redial.
// ---------------------------------------------------------------------

/// A scripted coordinator crash for the failover harness.
#[derive(Clone, Copy, Debug)]
pub struct CrashSpec {
    /// 0-based session round index the kill fires in.
    pub round: u32,
    /// Where inside that round the primary dies.
    pub point: KillPoint,
}

/// Runs a *replicated* networked session and (optionally) kills the
/// primary coordinator partway through: a primary on one loopback
/// address ships a [`DriverCheckpoint`] to a backup at every round
/// boundary through [`Session::commit_round`]; clients redial with
/// bounded jittered [`Backoff`], flipping between the two addresses
/// until one answers; on the primary's death the backup takes over from
/// the last acked checkpoint and serves the remaining rounds.
///
/// With `crash: None` the session still runs fully replicated (every
/// round gated on the backup's ack) and retires cleanly — the overhead
/// path. With a [`CrashSpec`] the primary dies at the scripted
/// [`KillPoint`] and the report is produced by the successor. Either
/// way the result is bit-equal to [`train_session_networked`] /
/// [`train_session`]: a crash mid-round re-runs that round from the
/// committed prefix (same VRF cohort, seeds, and global model ⇒ same
/// aggregate), a crash between the ack and the commit resumes *past*
/// the round the backup already holds, and the ledger's watermark
/// rejects any double-record across the hand-off.
///
/// # Errors
///
/// Invalid configuration, unrecoverable protocol/transport failures,
/// checkpoint corruption.
pub fn train_session_networked_failover(
    spec: &TaskSpec,
    opts: &FlSessionOptions,
    crash: Option<CrashSpec>,
) -> Result<FlSessionReport, DordisError> {
    let st = Arc::new(statics(spec, opts)?);
    let population = spec.population as u32;
    let sample = opts.sample;
    let seed = spec.seed;
    let droppers: Arc<Vec<MidStreamDrop>> = Arc::new(opts.droppers.clone());
    let shutdown = Arc::new(std::sync::atomic::AtomicBool::new(false));

    let (hub_a, mut acceptor_a) = LoopbackHub::new();
    let (hub_b, mut acceptor_b) = LoopbackHub::new();
    let (repl_primary, mut repl_backup) = LoopbackChannel::pair("replication");

    // ---- The backup coordinator's watch thread. The lease is generous
    // — takeover here is driven by the replication channel closing with
    // the crashed primary, which the backup sees immediately. ----
    let lease = opts.join_timeout + opts.stage_timeout * 4;
    let backup_telemetry = opts.telemetry.clone();
    let backup_handle =
        std::thread::spawn(move || run_backup(&mut repl_backup, lease, &backup_telemetry));

    // ---- Client threads: redial with jittered backoff, flipping
    // between the two coordinator addresses on every connect failure or
    // transport death, so orphans of the crash find the successor
    // within a few backoff steps. ----
    let mut handles = Vec::new();
    for id in 0..population {
        let hub_a = hub_a.clone();
        let hub_b = hub_b.clone();
        let st = Arc::clone(&st);
        let droppers = Arc::clone(&droppers);
        let shutdown = Arc::clone(&shutdown);
        handles.push(std::thread::spawn(move || -> Result<(), String> {
            let key = vrf_key_for(seed, id);
            let mut on_backup = false;
            let mut backoff = Backoff::new(
                u64::from(id),
                Duration::from_millis(2),
                Duration::from_millis(200),
            );
            loop {
                if backoff.attempts() > 2_000 {
                    return Err(format!("client {id}: no coordinator reachable"));
                }
                let hub = if on_backup { &hub_b } else { &hub_a };
                let mut chan = match hub.connect(&format!("client-{id}")) {
                    Ok(c) => c,
                    Err(_) => {
                        if shutdown.load(std::sync::atomic::Ordering::Relaxed) {
                            return Ok(());
                        }
                        on_backup = !on_backup;
                        backoff.sleep();
                        continue;
                    }
                };
                let client_opts = SessionClientOptions {
                    id,
                    rng_seed: seed,
                    // Short enough that a client parked on a dead-but-
                    // accepting address re-enters the redial loop well
                    // inside the takeover window.
                    recv_timeout: Duration::from_secs(5),
                    silent_linger: Duration::from_secs(1),
                };
                let outcome = run_session_client(
                    &mut chan,
                    &client_opts,
                    |r| self_select(&key, id, r, &sample).map(|c| encode_claim(&c)),
                    |r| {
                        droppers
                            .iter()
                            .find(|d| wire_round(d.round) == r && d.client == id)
                            .map(|d| FailPoint {
                                stage: FailStage::MaskedInputAfterChunks(d.after_chunks),
                                action: FailAction::Disconnect,
                            })
                    },
                    |r, _params, cohort, payload| {
                        let global = bytes_to_global(payload)?;
                        let i = (r - 1) as u32;
                        let n = usize::from(cohort);
                        let update = client_update(&st, i, id, &global);
                        let xplan = xplan_for(&st, n)
                            .map_err(|e| NetError::Protocol(format!("xnoise plan: {e}")))?;
                        encoded_input(&st, r, id, &update, n, xplan.as_ref())
                            .map_err(|e| NetError::Protocol(format!("encode: {e}")))
                    },
                    |_| None,
                );
                match outcome {
                    Ok(report) => match report.end {
                        SessionEndKind::Ended => return Ok(()),
                        // Scripted dropout: rejoin the same coordinator
                        // from the next round's announce.
                        SessionEndKind::Failed { .. } => continue,
                        SessionEndKind::Aborted { round, reason } => {
                            return Err(format!("client {id} aborted in round {round}: {reason}"))
                        }
                        SessionEndKind::ServerAborted { reason } => {
                            return Err(format!("client {id}: server aborted: {reason}"))
                        }
                    },
                    // The coordinator died under us (or we out-waited a
                    // takeover window): flip addresses and redial.
                    Err(NetError::Closed | NetError::Timeout | NetError::Unavailable) => {
                        on_backup = !on_backup;
                        backoff.sleep();
                        continue;
                    }
                    Err(e) => return Err(format!("client {id}: {e}")),
                }
            }
        }));
    }

    // ---- Primary, then (after a scripted crash) the successor. Runs
    // in a move closure so every coordinator-side resource is dropped
    // by the time the client threads are reaped below. ----
    let backup_res = std::cell::OnceCell::new();
    let outcome = (|| -> Result<FlSessionReport, DordisError> {
        let crashed = Cell::new(false);
        let coord_faults = match crash {
            Some(CrashSpec { round, point }) if point != KillPoint::BetweenAckAndCommit => {
                FaultPlan::kill_at(wire_round(round), point)
            }
            _ => FaultPlan::none(),
        };
        let commit_faults = match crash {
            Some(CrashSpec {
                round,
                point: KillPoint::BetweenAckAndCommit,
            }) => FaultPlan::kill_at(wire_round(round), KillPoint::BetweenAckAndCommit),
            _ => FaultPlan::none(),
        };
        let cfg_a = networked_session_cfg(&st, opts, 0, Some(Box::new(repl_primary)), coord_faults);
        let session = RefCell::new(
            Session::new(&mut acceptor_a, cfg_a)
                .map_err(|e| DordisError::Config(format!("primary session: {e}")))?,
        );
        let mut commit_cb = |r: u64, bytes: &[u8]| -> Result<(), DordisError> {
            session
                .borrow_mut()
                .commit_round(r, bytes)
                .map_err(|e| DordisError::Config(format!("commit round {r}: {e}")))?;
            // The ack is in: the backup now holds round `r`. A kill
            // here proves the successor resumes *past* r instead of
            // double-recording it.
            commit_faults
                .trip(KillPoint::BetweenAckAndCommit, r)
                .map_err(|e| {
                    crashed.set(true);
                    DordisError::Config(format!("{e}"))
                })
        };
        let primary_run = run_fl_session_at(
            &st,
            opts,
            None,
            Some(&mut commit_cb),
            |_st, _i, r, cohort, _xplan, global| {
                networked_round(&mut session.borrow_mut(), r, cohort, global).map_err(|e| {
                    if FaultPlan::is_injected(&e) {
                        crashed.set(true);
                    }
                    DordisError::Config(format!("networked round {r}: {e}"))
                })
            },
        );
        match primary_run {
            Ok(report) => {
                // Clean end: retire the primary role (the backup sees
                // SessionEnd, not a lease break) and wrap up.
                session.into_inner().finish();
                let _ = backup_res.set(backup_handle.join());
                return Ok(report);
            }
            Err(e) if !crashed.get() => {
                drop(session);
                let _ = backup_res.set(backup_handle.join());
                return Err(e);
            }
            Err(_) => {}
        }

        // ---- Failover. Dropping the dead primary closes every client
        // channel and the replication link — no SessionEnd, no retire:
        // exactly what a SIGKILL looks like from the outside. ----
        drop(session);
        drop(acceptor_a);
        let takeover = match backup_handle.join() {
            Ok(Ok(BackupOutcome::Takeover(t))) => t,
            Ok(Ok(BackupOutcome::SessionEnded(_))) => {
                return Err(DordisError::Config(
                    "backup saw a clean session end after a scripted crash".into(),
                ))
            }
            Ok(Err(e)) => return Err(DordisError::Config(format!("backup failed: {e}"))),
            Err(_) => return Err(DordisError::Config("backup thread panicked".into())),
        };
        let resume = takeover
            .checkpoint
            .as_ref()
            .map(|c| DriverCheckpoint::from_bytes(&c.app_state))
            .transpose()?;
        // Died before the first commit ⇒ no checkpoint ⇒ the successor
        // starts the whole session from scratch.
        let next = resume.as_ref().map_or(0, |c| c.next_round);
        let cfg_b = networked_session_cfg(&st, opts, next, None, FaultPlan::none());
        let session_b = RefCell::new(
            Session::new(&mut acceptor_b, cfg_b)
                .map_err(|e| DordisError::Config(format!("successor session: {e}")))?,
        );
        let result = run_fl_session_at(
            &st,
            opts,
            resume,
            None,
            |_st, _i, r, cohort, _xplan, global| {
                networked_round(&mut session_b.borrow_mut(), r, cohort, global)
                    .map_err(|e| DordisError::Config(format!("failover round {r}: {e}")))
            },
        );
        if result.is_ok() {
            session_b.into_inner().finish();
        }
        result
    })();

    // Coordinator-side resources are gone; release any still-dialing
    // clients and reap the threads.
    shutdown.store(true, std::sync::atomic::Ordering::Relaxed);
    for h in handles {
        let joined = h
            .join()
            .map_err(|_| DordisError::Config("client thread panicked".into()))?;
        if outcome.is_ok() {
            joined.map_err(DordisError::Config)?;
        }
    }
    outcome
}
