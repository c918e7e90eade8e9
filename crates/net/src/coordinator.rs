//! The round coordinator: drives the `dordis-secagg` server state
//! machine over a real transport, stage by stage, with per-stage
//! deadlines.
//!
//! This is the networked replacement for the driver's scripted
//! [`DropoutSchedule`]: here nobody *announces* a dropout — a client
//! that disconnects or stays silent past the stage deadline is
//! *detected* and excluded, exactly as in the deployed system the paper
//! evaluates (§6.1 measures dropout as missed per-stage responses).
//!
//! ## The round machine
//!
//! All per-round state — the secagg [`Server`], the [`ChunkPlan`], the
//! traffic/dropout accounting, and the round id every frame is checked
//! against — lives in a [`RoundMachine`]. A [`Session`] constructs one
//! machine per round and runs them back to back over the same
//! persistent connections; [`run_coordinator`] is the single-round
//! convenience wrapper — an ordinary announced session of one round,
//! closed with `SessionEnd` like any other. A frame whose envelope
//! carries a *different* round id than the machine's is never parsed
//! into the round's state: frames from older rounds (a slow peer
//! catching up after a session transition) are discarded and counted in
//! [`NetRoundReport::stale_frames`]; frames claiming future rounds are
//! protocol violations.
//!
//! ## The per-(stage, chunk) data plane
//!
//! Control-plane stages (key advertisement, share routing, consistency,
//! share collection) are round-global. The data plane is chunked
//! (§4.1): masked inputs arrive as one frame per [`ChunkPlan`] chunk,
//! collected by a per-(stage, chunk) state machine — chunk `c`'s frames
//! are decoded, validated, and aggregated into the server's per-chunk
//! state *while chunk `c+1`'s frames are still in flight*, and the
//! per-stage deadline applies per chunk (the clock restarts when a chunk
//! completes). Symmetrically, per-chunk unmasking is interleaved with
//! the noise-share collection when XNoise seed recovery is needed, so
//! the s-comp and comm resources overlap end to end as in Figure 12. A
//! client whose chunk stream stops partway is a detected dropout: U3
//! only admits clients that delivered *every* chunk.
//!
//! ## Readiness-driven collection
//!
//! The collection loops are driven by [`reactor`](crate::reactor)
//! events: the coordinator thread sleeps in `epoll_pwait` until a frame,
//! a disconnect, or a deadline is actually ready, so one thread serves
//! hundreds of chunk-streaming clients with `O(events)` wake-ups.
//!
//! [`DropoutSchedule`]: dordis_secagg::driver::DropoutSchedule

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dordis_compute::JobOutcome;
use dordis_pipeline::ChunkPlan;
use dordis_secagg::driver::{RoundStats, StageTraffic};
use dordis_secagg::server::{unmask_chunk_task, RoundOutcome, Server};
use dordis_secagg::{ClientId, RoundParams, SecAggError, ThreatModel};
use dordis_telemetry::{MetricsSnapshot, Telemetry};

use crate::compute::ComputePlane;
use crate::faults::{FaultPlan, KillPoint};

use crate::codec::{
    self, decode_advertised_keys, decode_consistency_signature, decode_encrypted_shares,
    decode_list, decode_masked_input, decode_noise_share_response, decode_unmasking_response,
    encode_list, Encode, Envelope, EnvelopeView, FrameContext, StageTag, HEADER_BYTES,
};
use crate::reactor::{Event, EventedChannel, Reactor, ReactorStats, Token};
use crate::session::{Seating, Session, SessionConfig};
use crate::transport::{send_env, wire_message, Acceptor};
use crate::NetError;

/// Selects nothing: the [`Reactor`] is the only collection engine.
/// The single variant exists for source compatibility with callers that
/// still fill in [`SessionConfig::mode`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CollectMode {
    /// Readiness-driven collection: one `epoll_pwait` sleep per batch of
    /// events — `O(events)` wake-ups per round.
    #[default]
    Reactor,
}

/// Configuration of one coordinated round.
pub struct CoordinatorConfig {
    /// Protocol parameters; `params.clients` is the round's cohort — ids
    /// that never join are advertise-stage dropouts. In a session the
    /// cohort (and `params.round`) come from the session's per-round
    /// seating, not from a fixed roster.
    pub params: RoundParams,
    /// How long to wait for the full sampled set to join before starting
    /// with whoever arrived.
    pub join_timeout: Duration,
    /// Per-stage response deadline; a silent client past this is a
    /// detected dropout. During masked-input collection the deadline
    /// applies *per chunk*: the clock restarts whenever a chunk
    /// completes.
    pub stage_timeout: Duration,
    /// Requested chunk count `m` for the data plane (clamped to ≥ 1).
    /// The realized count after byte alignment may be smaller; clients
    /// re-derive the identical plan from this count via the Setup
    /// broadcast.
    pub chunks: usize,
    /// Injected s-comp cost for the *whole vector*, spread over chunks
    /// proportionally to their element counts and spent once per chunk
    /// at aggregation and once at unmasking. Emulates the server-side
    /// compute of models too large to run in-repo, so benches and tests
    /// can realize Figure 12's comm/compute overlap on a loopback
    /// transport. `None` injects nothing (production).
    pub chunk_compute: Option<Duration>,
    /// Scheduling granularity: the reactor's timer-wheel tick.
    pub tick: Duration,
    /// Compute-plane worker threads for per-chunk unmask jobs. `0`
    /// (the default) keeps the serial reference path: mask expansion
    /// and chunk aggregation run inline on the coordinator thread.
    /// With `N > 0` those jobs run on `N` pooled workers and their
    /// completions are drained between polls — bit-equal outcomes,
    /// pinned by the equivalence suites.
    pub workers: usize,
    /// Observability sink: span timeline + metrics registry. The
    /// default ([`Telemetry::disabled`]) makes every instrumentation
    /// point a no-op.
    pub telemetry: Telemetry,
    /// The *union* cohort size broadcast in Setup. Equal to
    /// `params.clients.len()` for an unsharded round; a sharded session
    /// overrides it with the full seated-cohort size so clients derive
    /// XNoise planning and update encoding from the cohort the privacy
    /// ledger sees, not from their shard's roster. Crate-private:
    /// [`CoordinatorConfig::new`] fills it in and the session, its only
    /// other writer, recomputes it per round.
    pub(crate) cohort: u16,
    /// Global ingress budget in bytes for the reactor's shared frame
    /// pool ([`crate::pool::BytePool`]). `0` (the default) disables
    /// backpressure — unlimited buffering, the bit-equal reference.
    /// With a budget, a connection whose buffered bytes cross its fair
    /// share has its read interest dropped until the coordinator's
    /// recycles drain it below the low-water mark, so a frame burst
    /// degrades to pacing instead of unbounded memory.
    pub ingress_budget: u64,
    /// Injected coordinator crashes for the failover test harness
    /// ([`FaultPlan::none`], the default, is a no-op on every hook).
    pub faults: FaultPlan,
}

impl CoordinatorConfig {
    /// Default scheduling granularity (see [`CoordinatorConfig::tick`]).
    pub const DEFAULT_TICK: Duration = Duration::from_millis(10);

    /// A config with the default tick.
    #[must_use]
    pub fn new(
        params: RoundParams,
        join_timeout: Duration,
        stage_timeout: Duration,
        chunks: usize,
        chunk_compute: Option<Duration>,
    ) -> Self {
        let cohort = params.clients.len().min(usize::from(u16::MAX)) as u16;
        CoordinatorConfig {
            params,
            join_timeout,
            stage_timeout,
            chunks,
            chunk_compute,
            tick: Self::DEFAULT_TICK,
            workers: 0,
            telemetry: Telemetry::disabled(),
            cohort,
            ingress_budget: 0,
            faults: FaultPlan::none(),
        }
    }

    /// Overrides the compute-plane worker count (builder-style).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }
}

/// What the coordinator observed about one departed client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DropKind {
    /// Never joined the round.
    NeverJoined,
    /// Connection closed (crash / kill).
    Disconnected,
    /// Joined but missed a stage deadline while connected.
    DeadlineMissed,
    /// Sent an explicit abort (detected an inconsistency).
    Aborted,
    /// Sent garbage or an out-of-protocol message.
    ProtocolViolation,
}

/// A detected departure: who, at which stage (and chunk, for data-plane
/// stages), and how.
#[derive(Clone, Debug)]
pub struct DetectedDropout {
    /// The client.
    pub client: ClientId,
    /// Stage name at which the departure was detected.
    pub stage: &'static str,
    /// Chunk the collection machine was on when it detected the
    /// departure (None for round-global stages).
    pub chunk: Option<u16>,
    /// What was observed.
    pub kind: DropKind,
}

/// Result of a coordinated round.
pub struct NetRoundReport {
    /// The round this report describes (the session's counter; the id
    /// every frame of the round carried).
    pub round: u64,
    /// The protocol outcome (same type the in-memory driver returns).
    pub outcome: RoundOutcome,
    /// Per-stage traffic, measured as actual framed bytes on the wire
    /// (envelope headers included — unlike the driver's `wire_bytes()`
    /// accounting, which counts message bodies only).
    pub stats: RoundStats,
    /// Every detected departure, in detection order.
    pub dropouts: Vec<DetectedDropout>,
    /// Realized chunk count of the round's data plane.
    pub chunks: usize,
    /// Frames from *older* rounds discarded by the typed
    /// [`NetError::StaleRound`] check instead of being parsed into this
    /// round's state.
    pub stale_frames: u64,
    /// Event-loop wake-up accounting (always `Some`), as a **per-round
    /// delta**: only the polls/events/timer fires this round produced
    /// (join phase included when the round ran inside a [`Session`]).
    /// The scale tests assert `polls` stays `O(events)`, not
    /// `O(clients × ticks)`.
    pub reactor: Option<ReactorStats>,
    /// The same counters cumulative since the session's reactor was
    /// built — the pre-existing semantics, kept for whole-session
    /// accounting.
    pub reactor_session: Option<ReactorStats>,
    /// Per-round delta of every registered metrics series (keyed by
    /// canonical series id), when the round ran with enabled telemetry
    /// inside a [`Session`]. One schema for the session driver, the
    /// benches, and the tests.
    ///
    /// [`Session`]: crate::session::Session
    pub metrics: Option<MetricsSnapshot>,
}

/// Per-stage uplink accumulator.
#[derive(Default)]
pub(crate) struct Traffic {
    total: u64,
    max: u64,
}

impl Traffic {
    fn add(&mut self, bytes: u64) {
        self.total += bytes;
        self.max = self.max.max(bytes);
    }
}

/// Live connections, keyed by authenticated-at-join client id.
pub(crate) type Peers = BTreeMap<ClientId, Box<dyn EventedChannel>>;

/// Background work a collection loop interleaves between polls (chunk
/// unmasking during noise-share collection). Returns whether it did
/// work (so the reactor knows to poll non-blockingly and come back).
/// Errors abort the round.
type IdleWork<'a> = dyn FnMut(&mut Server) -> Result<bool, SecAggError> + 'a;

/// Reactor token namespace: client tokens are the id itself; tokens at
/// or above `JOIN_BASE` are provisional (unauthenticated) connections;
/// the topmost values are reserved for the stage timer and the waker.
pub(crate) const JOIN_BASE: u64 = 1 << 40;

/// Timer token for the active stage/chunk deadline.
pub(crate) const STAGE_TOKEN: Token = Token(u64::MAX - 2);

pub(crate) fn client_token(id: ClientId) -> Token {
    Token(u64::from(id))
}

pub(crate) fn client_of(token: Token) -> Option<ClientId> {
    (token.0 < JOIN_BASE).then_some(token.0 as ClientId)
}

/// Runs one full round over `acceptor` — the single-round convenience
/// wrapper around an ordinary one-round roster [`Session`]: the round
/// is announced, seated from `cfg.params.clients`, executed, and closed
/// with `SessionEnd`, so its clients are plain
/// [`run_session_client`](crate::runtime::run_session_client)s.
///
/// Accepts joins until every sampled client is present or
/// `join_timeout` passes, then drives the stages. Clients that vanish
/// mid-round are detected per stage (per chunk, on the data plane) and
/// the protocol continues as long as the threshold holds.
///
/// # Errors
///
/// [`NetError::SecAgg`] when the protocol aborts (e.g. below
/// threshold); transport errors only for coordinator-side failures
/// (individual client failures are dropouts, not errors).
pub fn run_coordinator(
    acceptor: &mut dyn Acceptor,
    cfg: &CoordinatorConfig,
) -> Result<NetRoundReport, NetError> {
    let params = cfg.params.clone();
    let session_cfg = SessionConfig {
        first_round: params.round,
        rounds: 1,
        join_timeout: cfg.join_timeout,
        stage_timeout: cfg.stage_timeout,
        chunks: cfg.chunks,
        chunk_compute: cfg.chunk_compute,
        tick: cfg.tick,
        mode: CollectMode::Reactor,
        workers: cfg.workers,
        shards: 1,
        ingress_budget: cfg.ingress_budget,
        telemetry: cfg.telemetry.clone(),
        metrics_addr: None,
        announce: true,
        population: Vec::new(),
        seating: Seating::Roster,
        params_for: Box::new(move |_, _| params.clone()),
        replica: None,
        faults: cfg.faults.clone(),
    };
    let mut session = Session::new(acceptor, session_cfg)?;
    let report = session.run_round(&[])?;
    session.finish();
    Ok(report)
}

// ---------------------------------------------------------------------
// The per-round state machine.
// ---------------------------------------------------------------------

/// All state belonging to one protocol round: the secagg server, the
/// chunk plan, the round id every envelope is checked against, and the
/// traffic / dropout / stale-frame accounting. Constructed fresh per
/// round by the [`Session`], so nothing can leak between rounds.
pub struct RoundMachine {
    round: u64,
    plan: ChunkPlan,
    requested_chunks: u16,
    server: Server,
    stats: RoundStats,
    dropouts: Vec<DetectedDropout>,
    stale_frames: u64,
}

impl RoundMachine {
    /// Builds the machine for `cfg`'s round: validates the parameters,
    /// derives the chunk plan, and resets the secagg server state.
    ///
    /// # Errors
    ///
    /// Invalid round parameters or an unrealizable chunk plan.
    pub fn new(cfg: &CoordinatorConfig) -> Result<RoundMachine, NetError> {
        cfg.params.validate().map_err(NetError::SecAgg)?;
        let requested_chunks = cfg.chunks.clamp(1, usize::from(u16::MAX)) as u16;
        let plan = ChunkPlan::aligned(
            cfg.params.vector_len,
            usize::from(requested_chunks),
            cfg.params.bit_width,
        )
        .map_err(|e| NetError::Protocol(format!("chunk plan: {e}")))?;
        let server =
            Server::with_chunks(cfg.params.clone(), plan.clone()).map_err(NetError::SecAgg)?;
        Ok(RoundMachine {
            round: cfg.params.round,
            plan,
            requested_chunks,
            server,
            stats: RoundStats::default(),
            dropouts: Vec::new(),
            stale_frames: 0,
        })
    }

    /// The round id this machine executes; every envelope is checked
    /// against it.
    #[must_use]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Drives the whole round over the already-seated `peers`:
    /// Setup broadcast (carrying `payload`), the five protocol stages
    /// with per-stage (per-chunk on the data plane) dropout detection,
    /// and the Finished broadcast. On return `peers` holds exactly the
    /// connections that survived the round; the session parks them for
    /// the next one.
    ///
    /// With a `compute` plane, the unmasking stage's CPU work — mask
    /// expansion and per-chunk aggregation — runs as pooled per-chunk
    /// jobs whose completions are installed between polls, so the
    /// coordinator thread keeps serving frames while workers burn CPU;
    /// without one it runs inline (the serial reference, bit-equal).
    ///
    /// # Errors
    ///
    /// [`NetError::SecAgg`] when the protocol aborts (below threshold,
    /// tampering); reactor failures. Individual client failures are
    /// dropouts, not errors.
    pub fn run(
        mut self,
        reactor: &mut Reactor,
        compute: Option<&mut ComputePlane>,
        peers: &mut Peers,
        cfg: &CoordinatorConfig,
        payload: &[u8],
    ) -> Result<NetRoundReport, NetError> {
        let round = self.round;
        // Per-round reactor accounting: the report's `reactor` field is
        // the delta over this machine's run (the session widens the
        // base to include its join phase).
        let reactor_base = reactor.stats;
        let round_span = cfg.telemetry.span("round", "round", round, None);
        for &id in &cfg.params.clients {
            if !peers.contains_key(&id) {
                self.dropouts.push(DetectedDropout {
                    client: id,
                    stage: "Join",
                    chunk: None,
                    kind: DropKind::NeverJoined,
                });
            }
        }
        let mut no_idle = |_: &mut Server| Ok(false);

        // ---- Setup broadcast (params + chunk count + payload). ----
        let stage_span = cfg.telemetry.span("stage", "Setup", round, None);
        let setup = Envelope::new(
            StageTag::Setup,
            round,
            codec::encode_setup(&cfg.params, self.requested_chunks, cfg.cohort, payload),
        );
        broadcast(peers, &setup, &mut self.dropouts, "Setup", &cfg.telemetry);
        flush_sends(reactor, peers, &mut self.dropouts, "Setup", cfg);
        // Fault hook: the primary dies right after the Setup broadcast
        // reached every seated client — they hold round state the
        // coordinator loses. Propagated directly (never through the
        // abort path): an injected kill must look like crash silence.
        cfg.faults.trip(KillPoint::DuringBroadcast, round)?;
        drop(stage_span);

        let joined: Vec<ClientId> = peers.keys().copied().collect();

        // ---- Stage 0: AdvertiseKeys. ----
        let stage_span = cfg.telemetry.span("stage", "AdvertiseKeys", round, None);
        let mut up = Traffic::default();
        let bodies = self
            .collect_stage(
                reactor,
                peers,
                &joined,
                StageTag::AdvertiseKeys,
                cfg,
                "AdvertiseKeys",
                &mut up,
                &mut no_idle,
            )
            .map_err(|e| abort_round(peers, round, e))?;
        let mut advs = Vec::with_capacity(bodies.len());
        for (id, body) in &bodies {
            match decode_advertised_keys(body) {
                Ok(a) if a.client == *id => advs.push(a),
                _ => drop_peer(
                    peers,
                    *id,
                    "AdvertiseKeys",
                    None,
                    DropKind::ProtocolViolation,
                    &mut self.dropouts,
                ),
            }
        }
        let roster = self.server.collect_advertisements(advs).map_err(|e| {
            abort_all(peers, round, &e);
            NetError::SecAgg(e)
        })?;
        let roster_env = Envelope::new(StageTag::Roster, round, encode_list(&roster));
        let down = broadcast(
            peers,
            &roster_env,
            &mut self.dropouts,
            "AdvertiseKeys",
            &cfg.telemetry,
        );
        flush_sends(reactor, peers, &mut self.dropouts, "AdvertiseKeys", cfg);
        push_stage(&mut self.stats, &cfg.telemetry, "AdvertiseKeys", &up, down);
        drop(stage_span);

        // ---- Stage 1: ShareKeys. ----
        let stage_span = cfg.telemetry.span("stage", "ShareKeys", round, None);
        let expected: Vec<ClientId> = roster
            .iter()
            .map(|a| a.client)
            .filter(|id| peers.contains_key(id))
            .collect();
        let mut up = Traffic::default();
        let bodies = self
            .collect_stage(
                reactor,
                peers,
                &expected,
                StageTag::ShareKeys,
                cfg,
                "ShareKeys",
                &mut up,
                &mut no_idle,
            )
            .map_err(|e| abort_round(peers, round, e))?;
        let mut all_cts = Vec::new();
        for (id, body) in &bodies {
            match decode_list(body, decode_encrypted_shares) {
                Ok(cts) if cts.iter().all(|ct| ct.from == *id) => all_cts.extend(cts),
                _ => drop_peer(
                    peers,
                    *id,
                    "ShareKeys",
                    None,
                    DropKind::ProtocolViolation,
                    &mut self.dropouts,
                ),
            }
        }
        let mut inboxes = self.server.route_shares(all_cts).map_err(|e| {
            abort_all(peers, round, &e);
            NetError::SecAgg(e)
        })?;
        let mut down = Traffic::default();
        let inbox_ids: Vec<ClientId> = peers.keys().copied().collect();
        for id in inbox_ids {
            let cts = inboxes.remove(&id).unwrap_or_default();
            let env = Envelope::new(StageTag::Inbox, round, encode_list(&cts));
            down.add(env.encode().len() as u64);
            send_or_drop(peers, id, &env, "ShareKeys", &mut self.dropouts);
        }
        flush_sends(reactor, peers, &mut self.dropouts, "ShareKeys", cfg);
        push_stage(&mut self.stats, &cfg.telemetry, "ShareKeys", &up, down);
        drop(stage_span);

        // ---- Stage 2: MaskedInputCollection, per (stage, chunk). ----
        let stage_span = cfg
            .telemetry
            .span("stage", "MaskedInputCollection", round, None);
        let u2: BTreeSet<ClientId> = self.server.u2().iter().copied().collect();
        let expected: Vec<ClientId> = peers.keys().copied().filter(|id| u2.contains(id)).collect();
        // Fault hook: the primary dies while the data plane is
        // mid-flight — the hardest crash, nothing of this round exists
        // outside the dying process.
        cfg.faults.trip(KillPoint::MidMaskedStage, round)?;
        let up = self
            .collect_masked_chunks(reactor, peers, &expected, cfg)
            .map_err(|e| abort_round(peers, round, e))?;
        let u3 = self.server.finalize_masked().map_err(|e| {
            abort_all(peers, round, &e);
            NetError::SecAgg(e)
        })?;
        let u3_env = Envelope::new(
            StageTag::SurvivorSet,
            round,
            dordis_secagg::messages::IdList(u3.clone()).encoded(),
        );
        let down = broadcast(
            peers,
            &u3_env,
            &mut self.dropouts,
            "MaskedInputCollection",
            &cfg.telemetry,
        );
        flush_sends(
            reactor,
            peers,
            &mut self.dropouts,
            "MaskedInputCollection",
            cfg,
        );
        push_stage(
            &mut self.stats,
            &cfg.telemetry,
            "MaskedInputCollection",
            &up,
            down,
        );
        drop(stage_span);

        // ---- Stage 3: ConsistencyCheck (malicious only). ----
        if cfg.params.threat_model == ThreatModel::Malicious {
            let _stage_span = cfg.telemetry.span("stage", "ConsistencyCheck", round, None);
            let expected: Vec<ClientId> = u3
                .iter()
                .copied()
                .filter(|v| peers.contains_key(v))
                .collect();
            let mut up = Traffic::default();
            let bodies = self
                .collect_stage(
                    reactor,
                    peers,
                    &expected,
                    StageTag::ConsistencySig,
                    cfg,
                    "ConsistencyCheck",
                    &mut up,
                    &mut no_idle,
                )
                .map_err(|e| abort_round(peers, round, e))?;
            let mut sigs = Vec::new();
            for (id, body) in &bodies {
                match decode_consistency_signature(body) {
                    Ok(s) if s.client == *id => sigs.push(s),
                    _ => drop_peer(
                        peers,
                        *id,
                        "ConsistencyCheck",
                        None,
                        DropKind::ProtocolViolation,
                        &mut self.dropouts,
                    ),
                }
            }
            let list = self.server.collect_consistency(sigs).map_err(|e| {
                abort_all(peers, round, &e);
                NetError::SecAgg(e)
            })?;
            let env = Envelope::new(
                StageTag::SignatureList,
                round,
                codec::encode_signature_list(&list),
            );
            let down = broadcast(
                peers,
                &env,
                &mut self.dropouts,
                "ConsistencyCheck",
                &cfg.telemetry,
            );
            flush_sends(reactor, peers, &mut self.dropouts, "ConsistencyCheck", cfg);
            push_stage(
                &mut self.stats,
                &cfg.telemetry,
                "ConsistencyCheck",
                &up,
                down,
            );
        }

        // ---- Stage 4: Unmasking (share collection is round-global). ----
        let stage_span = cfg.telemetry.span("stage", "Unmasking", round, None);
        let expected: Vec<ClientId> = u3
            .iter()
            .copied()
            .filter(|v| peers.contains_key(v))
            .collect();
        let mut up = Traffic::default();
        let bodies = self
            .collect_stage(
                reactor,
                peers,
                &expected,
                StageTag::Unmasking,
                cfg,
                "Unmasking",
                &mut up,
                &mut no_idle,
            )
            .map_err(|e| abort_round(peers, round, e))?;
        let mut responses = Vec::new();
        for (id, body) in &bodies {
            match decode_unmasking_response(body) {
                Ok(r) if r.client == *id => responses.push(r),
                _ => drop_peer(
                    peers,
                    *id,
                    "Unmasking",
                    None,
                    DropKind::ProtocolViolation,
                    &mut self.dropouts,
                ),
            }
        }
        // ---- Unmask execution plan: serial (inline full-length
        // correction, the reference) or pooled (reconstruction and
        // privacy bookkeeping stay here; the `O(dropped × neighbors ×
        // d)` mask expansion fans out as one job per chunk, each
        // seeking every mask stream to its chunk's element offset). ----
        let total_chunks = self.plan.chunks();
        let chunk_compute = cfg.chunk_compute;
        let plan = self.plan.clone();
        let telem = cfg.telemetry.clone();
        let job_hist = cfg
            .telemetry
            .histogram("dordis_unmask_job_duration_ns", &[]);
        let mut compute = compute;
        if let Some(plane) = compute.as_deref_mut() {
            // A previous round that aborted mid-unmask may have left
            // its chunk sums queued (or still running) in the
            // session-warm pool; their chunk indices would alias this
            // round's. Flush them before submitting.
            plane.discard_stale();
            let jobs = self.server.plan_unmasking(responses).map_err(|e| {
                abort_all(peers, round, &e);
                NetError::SecAgg(e)
            })?;
            let jobs = Arc::new(jobs);
            for c in 0..total_chunks {
                let inputs = self.server.take_chunk_inputs(c).map_err(|e| {
                    abort_all(peers, round, &e);
                    NetError::SecAgg(e)
                })?;
                let jobs = Arc::clone(&jobs);
                let range = self.plan.range(c);
                let bits = self.plan.bit_width();
                let plan = plan.clone();
                let telem = telem.clone();
                let job_hist = job_hist.clone();
                plane.submit(c, move || {
                    // The span/histogram record from the worker thread,
                    // so the trace shows the job on its worker's track.
                    let span = telem.span("compute", "unmask_job", round, Some(c as u16));
                    let t0 = telem.now_ns();
                    let sum = unmask_chunk_task(&inputs, &jobs, range.start, range.len(), bits);
                    chunk_sleep(chunk_compute, &plan, c);
                    job_hist.observe(telem.now_ns().saturating_sub(t0));
                    drop(span);
                    sum
                });
            }
        } else {
            self.server.reconstruct_unmasking(responses).map_err(|e| {
                abort_all(peers, round, &e);
                NetError::SecAgg(e)
            })?;
        }
        let u5 = self.server.u5().to_vec();

        // Per-chunk unmask progress advances between noise-share polls:
        // serial mode unmasks the next chunk inline (chunk c + 1 can be
        // collected while chunk c's compute runs); pooled mode installs
        // whatever the workers have finished (their completions also
        // wake the reactor via COMPUTE_TOKEN, so the thread sleeps in
        // the poller, never polling the pool).
        let mut next_unmask = 0usize; // serial cursor
        let mut installed = 0usize; // pooled install count
        let mut unmask_step = |server: &mut Server| -> Result<bool, SecAggError> {
            match compute.as_deref_mut() {
                Some(plane) => {
                    let mut did = false;
                    while let Some((c, outcome)) = plane.try_complete() {
                        install_chunk(server, c, outcome)?;
                        installed += 1;
                        did = true;
                    }
                    Ok(did)
                }
                None => {
                    if next_unmask < total_chunks {
                        let span =
                            telem.span("compute", "unmask_chunk", round, Some(next_unmask as u16));
                        let t0 = telem.now_ns();
                        server.unmask_chunk(next_unmask)?;
                        chunk_sleep(chunk_compute, &plan, next_unmask);
                        job_hist.observe(telem.now_ns().saturating_sub(t0));
                        drop(span);
                        next_unmask += 1;
                        Ok(true)
                    } else {
                        Ok(false)
                    }
                }
            }
        };

        // ---- Stage 5: ExcessiveNoiseRemoval (only if needed). ----
        if self.server.pending_seed_owners().is_empty() {
            let down_u5 = Traffic::default();
            push_stage(&mut self.stats, &cfg.telemetry, "Unmasking", &up, down_u5);
            drop(stage_span);
        } else {
            let u5_env = Envelope::new(
                StageTag::ReadySet,
                round,
                dordis_secagg::messages::IdList(u5.clone()).encoded(),
            );
            let down = broadcast(
                peers,
                &u5_env,
                &mut self.dropouts,
                "Unmasking",
                &cfg.telemetry,
            );
            flush_sends(reactor, peers, &mut self.dropouts, "Unmasking", cfg);
            push_stage(&mut self.stats, &cfg.telemetry, "Unmasking", &up, down);
            drop(stage_span);
            let _stage_span = cfg
                .telemetry
                .span("stage", "ExcessiveNoiseRemoval", round, None);

            let expected: Vec<ClientId> = u5
                .iter()
                .copied()
                .filter(|v| peers.contains_key(v))
                .collect();
            let mut up = Traffic::default();
            let bodies = self
                .collect_stage(
                    reactor,
                    peers,
                    &expected,
                    StageTag::NoiseShares,
                    cfg,
                    "ExcessiveNoiseRemoval",
                    &mut up,
                    &mut unmask_step,
                )
                .map_err(|e| abort_round(peers, round, e))?;
            let mut responses = Vec::new();
            for (id, body) in &bodies {
                match decode_noise_share_response(body) {
                    Ok(r) if r.client == *id => responses.push(r),
                    _ => drop_peer(
                        peers,
                        *id,
                        "ExcessiveNoiseRemoval",
                        None,
                        DropKind::ProtocolViolation,
                        &mut self.dropouts,
                    ),
                }
            }
            self.server.collect_noise_shares(responses).map_err(|e| {
                abort_all(peers, round, &e);
                NetError::SecAgg(e)
            })?;
            push_stage(
                &mut self.stats,
                &cfg.telemetry,
                "ExcessiveNoiseRemoval",
                &up,
                Traffic::default(),
            );
        }

        // Unmask whatever chunks the idle interleaving did not reach
        // (serial: run them inline; pooled: drain anything already
        // queued without blocking).
        for _ in 0..total_chunks {
            unmask_step(&mut self.server).map_err(|e| {
                abort_all(peers, round, &e);
                NetError::SecAgg(e)
            })?;
        }
        // Pooled barrier: await the chunks still on the workers. The
        // block is pure wait — the expansions keep running on other
        // cores — and only the tail of the round ever reaches it.
        // (`unmask_step`'s borrow of `compute` and `installed` ends
        // with its last call above.)
        if let Some(plane) = compute {
            while installed < total_chunks {
                let Some((c, outcome)) = plane.wait_complete() else {
                    return Err(NetError::Protocol(format!(
                        "compute plane lost {} unmask job(s)",
                        total_chunks - installed
                    )));
                };
                install_chunk(&mut self.server, c, outcome).map_err(|e| {
                    abort_all(peers, round, &e);
                    NetError::SecAgg(e)
                })?;
                installed += 1;
            }
            plane.sync_metrics(&cfg.telemetry);
        }

        // ---- Finished broadcast. ----
        let fin = Envelope::new(
            StageTag::Finished,
            round,
            dordis_secagg::messages::IdList(u3.clone()).encoded(),
        );
        broadcast(peers, &fin, &mut self.dropouts, "Finished", &cfg.telemetry);
        flush_sends(reactor, peers, &mut self.dropouts, "Finished", cfg);

        debug_assert!(self.server.privacy_invariant_holds());
        for d in &self.dropouts {
            if d.kind == DropKind::Aborted {
                self.stats.aborted.push(d.client);
            }
        }
        if cfg.telemetry.is_enabled() {
            for d in &self.dropouts {
                let kind = match d.kind {
                    DropKind::NeverJoined => "never_joined",
                    DropKind::Disconnected => "disconnected",
                    DropKind::DeadlineMissed => "deadline_missed",
                    DropKind::Aborted => "aborted",
                    DropKind::ProtocolViolation => "protocol_violation",
                };
                cfg.telemetry
                    .counter(
                        "dordis_dropouts_total",
                        &[("kind", kind), ("stage", d.stage)],
                    )
                    .inc();
            }
            cfg.telemetry
                .counter("dordis_stale_frames_total", &[])
                .add(self.stale_frames);
        }
        drop(round_span);
        let reactor_now = reactor.stats;
        Ok(NetRoundReport {
            round,
            outcome: self.server.finish(),
            stats: self.stats,
            dropouts: self.dropouts,
            chunks: total_chunks,
            stale_frames: self.stale_frames,
            reactor: Some(reactor_now.delta_since(reactor_base)),
            reactor_session: Some(reactor_now),
            metrics: None,
        })
    }

    // -----------------------------------------------------------------
    // Masked-input collection (per stage, chunk).
    // -----------------------------------------------------------------

    /// Files one already-received chunk frame: the bit-packed payload
    /// is decoded in place past the envelope header and fed straight
    /// into the server's per-chunk state, where a completed stream
    /// folds into the running chunk sums — the frame allocation goes
    /// back to the pool immediately instead of parking until a chunk
    /// barrier. Returns whether the client's stream is still alive,
    /// plus the frame for the caller to recycle.
    ///
    /// # Errors
    ///
    /// Propagates server-side collection failures (protocol aborts).
    fn file_chunk_frame(
        &mut self,
        st: &mut ChunkCollect,
        peers: &mut Peers,
        id: ClientId,
        frame: Vec<u8>,
    ) -> Result<(bool, Vec<u8>), NetError> {
        let m = self.plan.chunks();
        *st.per_client.entry(id).or_default() += frame.len() as u64;
        let (stage, frame_round, chunk) = match EnvelopeView::decode(&frame) {
            Ok(env) => (env.stage, env.round, env.chunk),
            Err(_) => {
                let alive = self.drop_from_chunks(st, peers, id, DropKind::ProtocolViolation);
                return Ok((alive, frame));
            }
        };
        if stage == StageTag::Abort {
            let alive = self.drop_from_chunks(st, peers, id, DropKind::Aborted);
            return Ok((alive, frame));
        }
        // Same round gate as `Envelope::check_round` (aborts already
        // handled above, so a round mismatch here is never abort-exempt).
        if frame_round != self.round {
            if frame_round < self.round {
                // A leftover frame from an earlier round: discard it
                // rather than misparse it into this round's state. The
                // client's current-round stream continues.
                self.stale_frames += 1;
                return Ok((true, frame));
            }
            let alive = self.drop_from_chunks(st, peers, id, DropKind::ProtocolViolation);
            return Ok((alive, frame));
        }
        if stage == StageTag::MaskedInput && usize::from(chunk) < m {
            let c = usize::from(chunk);
            let ctx = FrameContext {
                stage: StageTag::MaskedInput,
                round: self.round,
                chunk,
            };
            match decode_masked_input(
                &frame[HEADER_BYTES..],
                self.plan.bit_width(),
                self.plan.chunk_len(c),
                ctx,
            ) {
                Ok(mi) if mi.client == id => {
                    self.server
                        .collect_masked_chunk(c, vec![mi])
                        .map_err(NetError::SecAgg)?;
                    if st.pendings[c].remove(&id) {
                        if let Some(left) = st.remaining.get_mut(&id) {
                            *left = left.saturating_sub(1);
                        }
                    }
                    Ok((true, frame))
                }
                _ => {
                    let alive = self.drop_from_chunks(st, peers, id, DropKind::ProtocolViolation);
                    Ok((alive, frame))
                }
            }
        } else {
            let alive = self.drop_from_chunks(st, peers, id, DropKind::ProtocolViolation);
            Ok((alive, frame))
        }
    }

    /// Drops `id` from every remaining chunk, attributing the departure
    /// to the active chunk. Always returns `false` (stream dead).
    fn drop_from_chunks(
        &mut self,
        st: &mut ChunkCollect,
        peers: &mut Peers,
        id: ClientId,
        kind: DropKind,
    ) -> bool {
        let chunk = st.active as u16;
        st.remove_everywhere(id);
        drop_peer(
            peers,
            id,
            "MaskedInputCollection",
            Some(chunk),
            kind,
            &mut self.dropouts,
        );
        false
    }

    /// Closes the active chunk (its pending set must be empty) and
    /// advances to the next one. The chunk's frames were decoded and
    /// fed to the server at arrival, so only the pipeline bookkeeping
    /// remains: the chunk span and the injected per-chunk compute cost.
    fn aggregate_active(&mut self, st: &mut ChunkCollect, cfg: &CoordinatorConfig) {
        let _span = cfg
            .telemetry
            .span("chunk", "chunk", self.round, Some(st.active as u16));
        chunk_sleep(cfg.chunk_compute, &self.plan, st.active);
        st.active += 1;
    }

    /// The per-(stage, chunk) masked-input collector. Chunk `c + 1`'s
    /// frames accumulate while chunk `c` is decoded, validated, and
    /// aggregated into the server's per-chunk state; the stage deadline
    /// restarts per chunk. Frames, disconnects, and per-chunk deadlines
    /// arrive as reactor events, so the thread sleeps in the poller while
    /// clients stream. A client whose stream stops — disconnect, garbage,
    /// or silence past the active chunk's deadline — is dropped from
    /// every remaining chunk; its partial deliveries never reach a sum
    /// because U3 requires all chunks.
    fn collect_masked_chunks(
        &mut self,
        reactor: &mut Reactor,
        peers: &mut Peers,
        expected: &[ClientId],
        cfg: &CoordinatorConfig,
    ) -> Result<Traffic, NetError> {
        let m = self.plan.chunks();
        let stage_name = "MaskedInputCollection";
        let mut st = ChunkCollect::new(expected, peers, m);
        reactor.arm_deadline(STAGE_TOKEN, Instant::now() + cfg.stage_timeout);

        // Initial sweep: frames may already be buffered (sent between
        // the Inbox flush and this loop), and their readiness may have
        // been consumed by an earlier poll.
        let ids: Vec<ClientId> = st.pendings[0].iter().copied().collect();
        for id in ids {
            self.drain_chunk_frames(&mut st, peers, id)?;
        }

        // Budget-driven admission: with an ingress budget set, only a
        // window of clients streams its masked input at a time — a
        // stream's decoded chunks are retained until it completes and
        // folds into the running sums, so concurrent streams (not wire
        // buffering, which the byte accounts already bound) are what
        // set the coordinator's peak memory during the burst.
        let mut admission =
            Admission::start(cfg.ingress_budget, self.plan.vector_len(), &st, peers);

        let (mut events, mut expired) = (Vec::new(), Vec::new());
        loop {
            // Aggregate every chunk whose pending set has emptied; the
            // deadline clock restarts per completed chunk.
            let mut aggregated = false;
            while st.active < m {
                st.pendings[st.active].retain(|id| peers.contains_key(id));
                if !st.pendings[st.active].is_empty() {
                    break;
                }
                self.aggregate_active(&mut st, cfg);
                aggregated = true;
            }
            if st.active == m {
                break;
            }
            if aggregated {
                reactor.arm_deadline(STAGE_TOKEN, Instant::now() + cfg.stage_timeout);
            }
            reactor.poll(&mut events, &mut expired, cfg.stage_timeout)?;
            let mut admitted_more = false;
            for ev in &events {
                handle_write_event(peers, ev, stage_name, &mut self.dropouts);
                let Some(id) = client_of(ev.token) else {
                    continue;
                };
                if (ev.readable || ev.closed) && peers.contains_key(&id) {
                    self.drain_chunk_frames(&mut st, peers, id)?;
                }
                if let Some(adm) = &mut admission {
                    if st.completed(id) || !peers.contains_key(&id) {
                        admitted_more |= adm.settle(id, &st, peers);
                    }
                }
            }
            if admitted_more {
                // The admission window advanced: the stage is making
                // progress, so the deadline restarts like a completed
                // chunk would restart it.
                reactor.arm_deadline(STAGE_TOKEN, Instant::now() + cfg.stage_timeout);
            }
            if expired.contains(&STAGE_TOKEN) {
                // Under admission only the *admitted* laggards are at
                // fault — clients still held by the window were never
                // allowed to stream.
                let late: Vec<ClientId> = st.pendings[st.active]
                    .iter()
                    .copied()
                    .filter(|&id| admission.as_ref().is_none_or(|a| a.is_admitted(id)))
                    .collect();
                for id in late {
                    let chunk = st.active as u16;
                    st.remove_everywhere(id);
                    drop_peer(
                        peers,
                        id,
                        stage_name,
                        Some(chunk),
                        DropKind::DeadlineMissed,
                        &mut self.dropouts,
                    );
                    if let Some(adm) = &mut admission {
                        adm.settle(id, &st, peers);
                    }
                }
                reactor.arm_deadline(STAGE_TOKEN, Instant::now() + cfg.stage_timeout);
            }
        }
        if let Some(adm) = admission {
            adm.finish(peers);
        }
        reactor.cancel_deadline(STAGE_TOKEN);
        Ok(st.uplink())
    }

    /// Drains every currently available frame from `id`'s channel into
    /// the chunk state, detecting stream death (disconnect / abort /
    /// garbage).
    ///
    /// # Errors
    ///
    /// Propagates server-side collection failures (protocol aborts).
    fn drain_chunk_frames(
        &mut self,
        st: &mut ChunkCollect,
        peers: &mut Peers,
        id: ClientId,
    ) -> Result<(), NetError> {
        loop {
            let Some(chan) = peers.get_mut(&id) else {
                return Ok(());
            };
            match chan.try_recv() {
                Ok(Some(frame)) => {
                    let (alive, frame) = self.file_chunk_frame(st, peers, id, frame)?;
                    // The decode copied the payload into the server's
                    // chunk state (or the frame was rejected); the
                    // allocation goes straight back to the pool.
                    if let Some(chan) = peers.get_mut(&id) {
                        chan.recycle_frame(frame);
                    }
                    if !alive {
                        return Ok(());
                    }
                }
                Ok(None) => return Ok(()),
                Err(_) => {
                    let chunk = st.died_at(id);
                    st.remove_everywhere(id);
                    drop_peer(
                        peers,
                        id,
                        "MaskedInputCollection",
                        Some(chunk),
                        DropKind::Disconnected,
                        &mut self.dropouts,
                    );
                    return Ok(());
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Round-global stage collection.
    // -----------------------------------------------------------------

    /// Files one round-global stage frame; returns `false` if the client
    /// was dropped.
    #[allow(clippy::too_many_arguments)]
    fn file_stage_frame(
        &mut self,
        peers: &mut Peers,
        pending: &mut BTreeSet<ClientId>,
        bodies: &mut BTreeMap<ClientId, Vec<u8>>,
        id: ClientId,
        frame: &[u8],
        want: StageTag,
        stage_name: &'static str,
        up: &mut Traffic,
    ) -> bool {
        up.add(frame.len() as u64);
        let env = match Envelope::decode(frame) {
            Ok(env) => env,
            Err(_) => {
                pending.remove(&id);
                drop_peer(
                    peers,
                    id,
                    stage_name,
                    None,
                    DropKind::ProtocolViolation,
                    &mut self.dropouts,
                );
                return false;
            }
        };
        if env.stage == StageTag::Abort {
            pending.remove(&id);
            drop_peer(
                peers,
                id,
                stage_name,
                None,
                DropKind::Aborted,
                &mut self.dropouts,
            );
            return false;
        }
        if let Err(NetError::StaleRound { got, expected }) = env.check_round(self.round) {
            if got < expected {
                // Typed stale-frame rejection: discard, never file.
                self.stale_frames += 1;
                return true;
            }
            pending.remove(&id);
            drop_peer(
                peers,
                id,
                stage_name,
                None,
                DropKind::ProtocolViolation,
                &mut self.dropouts,
            );
            return false;
        }
        if env.stage == want && pending.contains(&id) {
            bodies.insert(id, env.body);
            pending.remove(&id);
            true
        } else {
            // A frame for a client that already answered (and is not an
            // abort) is out-of-protocol.
            pending.remove(&id);
            drop_peer(
                peers,
                id,
                stage_name,
                None,
                DropKind::ProtocolViolation,
                &mut self.dropouts,
            );
            false
        }
    }

    /// Collects exactly one body per expected client for `want`, until
    /// the per-stage deadline. Silent or disconnected clients become
    /// detected dropouts and are removed from `peers`. The thread sleeps
    /// in the poller until frames, disconnects, or the stage deadline are
    /// ready; `idle` runs between polls so pending per-chunk work
    /// (unmasking) overlaps the wait, with non-blocking polls while it
    /// reports more work so collection stays responsive during long
    /// interleaves.
    ///
    /// # Errors
    ///
    /// Only `idle` failures (protocol aborts) and poller failures —
    /// per-client failures are dropouts, not errors.
    #[allow(clippy::too_many_arguments)]
    fn collect_stage(
        &mut self,
        reactor: &mut Reactor,
        peers: &mut Peers,
        expected: &[ClientId],
        want: StageTag,
        cfg: &CoordinatorConfig,
        stage_name: &'static str,
        up: &mut Traffic,
        idle: &mut IdleWork<'_>,
    ) -> Result<BTreeMap<ClientId, Vec<u8>>, NetError> {
        let mut deadline = Instant::now() + cfg.stage_timeout;
        let mut pending: BTreeSet<ClientId> = expected
            .iter()
            .copied()
            .filter(|id| peers.contains_key(id))
            .collect();
        let mut bodies: BTreeMap<ClientId, Vec<u8>> = BTreeMap::new();
        reactor.arm_deadline(STAGE_TOKEN, deadline);

        // Initial sweep: responses may already be buffered, and their
        // readiness may have been consumed by an earlier poll (e.g.
        // during a broadcast flush).
        let ids: Vec<ClientId> = pending.iter().copied().collect();
        for id in ids {
            self.drain_stage_frames(peers, &mut pending, &mut bodies, id, want, stage_name, up);
        }

        let (mut events, mut expired) = (Vec::new(), Vec::new());
        'collect: while !pending.is_empty() {
            // Interleaved background work must not eat the peers'
            // response window: credit its wall time back to the stage
            // deadline.
            let idle_start = Instant::now();
            let did_work = idle(&mut self.server).map_err(NetError::SecAgg)?;
            let spent = idle_start.elapsed();
            if !spent.is_zero() {
                deadline += spent;
                reactor.arm_deadline(STAGE_TOKEN, deadline);
            }
            // With idle work in flight, poll without blocking and come
            // straight back; otherwise sleep until an event or the
            // deadline.
            let wait = if did_work {
                Duration::ZERO
            } else {
                cfg.stage_timeout
            };
            reactor.poll(&mut events, &mut expired, wait)?;
            for ev in &events {
                handle_write_event(peers, ev, stage_name, &mut self.dropouts);
                let Some(id) = client_of(ev.token) else {
                    continue;
                };
                if !(ev.readable || ev.closed) || !peers.contains_key(&id) {
                    continue;
                }
                self.drain_stage_frames(peers, &mut pending, &mut bodies, id, want, stage_name, up);
            }
            // A write-event failure (or any other path) may have dropped
            // a peer without touching `pending` — retain, so the stage
            // can complete and the leftover loop below can't
            // double-record.
            pending.retain(|id| peers.contains_key(id));
            if expired.contains(&STAGE_TOKEN) {
                break 'collect;
            }
        }
        reactor.cancel_deadline(STAGE_TOKEN);
        for id in pending {
            if peers.contains_key(&id) {
                drop_peer(
                    peers,
                    id,
                    stage_name,
                    None,
                    DropKind::DeadlineMissed,
                    &mut self.dropouts,
                );
            }
        }
        Ok(bodies)
    }

    /// Drains every currently available frame from `id` during a
    /// round-global stage.
    #[allow(clippy::too_many_arguments)]
    fn drain_stage_frames(
        &mut self,
        peers: &mut Peers,
        pending: &mut BTreeSet<ClientId>,
        bodies: &mut BTreeMap<ClientId, Vec<u8>>,
        id: ClientId,
        want: StageTag,
        stage_name: &'static str,
        up: &mut Traffic,
    ) {
        loop {
            let Some(chan) = peers.get_mut(&id) else {
                return;
            };
            match chan.try_recv() {
                Ok(Some(frame)) => {
                    if !self
                        .file_stage_frame(peers, pending, bodies, id, &frame, want, stage_name, up)
                    {
                        return;
                    }
                    if let Some(chan) = peers.get_mut(&id) {
                        chan.recycle_frame(frame);
                    }
                }
                Ok(None) => return,
                Err(_) => {
                    if pending.remove(&id) {
                        drop_peer(
                            peers,
                            id,
                            stage_name,
                            None,
                            DropKind::Disconnected,
                            &mut self.dropouts,
                        );
                    } else {
                        // Already answered this stage; the disconnect
                        // will be observed when it next matters.
                    }
                    return;
                }
            }
        }
    }
}

/// Installs one pooled chunk completion into the server; a worker
/// panic is surfaced as a protocol abort (the chunk sum is
/// unrecoverable without re-running the job).
fn install_chunk(
    server: &mut Server,
    chunk: usize,
    outcome: JobOutcome<Vec<u64>>,
) -> Result<(), SecAggError> {
    match outcome {
        JobOutcome::Done(sum) => server.install_chunk_sum(chunk, sum),
        JobOutcome::Panicked(msg) => Err(SecAggError::Config(format!(
            "compute worker panicked unmasking chunk {chunk}: {msg}"
        ))),
    }
}

/// Maps a failed stage to a round abort (notifying live peers when the
/// failure is a protocol-level one).
fn abort_round(peers: &mut Peers, round: u64, e: NetError) -> NetError {
    if let NetError::SecAgg(err) = &e {
        abort_all(peers, round, err);
    }
    e
}

/// Sleeps the injected per-chunk s-comp cost: the whole-vector cost
/// scaled by the chunk's share of the elements.
fn chunk_sleep(chunk_compute: Option<Duration>, plan: &ChunkPlan, chunk: usize) {
    let Some(total) = chunk_compute else { return };
    let d = plan.vector_len().max(1);
    let frac = plan.chunk_len(chunk) as f64 / d as f64;
    let dur = total.mul_f64(frac);
    if !dur.is_zero() {
        std::thread::sleep(dur);
    }
}

/// Shared per-chunk collection state.
struct ChunkCollect {
    /// Clients still owing each chunk.
    pendings: Vec<BTreeSet<ClientId>>,
    /// Distinct chunks each live client still owes; `0` means the whole
    /// stream landed (feeds the budget admission window).
    remaining: BTreeMap<ClientId, usize>,
    /// Uplink bytes per client (the per-stage max is over whole chunk
    /// streams, not individual frames).
    per_client: BTreeMap<ClientId, u64>,
    /// Chunk currently being collected/aggregated.
    active: usize,
}

impl ChunkCollect {
    fn new(expected: &[ClientId], peers: &Peers, m: usize) -> ChunkCollect {
        let base: BTreeSet<ClientId> = expected
            .iter()
            .copied()
            .filter(|id| peers.contains_key(id))
            .collect();
        ChunkCollect {
            remaining: base.iter().map(|&id| (id, m)).collect(),
            pendings: vec![base; m],
            per_client: BTreeMap::new(),
            active: 0,
        }
    }

    /// Whether `id`'s whole chunk stream has been filed.
    fn completed(&self, id: ClientId) -> bool {
        self.remaining.get(&id) == Some(&0)
    }

    /// First chunk `id` still owes (where its stream died), for dropout
    /// attribution; falls back to the active chunk.
    fn died_at(&self, id: ClientId) -> u16 {
        self.pendings
            .iter()
            .position(|p| p.contains(&id))
            .unwrap_or(self.active) as u16
    }

    fn remove_everywhere(&mut self, id: ClientId) {
        for p in &mut self.pendings {
            p.remove(&id);
        }
    }

    fn uplink(&self) -> Traffic {
        let mut up = Traffic::default();
        for &bytes in self.per_client.values() {
            up.add(bytes);
        }
        up
    }
}

/// Budget-driven admission window over the masked-input burst.
///
/// Wire buffering is already bounded by the byte accounts, but a
/// client's *decoded* chunks are retained (8 B/element) until its whole
/// stream lands and folds into the running sums. With every client
/// streaming at once that retention peaks at `cohort x vector x 8`
/// bytes regardless of budget. The window caps how many streams are in
/// flight: held clients keep their ingress paused
/// ([`EventedChannel::set_ingress_hold`]) — their uploads sit in kernel
/// socket buffers, pushed back by TCP flow control — and each is
/// released as an admitted stream completes (or its client drops).
struct Admission {
    /// Clients not yet admitted; their ingress is held.
    queue: VecDeque<ClientId>,
    /// Admitted clients whose streams are still incomplete.
    admitted: BTreeSet<ClientId>,
}

impl Admission {
    /// Builds the window and holds everyone outside it. `None` (no
    /// admission) when there is no budget or the whole cohort fits.
    fn start(
        budget: u64,
        vector_len: usize,
        st: &ChunkCollect,
        peers: &mut Peers,
    ) -> Option<Admission> {
        if budget == 0 {
            return None;
        }
        // Decoded retention cost of one in-flight stream.
        let per_client = (vector_len as u64).saturating_mul(8).max(1);
        let window = usize::try_from((budget / per_client).max(1)).unwrap_or(usize::MAX);
        let roster: Vec<ClientId> = st.remaining.keys().copied().collect();
        if window >= roster.len() {
            return None;
        }
        let mut adm = Admission {
            queue: roster.into_iter().collect(),
            admitted: BTreeSet::new(),
        };
        for _ in 0..window {
            adm.admit_next(st, peers);
        }
        for &id in &adm.queue {
            if let Some(chan) = peers.get_mut(&id) {
                let _ = chan.set_ingress_hold(true);
            }
        }
        Some(adm)
    }

    fn is_admitted(&self, id: ClientId) -> bool {
        self.admitted.contains(&id)
    }

    /// Retires `id` from the window (stream complete or client gone)
    /// and backfills its slot. Returns whether the window advanced.
    fn settle(&mut self, id: ClientId, st: &ChunkCollect, peers: &mut Peers) -> bool {
        if !self.admitted.remove(&id) {
            return false;
        }
        self.admit_next(st, peers)
    }

    fn admit_next(&mut self, st: &ChunkCollect, peers: &mut Peers) -> bool {
        while let Some(id) = self.queue.pop_front() {
            if st.completed(id) {
                // Streamed through despite the hold (a transport that
                // doesn't implement holds, or frames already buffered).
                continue;
            }
            let Some(chan) = peers.get_mut(&id) else {
                continue; // dropped while held
            };
            let _ = chan.set_ingress_hold(false);
            self.admitted.insert(id);
            return true;
        }
        false
    }

    /// Releases every hold still outstanding (stage end).
    fn finish(self, peers: &mut Peers) {
        for id in self.queue {
            if let Some(chan) = peers.get_mut(&id) {
                let _ = chan.set_ingress_hold(false);
            }
        }
    }
}

/// Flushes a backlogged write surfaced by a write-readiness event.
pub(crate) fn handle_write_event(
    peers: &mut Peers,
    ev: &Event,
    stage_name: &'static str,
    dropouts: &mut Vec<DetectedDropout>,
) {
    if !ev.writable {
        return;
    }
    let Some(id) = client_of(ev.token) else {
        return;
    };
    if let Some(chan) = peers.get_mut(&id) {
        if chan.try_flush().is_err() {
            drop_peer(
                peers,
                id,
                stage_name,
                None,
                DropKind::Disconnected,
                dropouts,
            );
        }
    }
}

/// Removes a peer and records the detection.
pub(crate) fn drop_peer(
    peers: &mut Peers,
    id: ClientId,
    stage: &'static str,
    chunk: Option<u16>,
    kind: DropKind,
    dropouts: &mut Vec<DetectedDropout>,
) {
    peers.remove(&id);
    dropouts.push(DetectedDropout {
        client: id,
        stage,
        chunk,
        kind,
    });
}

/// Broadcasts an envelope to every live peer; send failures become
/// detected dropouts (a write timeout is a deadline miss, anything else
/// a disconnect). On registered channels the sends only queue — callers
/// follow up with [`flush_sends`]. Returns downlink traffic.
///
/// The frame is encoded exactly **once** per broadcast (counted in
/// `dordis_broadcast_encodes_total`) into a refcounted wire message;
/// reactor-registered TCP channels queue the shared allocation instead
/// of copying it per peer, so a Setup carrying the model payload costs
/// one encoding for the whole cohort.
pub(crate) fn broadcast(
    peers: &mut Peers,
    env: &Envelope,
    dropouts: &mut Vec<DetectedDropout>,
    stage: &'static str,
    telemetry: &Telemetry,
) -> Traffic {
    let wire = wire_message(&env.encode());
    telemetry
        .counter("dordis_broadcast_encodes_total", &[])
        .inc();
    let frame_len = (wire.len() - 4) as u64;
    let mut down = Traffic::default();
    let ids: Vec<ClientId> = peers.keys().copied().collect();
    for id in ids {
        if let Some(chan) = peers.get_mut(&id) {
            match chan.send_wire_shared(&wire) {
                Ok(()) => down.add(frame_len),
                Err(e) => drop_peer(peers, id, stage, None, send_failure_kind(&e), dropouts),
            }
        }
    }
    down
}

/// Sends to one peer; failure becomes a detected dropout.
fn send_or_drop(
    peers: &mut Peers,
    id: ClientId,
    env: &Envelope,
    stage: &'static str,
    dropouts: &mut Vec<DetectedDropout>,
) {
    if let Some(chan) = peers.get_mut(&id) {
        if let Err(e) = send_env(chan.as_mut(), env) {
            drop_peer(peers, id, stage, None, send_failure_kind(&e), dropouts);
        }
    }
}

/// A send that timed out hit a stalled-but-connected peer (deadline
/// miss); any other failure is a disconnect.
fn send_failure_kind(e: &NetError) -> DropKind {
    match e {
        NetError::Timeout => DropKind::DeadlineMissed,
        _ => DropKind::Disconnected,
    }
}

/// Drives write readiness until every queued broadcast frame has
/// drained (peers that cannot absorb theirs within the stage timeout
/// become detected dropouts).
pub(crate) fn flush_sends(
    reactor: &mut Reactor,
    peers: &mut Peers,
    dropouts: &mut Vec<DetectedDropout>,
    stage: &'static str,
    cfg: &CoordinatorConfig,
) {
    let deadline = Instant::now() + cfg.stage_timeout;
    let (mut events, mut expired) = (Vec::new(), Vec::new());
    loop {
        let backlogged: Vec<ClientId> = peers
            .iter()
            .filter(|(_, c)| c.wants_write())
            .map(|(&id, _)| id)
            .collect();
        if backlogged.is_empty() {
            return;
        }
        let now = Instant::now();
        if now >= deadline {
            for id in backlogged {
                drop_peer(peers, id, stage, None, DropKind::DeadlineMissed, dropouts);
            }
            return;
        }
        if reactor
            .poll(&mut events, &mut expired, deadline - now)
            .is_err()
        {
            // The poller itself failed: readiness can no longer drive
            // these drains, so the undelivered peers must be recorded
            // as dropouts — silently returning would let them be
            // misattributed (or lost) at the next stage.
            for id in backlogged {
                drop_peer(peers, id, stage, None, DropKind::Disconnected, dropouts);
            }
            return;
        }
        for ev in &events {
            handle_write_event(peers, ev, stage, dropouts);
        }
    }
}

/// Best-effort abort notification to everyone still connected.
fn abort_all(peers: &mut Peers, round: u64, err: &SecAggError) {
    let env = Envelope::new(
        StageTag::Abort,
        round,
        codec::encode_abort(&err.to_string()),
    );
    let wire = wire_message(&env.encode());
    for chan in peers.values_mut() {
        let _ = chan.send_wire_shared(&wire);
        let _ = chan.try_flush();
    }
}

fn push_stage(
    stats: &mut RoundStats,
    telemetry: &Telemetry,
    name: &'static str,
    up: &Traffic,
    down: Traffic,
) {
    if telemetry.is_enabled() {
        telemetry
            .counter(
                "dordis_frame_bytes_total",
                &[("direction", "in"), ("stage", name)],
            )
            .add(up.total);
        telemetry
            .counter(
                "dordis_frame_bytes_total",
                &[("direction", "out"), ("stage", name)],
            )
            .add(down.total);
    }
    stats.stages.push(StageTraffic {
        stage: name,
        uplink_total: up.total,
        uplink_max: up.max,
        downlink_total: down.total,
        downlink_max: down.max,
    });
}
