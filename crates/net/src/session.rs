//! Multi-round FL sessions over persistent connections.
//!
//! `dordis serve` used to run exactly one networked round and exit; a
//! *session* makes the round a repeated unit of execution, the way the
//! paper's training experiments (Figures 1, 8, 9, Table 2) actually run:
//! many SecAgg+XNoise rounds back to back, each with a freshly sampled
//! cohort, over connections that stay warm between rounds.
//!
//! A [`Session`] owns what outlives a round:
//!
//! - the [`Reactor`] serving every round's timers and channels,
//! - the *parked* connections: every authenticated client channel,
//!   registered once and kept across rounds,
//! - the round counter stamped into every envelope, and
//! - the seating policy deciding who participates in each round.
//!
//! Everything per-round lives in a fresh [`RoundMachine`] (secagg
//! server, chunk plan, traffic/dropout accounting), so no protocol
//! state can leak between rounds, and a frame carrying an old round id is
//! discarded by the typed [`NetError::StaleRound`] check instead of
//! being parsed into the current round.
//!
//! ## Round lifecycle
//!
//! 1. **Announce**: the session broadcasts [`StageTag::RoundAnnounce`]
//!    with the new round id to every parked connection, and to every
//!    newly accepted one. Every round is announced — a one-round
//!    [`run_coordinator`](crate::coordinator::run_coordinator) too.
//! 2. **Join / claim**: each client answers with [`StageTag::Join`] —
//!    carrying a participation claim when the seating policy is
//!    [`Seating::Claims`] — or [`StageTag::Decline`]. New connections
//!    (first-time joiners *and* clients re-joining after dropping out of
//!    an earlier round) are accepted throughout the join window. The
//!    window closes early once every id in
//!    [`SessionConfig::population`] has answered.
//! 3. **Seating**: under [`Seating::Roster`] the cohort is the fixed
//!    `params.clients` roster (first-come joins, as in the single-round
//!    coordinator). Under [`Seating::Claims`] the collected claims go to
//!    the verifier — for Dordis, `dordis-core`'s VRF
//!    `verify_and_trim` (§7) — which seats a cohort and rejects forged
//!    claims; valid-but-trimmed claimants stay parked for the next
//!    round.
//! 4. **Round execution**: a fresh `RoundMachine` drives the seated
//!    cohort's connections through the SecAgg stages. Survivors'
//!    channels return to the parked set; detected dropouts' channels are
//!    gone — those clients can reconnect and re-join in a later round.
//! 5. After the last round, [`Session::finish`] broadcasts
//!    [`StageTag::SessionEnd`].
//!
//! ## Sharded rounds
//!
//! With [`SessionConfig::shards`] `S > 1` the seated cohort is
//! partitioned by [`shard_of`] (a hash of the client id) into `S`
//! rosters, each hosting its own [`RoundMachine`] — fresh secagg
//! server, fresh chunk plan — on its own thread, with its own reactor.
//! Join, seating, and the parked set stay global; only the aggregation
//! data plane fans out. Afterwards the per-shard outcomes merge: chunk
//! sums add element-wise in `Z_{2^b}`, survivor sets union (sorted,
//! exactly as the unsharded server reports them), and dropped clients
//! are recomputed against the *union* cohort in cohort order — so a
//! sharded round is bit-equal to the unsharded one over the same cohort
//! and inputs.
//!
//! Two invariants keep the XNoise privacy ledger honest under
//! sharding. Every Setup frame carries the *union* cohort size (wire
//! v4), so clients derive their noise plan from the full sampled
//! cohort, never their shard roster; and each shard keeps the union's
//! `noise_components`, so its removal-seed reconstruction covers a
//! superset of the union removal range — downstream excess-noise
//! removal keys off the union dropout count and ignores the extras.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dordis_secagg::driver::RoundStats;
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::server::{merge_shard_outcomes, RoundOutcome};
use dordis_secagg::{ClientId, RoundParams};
use dordis_telemetry::Telemetry;

use crate::codec::{self, Envelope, StageTag};
use crate::compute::ComputePlane;
use crate::coordinator::{
    client_of, client_token, CollectMode, CoordinatorConfig, NetRoundReport, Peers, RoundMachine,
    JOIN_BASE,
};
use crate::faults::FaultPlan;
use crate::reactor::{EventedChannel, Reactor, ReactorStats, Token};
use crate::replication::{Primary, SessionCheckpoint};
use crate::transport::{send_env, wire_message, Acceptor};
use crate::NetError;

/// Who a round's seating verifier admitted and who it threw out.
#[derive(Clone, Debug, Default)]
pub struct SeatingOutcome {
    /// The round's cohort, in the order the verifier chose (this order
    /// becomes `RoundParams::clients`).
    pub seated: Vec<ClientId>,
    /// Claimants whose claims were invalid (forged proof, wrong round,
    /// undecodable); each gets an abort reply and its connection is
    /// closed. Valid claimants that simply did not make the cut belong
    /// in *neither* list — they stay parked for the next round.
    pub rejected: Vec<(ClientId, String)>,
}

/// Verifies one round's participation claims and seats a cohort.
/// Arguments: the round id and every `(claimant, claim bytes)` pair
/// collected during the join window.
pub type SeatingVerifier<'a> = Box<dyn FnMut(u64, &[(ClientId, Vec<u8>)]) -> SeatingOutcome + 'a>;

/// How a session decides each round's cohort.
pub enum Seating<'a> {
    /// The cohort is the fixed `params.clients` roster; a join is a
    /// first-come seat claim, exactly as in the single-round
    /// coordinator.
    Roster,
    /// Clients present a participation claim per round (for Dordis, a
    /// VRF self-selection proof, §7) and the verifier seats the cohort —
    /// verify-and-trim instead of first-come-first-served.
    Claims(SeatingVerifier<'a>),
}

/// Builds the round's [`RoundParams`] from the seated cohort. Under
/// [`Seating::Roster`] the cohort slice is empty and the callback
/// returns the fixed roster parameters; under [`Seating::Claims`] it
/// derives threshold / graph / noise shape from the cohort. The returned
/// `params.round` is overwritten with the session's round counter — the
/// counter comes from the session, never from the callback.
pub type ParamsFor<'a> = Box<dyn FnMut(u64, &[ClientId]) -> RoundParams + 'a>;

/// Configuration of a multi-round session.
pub struct SessionConfig<'a> {
    /// Round id of the first round (stamped into every envelope; later
    /// rounds increment it).
    pub first_round: u64,
    /// How many rounds the session runs.
    pub rounds: u64,
    /// Join/claim window per round.
    pub join_timeout: Duration,
    /// Per-stage response deadline within a round.
    pub stage_timeout: Duration,
    /// Requested chunk count `m` for every round's data plane.
    pub chunks: usize,
    /// Injected per-chunk s-comp cost (see
    /// [`CoordinatorConfig::chunk_compute`]).
    pub chunk_compute: Option<Duration>,
    /// Scheduling granularity (the reactor tick).
    pub tick: Duration,
    /// Selects nothing: [`CollectMode`] has the single value
    /// [`CollectMode::Reactor`]. The field exists only for source
    /// compatibility with callers that still set it.
    pub mode: CollectMode,
    /// Compute-plane worker threads shared by every round (`0` =
    /// serial unmasking on the coordinator thread; see
    /// [`CoordinatorConfig::workers`]). Workers stay warm across
    /// rounds.
    pub workers: usize,
    /// Aggregation shard count `S`. `0` or `1` runs the classic single
    /// machine; `S > 1` partitions each round's seated cohort by
    /// [`shard_of`] into `S` parallel [`RoundMachine`]s whose outcomes
    /// merge bit-equal to the unsharded round (see the module docs).
    /// A partition that would leave any shard below the secagg minimum
    /// of 2 clients falls back to the single machine for that round.
    pub shards: usize,
    /// Global ingress budget in bytes for the reactor's shared frame
    /// pool (`0` = unlimited, the bit-equal reference; see
    /// [`CoordinatorConfig::ingress_budget`]). A sharded round splits
    /// the budget evenly across the shard reactors.
    pub ingress_budget: u64,
    /// Selects nothing: every round is announced with
    /// [`StageTag::RoundAnnounce`]. The field exists only for source
    /// compatibility with callers that still set it.
    pub announce: bool,
    /// Known client population, used to close the join window early
    /// once everyone has answered (claimed or declined). Empty = always
    /// wait out `join_timeout` unless the roster fills.
    pub population: Vec<ClientId>,
    /// The seating policy.
    pub seating: Seating<'a>,
    /// Per-round parameter builder.
    pub params_for: ParamsFor<'a>,
    /// Telemetry handle shared by the reactor, the compute plane, and
    /// every round machine. [`Telemetry::disabled`] (the usual default)
    /// turns every probe into a no-op.
    pub telemetry: Telemetry,
    /// Bind address (`host:port`) for the Prometheus scrape endpoint,
    /// served by the reactor itself as one more epoll registration.
    pub metrics_addr: Option<String>,
    /// Dedicated channel to a backup coordinator. When set, every
    /// [`Session::commit_round`] ships a [`SessionCheckpoint`] and
    /// blocks until the backup's ack — the checkpoint-then-commit
    /// ordering that makes the privacy ledger failover-safe. `None`
    /// (the default everywhere) is the bit-equal zero-overhead
    /// reference: `commit_round` returns immediately.
    pub replica: Option<Box<dyn EventedChannel>>,
    /// Injected coordinator crashes for the failover harness
    /// ([`FaultPlan::none`] is a no-op on every hook).
    pub faults: FaultPlan,
}

/// A client's answer to one round's announce: a claim (empty bytes for
/// roster joins) or a decline.
type Answer = Option<Vec<u8>>;

/// A multi-round coordinator session over one acceptor.
pub struct Session<'a> {
    acceptor: &'a mut dyn Acceptor,
    cfg: SessionConfig<'a>,
    reactor: Reactor,
    /// Worker pool for pooled unmasking (kept warm across rounds);
    /// `None` runs the serial reference path.
    compute: Option<ComputePlane>,
    /// Authenticated connections not currently inside a round.
    parked: Peers,
    next_round: u64,
    rounds_done: u64,
    next_provisional: u64,
    /// Whether any executed round detected dropouts — only then does
    /// [`Session::finish`] hold its accept-drain grace window open (a
    /// dropped client may be mid-reconnect and still owed a
    /// `SessionEnd`); a fully clean session tears down without the
    /// wait.
    finish_grace: bool,
    /// Where the scrape endpoint actually bound (port 0 resolves here).
    metrics_bound: Option<std::net::SocketAddr>,
    /// Every client id that ever held an authenticated connection; a
    /// provisional join by a known id is a *rejoin* (reconnect after a
    /// dropout) and counts toward `dordis_rejoins_total`.
    seen: BTreeSet<ClientId>,
    /// Timeline bookkeeping: when the inter-round park window opened
    /// (telemetry clock). The next round's start closes the span.
    parked_since: Option<u64>,
    /// The replication link, when this session runs as a replicated
    /// primary. `role` is `None` only transiently inside
    /// [`Session::commit_round`] — or permanently once deposed by a
    /// view change, after which no further round can commit.
    replica: Option<ReplicaLink>,
}

/// The primary's half of the replication protocol: the channel to the
/// backup and the typed role that gates every commit.
struct ReplicaLink {
    chan: Box<dyn EventedChannel>,
    role: Option<Primary>,
}

impl<'a> Session<'a> {
    /// Opens a session over `acceptor` (builds the reactor; accepts
    /// nothing yet).
    ///
    /// # Errors
    ///
    /// Reactor construction failures and scrape-listener bind failures.
    pub fn new(
        acceptor: &'a mut dyn Acceptor,
        mut cfg: SessionConfig<'a>,
    ) -> Result<Self, NetError> {
        acceptor.set_telemetry(&cfg.telemetry);
        // The replication link stays *unregistered*: checkpoint traffic
        // happens at round boundaries, where the session thread is
        // between collection loops, so the blocking Channel API is
        // exactly right.
        let replica = cfg.replica.take().map(|chan| ReplicaLink {
            chan,
            role: Some(Primary::new()),
        });
        let mut reactor = Reactor::with_telemetry(cfg.tick, cfg.telemetry.clone())?;
        reactor.set_ingress_budget(cfg.ingress_budget);
        let metrics_bound = match &cfg.metrics_addr {
            Some(addr) => Some(reactor.serve_metrics(addr)?),
            None => None,
        };
        let compute = (cfg.workers > 0).then(|| ComputePlane::new(cfg.workers, reactor.waker()));
        let next_round = cfg.first_round;
        Ok(Session {
            acceptor,
            cfg,
            reactor,
            compute,
            parked: BTreeMap::new(),
            next_round,
            rounds_done: 0,
            next_provisional: JOIN_BASE,
            finish_grace: false,
            metrics_bound,
            seen: BTreeSet::new(),
            parked_since: None,
            replica,
        })
    }

    /// Whether this session ships round-boundary checkpoints to a
    /// backup (and therefore gates every commit on its ack).
    #[must_use]
    pub fn is_replicated(&self) -> bool {
        self.replica.is_some()
    }

    /// Commits the round that just completed: ships a
    /// [`SessionCheckpoint`] carrying `app_state` (the driver's opaque
    /// durable state — ledger, model, records) to the backup and blocks
    /// until the ack, bounded by the session's stage timeout.
    ///
    /// Without a replica this returns immediately — the unreplicated
    /// session is the bit-equal zero-overhead reference. With one, the
    /// caller must treat an error as fatal for the primary role: a
    /// round whose checkpoint was never acked **must not** have its
    /// effects applied (ledger recorded, model advanced), because the
    /// backup may already be serving a divergent view.
    ///
    /// # Errors
    ///
    /// - [`NetError::Aborted`] when the backup answered with a
    ///   `ViewChange` (this primary is deposed — now or in a previous
    ///   commit) — stand down.
    /// - [`NetError::Timeout`] / [`NetError::Closed`] when the backup
    ///   is unreachable: the primary halts rather than advance
    ///   unreplicated state.
    pub fn commit_round(&mut self, round: u64, app_state: &[u8]) -> Result<(), NetError> {
        let Some(link) = self.replica.as_mut() else {
            return Ok(());
        };
        let role = link
            .role
            .take()
            .ok_or_else(|| NetError::Aborted("deposed by view change".into()))?;
        let ckpt = SessionCheckpoint {
            round,
            rounds_done: self.rounds_done,
            view: role.view(),
            parked: self.parked.keys().copied().collect(),
            app_state: app_state.to_vec(),
        };
        let span = self
            .cfg
            .telemetry
            .span("session", "checkpoint", round, None);
        self.cfg
            .telemetry
            .histogram("dordis_checkpoint_bytes", &[])
            .observe(ckpt.encode().len() as u64);
        // Typed hand-off: `ship` consumes the Primary, so nothing can
        // commit until `complete` returns it — and a ViewChange frame
        // destroys it instead.
        let waiting = role.ship(&ckpt, link.chan.as_mut())?;
        let frame = link
            .chan
            .recv_deadline(Instant::now() + self.cfg.stage_timeout)?;
        let primary = waiting.complete(&Envelope::decode(&frame)?)?;
        link.role = Some(primary);
        drop(span);
        self.cfg
            .telemetry
            .counter("dordis_checkpoints_total", &[("role", "primary")])
            .inc();
        Ok(())
    }

    /// Where the Prometheus scrape endpoint bound, when one was
    /// configured (port 0 in [`SessionConfig::metrics_addr`] resolves
    /// to the kernel-assigned port here).
    #[must_use]
    pub fn metrics_addr(&self) -> Option<std::net::SocketAddr> {
        self.metrics_bound
    }

    /// The session's telemetry handle.
    #[must_use]
    pub fn telemetry(&self) -> &Telemetry {
        &self.cfg.telemetry
    }

    /// The round id the next [`Session::run_round`] call will execute.
    #[must_use]
    pub fn current_round(&self) -> u64 {
        self.next_round
    }

    /// Rounds left before the configured horizon.
    #[must_use]
    pub fn rounds_remaining(&self) -> u64 {
        self.cfg.rounds.saturating_sub(self.rounds_done)
    }

    /// Runs the next round: announce, join/claim, seat, execute.
    /// `payload` is broadcast to the cohort inside the Setup frame
    /// (e.g. the current global model); clients receive it alongside the
    /// round parameters.
    ///
    /// # Errors
    ///
    /// Protocol aborts (below threshold, tampering) and engine
    /// failures. Per-client failures are detected dropouts inside the
    /// report, not errors. After an error the surviving connections are
    /// still parked, so a caller may retry with the next round.
    pub fn run_round(&mut self, payload: &[u8]) -> Result<NetRoundReport, NetError> {
        let round = self.next_round;
        // Close the inter-round park window on the timeline, and open
        // the per-round accounting windows: the report's reactor and
        // metrics deltas are measured from *here*, so the join phase —
        // which the round machine never sees — is part of the round's
        // cost.
        if let Some(since) = self.parked_since.take() {
            self.cfg.telemetry.record_span(
                "session",
                "park",
                round,
                None,
                since,
                self.cfg.telemetry.now_ns(),
            );
        }
        let reactor_base = self.reactor.stats;
        let metrics_base = self.cfg.telemetry.snapshot();
        let join_span = self.cfg.telemetry.span("session", "join", round, None);
        // Roster seating needs the sampled set up front to vet joins.
        let roster_params = match self.cfg.seating {
            Seating::Roster => {
                let mut p = (self.cfg.params_for)(round, &[]);
                p.round = round;
                Some(p)
            }
            Seating::Claims(_) => None,
        };
        let roster: Option<BTreeSet<ClientId>> = roster_params
            .as_ref()
            .map(|p| p.clients.iter().copied().collect());

        let (answers, join_stale) = self.join_phase(round, roster.as_ref())?;
        drop(join_span);
        let seat_span = self.cfg.telemetry.span("session", "seating", round, None);

        // ---- Seat the cohort. ----
        let params = match (&mut self.cfg.seating, roster_params) {
            (Seating::Roster, Some(p)) => p,
            (Seating::Claims(verifier), _) => {
                let claims: Vec<(ClientId, Vec<u8>)> = answers
                    .iter()
                    .filter_map(|(&id, a)| a.clone().map(|claim| (id, claim)))
                    .collect();
                let outcome = verifier(round, &claims);
                for (id, why) in &outcome.rejected {
                    if let Some(mut chan) = self.parked.remove(id) {
                        let env = Envelope::new(StageTag::Abort, round, codec::encode_abort(why));
                        let _ = send_env(chan.as_mut(), &env);
                        let _ = chan.try_flush();
                    }
                }
                let mut p = (self.cfg.params_for)(round, &outcome.seated);
                p.round = round;
                p
            }
            (Seating::Roster, None) => unreachable!("roster params built above"),
        };

        // Move the cohort's channels out of the parked set; everyone
        // else (declined, trimmed, late) stays parked for later rounds.
        let mut round_peers: Peers = BTreeMap::new();
        for &id in &params.clients {
            if let Some(chan) = self.parked.remove(&id) {
                round_peers.insert(id, chan);
            }
        }
        drop(seat_span);

        let cohort = params.clients.len().min(usize::from(u16::MAX)) as u16;
        let rosters = shard_rosters(&params.clients, self.cfg.shards);
        // A shard below the secagg minimum (2 clients) cannot host a
        // round machine; fall back to the single machine for this
        // round rather than abort.
        let sharded = rosters.len() > 1 && rosters.iter().all(|r| r.len() >= 2);
        let mut shard_reactor: Option<ReactorStats> = None;
        let result = if sharded {
            let result =
                self.run_shards(round, &params, rosters, cohort, &mut round_peers, payload);
            if let Ok(report) = &result {
                shard_reactor = report.reactor;
            }
            result
        } else {
            let cc = CoordinatorConfig {
                params,
                join_timeout: self.cfg.join_timeout,
                stage_timeout: self.cfg.stage_timeout,
                chunks: self.cfg.chunks,
                chunk_compute: self.cfg.chunk_compute,
                tick: self.cfg.tick,
                workers: self.cfg.workers,
                telemetry: self.cfg.telemetry.clone(),
                cohort,
                ingress_budget: self.cfg.ingress_budget,
                faults: self.cfg.faults.clone(),
            };
            let machine = RoundMachine::new(&cc)?;
            machine.run(
                &mut self.reactor,
                self.compute.as_mut(),
                &mut round_peers,
                &cc,
                payload,
            )
        };

        // Survivors' connections return to the parked set regardless of
        // how the round ended.
        self.parked.append(&mut round_peers);
        self.next_round += 1;
        self.rounds_done += 1;
        if self.cfg.telemetry.is_enabled() {
            self.parked_since = Some(self.cfg.telemetry.now_ns());
        }
        match result {
            Ok(mut report) => {
                report.stale_frames += join_stale;
                // Widen the machine's per-round reactor delta to cover
                // the join phase too, and attach the round's metrics
                // delta; cumulative reactor counters ride alongside.
                let reactor_now = self.reactor.stats;
                let mut own = reactor_now.delta_since(reactor_base);
                // A sharded round's wake-up work happened on the shard
                // reactors; add it to the session reactor's own delta
                // (join phase + completion waiting) so `reactor` stays
                // "everything this round cost", sharded or not.
                if let Some(extra) = shard_reactor {
                    own.polls += extra.polls;
                    own.events += extra.events;
                    own.timer_fires += extra.timer_fires;
                }
                report.reactor = Some(own);
                report.reactor_session = Some(reactor_now);
                report.metrics = match (self.cfg.telemetry.snapshot(), &metrics_base) {
                    (Some(now), Some(base)) => Some(now.delta(base)),
                    _ => None,
                };
                // Sticky: a client dropped in *any* round may still be
                // mid-reconnect at finish (it need not have rejoined in
                // between), so one dropout anywhere keeps the grace
                // window armed for the session's teardown.
                self.finish_grace |= !report.dropouts.is_empty();
                Ok(report)
            }
            Err(e) => {
                // Conservative: after an aborted round anyone might
                // still be reconnecting.
                self.finish_grace = true;
                Err(e)
            }
        }
    }

    /// Runs one round partitioned across `rosters.len()` aggregation
    /// shards: each shard hosts a fresh [`RoundMachine`] over its
    /// roster on its own thread (with its own reactor and compute
    /// plane when so configured), then the per-shard reports merge
    /// into one union report. See the module docs' *Sharded rounds*
    /// section for the bit-equality and privacy-ledger arguments.
    fn run_shards(
        &mut self,
        round: u64,
        params: &RoundParams,
        rosters: Vec<Vec<ClientId>>,
        cohort: u16,
        round_peers: &mut Peers,
        payload: &[u8],
    ) -> Result<NetRoundReport, NetError> {
        let shards = rosters.len();
        let shards_span = self.cfg.telemetry.span("session", "shards", round, None);

        // Build each shard's config and peel its channels off the
        // cohort on this thread. Channels must leave the session poller
        // before they cross to a shard thread (re-registering without
        // deregistering would re-key the fd on the *old* poller); one
        // that cannot is dropped and becomes a detected dropout.
        let mut work: Vec<(CoordinatorConfig, Peers)> = Vec::with_capacity(shards);
        // Each shard reactor gets an even slice of the session budget
        // (floored at the fair-share minimum so a tiny budget over many
        // shards cannot silently become "unlimited").
        let shard_budget = if self.cfg.ingress_budget == 0 {
            0
        } else {
            (self.cfg.ingress_budget / shards as u64).max(crate::pool::MIN_FAIR_SHARE)
        };
        for (s, roster) in rosters.iter().enumerate() {
            let cc = CoordinatorConfig {
                params: shard_params(params, roster),
                join_timeout: self.cfg.join_timeout,
                stage_timeout: self.cfg.stage_timeout,
                chunks: self.cfg.chunks,
                chunk_compute: self.cfg.chunk_compute,
                tick: self.cfg.tick,
                workers: self.cfg.workers,
                telemetry: self.cfg.telemetry.shard_scope(s as u16),
                cohort,
                ingress_budget: shard_budget,
                faults: self.cfg.faults.clone(),
            };
            let mut peers: Peers = BTreeMap::new();
            for &id in roster {
                if let Some(mut chan) = round_peers.remove(&id) {
                    if chan.deregister().is_ok() {
                        peers.insert(id, chan);
                    }
                }
            }
            work.push((cc, peers));
        }

        let waker = self.reactor.waker();
        let results: Mutex<Vec<ShardSlot>> = Mutex::new((0..shards).map(|_| None).collect());

        std::thread::scope(|scope| -> Result<(), NetError> {
            for (s, (cc, mut peers)) in work.into_iter().enumerate() {
                let results = &results;
                let waker = waker.clone();
                std::thread::Builder::new()
                    // The thread name becomes the span track name in
                    // the Chrome-tracing export.
                    .name(format!("dordis-shard{s}"))
                    .spawn_scoped(scope, move || {
                        let outcome = run_one_shard(&cc, &mut peers, payload);
                        if let Ok(mut slots) = results.lock() {
                            slots[s] = Some((outcome, peers));
                        }
                        waker.wake(Token(SHARD_DONE_BASE + s as u64));
                    })
                    .map_err(|e| NetError::Io(format!("spawn shard {s}: {e}")))?;
            }
            // Keep the session reactor turning while the shards run, so
            // the scrape endpoint stays responsive mid-round; each
            // shard's completion wake cuts the poll short.
            let (mut events, mut expired) = (Vec::new(), Vec::new());
            loop {
                let done = results
                    .lock()
                    .map_or(shards, |slots| slots.iter().filter(|s| s.is_some()).count());
                if done == shards {
                    break;
                }
                self.reactor
                    .poll(&mut events, &mut expired, self.cfg.tick)?;
            }
            Ok(())
        })?;
        drop(shards_span);

        let merge_span = self.cfg.telemetry.span("session", "merge", round, None);
        let slots = results
            .into_inner()
            .map_err(|_| NetError::Protocol("shard result lock poisoned".into()))?;
        let mut first_err: Option<NetError> = None;
        let mut reports: Vec<NetRoundReport> = Vec::with_capacity(shards);
        for slot in slots {
            let Some((result, mut peers)) = slot else {
                first_err.get_or_insert(NetError::Protocol("shard thread died".into()));
                continue;
            };
            // Re-home survivors on the session poller *before* any
            // error can propagate: a channel left unregistered would
            // stall the next round's join.
            register_all(&mut self.reactor, &mut peers);
            round_peers.append(&mut peers);
            match result {
                Ok(report) => reports.push(report),
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if let Some(e) = first_err {
            return Err(e);
        }

        // Merge. Chunk sums add element-wise in `Z_{2^b}` and survivor
        // sets union inside `merge_shard_outcomes`; removal seeds
        // concatenate (each shard reconstructed a superset of the union
        // removal range — excess-noise removal downstream keys off the
        // union dropout count and ignores the extras). Traffic stats
        // fold per stage; every shard realizes the identical chunk
        // plan, so the chunk count carries over from any one of them.
        let mut outcomes: Vec<RoundOutcome> = Vec::with_capacity(reports.len());
        let mut stats = RoundStats::default();
        let mut dropouts = Vec::new();
        let mut chunks = 0;
        let mut stale_frames = 0;
        let mut reactor = ReactorStats::default();
        for report in reports {
            outcomes.push(report.outcome);
            merge_stats_into(&mut stats, report.stats);
            dropouts.extend(report.dropouts);
            chunks = report.chunks;
            stale_frames += report.stale_frames;
            let delta = report.reactor.unwrap_or_default();
            reactor.polls += delta.polls;
            reactor.events += delta.events;
            reactor.timer_fires += delta.timer_fires;
        }
        stats.aborted.sort_unstable();
        let outcome = merge_shard_outcomes(&params.clients, outcomes).map_err(NetError::SecAgg)?;
        drop(merge_span);
        Ok(NetRoundReport {
            round,
            outcome,
            stats,
            dropouts,
            chunks,
            stale_frames,
            reactor: Some(reactor),
            reactor_session: None,
            metrics: None,
        })
    }

    /// Ends the session: broadcasts [`StageTag::SessionEnd`] to every
    /// parked connection — and to late (re)connections still waiting in
    /// the accept queue, so a client that dropped out of the final
    /// round and reconnected does not hang waiting for an announce —
    /// then drops them all.
    pub fn finish(mut self) {
        // Retire the primary role first: the backup learns the session
        // ended cleanly and will not call a view change when the
        // replication channel drops with this session.
        if let Some(mut link) = self.replica.take() {
            if let Some(role) = link.role.take() {
                role.retire(link.chan.as_mut());
            }
        }
        let env = Envelope::new(StageTag::SessionEnd, self.next_round, Vec::new());
        // One encode for the whole cohort: registered channels enqueue
        // the shared frame by reference (see `wire_message`).
        let wire = wire_message(&env.encode());
        self.cfg
            .telemetry
            .counter("dordis_broadcast_encodes_total", &[])
            .inc();
        for chan in self.parked.values_mut() {
            let _ = chan.send_wire_shared(&wire);
            let _ = chan.try_flush();
        }
        // Already-queued connections are drained either way; the
        // tick-length wait for stragglers is only held open when some
        // round actually lost someone.
        let drain_deadline = if self.finish_grace {
            Instant::now() + self.cfg.tick
        } else {
            Instant::now()
        };
        while let Ok(mut chan) = self.acceptor.accept(drain_deadline) {
            let _ = chan.send_wire_shared(&wire);
            let _ = chan.try_flush();
        }
    }

    // -----------------------------------------------------------------
    // Join / claim phase.
    // -----------------------------------------------------------------

    /// Announces `round`, collects Join/Decline answers from parked
    /// peers, and accepts new connections, until everyone answered or
    /// the join window closes. Returns the answers and the number of
    /// stale frames discarded.
    fn join_phase(
        &mut self,
        round: u64,
        roster: Option<&BTreeSet<ClientId>>,
    ) -> Result<(BTreeMap<ClientId, Answer>, u64), NetError> {
        let claims_mode = matches!(self.cfg.seating, Seating::Claims(_));
        let mut answers: BTreeMap<ClientId, Answer> = BTreeMap::new();
        let mut stale = 0u64;

        // Encoded once per round; every parked peer — and every
        // connection accepted during the window — queues the same
        // refcounted wire message.
        let wire = wire_message(&announce_frame(round, claims_mode));
        self.cfg
            .telemetry
            .counter("dordis_broadcast_encodes_total", &[])
            .inc();
        let ids: Vec<ClientId> = self.parked.keys().copied().collect();
        for id in ids {
            if let Some(chan) = self.parked.get_mut(&id) {
                if chan.send_wire_shared(&wire).is_err() || chan.try_flush().is_err() {
                    self.parked.remove(&id);
                }
            }
        }

        self.join_window(round, roster, claims_mode, &wire, &mut answers, &mut stale)?;
        self.seen.extend(answers.keys().copied());
        Ok((answers, stale))
    }

    /// Whether the join window can close early: the roster is fully
    /// seated, or the whole known population has answered.
    fn join_complete(
        &self,
        roster: Option<&BTreeSet<ClientId>>,
        answers: &BTreeMap<ClientId, Answer>,
    ) -> bool {
        match roster {
            Some(sampled) => sampled.iter().all(|id| answers.contains_key(id)),
            None => {
                !self.cfg.population.is_empty()
                    && self
                        .cfg
                        .population
                        .iter()
                        .all(|id| answers.contains_key(id))
            }
        }
    }

    /// Reactor-driven join phase: parked peers' answers and provisional
    /// connections' first frames arrive as readiness events, so one slow
    /// joiner never serializes the others.
    fn join_window(
        &mut self,
        round: u64,
        roster: Option<&BTreeSet<ClientId>>,
        claims_mode: bool,
        announce_wire: &Arc<[u8]>,
        answers: &mut BTreeMap<ClientId, Answer>,
        stale: &mut u64,
    ) -> Result<(), NetError> {
        let deadline = Instant::now() + self.cfg.join_timeout;
        let mut awaiting: BTreeMap<u64, Box<dyn EventedChannel>> = BTreeMap::new();

        // Initial sweep of parked peers: answers may already be buffered
        // and their readiness consumed by a previous round's poll.
        let ids: Vec<ClientId> = self.parked.keys().copied().collect();
        for id in ids {
            self.drain_parked(round, id, answers, stale);
        }

        let (mut events, mut expired) = (Vec::new(), Vec::new());
        // New connections are drained in short accept slices; the real
        // waiting happens in the poller (answers from registered
        // channels wake it immediately), so a session round's join
        // phase costs microseconds once everyone has answered instead
        // of a full accept tick.
        let accept_slice = Duration::from_millis(1).min(self.cfg.tick);
        while !self.join_complete(roster, answers) {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            // Drain every queued connection in one go (each successful
            // accept is immediate; only the terminating timeout pays
            // the slice), so a burst of (re)connections never
            // serializes behind poll sleeps.
            loop {
                match self
                    .acceptor
                    .accept((Instant::now() + accept_slice).min(deadline))
                {
                    Ok(mut chan) => {
                        let token = Token(self.next_provisional);
                        self.next_provisional += 1;
                        chan.register(&mut self.reactor, token)?;
                        self.reactor.arm_deadline(
                            token,
                            (Instant::now() + self.cfg.stage_timeout).min(deadline),
                        );
                        if chan.send_wire_shared(announce_wire).is_err() {
                            continue; // connection already dead
                        }
                        let _ = chan.try_flush();
                        awaiting.insert(token.0, chan);
                    }
                    Err(NetError::Timeout) => break,
                    Err(e) => return Err(e),
                }
                if Instant::now() >= deadline {
                    break;
                }
            }
            self.reactor
                .poll(&mut events, &mut expired, self.cfg.tick)?;
            for ev in &events {
                if let Some(mut chan) = awaiting.remove(&ev.token.0) {
                    // Drain *through* stale frames: an eager `Join(0)`
                    // and the real claim can both be buffered before a
                    // single wake, and a wake — unlike level-triggered
                    // fd readiness — is consumed whole. Stopping at the
                    // stale frame would strand the claim until the
                    // provisional deadline kills the connection.
                    loop {
                        match chan.try_recv() {
                            Ok(Some(frame)) => {
                                let verdict = self.vet_first_frame(
                                    Envelope::decode(&frame),
                                    round,
                                    roster,
                                    claims_mode,
                                    answers,
                                    stale,
                                );
                                // The decode copied the body out; the
                                // frame allocation goes back to the pool.
                                chan.recycle_frame(frame);
                                match verdict {
                                    Verdict::Admit(id, answer) => {
                                        self.reactor.cancel_deadline(ev.token);
                                        chan.register(&mut self.reactor, client_token(id))?;
                                        answers.insert(id, answer);
                                        self.parked.insert(id, chan);
                                        break;
                                    }
                                    Verdict::Reject(reply) => {
                                        self.reactor.cancel_deadline(ev.token);
                                        let _ = send_env(chan.as_mut(), &reply);
                                        let _ = chan.try_flush();
                                        break;
                                    }
                                    Verdict::Stale => {
                                        *stale += 1;
                                        // Keep draining: the real
                                        // answer may be right behind.
                                    }
                                    Verdict::Discard => {
                                        self.reactor.cancel_deadline(ev.token);
                                        break;
                                    }
                                }
                            }
                            Ok(None) => {
                                // No (further) complete frame yet: keep
                                // waiting.
                                awaiting.insert(ev.token.0, chan);
                                break;
                            }
                            Err(_) => {
                                self.reactor.cancel_deadline(ev.token);
                                break;
                            }
                        }
                    }
                } else if let Some(id) = client_of(ev.token) {
                    if ev.writable {
                        if let Some(chan) = self.parked.get_mut(&id) {
                            if chan.try_flush().is_err() {
                                self.parked.remove(&id);
                                continue;
                            }
                        }
                    }
                    if (ev.readable || ev.closed) && self.parked.contains_key(&id) {
                        self.drain_parked(round, id, answers, stale);
                    }
                }
            }
            for token in &expired {
                // Connected but never completed a Join: not a
                // participant (this round).
                awaiting.remove(&token.0);
            }
        }
        // The window closed with some connections still awaiting a
        // verdict. Any first frame already on the wire gets vetted so a
        // rejected peer hears *why* instead of hanging.
        let leftovers: Vec<(u64, Box<dyn EventedChannel>)> = awaiting.into_iter().collect();
        for (token, mut chan) in leftovers {
            self.reactor.cancel_deadline(Token(token));
            // Drain through stale frames here too (see the loop above).
            while let Ok(Some(frame)) = chan.try_recv() {
                let verdict = self.vet_first_frame(
                    Envelope::decode(&frame),
                    round,
                    roster,
                    claims_mode,
                    answers,
                    stale,
                );
                chan.recycle_frame(frame);
                match verdict {
                    Verdict::Admit(id, answer) => {
                        chan.register(&mut self.reactor, client_token(id))?;
                        answers.insert(id, answer);
                        self.parked.insert(id, chan);
                        break;
                    }
                    Verdict::Reject(reply) => {
                        let _ = send_env(chan.as_mut(), &reply);
                        let _ = chan.try_flush();
                        break;
                    }
                    Verdict::Stale => {
                        *stale += 1;
                        continue;
                    }
                    Verdict::Discard => break,
                }
            }
        }
        Ok(())
    }

    /// Drains every buffered frame from a parked peer during the join
    /// window.
    fn drain_parked(
        &mut self,
        round: u64,
        id: ClientId,
        answers: &mut BTreeMap<ClientId, Answer>,
        stale: &mut u64,
    ) {
        loop {
            let Some(chan) = self.parked.get_mut(&id) else {
                return;
            };
            match chan.try_recv() {
                Ok(Some(frame)) => {
                    self.file_parked_frame(round, id, &frame, answers, stale);
                    if let Some(chan) = self.parked.get_mut(&id) {
                        chan.recycle_frame(frame);
                    }
                }
                Ok(None) => return,
                Err(_) => {
                    self.parked.remove(&id);
                    return;
                }
            }
        }
    }

    /// Files one frame from a parked (already-authenticated) peer:
    /// a Join (claim) or Decline for the current round, a stale frame
    /// from an earlier round (discarded, typed), or a violation.
    fn file_parked_frame(
        &mut self,
        round: u64,
        id: ClientId,
        frame: &[u8],
        answers: &mut BTreeMap<ClientId, Answer>,
        stale: &mut u64,
    ) {
        let env = match Envelope::decode(frame) {
            Ok(env) => env,
            Err(_) => {
                self.parked.remove(&id);
                return;
            }
        };
        if env.stage == StageTag::Abort {
            self.parked.remove(&id);
            return;
        }
        if let Err(NetError::StaleRound { got, expected }) = env.check_round(round) {
            if got < expected {
                // e.g. a claim for round r arriving after round r's
                // window closed: discard, never treat as a claim for
                // the current round.
                *stale += 1;
                return;
            }
            self.parked.remove(&id);
            return;
        }
        match env.stage {
            StageTag::Join => match codec::decode_join_claim(&env.body) {
                Ok((claimed, claim)) if claimed == id => {
                    answers.insert(id, Some(claim));
                }
                _ => {
                    self.parked.remove(&id);
                }
            },
            StageTag::Decline => {
                answers.insert(id, None);
            }
            _ => {
                self.parked.remove(&id);
            }
        }
    }

    /// Validates the first frame of a provisional connection.
    fn vet_first_frame(
        &mut self,
        env_result: Result<Envelope, NetError>,
        round: u64,
        roster: Option<&BTreeSet<ClientId>>,
        claims_mode: bool,
        answers: &mut BTreeMap<ClientId, Answer>,
        stale: &mut u64,
    ) -> Verdict {
        let env = match env_result {
            Ok(env) => env,
            Err(NetError::Version { got, expected }) => {
                // A peer speaking another wire version must be told to
                // upgrade, not silently counted as a never-join.
                return Verdict::Reject(Envelope::new(
                    StageTag::Abort,
                    round,
                    codec::encode_abort(&format!(
                        "wire version mismatch: you speak v{got}, this coordinator v{expected}"
                    )),
                ));
            }
            Err(_) => return Verdict::Discard,
        };
        let reject = |why: &str| {
            Verdict::Reject(Envelope::new(
                StageTag::Abort,
                round,
                codec::encode_abort(why),
            ))
        };
        // Answers are round-bound in claims mode: a Join or Decline for
        // an older round is stale (the client will re-answer after the
        // announce). Roster joins are round-agnostic: a client's eager
        // join at connect time carries round 0 and is admitted as its
        // answer to whichever round it lands in.
        if claims_mode
            && matches!(env.stage, StageTag::Join | StageTag::Decline)
            && env.round != round
        {
            if env.round < round {
                return Verdict::Stale;
            }
            return reject("future round");
        }
        match env.stage {
            StageTag::Join => {
                let Ok((id, claim)) = codec::decode_join_claim(&env.body) else {
                    return Verdict::Discard; // unidentifiable garbage
                };
                if !self.id_admissible(id, roster) {
                    return reject("not in the sampled set");
                }
                if self.parked.contains_key(&id) {
                    // A reconnect is only legitimate if the old channel
                    // is actually dead (the client dropped and came
                    // back); a live duplicate is rejected as before.
                    if self.parked_alive(round, id, answers, stale) {
                        return reject("duplicate join");
                    }
                    self.parked.remove(&id);
                }
                // A fresh connection from an id this session has seen
                // before is a dropout coming back.
                if self.seen.contains(&id) {
                    self.cfg
                        .telemetry
                        .counter("dordis_rejoins_total", &[])
                        .inc();
                }
                Verdict::Admit(id, Some(claim))
            }
            StageTag::Decline => {
                // Declines are never claim-verified (decliners skip
                // seating), so gate them by roster/population like
                // joins — otherwise anyone could park a connection
                // under an arbitrary id and block that id's real join.
                let Ok((id, _)) = codec::decode_join_claim(&env.body) else {
                    return Verdict::Discard;
                };
                if !self.id_admissible(id, roster)
                    || answers.contains_key(&id)
                    || self.parked.contains_key(&id)
                {
                    return Verdict::Discard;
                }
                Verdict::Admit(id, None)
            }
            _ => Verdict::Discard, // wrong first message
        }
    }

    /// Whether `id` may hold a connection in this session: roster
    /// membership when a roster exists, otherwise population membership
    /// (when a population is configured; an empty population means open
    /// enrollment — the seating verifier is then the only gate).
    fn id_admissible(&self, id: ClientId, roster: Option<&BTreeSet<ClientId>>) -> bool {
        match roster {
            Some(sampled) => sampled.contains(&id),
            None => self.cfg.population.is_empty() || self.cfg.population.contains(&id),
        }
    }

    /// Probes whether `id`'s parked channel is still alive. Any
    /// buffered frame the probe consumes is re-filed (it may be the
    /// peer's answer for this round), never discarded. Parked channels
    /// are registered (non-blocking), so the probe never waits.
    fn parked_alive(
        &mut self,
        round: u64,
        id: ClientId,
        answers: &mut BTreeMap<ClientId, Answer>,
        stale: &mut u64,
    ) -> bool {
        loop {
            match self.parked.get_mut(&id).map(|c| c.try_recv()) {
                Some(Ok(Some(frame))) => {
                    self.file_parked_frame(round, id, &frame, answers, stale);
                    if !self.parked.contains_key(&id) {
                        return false; // the frame itself was fatal
                    }
                    if let Some(chan) = self.parked.get_mut(&id) {
                        chan.recycle_frame(frame);
                    }
                }
                Some(Ok(None)) => return true,
                Some(Err(_)) | None => return false,
            }
        }
    }
}

// ---------------------------------------------------------------------
// Sharded rounds.
// ---------------------------------------------------------------------

/// One shard thread's deposit: its round result plus the surviving
/// channels to re-park on the session reactor.
type ShardSlot = Option<(Result<NetRoundReport, NetError>, Peers)>;

/// Wake-token namespace for shard-completion notifications posted to
/// the *session* reactor: shard `s` wakes `SHARD_DONE_BASE + s`. Sits
/// below the reactor's internal metrics-connection namespace and far
/// above client ids and provisional join tokens (`JOIN_BASE`).
pub const SHARD_DONE_BASE: u64 = u64::MAX - (2 << 20);

/// Which aggregation shard a client belongs to, for a cohort
/// partitioned into `shards` shards: a splitmix64-style finalizer over
/// the client id, reduced mod `shards`. Deterministic across
/// coordinator and tests; well-mixed, so adjacent ids spread instead of
/// clumping.
#[must_use]
pub fn shard_of(id: ClientId, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut x = u64::from(id).wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x % shards as u64) as usize
}

/// Partitions a cohort into per-shard rosters by [`shard_of`],
/// preserving cohort order within each roster (the order becomes the
/// shard's `RoundParams::clients`). `shards <= 1` yields one roster:
/// the cohort itself.
#[must_use]
pub fn shard_rosters(cohort: &[ClientId], shards: usize) -> Vec<Vec<ClientId>> {
    let shards = shards.max(1);
    let mut rosters = vec![Vec::new(); shards];
    for &id in cohort {
        rosters[shard_of(id, shards)].push(id);
    }
    rosters
}

/// Derives one shard's [`RoundParams`] from the union round's.
///
/// The roster is the shard's slice of the cohort (cohort order); the
/// dropout threshold scales proportionally, rounded up (which preserves
/// the malicious model's `2t > |U|` invariant) and clamped to
/// `2..=roster`. `noise_components` stays the *union*'s `T`, so the
/// shard server reconstructs removal seeds over a superset of the union
/// removal range — the privacy ledger accounts dropouts against the
/// full cohort, never a shard roster. The masking graph is re-derived
/// from the roster size ([`MaskingGraph::recommended`]): rosters are
/// hash-partitioned slices with no meaningful neighbor structure to
/// inherit, and pairwise masks only ever cancel within a shard anyway —
/// small shards keep the complete graph (bit-identical to the old
/// pinned behaviour), while large shards get the sparse Harary graph,
/// which with neighborhood-scoped Shamir indexing is what lets a single
/// shard seat rosters past 255 clients.
fn shard_params(union: &RoundParams, roster: &[ClientId]) -> RoundParams {
    let threshold = (union.threshold * roster.len())
        .div_ceil(union.clients.len().max(1))
        .max(2)
        .min(roster.len());
    RoundParams {
        round: union.round,
        clients: roster.to_vec(),
        threshold,
        bit_width: union.bit_width,
        vector_len: union.vector_len,
        noise_components: union.noise_components,
        threat_model: union.threat_model,
        graph: MaskingGraph::recommended(roster.len()),
    }
}

/// One shard's round, on the shard's thread: a fresh reactor, a fresh
/// compute plane when workers are configured, and a fresh
/// [`RoundMachine`] over the shard roster. Channels arrive deregistered
/// and leave deregistered — the session re-homes survivors on its own
/// poller afterwards.
fn run_one_shard(
    cc: &CoordinatorConfig,
    peers: &mut Peers,
    payload: &[u8],
) -> Result<NetRoundReport, NetError> {
    let mut reactor = Reactor::with_telemetry(cc.tick, cc.telemetry.clone())?;
    reactor.set_ingress_budget(cc.ingress_budget);
    let mut compute = (cc.workers > 0).then(|| ComputePlane::new(cc.workers, reactor.waker()));
    register_all(&mut reactor, peers);
    let machine = RoundMachine::new(cc)?;
    let result = machine.run(&mut reactor, compute.as_mut(), peers, cc, payload);
    for chan in peers.values_mut() {
        let _ = chan.deregister();
    }
    result
}

/// Registers every channel in `peers` on `reactor` under its client
/// token; a channel that cannot register is dropped.
fn register_all(reactor: &mut Reactor, peers: &mut Peers) {
    peers.retain(|&id, chan| chan.register(reactor, client_token(id)).is_ok());
}

/// Folds one shard's per-stage traffic into the union report's: totals
/// add, per-client maxima take the max (the heaviest client in any
/// shard is the heaviest client overall).
fn merge_stats_into(into: &mut RoundStats, from: RoundStats) {
    for stage in from.stages {
        match into.stages.iter_mut().find(|s| s.stage == stage.stage) {
            Some(acc) => {
                acc.uplink_total += stage.uplink_total;
                acc.uplink_max = acc.uplink_max.max(stage.uplink_max);
                acc.downlink_total += stage.downlink_total;
                acc.downlink_max = acc.downlink_max.max(stage.downlink_max);
            }
            None => into.stages.push(stage),
        }
    }
    into.aborted.extend(from.aborted);
}

/// The RoundAnnounce frame for a round, encoded once per use site so
/// parked peers and newly accepted connections always receive the
/// identical announce.
fn announce_frame(round: u64, claims_mode: bool) -> Vec<u8> {
    Envelope::new(
        StageTag::RoundAnnounce,
        round,
        codec::encode_announce(claims_mode),
    )
    .encode()
}

/// Outcome of vetting a provisional connection's first frame.
enum Verdict {
    /// Authenticate the connection as this client, with its answer.
    Admit(ClientId, Answer),
    /// Send the reply and close the connection.
    Reject(Envelope),
    /// Frame from an older round: discard it, keep the connection.
    Stale,
    /// Drop the connection silently.
    Discard,
}
