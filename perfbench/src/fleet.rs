//! The lockstep client fleet: one thread drives every population
//! member's `dordis_secagg::client::Client` over its own
//! `LoopbackChannel`, speaking the wire protocol through the public
//! `dordis_net::codec` functions.
//!
//! Rounds run in a closed loop. Each stage is one sweep over the
//! members that take part in it: a member answers a stage only after it
//! has received that stage's frame, and the coordinator only broadcasts
//! the next stage once every answer is in, so the sweep never waits on
//! a frame that is not coming. Scripted droppers send part of their
//! masked-input chunk stream, disconnect, and reconnect at once, to
//! re-join from the next round's announce — the dropout-and-rejoin path
//! of `dordis_net::runtime::run_session_client`, which this mirrors
//! frame for frame.

use std::collections::BTreeMap;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

use dordis_core::sampling::{encode_claim, ParticipationClaim};
use dordis_net::codec::{self, decode_list, split_masked_input, Encode, Envelope, StageTag};
use dordis_net::transport::{Channel, LoopbackChannel, LoopbackHub};
use dordis_pipeline::ChunkPlan;
use dordis_secagg::client::{Client, ClientInput};
use dordis_secagg::driver::{client_rng, round_rng_seed, share_keys_rng};
use dordis_secagg::messages::IdList;
use dordis_secagg::ClientId;

use crate::sys::thread_cpu_ns;
use crate::trace::{CodecTally, Tracer};
use crate::workload::{predicted_seating, Workload};

/// How long a member waits for its next frame before the fleet gives
/// up on the run. Far past any stage of any workload: the coordinator's
/// own stage deadline fires first.
pub const RECV_TIMEOUT: Duration = Duration::from_secs(150);

/// Which rounds' client inputs the fleet hands back for the reference
/// driver re-run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Retain {
    /// The first round only.
    First,
    /// Every round.
    All,
}

/// What the fleet saw of one round.
pub struct FleetRound {
    /// The round id.
    pub round: u64,
    /// The cohort, in seating order, as every Setup frame carried it.
    pub seated: Vec<ClientId>,
    /// The members the fleet made drop mid-stream.
    pub scripted: Vec<ClientId>,
    /// `Σ` of the inputs every non-dropping member submitted, mod `2^b`.
    pub submitted_sum: Vec<u64>,
    /// The same sum over the noiseless encodings (XNoise workloads).
    pub clean_sum: Vec<u64>,
    /// Every seated member's input, when retained.
    pub inputs: Option<BTreeMap<ClientId, ClientInput>>,
    /// Fleet-thread CPU spent on the round.
    pub cpu_ns: u64,
}

/// Codec totals over the measured rounds (traced runs only).
#[derive(Clone, Copy, Debug, Default)]
pub struct FleetSummary {
    /// Rounds completed, the warm-up round included.
    pub rounds: u64,
    /// Seated client-rounds after the warm-up round.
    pub client_rounds: u64,
    /// Envelope + body encoding.
    pub encode: CodecTally,
    /// Envelope + body decoding.
    pub decode: CodecTally,
}

/// One population member's connection.
pub struct Member {
    id: ClientId,
    chan: Option<LoopbackChannel>,
    /// An eager round-0 join went out at connect and has not yet been
    /// matched with an announce.
    eager: bool,
}

impl Member {
    /// Connects `id` to the coordinator and sends the eager join, as a
    /// session client does at connect time.
    ///
    /// # Errors
    ///
    /// The acceptor is gone.
    pub fn connect(hub: &LoopbackHub, id: ClientId) -> Result<Member, String> {
        let mut chan = hub
            .connect(&format!("client-{id}"))
            .map_err(|e| format!("client {id} connect: {e}"))?;
        let join = Envelope::new(StageTag::Join, 0, codec::encode_join(id)).encode();
        chan.send(&join)
            .map_err(|e| format!("client {id} join: {e}"))?;
        Ok(Member {
            id,
            chan: Some(chan),
            eager: true,
        })
    }
}

/// A seated member's state for the round in flight.
struct Live {
    client: Client,
    plan: ChunkPlan,
}

/// The fleet: members plus the codec tallies.
pub struct Fleet {
    workload: Arc<Workload>,
    hub: LoopbackHub,
    members: Vec<Member>,
    tracer: Tracer,
    retain: Retain,
    summary: FleetSummary,
}

impl Fleet {
    /// A fleet over already-connected `members`.
    #[must_use]
    pub fn new(
        workload: Arc<Workload>,
        hub: LoopbackHub,
        members: Vec<Member>,
        tracer: Tracer,
        retain: Retain,
    ) -> Fleet {
        Fleet {
            workload,
            hub,
            members,
            tracer,
            retain,
            summary: FleetSummary::default(),
        }
    }

    /// Serves rounds until the session ends, reporting each round on
    /// `rounds`.
    ///
    /// # Errors
    ///
    /// Any protocol surprise: an unexpected frame, a closed channel, a
    /// client state-machine abort, or a Setup whose cohort differs from
    /// the predicted one.
    pub fn run(mut self, rounds: &Sender<FleetRound>) -> Result<FleetSummary, String> {
        loop {
            let cpu0 = thread_cpu_ns();
            let Some((round, claims)) = self.announce_phase()? else {
                return Ok(self.summary);
            };
            let w = Arc::clone(&self.workload);
            let seated = match w.spec.claims() {
                Some(sample) => predicted_seating(&claims, &sample),
                None => w.population(),
            };
            let scripted = w.scripted_droppers(round, &seated);
            let mut report = FleetRound {
                round,
                seated: seated.clone(),
                scripted: scripted.clone(),
                submitted_sum: vec![0; w.spec.dim],
                clean_sum: if w.spec.xnoise {
                    vec![0; w.spec.dim]
                } else {
                    Vec::new()
                },
                inputs: match (self.retain, self.summary.rounds) {
                    (Retain::All, _) | (Retain::First, 0) => Some(BTreeMap::new()),
                    _ => None,
                },
                cpu_ns: 0,
            };
            let mut live = self.setup_phase(round, &seated, &scripted, &mut report)?;
            self.stage_sweeps(round, &scripted, &mut live)?;
            report.cpu_ns = thread_cpu_ns() - cpu0;
            if self.summary.rounds == 0 {
                // The warm-up round is not measured: start the codec
                // tallies after it.
                self.summary = FleetSummary::default();
            } else {
                self.summary.client_rounds += seated.len() as u64;
            }
            self.summary.rounds += 1;
            rounds
                .send(report)
                .map_err(|_| "coordinator stopped listening".to_string())?;
        }
    }

    /// Reads one frame from member `idx` and decodes its envelope.
    fn recv(&mut self, idx: usize) -> Result<Envelope, String> {
        let on = self.tracer.on();
        let m = &mut self.members[idx];
        let chan = m
            .chan
            .as_mut()
            .ok_or_else(|| format!("client {} has no connection", m.id))?;
        let frame = chan
            .recv_deadline(Instant::now() + RECV_TIMEOUT)
            .map_err(|e| format!("client {} recv: {e}", m.id))?;
        self.summary.decode.count(frame.len());
        let env = self
            .summary
            .decode
            .time(on, || Envelope::decode(&frame))
            .map_err(|e| format!("client {} decode: {e}", m.id))?;
        chan.recycle_frame(frame);
        Ok(env)
    }

    /// Encodes `body()` into a `tag` envelope and sends it from member
    /// `idx`.
    fn send(
        &mut self,
        idx: usize,
        tag: StageTag,
        round: u64,
        chunk: Option<u16>,
        body: impl FnOnce() -> Vec<u8>,
    ) -> Result<(), String> {
        let on = self.tracer.on();
        let frame = self.summary.encode.time(on, || {
            let body = body();
            match chunk {
                Some(c) => Envelope::chunked(tag, round, c, body),
                None => Envelope::new(tag, round, body),
            }
            .encode()
        });
        self.summary.encode.count(frame.len());
        let m = &mut self.members[idx];
        m.chan
            .as_mut()
            .ok_or_else(|| format!("client {} has no connection", m.id))?
            .send(&frame)
            .map_err(|e| format!("client {} send {tag:?}: {e}", m.id))
    }

    /// Answers the round's announce on every connection: a VRF claim or
    /// a decline under claims seating, a join under roster seating.
    /// Returns `None` once the session has ended.
    fn announce_phase(&mut self) -> Result<Option<(u64, Vec<ParticipationClaim>)>, String> {
        let w = Arc::clone(&self.workload);
        let mut round = None;
        let mut ended = 0;
        let mut claims = Vec::new();
        for idx in 0..self.members.len() {
            let id = self.members[idx].id;
            let env = self.recv(idx)?;
            match env.stage {
                StageTag::SessionEnd => ended += 1,
                StageTag::RoundAnnounce => {
                    let r = env.round;
                    if *round.get_or_insert(r) != r {
                        return Err(format!("announces for rounds {round:?} and {r}"));
                    }
                    let claims_required =
                        codec::decode_announce(&env.body).map_err(|e| e.to_string())?;
                    if claims_required {
                        self.members[idx].eager = false;
                        match self
                            .tracer
                            .span("fleet", "self_select", r, || w.claim(r, id))
                        {
                            Some(claim) => {
                                self.send(idx, StageTag::Join, r, None, || {
                                    codec::encode_join_claim(id, &encode_claim(&claim))
                                })?;
                                claims.push(claim);
                            }
                            None => self
                                .send(idx, StageTag::Decline, r, None, || codec::encode_join(id))?,
                        }
                    } else if self.members[idx].eager {
                        // The connect-time join already answers this
                        // announce.
                        self.members[idx].eager = false;
                    } else {
                        self.send(idx, StageTag::Join, r, None, || codec::encode_join(id))?;
                    }
                }
                other => return Err(format!("client {id}: expected an announce, got {other:?}")),
            }
        }
        match (round, ended) {
            (None, n) if n == self.members.len() => Ok(None),
            (Some(r), 0) => Ok(Some((r, claims))),
            _ => Err(format!(
                "{ended} of {} connections saw the session end mid-announce",
                self.members.len()
            )),
        }
    }

    /// Receives Setup on every seated member, builds its input and
    /// state machine, and advertises its keys.
    fn setup_phase(
        &mut self,
        round: u64,
        seated: &[ClientId],
        scripted: &[ClientId],
        report: &mut FleetRound,
    ) -> Result<BTreeMap<ClientId, Live>, String> {
        let w = Arc::clone(&self.workload);
        let tracer = self.tracer.clone();
        let ring = (1u64 << w.spec.bit_width) - 1;
        let mut live = BTreeMap::new();
        for &id in seated {
            let idx = id as usize;
            let env = self.recv(idx)?;
            if env.stage != StageTag::Setup || env.round != round {
                return Err(format!(
                    "client {id}: expected Setup of round {round}, got {:?} of round {}",
                    env.stage, env.round
                ));
            }
            let on = tracer.on();
            let (params, chunks, cohort, _payload) = self
                .summary
                .decode
                .time(on, || codec::decode_setup(&env.body))
                .map_err(|e| e.to_string())?;
            if params.clients != seated {
                return Err(format!(
                    "round {round}: coordinator seated {:?}, fleet predicted {seated:?}",
                    params.clients
                ));
            }
            let plan = ChunkPlan::aligned(
                params.vector_len,
                usize::from(chunks.max(1)),
                params.bit_width,
            )
            .map_err(|e| format!("chunk plan: {e}"))?;
            let (input, clean) = w.input(round, id, usize::from(cohort), &tracer)?;
            if !scripted.contains(&id) {
                add_into(&mut report.submitted_sum, &input.vector, ring);
                if let Some(clean) = &clean {
                    add_into(&mut report.clean_sum, clean, ring);
                }
            }
            if let Some(kept) = report.inputs.as_mut() {
                kept.insert(id, input.clone());
            }
            let mut rng = client_rng(round_rng_seed(w.seed, round), id);
            let mut client = tracer
                .span("fleet", "client_new", round, || {
                    Client::new(params, id, input, None, &mut rng)
                })
                .map_err(|e| format!("client {id} new: {e}"))?;
            let adv = tracer
                .span("fleet", "advertise", round, || client.advertise_keys())
                .map_err(|e| format!("client {id} advertise: {e}"))?;
            self.send(idx, StageTag::AdvertiseKeys, round, None, || adv.encoded())?;
            live.insert(id, Live { client, plan });
        }
        Ok(live)
    }

    /// Serves the round's remaining stages, one sweep per stage, until
    /// every live member has seen `Finished`.
    fn stage_sweeps(
        &mut self,
        round: u64,
        scripted: &[ClientId],
        live: &mut BTreeMap<ClientId, Live>,
    ) -> Result<(), String> {
        let w = Arc::clone(&self.workload);
        let tracer = self.tracer.clone();
        let on = tracer.on();
        while !live.is_empty() {
            let ids: Vec<ClientId> = live.keys().copied().collect();
            for id in ids {
                let idx = id as usize;
                let env = self.recv(idx)?;
                env.check_round(round).map_err(|e| e.to_string())?;
                let state = live.get_mut(&id).expect("live member");
                match env.stage {
                    StageTag::Roster => {
                        let roster = self
                            .summary
                            .decode
                            .time(on, || decode_list(&env.body, codec::decode_advertised_keys))
                            .map_err(|e| e.to_string())?;
                        let mut rng = share_keys_rng(round_rng_seed(w.seed, round), id);
                        let cts = tracer
                            .span("fleet", "share_keys", round, || {
                                state.client.share_keys(&roster, &mut rng)
                            })
                            .map_err(|e| format!("client {id} share_keys: {e}"))?;
                        self.send(idx, StageTag::ShareKeys, round, None, || {
                            codec::encode_list(&cts)
                        })?;
                    }
                    StageTag::Inbox => {
                        let inbox = self
                            .summary
                            .decode
                            .time(on, || {
                                decode_list(&env.body, codec::decode_encrypted_shares)
                            })
                            .map_err(|e| e.to_string())?;
                        let masked = tracer
                            .span("fleet", "masked_input", round, || {
                                state.client.masked_input(inbox)
                            })
                            .map_err(|e| format!("client {id} masked_input: {e}"))?;
                        let parts =
                            split_masked_input(&masked, &state.plan).map_err(|e| e.to_string())?;
                        let stop = if scripted.contains(&id) {
                            let k = usize::from(w.spec.drop_after_chunks);
                            if k >= parts.len() {
                                return Err(format!(
                                    "a drop after {k} chunks cannot fire: the round has {} chunks",
                                    parts.len()
                                ));
                            }
                            k
                        } else {
                            parts.len()
                        };
                        for (c, part) in parts.iter().take(stop).enumerate() {
                            self.send(idx, StageTag::MaskedInput, round, Some(c as u16), || {
                                part.encoded()
                            })?;
                        }
                        if stop < parts.len() {
                            // Mid-stream drop: disconnect, then come back
                            // for the next round.
                            live.remove(&id);
                            self.members[idx].chan = None;
                            self.members[idx] = Member::connect(&self.hub, id)?;
                        }
                    }
                    StageTag::SurvivorSet => {
                        let IdList(u3) = self
                            .summary
                            .decode
                            .time(on, || codec::decode_id_list(&env.body))
                            .map_err(|e| e.to_string())?;
                        let resp = tracer
                            .span("fleet", "unmask", round, || state.client.unmask(&u3, None))
                            .map_err(|e| format!("client {id} unmask: {e}"))?;
                        self.send(idx, StageTag::Unmasking, round, None, || resp.encoded())?;
                    }
                    StageTag::ReadySet => {
                        let IdList(u5) = self
                            .summary
                            .decode
                            .time(on, || codec::decode_id_list(&env.body))
                            .map_err(|e| e.to_string())?;
                        let resp = tracer
                            .span("fleet", "noise_shares", round, || {
                                state.client.noise_shares(&u5)
                            })
                            .map_err(|e| format!("client {id} noise_shares: {e}"))?;
                        self.send(idx, StageTag::NoiseShares, round, None, || resp.encoded())?;
                    }
                    StageTag::Finished => {
                        live.remove(&id);
                    }
                    StageTag::Abort => {
                        return Err(format!(
                            "client {id}: coordinator aborted: {}",
                            codec::decode_abort(&env.body)
                        ))
                    }
                    other => return Err(format!("client {id}: unexpected {other:?}")),
                }
            }
        }
        Ok(())
    }
}

/// `acc += v` element-wise in `Z_{2^b}` (`ring = 2^b - 1`).
fn add_into(acc: &mut [u64], v: &[u64], ring: u64) {
    for (a, x) in acc.iter_mut().zip(v) {
        *a = a.wrapping_add(*x) & ring;
    }
}
