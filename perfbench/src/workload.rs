//! The benchmark's workloads: everything a round needs that is derived
//! from the workload seed — population, seating, round parameters,
//! client inputs and the scripted dropouts.
//!
//! Both the coordinator side and the fleet derive from the same
//! [`Workload`], so the fleet can predict the seated cohort and the
//! coordinator can check that exactly the scripted clients dropped.

use dordis_core::sampling::{self_select, ParticipationClaim, SamplingConfig};
use dordis_core::session::vrf_key_for;
use dordis_crypto::prg::{Prg, Seed};
use dordis_crypto::vrf::VrfSecretKey;
use dordis_dp::encoding::{Encoder, EncodingConfig};
use dordis_dp::mechanism::gaussian_vector;
use dordis_secagg::client::ClientInput;
use dordis_secagg::graph::MaskingGraph;
use dordis_secagg::{ClientId, RoundParams, ThreatModel};
use dordis_xnoise::decomposition::XNoisePlan;
use dordis_xnoise::enforcement::{derive_component_seeds, perturb};

use crate::trace::Tracer;

/// Per-coordinate variance of the noise the aggregate must carry after
/// excess removal. Every XNoise component then has a Skellam mean of at
/// least 30, the regime the paper's noise sizes live in.
pub const TARGET_VARIANCE: f64 = 65_536.0;

/// How a round's cohort is chosen.
#[derive(Clone, Copy, Debug)]
pub enum SeatingSpec {
    /// The whole population is the fixed roster every round.
    Roster,
    /// VRF self-selection claims, verified and trimmed by the
    /// coordinator (`core::sampling::seat_claims`).
    Claims(SamplingConfig),
}

/// Which masking graph a cohort of `n` uses.
#[derive(Clone, Copy, Debug)]
pub enum GraphSpec {
    /// Everyone masks with everyone.
    Complete,
    /// `MaskingGraph::recommended(n)` (sparse Harary above 32 clients).
    Recommended,
}

/// The shape of one workload.
#[derive(Clone, Debug)]
pub struct Spec {
    /// Workload name, as given on the command line.
    pub name: &'static str,
    /// Population size (every member holds one loopback connection).
    pub population: u32,
    /// Cohort choice per round.
    pub seating: SeatingSpec,
    /// Masking graph.
    pub graph: GraphSpec,
    /// Vector length (a power of two when `xnoise` is set, so the
    /// encoder adds no padding).
    pub dim: usize,
    /// Ring bit width.
    pub bit_width: u32,
    /// Requested chunk count for the data plane.
    pub chunks: usize,
    /// `Encoder`-encoded updates, XNoise with `T = n/2`, excess removal,
    /// decode and a privacy-ledger record per round.
    pub xnoise: bool,
    /// Scripted mid-stream droppers per round.
    pub droppers: usize,
    /// Masked-input chunk frames a dropper sends before disconnecting.
    pub drop_after_chunks: u16,
}

impl Spec {
    /// The paper's headline path: VRF-seated cohorts of 16 out of 100,
    /// encoded updates, XNoise with `T = n/2`, two droppers. Twofold
    /// over-selection makes fewer than 16 claims a ~1-in-3000 round, so
    /// the cohort size — and with it the noise work per round — stays
    /// the same from seed to seed.
    #[must_use]
    pub fn xnoise_dropout() -> Spec {
        Spec {
            name: "xnoise-dropout",
            population: 100,
            seating: SeatingSpec::Claims(SamplingConfig {
                target_sample: 16,
                population: 100,
                over_selection: 2.0,
            }),
            graph: GraphSpec::Complete,
            dim: 8192,
            bit_width: 20,
            chunks: 4,
            xnoise: true,
            droppers: 2,
            drop_after_chunks: 2,
        }
    }

    /// Many clients, small updates: 128 seated on a sparse graph.
    #[must_use]
    pub fn wide_cohort() -> Spec {
        Spec {
            name: "wide-cohort",
            population: 128,
            seating: SeatingSpec::Roster,
            graph: GraphSpec::Recommended,
            dim: 1024,
            bit_width: 16,
            chunks: 4,
            xnoise: false,
            droppers: 2,
            drop_after_chunks: 2,
        }
    }

    /// Few clients, large updates: 8 clients, 2^20 elements, 16 chunks.
    #[must_use]
    pub fn deep_model() -> Spec {
        Spec {
            name: "deep-model",
            population: 8,
            seating: SeatingSpec::Roster,
            graph: GraphSpec::Complete,
            dim: 1 << 20,
            bit_width: 16,
            chunks: 16,
            xnoise: false,
            droppers: 1,
            drop_after_chunks: 8,
        }
    }

    /// The named workload, if there is one.
    #[must_use]
    pub fn named(name: &str) -> Option<Spec> {
        [
            Spec::xnoise_dropout(),
            Spec::wide_cohort(),
            Spec::deep_model(),
        ]
        .into_iter()
        .find(|s| s.name == name)
    }

    /// Whether seating goes through VRF claims.
    #[must_use]
    pub fn claims(&self) -> Option<SamplingConfig> {
        match self.seating {
            SeatingSpec::Claims(sample) => Some(sample),
            SeatingSpec::Roster => None,
        }
    }
}

/// A workload instantiated for one seed: the spec plus every artefact
/// derived from the seed before the first round.
pub struct Workload {
    /// The shape.
    pub spec: Spec,
    /// The workload seed.
    pub seed: u64,
    root: Seed,
    /// Per-member VRF keys (claims seating only).
    vrf_keys: Vec<VrfSecretKey>,
    /// Per-member raw updates (XNoise workloads) — encoded every round.
    updates: Vec<Vec<f64>>,
    /// Per-member ring vectors (plain workloads) — submitted every round.
    inputs: Vec<Vec<u64>>,
    /// The DSkellam encoding (XNoise workloads).
    pub encoding: EncodingConfig,
}

impl Workload {
    /// Derives every per-member artefact from `seed`.
    #[must_use]
    pub fn new(spec: Spec, seed: u64) -> Workload {
        let mut root = [0u8; 32];
        root[..8].copy_from_slice(&seed.to_le_bytes());
        root[8..16].copy_from_slice(b"perfbnch");
        let members = spec.population;
        let vrf_keys = match spec.seating {
            SeatingSpec::Claims(_) => (0..members).map(|id| vrf_key_for(seed, id)).collect(),
            SeatingSpec::Roster => Vec::new(),
        };
        let encoding = EncodingConfig {
            bit_width: spec.bit_width,
            ..EncodingConfig::default()
        };
        let (updates, inputs) = if spec.xnoise {
            // Norm ≈ 0.9, inside the clip bound: clipping never rescales.
            let sigma = 0.9 / (spec.dim as f64).sqrt();
            let updates = (0..members)
                .map(|id| {
                    gaussian_vector(
                        &Prg::fork(&root, b"perfbench.update", u64::from(id)),
                        b"perfbench.update",
                        spec.dim,
                        sigma,
                    )
                })
                .collect();
            (updates, Vec::new())
        } else {
            let inputs = (0..members)
                .map(|id| {
                    let mut v = vec![0u64; spec.dim];
                    Prg::new(
                        &Prg::fork(&root, b"perfbench.input", u64::from(id)),
                        b"perfbench.input",
                    )
                    .fill_mod2b(spec.bit_width, &mut v);
                    v
                })
                .collect();
            (Vec::new(), inputs)
        };
        Workload {
            spec,
            seed,
            root,
            vrf_keys,
            updates,
            inputs,
            encoding,
        }
    }

    /// Every population member's id.
    #[must_use]
    pub fn population(&self) -> Vec<ClientId> {
        (0..self.spec.population).collect()
    }

    /// The round parameters for a seated cohort (the coordinator's
    /// `params_for`; the same values feed the reference driver).
    #[must_use]
    pub fn params(&self, round: u64, cohort: &[ClientId]) -> RoundParams {
        let n = cohort.len();
        RoundParams {
            round,
            clients: cohort.to_vec(),
            threshold: n / 2 + 1,
            bit_width: self.spec.bit_width,
            vector_len: self.spec.dim,
            noise_components: if self.spec.xnoise { n / 2 } else { 0 },
            threat_model: ThreatModel::SemiHonest,
            graph: match self.spec.graph {
                GraphSpec::Complete => MaskingGraph::Complete,
                GraphSpec::Recommended => MaskingGraph::recommended(n),
            },
        }
    }

    /// The XNoise plan for a cohort of `n`: tolerance `T = n/2`, no
    /// collusion inflation, so the residual after removal is exactly
    /// [`TARGET_VARIANCE`].
    ///
    /// # Errors
    ///
    /// Cohorts too small for a plan.
    pub fn xnoise_plan(&self, n: usize) -> Result<XNoisePlan, String> {
        XNoisePlan::new(TARGET_VARIANCE, n, n / 2, 0, n / 2 + 1).map_err(|e| e.to_string())
    }

    /// Member `id`'s VRF participation claim for `round`, if it
    /// self-selects.
    #[must_use]
    pub fn claim(&self, round: u64, id: ClientId) -> Option<ParticipationClaim> {
        let sample = self.spec.claims()?;
        self_select(&self.vrf_keys[id as usize], id, round, &sample)
    }

    /// The clients scripted to drop mid-stream in `round`, given the
    /// seated cohort: `droppers` of them, evenly spread from a
    /// seed-and-round dependent offset.
    #[must_use]
    pub fn scripted_droppers(&self, round: u64, cohort: &[ClientId]) -> Vec<ClientId> {
        let n = cohort.len();
        let k = self.spec.droppers.min(n.saturating_sub(n / 2 + 1));
        if k == 0 {
            return Vec::new();
        }
        let offset = splitmix(self.seed ^ round.wrapping_mul(0xA24B_AED4_963E_E407)) as usize % n;
        let mut out: Vec<ClientId> = (0..k).map(|j| cohort[(offset + j * n / k) % n]).collect();
        out.sort_unstable();
        out
    }

    /// Member `id`'s input for `round` in a cohort of `cohort` clients,
    /// plus, for XNoise workloads, the noiseless encoding it carries.
    ///
    /// # Errors
    ///
    /// Encoding or noise-plan failures.
    pub fn input(
        &self,
        round: u64,
        id: ClientId,
        cohort: usize,
        tracer: &Tracer,
    ) -> Result<(ClientInput, Option<Vec<u64>>), String> {
        if !self.spec.xnoise {
            let input = ClientInput {
                vector: self.inputs[id as usize].clone(),
                noise_seeds: Vec::new(),
            };
            return Ok((input, None));
        }
        let plan = self.xnoise_plan(cohort)?;
        let per_client = (round << 20) ^ u64::from(id);
        let rounding = Prg::fork(&self.root, b"perfbench.rounding", per_client);
        let clean = tracer
            .span("fleet", "encode", round, || {
                self.encoder(round)
                    .encode(&self.updates[id as usize], &rounding)
            })
            .map_err(|e| format!("encode: {e}"))?;
        let seeds = derive_component_seeds(
            &Prg::fork(&self.root, b"perfbench.noise", per_client),
            plan.dropout_tolerance,
        );
        let mut vector = clean.clone();
        tracer
            .span("fleet", "perturb", round, || {
                perturb(&mut vector, &seeds, &plan, self.spec.bit_width)
            })
            .map_err(|e| format!("perturb: {e}"))?;
        let input = ClientInput {
            vector,
            noise_seeds: seeds,
        };
        Ok((input, Some(clean)))
    }

    /// The round's shared encoding rotation.
    #[must_use]
    pub fn rotation(&self, round: u64) -> Seed {
        Prg::fork(&self.root, b"perfbench.rotation", round)
    }

    /// The decoder for `round`'s aggregate.
    #[must_use]
    pub fn encoder(&self, round: u64) -> Encoder<'_> {
        Encoder::new(&self.encoding, self.rotation(round))
    }
}

/// The splitmix64 finalizer.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The cohort the coordinator's `seat_claims` will seat from these
/// claims, assuming every claim verifies: ascending VRF selection value
/// (the first 8 output bytes), trimmed to the target size.
#[must_use]
pub fn predicted_seating(claims: &[ParticipationClaim], sample: &SamplingConfig) -> Vec<ClientId> {
    let mut ranked: Vec<(u64, ClientId)> = claims
        .iter()
        .map(|c| {
            let value = u64::from_le_bytes(c.output[..8].try_into().expect("8 bytes"));
            (value, c.client)
        })
        .collect();
    ranked.sort_unstable();
    ranked.truncate(sample.target_sample);
    ranked.into_iter().map(|(_, id)| id).collect()
}
