//! The client-side protocol state machine.
//!
//! One method per stage of Figure 5; each consumes the server's previous
//! broadcast and produces this client's next message, or an error if a
//! consistency check fails (in which case the client aborts for the rest
//! of the round — honest clients never continue past a detected attack).

use std::collections::BTreeMap;
use std::sync::Arc;

use dordis_crypto::aead;
use dordis_crypto::ed25519::{Signature, SigningKey, VerifyingKey};
use dordis_crypto::ka::KeyPair;
use dordis_crypto::prg::Seed;
use dordis_crypto::shamir::{self, Share};
use rand::Rng;

use crate::mask;
use crate::messages::{
    AdvertisedKeys, ConsistencySignature, EncryptedShares, MaskedInput, NoiseShareResponse,
    ShareBundle, UnmaskingResponse,
};
use crate::{ClientId, RoundParams, SecAggError, ThreatModel};

/// A client's per-round secret input.
#[derive(Clone, Debug)]
pub struct ClientInput {
    /// The (already DP-perturbed, encoded) update in `Z_{2^b}`.
    pub vector: Vec<u64>,
    /// XNoise seeds `g_{u,0..=T}`; must be `noise_components + 1` long, or
    /// empty when XNoise is disabled. Component 0 is never shared or
    /// revealed.
    pub noise_seeds: Vec<Seed>,
}

/// Identity material in the malicious model: the client's signing key plus
/// the PKI registry mapping every id to its verification key.
#[derive(Clone)]
pub struct Identity {
    /// This client's long-term signing key.
    pub signing: SigningKey,
    /// The PKI: everyone's verification keys.
    pub registry: Arc<BTreeMap<ClientId, VerifyingKey>>,
}

/// Client state machine.
pub struct Client {
    params: RoundParams,
    id: ClientId,
    input: ClientInput,
    identity: Option<Identity>,
    c_kp: KeyPair,
    s_kp: KeyPair,
    b_seed: Seed,
    /// Roster after AdvertiseKeys: id -> (c_pk, s_pk).
    u1: BTreeMap<ClientId, ([u8; 32], [u8; 32])>,
    /// Clients whose ciphertexts we received (U2), in id order.
    u2: Vec<ClientId>,
    /// Ciphertexts received, keyed by sender; opened (and dropped) at
    /// Unmasking.
    inbox: BTreeMap<ClientId, Vec<u8>>,
    /// The c-key AEAD key agreed with each ShareKeys recipient, kept until
    /// Unmasking opens that peer's bundle without a second `KA.agree`.
    peer_keys: BTreeMap<ClientId, [u8; 32]>,
    /// XNoise seed shares from the bundles of U3 senders, opened and
    /// checked at Unmasking; stage 5 reveals those of `U3 \ U5`.
    peer_seed_shares: BTreeMap<ClientId, Vec<Share>>,
    /// The U3 set this client accepted (set at consistency/unmask).
    u3: Vec<ClientId>,
    /// The U4/U5 supersets for later verification.
    u4: Vec<ClientId>,
    /// This client's own share of its self-mask seed `b_u` (Figure 5
    /// shares over all of U1 including oneself; the self-share is sent
    /// back at Unmasking like any other U3 member's).
    own_b_share: Option<Share>,
    aborted: bool,
}

impl Client {
    /// Creates the client. `input.vector` must match `params.vector_len`
    /// and `input.noise_seeds` must be empty or `T + 1` long.
    ///
    /// # Errors
    ///
    /// Configuration errors (wrong lengths, missing identity in the
    /// malicious model).
    pub fn new<R: Rng>(
        params: RoundParams,
        id: ClientId,
        input: ClientInput,
        identity: Option<Identity>,
        rng: &mut R,
    ) -> Result<Self, SecAggError> {
        if input.vector.len() != params.vector_len {
            return Err(SecAggError::Config(format!(
                "client {id}: vector length {} != {}",
                input.vector.len(),
                params.vector_len
            )));
        }
        let ring = params.ring_mask();
        if input.vector.iter().any(|&v| v > ring) {
            return Err(SecAggError::Config(format!(
                "client {id}: vector coordinate out of ring"
            )));
        }
        if !input.noise_seeds.is_empty() && input.noise_seeds.len() != params.noise_components + 1 {
            return Err(SecAggError::Config(format!(
                "client {id}: expected {} noise seeds, got {}",
                params.noise_components + 1,
                input.noise_seeds.len()
            )));
        }
        if params.threat_model == ThreatModel::Malicious && identity.is_none() {
            return Err(SecAggError::Config(
                "malicious model requires a PKI identity".into(),
            ));
        }
        if !params.clients.contains(&id) {
            return Err(SecAggError::Config(format!("client {id} not sampled")));
        }
        let mut b_seed = [0u8; 32];
        rng.fill(&mut b_seed[..]);
        Ok(Client {
            params,
            id,
            input,
            identity,
            c_kp: KeyPair::generate(rng),
            s_kp: KeyPair::generate(rng),
            b_seed,
            u1: BTreeMap::new(),
            u2: Vec::new(),
            inbox: BTreeMap::new(),
            peer_keys: BTreeMap::new(),
            peer_seed_shares: BTreeMap::new(),
            u3: Vec::new(),
            u4: Vec::new(),
            own_b_share: None,
            aborted: false,
        })
    }

    /// This client's id.
    #[must_use]
    pub fn id(&self) -> ClientId {
        self.id
    }

    fn abort(&mut self, reason: impl Into<String>) -> SecAggError {
        self.aborted = true;
        SecAggError::ClientAbort {
            client: self.id,
            reason: reason.into(),
        }
    }

    fn check_live(&self) -> Result<(), SecAggError> {
        if self.aborted {
            return Err(SecAggError::ClientAbort {
                client: self.id,
                reason: "previously aborted".into(),
            });
        }
        Ok(())
    }

    /// Index of a client id in the sampled set (stable across parties).
    fn index_of(&self, id: ClientId) -> Option<usize> {
        self.params.clients.iter().position(|&c| c == id)
    }

    /// Neighbor ids in the masking graph, restricted to a live set.
    fn neighbors_in(&self, live: &[ClientId]) -> Vec<ClientId> {
        let n = self.params.clients.len();
        let my_idx = self.index_of(self.id).expect("own id sampled");
        live.iter()
            .copied()
            .filter(|&v| {
                v != self.id
                    && self
                        .index_of(v)
                        .is_some_and(|vi| self.params.graph.are_neighbors(n, my_idx, vi))
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Stage 0: AdvertiseKeys.
    // ------------------------------------------------------------------

    /// Produces the key advertisement.
    pub fn advertise_keys(&mut self) -> Result<AdvertisedKeys, SecAggError> {
        self.check_live()?;
        let signature = self.identity.as_ref().map(|ident| {
            let mut msg = Vec::with_capacity(64);
            msg.extend_from_slice(&self.c_kp.public);
            msg.extend_from_slice(&self.s_kp.public);
            ident.signing.sign(&msg)
        });
        Ok(AdvertisedKeys {
            client: self.id,
            c_pk: self.c_kp.public,
            s_pk: self.s_kp.public,
            signature,
        })
    }

    // ------------------------------------------------------------------
    // Stage 1: ShareKeys.
    // ------------------------------------------------------------------

    /// Consumes the broadcast roster; returns encrypted share bundles for
    /// every masking neighbor.
    pub fn share_keys<R: Rng>(
        &mut self,
        roster: &[AdvertisedKeys],
        rng: &mut R,
    ) -> Result<Vec<EncryptedShares>, SecAggError> {
        self.check_live()?;
        if roster.len() < self.params.threshold {
            return Err(self.abort(format!("|U1| = {} < t", roster.len())));
        }
        // All public keys must be distinct (Figure 5 assertion).
        let mut all_keys: Vec<[u8; 32]> = Vec::with_capacity(roster.len() * 2);
        for adv in roster {
            all_keys.push(adv.c_pk);
            all_keys.push(adv.s_pk);
        }
        all_keys.sort_unstable();
        if all_keys.windows(2).any(|w| w[0] == w[1]) {
            return Err(self.abort("duplicate public keys in roster"));
        }
        // Verify identity signatures in the malicious model.
        if let Some(ident) = &self.identity {
            for adv in roster {
                let vk = ident.registry.get(&adv.client).ok_or_else(|| {
                    SecAggError::Config(format!("no PKI entry for {}", adv.client))
                })?;
                let sig = adv
                    .signature
                    .as_ref()
                    .ok_or_else(|| self_abort_err(self.id, "missing roster signature"))?;
                let mut msg = Vec::with_capacity(64);
                msg.extend_from_slice(&adv.c_pk);
                msg.extend_from_slice(&adv.s_pk);
                if vk.verify(&msg, sig).is_err() {
                    return Err(self.abort(format!("bad roster signature from {}", adv.client)));
                }
            }
        }
        for adv in roster {
            if self.index_of(adv.client).is_none() {
                return Err(self.abort(format!("roster contains unsampled id {}", adv.client)));
            }
            self.u1.insert(adv.client, (adv.c_pk, adv.s_pk));
        }
        if !self.u1.contains_key(&self.id) {
            return Err(self.abort("own advertisement missing from roster"));
        }

        // Determine recipients: masking-graph neighbors that are in U1.
        let u1_ids: Vec<ClientId> = self.u1.keys().copied().collect();
        let recipients = self.neighbors_in(&u1_ids);
        if recipients.is_empty() && u1_ids.len() > 1 {
            return Err(self.abort("no live masking neighbors"));
        }

        // Shamir-share s_sk, b, and the noise seeds — indexed by
        // **neighborhood position**, not global roster index. Shares of a
        // client's secrets only ever reach (and return from) its holder
        // set `{self} ∪ neighbors`, so x-coordinates need only be unique
        // within that set: shares are evaluated at the local coordinates
        // `1..=degree+1`, recipient `v` getting the slot at `v`'s position
        // in the sorted holder list. The server's per-owner share pooling
        // is oblivious to the mapping (shares carry `x` on the wire), and
        // under the complete graph the holder list is the full roster so
        // the local x equals the historical global one bit-for-bit. This
        // cuts share generation from `O(n)` to `O(degree)` evaluations
        // per secret and frees the roster size from GF(256): only
        // `degree + 1 ≤ 255` is required (enforced by `validate`).
        // The client keeps its own b-share (it will return it at
        // Unmasking, per Figure 5's `b_{v,u}` for all `v ∈ U3`). The
        // effective threshold is capped at the masking-graph degree so
        // sparse-graph (SecAgg+) reconstruction remains possible.
        let n = self.params.clients.len();
        let my_idx = self.index_of(self.id).expect("own id sampled");
        let holders = self.params.graph.holders(n, my_idx);
        let local_slot = |idx: usize| holders.binary_search(&idx).ok();
        let t = crate::share_threshold(&self.params);
        let sk_shares = shamir::share(&self.s_kp.secret, t, holders.len(), rng)?;
        let b_shares = shamir::share(&self.b_seed, t, holders.len(), rng)?;
        let own_slot = local_slot(my_idx).expect("owner in holder set");
        self.own_b_share = Some(b_shares[own_slot].clone());
        let mut seed_share_lists: Vec<Vec<Share>> = Vec::new();
        if !self.input.noise_seeds.is_empty() {
            for seed in &self.input.noise_seeds[1..] {
                seed_share_lists.push(shamir::share(seed, t, holders.len(), rng)?);
            }
        }

        let mut out = Vec::with_capacity(recipients.len());
        for &to in recipients.iter() {
            let slot = self
                .index_of(to)
                .and_then(local_slot)
                .ok_or_else(|| SecAggError::Config(format!("unknown recipient {to}")))?;
            debug_assert_eq!(sk_shares[slot].x, (slot + 1) as u8);
            let bundle = ShareBundle {
                from: self.id,
                to,
                sk_share: sk_shares[slot].clone(),
                b_share: b_shares[slot].clone(),
                seed_shares: seed_share_lists.iter().map(|l| l[slot].clone()).collect(),
            };
            let (c_pk, _) = self.u1[&to];
            let key = self.c_kp.agree(&c_pk);
            self.peer_keys.insert(to, key);
            let aad = aad_for(self.params.round, self.id, to);
            let ciphertext = aead::seal(&key, &aad, &bundle.encode(), rng);
            out.push(EncryptedShares {
                from: self.id,
                to,
                ciphertext,
            });
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Stage 2: MaskedInputCollection.
    // ------------------------------------------------------------------

    /// Consumes routed ciphertexts; returns the masked input `y_u`.
    pub fn masked_input(
        &mut self,
        ciphertexts: Vec<EncryptedShares>,
    ) -> Result<MaskedInput, SecAggError> {
        self.check_live()?;
        for ct in ciphertexts {
            if ct.to != self.id {
                return Err(self.abort("misrouted ciphertext"));
            }
            self.inbox.insert(ct.from, ct.ciphertext);
        }
        // U2 is inferred from the senders, plus ourselves.
        let mut u2: Vec<ClientId> = self.inbox.keys().copied().collect();
        u2.push(self.id);
        u2.sort_unstable();
        u2.dedup();
        // In sparse graphs a client only hears from its neighbors, so the
        // threshold check is against neighbor count when the graph is
        // sparse; Figure 5's |U2| >= t check applies to the complete graph.
        let min_live = self.min_live_neighbors();
        if self.inbox.len() < min_live {
            return Err(self.abort(format!(
                "only {} ciphertexts received, need {min_live}",
                self.inbox.len()
            )));
        }
        self.u2 = u2;

        let bits = self.params.bit_width;
        let mut y = self.input.vector.clone();
        // Self mask, fused: the keystream accumulates straight into `y`
        // (no per-mask vector is materialized; bit-equal by
        // `mask::tests::fused_expansion_equals_materialized`).
        mask::add_self_mask_assign(&mut y, &self.b_seed, 0, true, bits);
        // Pairwise masks with every live neighbor.
        let neighbors = self.neighbors_in(&self.u2.clone());
        for v in neighbors {
            let (_, s_pk_v) = self.u1[&v];
            let s_uv = self.s_kp.agree(&s_pk_v);
            mask::add_pairwise_mask_assign(&mut y, &s_uv, 0, self.id > v, bits);
        }
        Ok(MaskedInput {
            client: self.id,
            vector: y,
            bit_width: bits,
        })
    }

    /// Minimum ciphertexts a client must receive before proceeding: `t-1`
    /// in the complete graph, a 2/3 quorum of its degree in sparse graphs.
    fn min_live_neighbors(&self) -> usize {
        let n = self.params.clients.len();
        let deg = self.params.graph.degree(n);
        if deg + 1 >= n {
            self.params.threshold.saturating_sub(1)
        } else {
            (2 * deg).div_ceil(3)
        }
    }

    // ------------------------------------------------------------------
    // Stage 3: ConsistencyCheck (malicious model).
    // ------------------------------------------------------------------

    /// Signs the broadcast U3 set.
    pub fn consistency_check(
        &mut self,
        u3: &[ClientId],
    ) -> Result<ConsistencySignature, SecAggError> {
        self.check_live()?;
        self.accept_u3(u3)?;
        let ident = self
            .identity
            .as_ref()
            .ok_or_else(|| SecAggError::Config("consistency check requires identity".into()))?;
        let signature = ident.signing.sign(&u3_message(self.params.round, u3));
        Ok(ConsistencySignature {
            client: self.id,
            signature,
        })
    }

    fn accept_u3(&mut self, u3: &[ClientId]) -> Result<(), SecAggError> {
        if u3.len() < self.params.threshold {
            return Err(self.abort(format!("|U3| = {} < t", u3.len())));
        }
        if !u3.contains(&self.id) {
            return Err(self.abort("excluded from U3 despite having responded"));
        }
        // Subset check: a client can only vouch for ids it actually heard
        // from, which in a sparse masking graph is its neighborhood. Every
        // claimed survivor within our neighborhood must have shared keys
        // with us; ids outside the neighborhood are other clients'
        // responsibility.
        let n = self.params.clients.len();
        let my_idx = self.index_of(self.id).expect("own id sampled");
        for &v in u3 {
            let Some(vi) = self.index_of(v) else {
                return Err(self.abort(format!("U3 contains unsampled id {v}")));
            };
            if v != self.id
                && self.params.graph.are_neighbors(n, my_idx, vi)
                && !self.u2.contains(&v)
            {
                return Err(self.abort("U3 not a subset of U2 within neighborhood"));
            }
        }
        let mut sorted = u3.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != u3.len() {
            return Err(self.abort("duplicate ids in U3"));
        }
        self.u3 = sorted;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Stage 4: Unmasking.
    // ------------------------------------------------------------------

    /// Produces the unmasking response.
    ///
    /// In the semi-honest model, `u3` is the server's broadcast of
    /// surviving clients and `signatures` is `None`. In the malicious
    /// model, `u3` is the set fixed at `consistency_check` and
    /// `signatures` carries `{(v, ω'_v)}` for `v ∈ U4`, which must verify
    /// over `round ‖ U3` against the PKI — the defence against a server
    /// understating dropout (§3.3).
    pub fn unmask(
        &mut self,
        u3: &[ClientId],
        signatures: Option<&[(ClientId, Signature)]>,
    ) -> Result<UnmaskingResponse, SecAggError> {
        self.check_live()?;
        match self.params.threat_model {
            ThreatModel::SemiHonest => {
                self.accept_u3(u3)?;
            }
            ThreatModel::Malicious => {
                // U3 was fixed at consistency_check; the server's claim
                // must match and carry >= t valid signatures over it.
                if self.u3.is_empty() {
                    return Err(self.abort("unmask before consistency check"));
                }
                let mut claimed = u3.to_vec();
                claimed.sort_unstable();
                if claimed != self.u3 {
                    return Err(self.abort("server's U3 differs from the signed set"));
                }
                let sigs = signatures
                    .ok_or_else(|| self_abort_err(self.id, "missing consistency signatures"))?;
                if sigs.len() < self.params.threshold {
                    self.aborted = true;
                    return Err(SecAggError::ClientAbort {
                        client: self.id,
                        reason: format!("|U4| = {} < t", sigs.len()),
                    });
                }
                let ident = self
                    .identity
                    .as_ref()
                    .expect("malicious model has identity");
                let msg = u3_message(self.params.round, &self.u3);
                let mut u4 = Vec::with_capacity(sigs.len());
                for (v, sig) in sigs {
                    if !self.u3.contains(v) {
                        return Err(self.abort("U4 not a subset of U3"));
                    }
                    let vk = ident
                        .registry
                        .get(v)
                        .ok_or_else(|| SecAggError::Config(format!("no PKI entry for {v}")))?;
                    if vk.verify(&msg, sig).is_err() {
                        return Err(self.abort(format!("invalid consistency signature from {v}")));
                    }
                    u4.push(*v);
                }
                self.u4 = u4;
            }
        }

        // Decrypt every received bundle, verifying addressing, and answer
        // with s_sk shares for dropped senders (U2 \ U3) and b shares for
        // alive ones (U3), plus our own b share (we are in U3, or we would
        // not be here). The key is the one agreed at ShareKeys (its last
        // use): the graph is symmetric, so every honest sender is one of
        // our ShareKeys recipients, and a ciphertext from anyone else is
        // misrouted.
        let mut sk_shares = Vec::new();
        let mut b_shares = Vec::new();
        if let Some(own) = self.own_b_share.clone() {
            b_shares.push((self.id, own));
        }
        for (from, ct) in std::mem::take(&mut self.inbox) {
            let Some(key) = self.peer_keys.remove(&from) else {
                return Err(self.abort(format!("ciphertext from {from}, not a ShareKeys peer")));
            };
            let aad = aad_for(self.params.round, from, self.id);
            let plain = match aead::open(&key, &aad, &ct) {
                Ok(p) => p,
                Err(_) => return Err(self.abort(format!("ciphertext from {from} failed AEAD"))),
            };
            let bundle = ShareBundle::decode(&plain)
                .ok_or_else(|| self_abort_err(self.id, "malformed share bundle"))?;
            if bundle.from != from || bundle.to != self.id {
                return Err(self.abort("share bundle addressing mismatch"));
            }
            if self.u3.contains(&from) {
                b_shares.push((from, bundle.b_share));
                self.peer_seed_shares.insert(from, bundle.seed_shares);
            } else {
                sk_shares.push((from, bundle.sk_share));
            }
        }
        let own_seeds = self.removal_seed_range().map_or_else(Vec::new, |range| {
            range
                .map(|k| (k, self.input.noise_seeds[k]))
                .collect::<Vec<_>>()
        });
        Ok(UnmaskingResponse {
            client: self.id,
            sk_shares,
            b_shares,
            own_seeds,
        })
    }

    /// The XNoise component indices to reveal: `|U \ U3| + 1 ..= T`.
    fn removal_seed_range(&self) -> Option<std::ops::RangeInclusive<usize>> {
        if self.input.noise_seeds.is_empty() {
            return None;
        }
        let t_cap = self.params.noise_components;
        let dropped = self.params.clients.len() - self.u3.len();
        if dropped >= t_cap {
            return None;
        }
        Some((dropped + 1)..=t_cap)
    }

    // ------------------------------------------------------------------
    // Stage 5: ExcessiveNoiseRemoval.
    // ------------------------------------------------------------------

    /// Returns shares of noise seeds owned by clients in `U3 \ U5` (those
    /// whose masked input is in the sum but who dropped before reporting
    /// their own seeds).
    pub fn noise_shares(&mut self, u5: &[ClientId]) -> Result<NoiseShareResponse, SecAggError> {
        self.check_live()?;
        if u5.len() < self.params.threshold {
            return Err(self.abort(format!("|U5| = {} < t", u5.len())));
        }
        if !u5.iter().all(|v| self.u3.contains(v)) {
            return Err(self.abort("U5 not a subset of U3"));
        }
        let range = match self.removal_seed_range() {
            Some(r) => r,
            None => {
                return Ok(NoiseShareResponse {
                    client: self.id,
                    seed_shares: Vec::new(),
                })
            }
        };
        let mut seed_shares = Vec::new();
        for (&from, shares) in &self.peer_seed_shares {
            if u5.contains(&from) {
                continue;
            }
            for k in range.clone() {
                if let Some(share) = shares.get(k - 1) {
                    seed_shares.push((from, k, share.clone()));
                }
            }
        }
        Ok(NoiseShareResponse {
            client: self.id,
            seed_shares,
        })
    }
}

fn self_abort_err(client: ClientId, reason: &str) -> SecAggError {
    SecAggError::ClientAbort {
        client,
        reason: reason.into(),
    }
}

/// AEAD associated data binding a ciphertext to (round, from, to).
fn aad_for(round: u64, from: ClientId, to: ClientId) -> Vec<u8> {
    let mut aad = Vec::with_capacity(16);
    aad.extend_from_slice(&round.to_le_bytes());
    aad.extend_from_slice(&from.to_le_bytes());
    aad.extend_from_slice(&to.to_le_bytes());
    aad
}

/// Message signed during the consistency check: `round ‖ sorted U3`.
pub(crate) fn u3_message(round: u64, u3: &[ClientId]) -> Vec<u8> {
    let mut sorted = u3.to_vec();
    sorted.sort_unstable();
    let mut msg = Vec::with_capacity(8 + 4 * sorted.len());
    msg.extend_from_slice(&round.to_le_bytes());
    for id in sorted {
        msg.extend_from_slice(&id.to_le_bytes());
    }
    msg
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::MaskingGraph;
    use rand::SeedableRng;

    fn params(n: u32, t: usize) -> RoundParams {
        RoundParams {
            round: 1,
            clients: (0..n).collect(),
            threshold: t,
            bit_width: 16,
            vector_len: 4,
            noise_components: 0,
            threat_model: ThreatModel::SemiHonest,
            graph: MaskingGraph::Complete,
        }
    }

    fn input(v: &[u64]) -> ClientInput {
        ClientInput {
            vector: v.to_vec(),
            noise_seeds: vec![],
        }
    }

    #[test]
    fn rejects_wrong_vector_length() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let err = Client::new(params(4, 3), 0, input(&[1, 2]), None, &mut rng);
        assert!(matches!(err, Err(SecAggError::Config(_))));
    }

    #[test]
    fn rejects_out_of_ring_coordinates() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let err = Client::new(params(4, 3), 0, input(&[1, 2, 3, 1 << 20]), None, &mut rng);
        assert!(matches!(err, Err(SecAggError::Config(_))));
    }

    #[test]
    fn rejects_unsampled_client() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let err = Client::new(params(4, 3), 99, input(&[0; 4]), None, &mut rng);
        assert!(matches!(err, Err(SecAggError::Config(_))));
    }

    #[test]
    fn share_keys_needs_threshold_roster() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut c = Client::new(params(4, 3), 0, input(&[0; 4]), None, &mut rng).unwrap();
        let adv = c.advertise_keys().unwrap();
        let err = c.share_keys(&[adv], &mut rng);
        assert!(matches!(err, Err(SecAggError::ClientAbort { .. })));
    }

    #[test]
    fn duplicate_roster_keys_abort() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut a = Client::new(params(3, 2), 0, input(&[0; 4]), None, &mut rng).unwrap();
        let adv_a = a.advertise_keys().unwrap();
        let mut dup = adv_a.clone();
        dup.client = 1;
        let err = a.share_keys(&[adv_a, dup], &mut rng);
        assert!(matches!(err, Err(SecAggError::ClientAbort { .. })));
    }

    #[test]
    fn aborted_client_stays_aborted() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut c = Client::new(params(4, 3), 0, input(&[0; 4]), None, &mut rng).unwrap();
        let adv = c.advertise_keys().unwrap();
        assert!(c.share_keys(&[adv], &mut rng).is_err());
        assert!(c.advertise_keys().is_err());
    }

    /// Drives a 4-client complete-graph round stage by stage up to U3,
    /// client 3 dropping before its masked input (so Unmasking returns
    /// s-key shares as well as b-shares). `extra` is routed to client 0
    /// alongside its honest ciphertexts.
    fn round_to_unmasking(
        extra: Option<EncryptedShares>,
    ) -> (
        BTreeMap<ClientId, Client>,
        crate::server::Server,
        Vec<ClientId>,
    ) {
        use crate::driver::{client_rng, share_keys_rng};
        let seed = 7;
        let params = params(4, 3);
        let mut clients: BTreeMap<ClientId, Client> = params
            .clients
            .iter()
            .map(|&id| {
                let input = input(&[u64::from(id) + 1, 2, 3, 40_000]);
                let c = Client::new(params.clone(), id, input, None, &mut client_rng(seed, id));
                (id, c.unwrap())
            })
            .collect();
        let mut server = crate::server::Server::new(params).unwrap();
        let advs = clients
            .values_mut()
            .map(|c| c.advertise_keys().unwrap())
            .collect();
        let roster = server.collect_advertisements(advs).unwrap();
        let mut cts = Vec::new();
        for (&id, c) in clients.iter_mut() {
            cts.extend(
                c.share_keys(&roster, &mut share_keys_rng(seed, id))
                    .unwrap(),
            );
        }
        let mut inboxes = server.route_shares(cts).unwrap();
        inboxes.get_mut(&0).unwrap().extend(extra);
        let mut masked = Vec::new();
        for (&id, c) in clients.iter_mut().filter(|(&id, _)| id != 3) {
            masked.push(c.masked_input(inboxes.remove(&id).unwrap()).unwrap());
        }
        let u3 = server.collect_masked(masked).unwrap();
        assert_eq!(u3, vec![0, 1, 2]);
        (clients, server, u3)
    }

    #[test]
    fn unmasking_with_shared_keys_matches_driver() {
        let (mut clients, mut server, u3) = round_to_unmasking(None);
        let mut responses = Vec::new();
        for id in &u3 {
            let c = clients.get_mut(id).unwrap();
            // Every survivor agreed a key with each of its 3 peers at
            // ShareKeys, and Unmasking consumes all of them.
            assert_eq!(c.peer_keys.len(), 3);
            responses.push(c.unmask(&u3, None).unwrap());
            assert!(c.peer_keys.is_empty());
        }
        assert!(responses.iter().all(|r| r.sk_shares.len() == 1));
        server.collect_unmasking(responses).unwrap();
        let sum = server.finish().sum;
        // Survivors 0..=2 sum to [1+2+3, 3·2, 3·3, 3·40000 mod 2^16], as
        // the in-memory driver computes for the same round.
        assert_eq!(sum, vec![6, 6, 9, 120_000 % (1 << 16)]);
        let mut dropout = crate::driver::DropoutSchedule::none();
        dropout.drop_at(3, crate::driver::DropStage::BeforeMaskedInput);
        let spec = crate::driver::RoundSpec {
            params: params(4, 3),
            inputs: (0..4)
                .map(|id| (id, input(&[u64::from(id) + 1, 2, 3, 40_000])))
                .collect(),
            dropout,
            rng_seed: 7,
        };
        let (outcome, _) = crate::driver::run_round(spec).unwrap();
        assert_eq!(outcome.sum, sum);
    }

    #[test]
    fn ciphertext_from_a_non_peer_aborts_unmasking() {
        let stray = EncryptedShares {
            from: 99,
            to: 0,
            ciphertext: vec![0; 64],
        };
        let (mut clients, _, u3) = round_to_unmasking(Some(stray));
        let c = clients.get_mut(&0).unwrap();
        let err = c.unmask(&u3, None).unwrap_err();
        assert!(
            matches!(&err, SecAggError::ClientAbort { client: 0, reason } if reason.contains("99")),
            "{err:?}"
        );
    }

    #[test]
    fn u3_message_is_order_invariant() {
        assert_eq!(u3_message(5, &[3, 1, 2]), u3_message(5, &[1, 2, 3]));
        assert_ne!(u3_message(5, &[1, 2]), u3_message(6, &[1, 2]));
    }
}
