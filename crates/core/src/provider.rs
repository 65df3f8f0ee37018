//! The content provider application.
//!
//! Providers publish chunked, signed, access-levelled content and run the
//! Client Registration Procedure: "a client registers her credential with
//! a content provider to obtain an authentication tag ... When p receives
//! a tag request, it verifies client u's credentials and provides her a
//! fresh tag if she is authorized or drops the request otherwise" (§4.A).
//!
//! Tag expiry is the revocation knob: "a shorter expiry time mandates
//! clients to request fresh tags more frequently, which allows a more
//! fine-grained and flexible client revocation" (§5).

use std::collections::HashMap;
use std::sync::Arc;

use tactic_crypto::schnorr::{KeyPair, Signature};
use tactic_ndn::name::Name;
use tactic_ndn::packet::{Data, Interest, NackReason, Packet, Payload};
use tactic_sim::cost::{CostModel, Op};
use tactic_sim::rng::Rng;
use tactic_sim::time::{SimDuration, SimTime};
use tactic_telemetry::{
    Hop, NodeRole, NoopProtocolObserver, PrecheckStage, PrecheckVerdict, ProtocolObserver,
    RejectReason, SpanProfiler,
};

use crate::access::AccessLevel;
use crate::access_path::AccessPath;
use crate::ext;
use crate::router::timed;
use crate::tag::{SignedTag, Tag};

/// Provider/catalog parameters (the paper: 50 objects × 50 chunks each,
/// 10 s tag validity).
#[derive(Debug, Clone)]
pub struct ProviderConfig {
    /// The provider's routable name prefix (e.g. `/prov3`).
    pub prefix: Name,
    /// Number of content objects.
    pub objects: usize,
    /// Chunks per object.
    pub chunks_per_object: usize,
    /// Chunk payload size in bytes.
    pub chunk_size: usize,
    /// Tag validity period (`T_e - T_issue`).
    pub tag_validity: SimDuration,
    /// Access levels assigned to objects, cycled (`levels[obj % len]`).
    /// Use `[AccessLevel::Public]` for an open catalog.
    pub access_levels: Vec<AccessLevel>,
}

impl ProviderConfig {
    /// The paper's configuration under the given prefix: 50 objects of 50
    /// chunks, 10 s tags, all content at `Level(1)`.
    pub fn paper(prefix: Name) -> Self {
        ProviderConfig {
            prefix,
            objects: 50,
            chunks_per_object: 50,
            chunk_size: 1024,
            tag_validity: SimDuration::from_secs(10),
            access_levels: vec![AccessLevel::Level(1)],
        }
    }
}

/// A registered principal's standing at the provider.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The access level this principal is entitled to.
    pub level: AccessLevel,
    /// Revoked principals are refused fresh tags (lazy revocation via
    /// expiry).
    pub revoked: bool,
}

/// Principals' standings by principal id: a provider's registry.
pub type GrantTable = HashMap<u64, Grant>;

/// Provider-side counters.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct ProviderCounters {
    /// Tags issued (registration responses).
    pub tags_issued: u64,
    /// Registrations refused (unknown or revoked principals).
    pub registrations_denied: u64,
    /// Content chunks served.
    pub chunks_served: u64,
    /// Requests answered with content + NACK (invalid tag at the origin).
    pub nacks: u64,
    /// Tags issued to a principal whose previously issued tag was still
    /// unexpired — i.e. renewals rather than first issuances. Nonzero in
    /// the paper's model too (the refresh margin renews just before
    /// expiry); renewal churn is where it dominates.
    pub tags_renewed: u64,
}

/// Hand-rolled to keep the lifecycle extension's `tags_renewed` out of
/// the frozen report schema: this struct is embedded in `RunReport`'s
/// pinned `Debug` snapshots, so the output must stay exactly the derived
/// form of the original four fields.
impl std::fmt::Debug for ProviderCounters {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProviderCounters")
            .field("tags_issued", &self.tags_issued)
            .field("registrations_denied", &self.registrations_denied)
            .field("chunks_served", &self.chunks_served)
            .field("nacks", &self.nacks)
            .finish()
    }
}

/// A content provider.
pub struct Provider {
    config: ProviderConfig,
    keypair: KeyPair,
    key_locator: Name,
    /// Shared by every provider of a network until one of them changes
    /// it: [`Provider::grant`] and [`Provider::revoke`] copy on write.
    registry: Arc<GrantTable>,
    /// Expiry of the most recent tag issued per principal via the
    /// registration procedure — the issuance authority's view of who
    /// currently holds a valid tag, used to classify re-issuances as
    /// renewals. Pre-seeded scenario tags bypass this on purpose.
    issued_until: HashMap<u64, SimTime>,
    counters: ProviderCounters,
    /// The signed [`ext::EXT_ACCESS_LEVEL`] value of each entry of
    /// `config.access_levels`, shared by every chunk this provider serves.
    level_values: Vec<Arc<[u8]>>,
    /// The signed [`ext::EXT_KEY_LOCATOR`] value, shared likewise.
    key_locator_value: Arc<[u8]>,
    /// Each served chunk's signature by catalog index, made the first time
    /// the chunk is requested: a chunk's signature depends only on this
    /// provider's key and the chunk's name, access level, key locator and
    /// length, so signing it again would reproduce it bit for bit.
    signatures: HashMap<usize, Signature>,
}

impl std::fmt::Debug for Provider {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Provider")
            .field("prefix", &self.config.prefix.to_string())
            .field("counters", &self.counters)
            .finish()
    }
}

impl Provider {
    /// Creates a provider with an empty registry; the key pair is
    /// derived from the prefix so runs are reproducible.
    pub fn new(config: ProviderConfig) -> Self {
        Self::with_grants(config, Arc::default())
    }

    /// [`Self::new`] with `registry` as the initial registry. Providers
    /// that start out with one table share it; a later
    /// [`grant`](Self::grant) or [`revoke`](Self::revoke) copies it for
    /// the provider that makes the change only.
    pub fn with_grants(config: ProviderConfig, registry: Arc<GrantTable>) -> Self {
        let keypair = KeyPair::derive(config.prefix.to_string().as_bytes(), 0);
        let key_locator = config.prefix.child("KEY").child("1");
        Provider {
            level_values: config
                .access_levels
                .iter()
                .map(|&al| ext::access_level_value(al))
                .collect(),
            key_locator_value: ext::key_locator_value(&key_locator),
            config,
            keypair,
            key_locator,
            registry,
            issued_until: HashMap::new(),
            counters: ProviderCounters::default(),
            signatures: HashMap::new(),
        }
    }

    /// The provider's configuration.
    pub fn config(&self) -> &ProviderConfig {
        &self.config
    }

    /// The signing key pair (the public half goes into the PKI).
    pub fn keypair(&self) -> &KeyPair {
        &self.keypair
    }

    /// The provider's key locator (`Pub_p`).
    pub fn key_locator(&self) -> &Name {
        &self.key_locator
    }

    /// The counters.
    pub fn counters(&self) -> &ProviderCounters {
        &self.counters
    }

    /// Registers (or updates) a principal's entitlement.
    pub fn grant(&mut self, principal: u64, level: AccessLevel) {
        Arc::make_mut(&mut self.registry).insert(
            principal,
            Grant {
                level,
                revoked: false,
            },
        );
    }

    /// Revokes a principal: no fresh tags; outstanding tags die at expiry.
    pub fn revoke(&mut self, principal: u64) {
        if let Some(g) = Arc::make_mut(&mut self.registry).get_mut(&principal) {
            g.revoked = true;
        }
    }

    /// The standing of a principal, if registered.
    pub fn grant_of(&self, principal: u64) -> Option<Grant> {
        self.registry.get(&principal).copied()
    }

    /// The name of chunk `chunk` of object `obj`: `/<prefix>/obj<i>/c<j>`.
    ///
    /// # Panics
    ///
    /// Panics if the indices are outside the catalog.
    pub fn content_name(&self, obj: usize, chunk: usize) -> Name {
        assert!(
            obj < self.config.objects && chunk < self.config.chunks_per_object,
            "outside catalog"
        );
        self.config
            .prefix
            .child(format!("obj{obj}"))
            .child(format!("c{chunk}"))
    }

    /// The access level assigned to an object.
    pub fn object_level(&self, obj: usize) -> AccessLevel {
        self.config.access_levels[obj % self.config.access_levels.len()]
    }

    /// The registration Interest name a principal should use (unique per
    /// sequence number so responses are never served from caches).
    pub fn registration_name(&self, principal: u64, seq: u64) -> Name {
        self.config
            .prefix
            .child("register")
            .child(format!("u{principal}"))
            .child(format!("{seq}"))
    }

    /// Builds and signs the Data packet for a chunk: exactly the packet
    /// the provider serves for it, before per-delivery annotations.
    /// Content signatures are produced offline in deployment, so serving
    /// charges no signing cost; the serve path signs each chunk once and
    /// reuses the signature, while this method signs afresh on every call.
    pub fn build_chunk(&self, obj: usize, chunk: usize) -> Data {
        let mut d = self.unsigned_chunk(obj, chunk);
        d.set_signature(self.keypair.sign(&d.signable_bytes()));
        d
    }

    /// [`Self::build_chunk`] with the chunk's signature made at most once.
    fn served_chunk(&mut self, obj: usize, chunk: usize) -> Data {
        let mut d = self.unsigned_chunk(obj, chunk);
        let index = obj * self.config.chunks_per_object + chunk;
        let keypair = &self.keypair;
        let sig = *self
            .signatures
            .entry(index)
            .or_insert_with(|| keypair.sign(&d.signable_bytes()));
        d.set_signature(sig);
        d
    }

    /// The chunk's Data packet with its signed fields set and no signature.
    fn unsigned_chunk(&self, obj: usize, chunk: usize) -> Data {
        let mut d = Data::new(
            self.content_name(obj, chunk),
            Payload::Synthetic(self.config.chunk_size),
        );
        let level = &self.level_values[obj % self.level_values.len()];
        d.set_extension(ext::EXT_ACCESS_LEVEL, Arc::clone(level));
        d.set_extension(ext::EXT_KEY_LOCATOR, Arc::clone(&self.key_locator_value));
        d
    }

    /// Issues a signed tag directly (scenario setup: pre-seeding expired
    /// or cross-location tags for attacker models).
    pub fn issue_tag(
        &mut self,
        principal: u64,
        level: AccessLevel,
        access_path: AccessPath,
        expiry: SimTime,
    ) -> SignedTag {
        self.counters.tags_issued += 1;
        Tag {
            provider_key_locator: self.key_locator.clone(),
            access_level: level,
            client_key_locator: self
                .config
                .prefix
                .child("users")
                .child(format!("u{principal}"))
                .child("KEY"),
            access_path,
            expiry,
        }
        .sign(&self.keypair)
    }

    /// Handles an Interest arriving at the provider. Returns the reply
    /// packets (for the arrival face) and the computation delay charged.
    pub fn handle_interest(
        &mut self,
        interest: &Interest,
        now: SimTime,
        rng: &mut Rng,
        cost: &CostModel,
    ) -> (Vec<Packet>, SimDuration) {
        self.handle_interest_observed(
            interest,
            now,
            rng,
            cost,
            0,
            &mut NoopProtocolObserver,
            &mut None,
        )
    }

    /// [`Self::handle_interest`] with protocol-decision hooks: `node` is
    /// the provider's id in the topology, stamped onto every hook. `prof`
    /// times the whole handler as the `provider` span when profiling.
    #[allow(clippy::too_many_arguments)]
    pub fn handle_interest_observed<O: ProtocolObserver>(
        &mut self,
        interest: &Interest,
        now: SimTime,
        rng: &mut Rng,
        cost: &CostModel,
        node: u64,
        obs: &mut O,
        prof: &mut Option<&mut SpanProfiler>,
    ) -> (Vec<Packet>, SimDuration) {
        timed(prof, "provider", || {
            self.respond(interest, now, rng, cost, node, obs)
        })
    }

    fn respond<O: ProtocolObserver>(
        &mut self,
        interest: &Interest,
        now: SimTime,
        rng: &mut Rng,
        cost: &CostModel,
        node: u64,
        obs: &mut O,
    ) -> (Vec<Packet>, SimDuration) {
        let mut charge = SimDuration::ZERO;
        let hop = Hop::new(node, NodeRole::Provider, now);
        if ext::is_registration(interest) {
            return self.handle_registration(interest, now, rng, cost);
        }
        obs.on_interest_hop(hop, interest.nonce(), interest.name());
        // Content request reaching the origin: the provider is the origin
        // content router and validates like one.
        let Some((obj, chunk)) = self.parse_content_name(interest.name()) else {
            return (Vec::new(), charge); // Not ours / outside catalog: drop.
        };
        let data = self.served_chunk(obj, chunk);
        let level = self.object_level(obj);
        if level.is_public() {
            self.counters.chunks_served += 1;
            return (vec![Packet::Data(data)], charge);
        }
        let tag = ext::interest_tag(interest);
        let valid = match &tag {
            None => {
                obs.on_precheck(
                    hop,
                    PrecheckStage::Content,
                    PrecheckVerdict::Rejected(RejectReason::MissingTag),
                );
                false
            }
            Some(st) => {
                charge += cost.sample(Op::PreCheck, rng);
                let pre = match crate::precheck::edge_precheck(&st.tag, interest.name(), now) {
                    Err(e) => {
                        obs.on_precheck(
                            hop,
                            PrecheckStage::Edge,
                            PrecheckVerdict::Rejected(e.telemetry_reason()),
                        );
                        false
                    }
                    Ok(()) => {
                        obs.on_precheck(hop, PrecheckStage::Edge, PrecheckVerdict::Accepted);
                        match crate::precheck::content_precheck(&st.tag, level, &self.key_locator) {
                            Err(e) => {
                                obs.on_precheck(
                                    hop,
                                    PrecheckStage::Content,
                                    PrecheckVerdict::Rejected(e.telemetry_reason()),
                                );
                                false
                            }
                            Ok(()) => {
                                obs.on_precheck(
                                    hop,
                                    PrecheckStage::Content,
                                    PrecheckVerdict::Accepted,
                                );
                                true
                            }
                        }
                    }
                };
                if pre {
                    self.counters.chunks_served += 1; // optimistic; adjusted below
                    charge += cost.sample(Op::SigVerify, rng);
                    let ok = st.verify(&self.keypair.public());
                    obs.on_sig_verify(hop, ok, false);
                    if !ok {
                        self.counters.chunks_served -= 1;
                    }
                    ok
                } else {
                    false
                }
            }
        };
        let mut d = data;
        if let Some(st) = &tag {
            ext::set_data_tag(&mut d, st);
        }
        ext::set_data_flag_f(&mut d, ext::interest_flag_f(interest));
        if !valid {
            // Content + NACK so downstream aggregated valid requests are
            // satisfied while this requester is refused (§5.B).
            ext::set_data_nack(&mut d, NackReason::InvalidTag);
            self.counters.nacks += 1;
            obs.on_nack(hop, NackReason::InvalidTag);
        }
        (vec![Packet::Data(d)], charge)
    }

    fn handle_registration(
        &mut self,
        interest: &Interest,
        now: SimTime,
        rng: &mut Rng,
        cost: &CostModel,
    ) -> (Vec<Packet>, SimDuration) {
        let mut charge = SimDuration::ZERO;
        let Some(principal) = registration_principal(interest) else {
            return (Vec::new(), charge);
        };
        match self.registry.get(&principal) {
            Some(grant) if !grant.revoked => {
                let observed_ap = ext::interest_access_path(interest);
                charge += cost.sample(Op::SigSign, rng);
                if self.issued_until.get(&principal).is_some_and(|&u| now < u) {
                    self.counters.tags_renewed += 1;
                }
                let expiry = now + self.config.tag_validity;
                self.issued_until.insert(principal, expiry);
                let tag = self.issue_tag(principal, grant.level, observed_ap, expiry);
                let mut resp = Data::new(
                    interest.name().clone(),
                    Payload::Synthetic(tag.encode().len()),
                );
                ext::set_data_new_tag(&mut resp, &tag);
                (vec![Packet::Data(resp)], charge)
            }
            _ => {
                // "drops the request otherwise" — unknown or revoked.
                self.counters.registrations_denied += 1;
                (Vec::new(), charge)
            }
        }
    }

    /// Parses `/<prefix>/obj<i>/c<j>` back into catalog indices.
    pub fn parse_content_name(&self, name: &Name) -> Option<(usize, usize)> {
        if !self.config.prefix.is_prefix_of(name) || name.len() != self.config.prefix.len() + 2 {
            return None;
        }
        let obj_c = name.get(self.config.prefix.len())?;
        let chunk_c = name.get(self.config.prefix.len() + 1)?;
        let obj: usize = std::str::from_utf8(obj_c.as_bytes())
            .ok()?
            .strip_prefix("obj")?
            .parse()
            .ok()?;
        let chunk: usize = std::str::from_utf8(chunk_c.as_bytes())
            .ok()?
            .strip_prefix('c')?
            .parse()
            .ok()?;
        (obj < self.config.objects && chunk < self.config.chunks_per_object).then_some((obj, chunk))
    }
}

/// Extracts the principal id from a registration Interest's extension.
pub fn registration_principal(interest: &Interest) -> Option<u64> {
    interest
        .extension(ext::EXT_REGISTRATION)
        .and_then(|b| b.try_into().ok())
        .map(u64::from_le_bytes)
}

/// Builds a registration Interest for `principal` with sequence `seq`.
pub fn registration_interest(
    provider_prefix: &Name,
    principal: u64,
    seq: u64,
    nonce: u64,
) -> Interest {
    let name = provider_prefix
        .child("register")
        .child(format!("u{principal}"))
        .child(format!("{seq}"));
    let mut i = Interest::new(name, nonce);
    i.set_extension(ext::EXT_REGISTRATION, principal.to_le_bytes().to_vec());
    i
}

#[cfg(test)]
mod tests {
    use super::*;

    fn provider() -> Provider {
        let mut p = Provider::new(ProviderConfig::paper("/prov0".parse().unwrap()));
        p.grant(7, AccessLevel::Level(2));
        p
    }

    fn free() -> (Rng, CostModel) {
        (Rng::seed_from_u64(1), CostModel::free())
    }

    #[test]
    fn registration_issues_valid_tag() {
        let mut p = provider();
        let (mut rng, cost) = free();
        let i = registration_interest(&"/prov0".parse().unwrap(), 7, 0, 1);
        let (reply, _) = p.handle_interest(&i, SimTime::ZERO, &mut rng, &cost);
        assert_eq!(reply.len(), 1);
        let Packet::Data(d) = &reply[0] else {
            panic!("expected Data")
        };
        let tag = ext::data_new_tag(d).expect("tag attached");
        assert!(tag.verify(&p.keypair().public()));
        assert_eq!(tag.tag.access_level, AccessLevel::Level(2));
        assert_eq!(tag.tag.expiry, SimTime::ZERO + SimDuration::from_secs(10));
        assert_eq!(p.counters().tags_issued, 1);
    }

    #[test]
    fn reissuance_before_expiry_counts_as_renewal() {
        let mut p = provider();
        let (mut rng, cost) = free();
        let prefix: Name = "/prov0".parse().unwrap();
        // First issuance: not a renewal.
        p.handle_interest(
            &registration_interest(&prefix, 7, 0, 1),
            SimTime::ZERO,
            &mut rng,
            &cost,
        );
        assert_eq!(p.counters().tags_renewed, 0);
        // Re-registration at t=4s, old tag valid until 10s: a renewal.
        p.handle_interest(
            &registration_interest(&prefix, 7, 1, 2),
            SimTime::from_secs(4),
            &mut rng,
            &cost,
        );
        assert_eq!(p.counters().tags_renewed, 1);
        // Re-registration after the previous tag (valid to 14s) expired:
        // a fresh issuance again.
        p.handle_interest(
            &registration_interest(&prefix, 7, 2, 3),
            SimTime::from_secs(20),
            &mut rng,
            &cost,
        );
        assert_eq!(p.counters().tags_renewed, 1);
        assert_eq!(p.counters().tags_issued, 3);
    }

    #[test]
    fn counters_debug_excludes_lifecycle_extension() {
        // The struct is embedded in pinned report snapshots: its Debug
        // output must stay the derived form of the original four fields.
        let c = ProviderCounters {
            tags_issued: 1,
            registrations_denied: 2,
            chunks_served: 3,
            nacks: 4,
            tags_renewed: 99,
        };
        assert_eq!(
            format!("{c:?}"),
            "ProviderCounters { tags_issued: 1, registrations_denied: 2, \
             chunks_served: 3, nacks: 4 }"
        );
    }

    #[test]
    fn providers_sharing_a_registry_change_only_their_own() {
        let level = AccessLevel::Level(2);
        let shared: Arc<GrantTable> = Arc::new(
            [(
                7,
                Grant {
                    level,
                    revoked: false,
                },
            )]
            .into(),
        );
        let paper = |prefix: &str| ProviderConfig::paper(prefix.parse().unwrap());
        let mut a = Provider::with_grants(paper("/a"), Arc::clone(&shared));
        let mut b = Provider::with_grants(paper("/b"), Arc::clone(&shared));
        a.revoke(7);
        b.grant(8, AccessLevel::Public);
        assert!(a.grant_of(7).is_some_and(|g| g.revoked));
        assert_eq!(
            b.grant_of(7),
            Some(Grant {
                level,
                revoked: false
            }),
            "a revocation at one provider leaves the others' standing"
        );
        assert_eq!(a.grant_of(8), None, "a grant stays with its provider");
        assert_eq!(shared.get(&7).map(|g| g.revoked), Some(false));
        assert_eq!(shared.len(), 1, "the shared table itself never changes");
    }

    #[test]
    fn unknown_principal_dropped() {
        let mut p = provider();
        let (mut rng, cost) = free();
        let i = registration_interest(&"/prov0".parse().unwrap(), 99, 0, 1);
        let (reply, _) = p.handle_interest(&i, SimTime::ZERO, &mut rng, &cost);
        assert!(reply.is_empty());
        assert_eq!(p.counters().registrations_denied, 1);
    }

    #[test]
    fn revoked_principal_refused_fresh_tags() {
        let mut p = provider();
        p.revoke(7);
        let (mut rng, cost) = free();
        let i = registration_interest(&"/prov0".parse().unwrap(), 7, 1, 2);
        let (reply, _) = p.handle_interest(&i, SimTime::ZERO, &mut rng, &cost);
        assert!(reply.is_empty());
    }

    #[test]
    fn content_served_with_valid_tag() {
        let mut p = provider();
        let (mut rng, cost) = free();
        let tag = p.issue_tag(
            7,
            AccessLevel::Level(2),
            AccessPath::EMPTY,
            SimTime::from_secs(10),
        );
        let mut i = Interest::new(p.content_name(3, 4), 5);
        ext::set_interest_tag(&mut i, &tag);
        let (reply, _) = p.handle_interest(&i, SimTime::ZERO, &mut rng, &cost);
        let Packet::Data(d) = &reply[0] else {
            panic!("expected Data")
        };
        assert!(ext::data_nack(d).is_none());
        assert_eq!(d.payload().len(), 1024);
        assert_eq!(ext::data_access_level(d), AccessLevel::Level(1));
        assert_eq!(p.counters().chunks_served, 1);
    }

    #[test]
    fn content_nacked_without_tag() {
        let mut p = provider();
        let (mut rng, cost) = free();
        let i = Interest::new(p.content_name(0, 0), 1);
        let (reply, _) = p.handle_interest(&i, SimTime::ZERO, &mut rng, &cost);
        let Packet::Data(d) = &reply[0] else {
            panic!("expected Data")
        };
        assert_eq!(ext::data_nack(d), Some(NackReason::InvalidTag));
        assert_eq!(p.counters().nacks, 1);
        assert_eq!(p.counters().chunks_served, 0);
    }

    #[test]
    fn expired_tag_nacked_at_origin() {
        let mut p = provider();
        let (mut rng, cost) = free();
        let tag = p.issue_tag(
            7,
            AccessLevel::Level(2),
            AccessPath::EMPTY,
            SimTime::from_secs(1),
        );
        let mut i = Interest::new(p.content_name(0, 0), 1);
        ext::set_interest_tag(&mut i, &tag);
        let (reply, _) = p.handle_interest(&i, SimTime::from_secs(5), &mut rng, &cost);
        let Packet::Data(d) = &reply[0] else {
            panic!("expected Data")
        };
        assert_eq!(ext::data_nack(d), Some(NackReason::InvalidTag));
    }

    #[test]
    fn public_catalog_needs_no_tag() {
        let mut cfg = ProviderConfig::paper("/open".parse().unwrap());
        cfg.access_levels = vec![AccessLevel::Public];
        let mut p = Provider::new(cfg);
        let (mut rng, cost) = free();
        let i = Interest::new(p.content_name(0, 0), 1);
        let (reply, _) = p.handle_interest(&i, SimTime::ZERO, &mut rng, &cost);
        let Packet::Data(d) = &reply[0] else {
            panic!("expected Data")
        };
        assert!(ext::data_nack(d).is_none());
    }

    #[test]
    fn chunk_signature_verifies() {
        let p = provider();
        let d = p.build_chunk(1, 2);
        assert!(p
            .keypair()
            .public()
            .verify(&d.signable_bytes(), d.signature().unwrap()));
    }

    #[test]
    fn served_chunks_equal_freshly_built_ones() {
        let mut cfg = ProviderConfig::paper("/memo".parse().unwrap());
        cfg.objects = 4;
        cfg.chunks_per_object = 3;
        cfg.access_levels = vec![AccessLevel::Level(1), AccessLevel::Public];
        let mut p = Provider::new(cfg);
        let (mut rng, cost) = free();
        let valid = p.issue_tag(
            7,
            AccessLevel::Level(2),
            AccessPath::EMPTY,
            SimTime::from_secs(10),
        );
        let expired = p.issue_tag(7, AccessLevel::Level(2), AccessPath::EMPTY, SimTime::ZERO);
        for obj in 0..4 {
            for chunk in 0..3 {
                for (tag, nacked) in [(&valid, false), (&expired, true)] {
                    let mut i = Interest::new(p.content_name(obj, chunk), 1);
                    ext::set_interest_tag(&mut i, tag);
                    ext::set_interest_flag_f(&mut i, 0.25);
                    let mut expected = p.build_chunk(obj, chunk);
                    if !p.object_level(obj).is_public() {
                        ext::set_data_tag(&mut expected, tag);
                        ext::set_data_flag_f(&mut expected, 0.25);
                        if nacked {
                            ext::set_data_nack(&mut expected, NackReason::InvalidTag);
                        }
                    }
                    for pass in ["first", "repeat"] {
                        let (reply, _) =
                            p.handle_interest(&i, SimTime::from_secs(1), &mut rng, &cost);
                        assert_eq!(
                            reply,
                            vec![Packet::Data(expected.clone())],
                            "{pass} serve of ({obj}, {chunk})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn providers_never_share_chunk_signatures() {
        let mut cfg = ProviderConfig::paper("/shared".parse().unwrap());
        cfg.objects = 2;
        cfg.chunks_per_object = 2;
        cfg.access_levels = vec![AccessLevel::Public];
        let mut a = Provider::new(cfg.clone());
        // Same catalog and names, a different key.
        let mut b = Provider::new(cfg);
        b.keypair = KeyPair::derive(b"/other-key", 0);
        let (mut rng, cost) = free();
        for obj in 0..2 {
            for chunk in 0..2 {
                let i = Interest::new(a.content_name(obj, chunk), 1);
                let serve = |p: &mut Provider, rng: &mut Rng| {
                    let (mut reply, _) = p.handle_interest(&i, SimTime::ZERO, rng, &cost);
                    let Some(Packet::Data(d)) = reply.pop() else {
                        panic!("expected Data")
                    };
                    d
                };
                let (da, db) = (serve(&mut a, &mut rng), serve(&mut b, &mut rng));
                assert_eq!(da.signable_bytes(), db.signable_bytes());
                assert_ne!(da.signature(), db.signature(), "({obj}, {chunk})");
                let (ka, kb) = (a.keypair().public(), b.keypair().public());
                assert!(ka.verify(&da.signable_bytes(), da.signature().unwrap()));
                assert!(kb.verify(&db.signable_bytes(), db.signature().unwrap()));
                assert!(!kb.verify(&da.signable_bytes(), da.signature().unwrap()));
            }
        }
    }

    #[test]
    fn content_name_roundtrip() {
        let p = provider();
        let n = p.content_name(12, 34);
        assert_eq!(n.to_string(), "/prov0/obj12/c34");
        assert_eq!(p.parse_content_name(&n), Some((12, 34)));
        assert_eq!(
            p.parse_content_name(&"/prov0/obj99/c0".parse().unwrap()),
            None
        );
        assert_eq!(
            p.parse_content_name(&"/other/obj1/c1".parse().unwrap()),
            None
        );
        assert_eq!(
            p.parse_content_name(&"/prov0/register/u7/0".parse().unwrap()),
            None
        );
    }

    #[test]
    fn access_levels_cycle() {
        let mut cfg = ProviderConfig::paper("/p".parse().unwrap());
        cfg.access_levels = vec![AccessLevel::Level(1), AccessLevel::Level(2)];
        let p = Provider::new(cfg);
        assert_eq!(p.object_level(0), AccessLevel::Level(1));
        assert_eq!(p.object_level(1), AccessLevel::Level(2));
        assert_eq!(p.object_level(2), AccessLevel::Level(1));
    }

    #[test]
    fn object_and_grant_introspection() {
        let p = provider();
        assert_eq!(
            p.grant_of(7),
            Some(Grant {
                level: AccessLevel::Level(2),
                revoked: false
            })
        );
        assert_eq!(p.grant_of(8), None);
    }
}
