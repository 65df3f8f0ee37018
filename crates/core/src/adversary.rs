//! The adversarial fleet driver: deterministic attack-traffic generation
//! for an active [`AttackPlan`](crate::scenario::AttackPlan).
//!
//! When a scenario names an [`AttackClass`], every attacker node stops
//! being a windowed threat-model consumer and becomes an open-loop
//! traffic source: a self-rescheduling tick (a sentinel transport
//! timeout, [`TICK`] apart) drains an integer nanosecond accumulator at
//! `intensity` Interests per second, crafting each Interest from the
//! class's credential recipe. Fire-and-forget — the fleet never tracks
//! replies, so its pressure is bounded only by the configured intensity
//! (and whatever edge defenses are armed).
//!
//! Every draw comes from the driver's own RNG, forked off
//! [`ATTACK_STREAM`](tactic_net::ATTACK_STREAM) `^ node index` at build
//! time; an inactive plan builds no driver and makes no draw, keeping
//! unattacked runs byte-identical to the golden snapshots.

use std::sync::Arc;

use tactic_crypto::schnorr::Signature;
use tactic_ndn::packet::Interest;
use tactic_net::attack::TICK;
use tactic_net::{AttackClass, AttackDriver, Catalog};
use tactic_sim::rng::Rng;
use tactic_sim::time::SimTime;

use crate::access::AccessLevel;
use crate::access_path::AccessPath;
use crate::ext;
use crate::tag::{SignedTag, Tag};

/// Distinct credentials each BF-pollution attacker cycles through
/// (sized against the paper's 500-tag filter so a small fleet still
/// drives occupancy visibly).
pub const POLLUTION_POOL: usize = 256;

/// High bits folded into adversarial nonces so they can never collide
/// with the same principal's windowed-consumer nonces.
const NONCE_TAG: u64 = 0xAD5E_0000_0000_0000;

/// What one attacker attaches to each crafted Interest.
enum Credential {
    /// A genuinely-issued tag per provider (Flood: valid for the whole
    /// run; ReplayExpired: already expired at issue).
    PerProvider(Vec<Arc<SignedTag>>),
    /// Forge a fresh signature for every Interest.
    Forge,
    /// Cycle a pool of distinct genuinely-issued `(provider index, tag)`
    /// credentials; each pooled tag pins its Interest to the issuing
    /// provider so the edge pre-check admits it.
    Pool {
        tags: Vec<(usize, Arc<SignedTag>)>,
        next: usize,
    },
}

/// One attacker node's open-loop traffic source.
pub struct AdversaryDriver {
    principal: u64,
    intensity: u32,
    lifetime_ms: u32,
    rng: Rng,
    catalog: Arc<Catalog>,
    credential: Credential,
    nonce_seq: u64,
    acc_ns: u64,
}

impl std::fmt::Debug for AdversaryDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AdversaryDriver")
            .field("principal", &self.principal)
            .field("intensity", &self.intensity)
            .finish()
    }
}

impl AdversaryDriver {
    /// Builds the driver for one attacker node.
    ///
    /// `class` must not be [`AttackClass::Churn`] — churn is a transport
    /// concern (scheduled Move events), not a traffic recipe — and the
    /// per-provider credential lists are supplied by the caller because
    /// only the scenario assembly holds the providers' signing keys.
    ///
    /// # Panics
    ///
    /// Panics on [`AttackClass::Churn`] or a credential list that does
    /// not cover the catalog.
    pub fn new(
        class: AttackClass,
        principal: u64,
        intensity: u32,
        lifetime_ms: u32,
        rng: Rng,
        catalog: Arc<Catalog>,
        issued: Vec<(usize, Arc<SignedTag>)>,
    ) -> AdversaryDriver {
        let credential = match class {
            AttackClass::Flood | AttackClass::ReplayExpired => {
                assert_eq!(
                    issued.len(),
                    catalog.entries().len(),
                    "one tag per provider"
                );
                let mut per_prov = issued;
                per_prov.sort_by_key(|(p, _)| *p);
                Credential::PerProvider(per_prov.into_iter().map(|(_, t)| t).collect())
            }
            AttackClass::ForgeTags => Credential::Forge,
            AttackClass::BfPollution => {
                assert!(!issued.is_empty(), "pollution needs a credential pool");
                Credential::Pool {
                    tags: issued,
                    next: 0,
                }
            }
            AttackClass::Churn => unreachable!("churn is scheduled by the transport"),
        };
        AdversaryDriver {
            principal,
            intensity,
            lifetime_ms,
            rng,
            catalog,
            credential,
            nonce_seq: 0,
            acc_ns: 0,
        }
    }
}

impl AttackDriver for AdversaryDriver {
    /// One tick: drains the rate accumulator into crafted Interests.
    fn on_tick(&mut self, _now: SimTime) -> Vec<Interest> {
        self.acc_ns += u64::from(self.intensity) * TICK.as_nanos();
        let n = self.acc_ns / 1_000_000_000;
        self.acc_ns -= n * 1_000_000_000;
        (0..n).map(|_| self.craft()).collect()
    }
}

impl AdversaryDriver {
    fn next_nonce(&mut self) -> u64 {
        self.nonce_seq += 1;
        NONCE_TAG ^ (self.principal << 24) ^ self.nonce_seq
    }

    /// Crafts one Interest: a uniformly random in-catalog name plus the
    /// class's credential. Pool credentials pin the provider (the edge
    /// pre-check only admits a tag against its issuer's names); the
    /// other classes spray uniformly across the whole catalog.
    fn craft(&mut self) -> Interest {
        let pooled = match &mut self.credential {
            Credential::Pool { tags, next } => {
                let picked = tags[*next].clone();
                *next = (*next + 1) % tags.len();
                Some(picked)
            }
            _ => None,
        };
        let prov = match &pooled {
            Some((p, _)) => *p,
            None => (self.rng.next_u64() % self.catalog.entries().len() as u64) as usize,
        };
        let entry = self.catalog.entries()[prov].clone();
        let obj = (self.rng.next_u64() % entry.objects as u64) as usize;
        let chunk = (self.rng.next_u64() % entry.chunks as u64) as usize;
        let name = entry
            .prefix
            .child(format!("obj{obj}"))
            .child(format!("c{chunk}"));
        let nonce = self.next_nonce();
        let mut i = Interest::new(name, nonce);
        i.set_lifetime_ms(self.lifetime_ms);
        match (&self.credential, pooled) {
            (_, Some((_, tag))) => ext::set_interest_tag(&mut i, &tag),
            (Credential::PerProvider(tags), None) => ext::set_interest_tag(&mut i, &tags[prov]),
            (Credential::Forge, None) => {
                let forged = SignedTag::new(
                    Tag {
                        provider_key_locator: entry.prefix.child("KEY").child("1"),
                        access_level: AccessLevel::Level(200),
                        client_key_locator: entry
                            .prefix
                            .child("users")
                            .child(format!("u{}", self.principal))
                            .child("KEY"),
                        access_path: AccessPath::EMPTY,
                        expiry: SimTime::MAX,
                    },
                    Signature::forged(self.rng.next_u64()),
                );
                ext::set_interest_tag(&mut i, &forged);
            }
            (Credential::Pool { .. }, None) => unreachable!("pool always picks a credential"),
        }
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Arc<Catalog> {
        let entry = |prefix: &str| tactic_net::CatalogEntry {
            prefix: prefix.parse().unwrap(),
            objects: 10,
            chunks: 10,
        };
        Arc::new(Catalog::new(vec![entry("/prov0"), entry("/prov1")], 0.7))
    }

    fn forge_driver(intensity: u32) -> AdversaryDriver {
        AdversaryDriver::new(
            AttackClass::ForgeTags,
            9,
            intensity,
            1_000,
            Rng::seed_from_u64(7),
            catalog(),
            Vec::new(),
        )
    }

    #[test]
    fn accumulator_hits_the_configured_rate_exactly() {
        let mut d = forge_driver(37);
        let mut total = 0usize;
        for _ in 0..10 {
            total += d.on_tick(SimTime::ZERO).len();
        }
        assert_eq!(total, 37, "one second of ticks emits exactly `intensity`");
    }

    #[test]
    fn zero_intensity_emits_nothing() {
        let mut d = forge_driver(0);
        for _ in 0..50 {
            assert!(d.on_tick(SimTime::ZERO).is_empty());
        }
    }

    #[test]
    fn forged_interests_carry_fresh_bogus_signatures() {
        let mut d = forge_driver(20);
        let out = d.on_tick(SimTime::ZERO);
        assert_eq!(out.len(), 2);
        let t0 = ext::interest_tag(&out[0]).expect("forged tag");
        let t1 = ext::interest_tag(&out[1]).expect("forged tag");
        assert_ne!(t0.signature, t1.signature, "fresh forgery per Interest");
        assert!(out.iter().all(|i| i.lifetime_ms() == 1_000));
    }

    #[test]
    fn drivers_are_deterministic_per_stream() {
        let run = || {
            let mut d = forge_driver(50);
            let mut names = Vec::new();
            for _ in 0..20 {
                names.extend(d.on_tick(SimTime::ZERO).iter().map(|i| i.name().clone()));
            }
            names
        };
        assert_eq!(run(), run());
    }
}
