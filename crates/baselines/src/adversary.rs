//! The baselines' adversarial fleet driver: the same open-loop attack
//! pacer as [`tactic::adversary`], restated for tagless mechanisms.
//!
//! Baseline planes carry no tags, so the credential dimension of each
//! [`AttackClass`] degrades to its traffic shape:
//!
//! * [`Flood`](AttackClass::Flood), [`ForgeTags`](AttackClass::ForgeTags)
//!   and [`ReplayExpired`](AttackClass::ReplayExpired) — a uniform spray
//!   over the catalog. An attacker principal is already unauthorized to
//!   every baseline provider, so a forged or expired credential is
//!   indistinguishable from plain unauthorized traffic here; what the
//!   classes still measure is how each mechanism absorbs the load
//!   (client-side AC wastes deliveries, provider-auth burns auth ops).
//! * [`BfPollution`](AttackClass::BfPollution) — there is no Bloom
//!   filter to pollute, so the analog is state pollution: a
//!   deterministic breadth-first walk over the *entire* name space,
//!   maximizing distinct names to churn content stores and PITs.
//! * [`Churn`](AttackClass::Churn) is a transport concern (scheduled
//!   Move events) on every plane and never reaches this driver.
//!
//! Rate mechanics are identical to the TACTIC driver: a sentinel tick
//! every [`TICK`] drains an integer nanosecond accumulator at exactly
//! `intensity` Interests per second, with every random draw taken from
//! a dedicated stream forked off [`ATTACK_STREAM`] so an inactive plan
//! leaves the run byte-identical to its golden snapshot.

use tactic_ndn::packet::Interest;
use tactic_net::attack::TICK;
use tactic_net::{AttackClass, AttackDriver, Catalog};
use tactic_sim::rng::Rng;
use tactic_sim::time::SimTime;

#[allow(unused_imports)] // doc links
use tactic_net::ATTACK_STREAM;

/// High bits folded into adversarial nonces; the composed requester
/// nonce is `principal << 40 | counter` with principals far below 2²⁴,
/// so the tag keeps the two spaces disjoint.
const NONCE_TAG: u64 = 0xAD5E_0000_0000_0000;

/// One attacker node's open-loop traffic source on a baseline plane.
pub struct BaselineAdversary {
    principal: u64,
    intensity: u32,
    lifetime_ms: u32,
    rng: Rng,
    catalog: Catalog,
    /// Append the per-principal session component (provider-auth
    /// mechanisms key their auth on it).
    per_session: bool,
    /// `BfPollution` analog: walk the name space breadth-first instead
    /// of spraying uniformly.
    breadth: Option<u64>,
    nonce_seq: u64,
    acc_ns: u64,
}

impl std::fmt::Debug for BaselineAdversary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaselineAdversary")
            .field("principal", &self.principal)
            .field("intensity", &self.intensity)
            .finish()
    }
}

impl BaselineAdversary {
    /// Builds the driver for one attacker node.
    ///
    /// # Panics
    ///
    /// Panics on [`AttackClass::Churn`] (scheduled by the transport) or
    /// an empty catalog.
    pub fn new(
        class: AttackClass,
        principal: u64,
        intensity: u32,
        lifetime_ms: u32,
        rng: Rng,
        catalog: Catalog,
        per_session: bool,
    ) -> BaselineAdversary {
        assert!(!catalog.is_empty(), "adversary needs a catalog");
        let breadth = match class {
            AttackClass::BfPollution => Some(0),
            AttackClass::Churn => unreachable!("churn is scheduled by the transport"),
            _ => None,
        };
        BaselineAdversary {
            principal,
            intensity,
            lifetime_ms,
            rng,
            catalog,
            per_session,
            breadth,
            nonce_seq: 0,
            acc_ns: 0,
        }
    }
}

impl AttackDriver for BaselineAdversary {
    /// One tick: drains the rate accumulator into crafted Interests.
    fn on_tick(&mut self, _now: SimTime) -> Vec<Interest> {
        self.acc_ns += u64::from(self.intensity) * TICK.as_nanos();
        let n = self.acc_ns / 1_000_000_000;
        self.acc_ns -= n * 1_000_000_000;
        (0..n).map(|_| self.craft()).collect()
    }
}

impl BaselineAdversary {
    fn craft(&mut self) -> Interest {
        let (prov, obj, chunk) = match &mut self.breadth {
            Some(cursor) => {
                // Deterministic breadth-first walk: consecutive cursors
                // land on different providers, then different objects,
                // so short bursts already maximize name diversity.
                let c = *cursor;
                *cursor += 1;
                let provs = self.catalog.len() as u64;
                let prov = (c % provs) as usize;
                let (_, objects, chunks) = self.catalog[prov];
                let obj = ((c / provs) % objects as u64) as usize;
                let chunk = ((c / (provs * objects as u64)) % chunks as u64) as usize;
                (prov, obj, chunk)
            }
            None => {
                let prov = (self.rng.next_u64() % self.catalog.len() as u64) as usize;
                let (_, objects, chunks) = self.catalog[prov];
                let obj = (self.rng.next_u64() % objects as u64) as usize;
                let chunk = (self.rng.next_u64() % chunks as u64) as usize;
                (prov, obj, chunk)
            }
        };
        let mut name = self.catalog[prov]
            .0
            .child(format!("obj{obj}"))
            .child(format!("c{chunk}"));
        if self.per_session {
            name = name.child(format!("u{}", self.principal));
        }
        self.nonce_seq += 1;
        let nonce = NONCE_TAG ^ (self.principal << 40) ^ self.nonce_seq;
        let mut i = Interest::new(name, nonce);
        i.set_lifetime_ms(self.lifetime_ms);
        i
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        vec![
            ("/prov0".parse().unwrap(), 10, 10),
            ("/prov1".parse().unwrap(), 10, 10),
        ]
    }

    fn driver(class: AttackClass, intensity: u32) -> BaselineAdversary {
        BaselineAdversary::new(
            class,
            9,
            intensity,
            1_000,
            Rng::seed_from_u64(7),
            catalog(),
            false,
        )
    }

    #[test]
    fn accumulator_hits_the_configured_rate_exactly() {
        let mut d = driver(AttackClass::Flood, 37);
        let mut total = 0usize;
        for _ in 0..10 {
            total += d.on_tick(SimTime::ZERO).len();
        }
        assert_eq!(total, 37, "one second of ticks emits exactly `intensity`");
    }

    #[test]
    fn breadth_walk_maximizes_distinct_names() {
        let mut d = driver(AttackClass::BfPollution, 1_000);
        let out = d.on_tick(SimTime::ZERO);
        assert_eq!(out.len(), 100);
        let distinct: std::collections::HashSet<_> = out.iter().map(|i| i.name().clone()).collect();
        assert_eq!(distinct.len(), 100, "every pollution Interest is fresh");
        // Consecutive names alternate providers: breadth before depth.
        assert_ne!(
            out[0].name().components()[0].to_string(),
            out[1].name().components()[0].to_string()
        );
    }

    #[test]
    fn session_names_carry_the_principal() {
        let mut d = BaselineAdversary::new(
            AttackClass::Flood,
            9,
            10,
            1_000,
            Rng::seed_from_u64(7),
            catalog(),
            true,
        );
        let out = d.on_tick(SimTime::ZERO);
        assert!(!out.is_empty());
        assert!(out
            .iter()
            .all(|i| i.name().components().last().unwrap().to_string() == "u9"));
    }

    #[test]
    fn drivers_are_deterministic_per_stream() {
        let run = || {
            let mut d = driver(AttackClass::ForgeTags, 50);
            let mut names = Vec::new();
            for _ in 0..20 {
                names.extend(d.on_tick(SimTime::ZERO).iter().map(|i| i.name().clone()));
            }
            names
        };
        assert_eq!(run(), run());
    }
}
