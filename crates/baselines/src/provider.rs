//! The baseline origin server: serves `/prefix/objI/cJ[/uN]` chunks,
//! optionally authenticating every request (the always-online
//! provider-auth mechanism).

use std::collections::HashSet;
use std::sync::Arc;

use tactic_ndn::name::Name;
use tactic_ndn::packet::{Data, Interest, Payload};
use tactic_sim::cost::{CostModel, Op};
use tactic_sim::rng::Rng;
use tactic_sim::time::SimDuration;

use crate::mechanism::Mechanism;

/// One provider's content catalog and per-request accounting.
pub struct BaselineProvider {
    prefix: Name,
    objects: usize,
    chunks: usize,
    chunk_size: usize,
    /// Read-only, so one set serves every provider of a network.
    authorized: Arc<HashSet<u64>>,
    /// Content requests this provider answered (or vetted).
    pub handled: u64,
    /// Per-request authentications performed.
    pub auth_ops: u64,
}

impl BaselineProvider {
    /// Creates a provider serving `objects × chunks` chunks of
    /// `chunk_size` bytes under `prefix`, with `authorized` principals.
    pub fn new(
        prefix: Name,
        objects: usize,
        chunks: usize,
        chunk_size: usize,
        authorized: Arc<HashSet<u64>>,
    ) -> Self {
        BaselineProvider {
            prefix,
            objects,
            chunks,
            chunk_size,
            authorized,
            handled: 0,
            auth_ops: 0,
        }
    }

    /// Parses `/<prefix>/objI/cJ[/uN]`.
    fn parse(&self, name: &Name) -> Option<(usize, usize, Option<u64>)> {
        if !self.prefix.is_prefix_of(name) {
            return None;
        }
        let rest = name.len() - self.prefix.len();
        if !(2..=3).contains(&rest) {
            return None;
        }
        let obj: usize = std::str::from_utf8(name.get(self.prefix.len())?.as_bytes())
            .ok()?
            .strip_prefix("obj")?
            .parse()
            .ok()?;
        let chunk: usize = std::str::from_utf8(name.get(self.prefix.len() + 1)?.as_bytes())
            .ok()?
            .strip_prefix('c')?
            .parse()
            .ok()?;
        let principal = if rest == 3 {
            Some(
                std::str::from_utf8(name.get(self.prefix.len() + 2)?.as_bytes())
                    .ok()?
                    .strip_prefix('u')?
                    .parse()
                    .ok()?,
            )
        } else {
            None
        };
        (obj < self.objects && chunk < self.chunks).then_some((obj, chunk, principal))
    }

    /// Handles one Interest: returns the reply (if any) and the
    /// computation time to charge before it goes on the wire.
    pub fn handle(
        &mut self,
        interest: &Interest,
        mechanism: Mechanism,
        rng: &mut Rng,
        cost: &CostModel,
    ) -> (Option<Data>, SimDuration) {
        let mut charge = SimDuration::ZERO;
        let Some((_, _, principal)) = self.parse(interest.name()) else {
            return (None, charge);
        };
        self.handled += 1;
        if mechanism.per_request_provider_auth() {
            self.auth_ops += 1;
            charge += cost.sample(Op::SigVerify, rng);
            match principal {
                Some(p) if self.authorized.contains(&p) => {}
                _ => return (None, charge), // Unauthorized: drop.
            }
        }
        let d = Data::new(interest.name().clone(), Payload::Synthetic(self.chunk_size));
        (Some(d), charge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn provider() -> BaselineProvider {
        BaselineProvider::new(
            "/prov0".parse().unwrap(),
            4,
            2,
            512,
            Arc::new([10u64].into_iter().collect()),
        )
    }

    #[test]
    fn serves_valid_names_and_rejects_garbage() {
        let mut p = provider();
        let mut rng = Rng::seed_from_u64(1);
        let cost = CostModel::free();
        let ok = Interest::new("/prov0/obj1/c1".parse().unwrap(), 1);
        assert!(p
            .handle(&ok, Mechanism::NoAccessControl, &mut rng, &cost)
            .0
            .is_some());
        for bad in ["/prov1/obj1/c1", "/prov0/obj9/c1", "/prov0/obj1", "/prov0"] {
            let i = Interest::new(bad.parse().unwrap(), 2);
            assert!(
                p.handle(&i, Mechanism::NoAccessControl, &mut rng, &cost)
                    .0
                    .is_none(),
                "{bad} must not be served"
            );
        }
    }

    #[test]
    fn provider_auth_gates_on_the_session_principal() {
        let mut p = provider();
        let mut rng = Rng::seed_from_u64(2);
        let cost = CostModel::free();
        let authorized = Interest::new("/prov0/obj0/c0/u10".parse().unwrap(), 1);
        let stranger = Interest::new("/prov0/obj0/c0/u66".parse().unwrap(), 2);
        let anonymous = Interest::new("/prov0/obj0/c0".parse().unwrap(), 3);
        assert!(p
            .handle(&authorized, Mechanism::ProviderAuthAc, &mut rng, &cost)
            .0
            .is_some());
        assert!(p
            .handle(&stranger, Mechanism::ProviderAuthAc, &mut rng, &cost)
            .0
            .is_none());
        assert!(p
            .handle(&anonymous, Mechanism::ProviderAuthAc, &mut rng, &cost)
            .0
            .is_none());
        assert_eq!(p.auth_ops, 3);
        assert_eq!(p.handled, 3);
    }
}
