//! The access-point relay: transparent pending-Interest bookkeeping shared
//! by every plane's AP nodes.
//!
//! An AP forwards user Interests to its one upstream edge router and
//! demultiplexes returning Data/NACKs back to the pending user faces.
//! Demultiplexing is per *requester identity* when the mechanism supplies
//! one (TACTIC's tag echo) — a layer-2 unicast, like a real wireless AP
//! delivering to one station — and falls back to everyone pending on the
//! name when it doesn't (`None`: public content, registration responses,
//! identity-less baselines).

use std::collections::HashMap;

use tactic_ndn::face::FaceId;
use tactic_ndn::name::Name;
use tactic_ndn::packet::{fan_out, Interest, Packet};
use tactic_sim::time::{SimDuration, SimTime};
use tactic_topology::graph::{NodeId, Role};
use tactic_topology::roles::Topology;

use crate::links::Links;
use crate::plane::Emit;

/// How long a pending user Interest waits at an access point before a
/// purge sweep forgets it.
const PENDING_TTL: SimDuration = SimDuration::from_secs(4);

/// Pending-Interest state for one access point.
#[derive(Debug)]
pub struct ApRelay {
    /// The AP's own node id (planes stamp it into access paths).
    pub id: NodeId,
    /// The face toward the AP's edge router.
    pub upstream: FaceId,
    /// name → [(user face, sent time, requester identity)]
    pending: HashMap<Name, Vec<(FaceId, SimTime, Option<u64>)>>,
}

/// An access point with no face toward an edge router — scale-free
/// generation (or a mid-run rewiring bug) left it unusable. Carried as a
/// checked error so assembly can report *which* AP is broken instead of
/// panicking deep inside plane construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnwiredAp(pub NodeId);

impl std::fmt::Display for UnwiredAp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "access point {} has no edge-router neighbour", self.0)
    }
}

impl std::error::Error for UnwiredAp {}

impl ApRelay {
    /// Creates the relay for access point `node`, wired via `links`.
    ///
    /// # Errors
    ///
    /// Returns [`UnwiredAp`] if `node` has no edge-router neighbour
    /// (topologies from the role builders never do — see
    /// `Topology::validate_wiring` — but hand-built or mutated graphs
    /// can).
    pub fn new(topo: &Topology, links: &Links, node: NodeId) -> Result<Self, UnwiredAp> {
        let upstream = links.neighbors[node.index()]
            .iter()
            .position(|&(peer, _)| topo.graph.role(peer) == Role::EdgeRouter)
            .map(|i| FaceId::new(i as u32))
            .ok_or(UnwiredAp(node))?;
        Ok(ApRelay {
            id: node,
            upstream,
            pending: HashMap::new(),
        })
    }

    /// Records a user Interest awaiting a reply: `face` asked for `name`
    /// at `now`, as `identity` (if the mechanism carries one).
    pub fn note(&mut self, name: Name, face: FaceId, now: SimTime, identity: Option<u64>) {
        self.pending
            .entry(name)
            .or_default()
            .push((face, now, identity));
    }

    /// Drops pending entries older than `PENDING_TTL` (4 s).
    pub fn purge(&mut self, now: SimTime) {
        self.pending.retain(|_, faces| {
            faces.retain(|&(_, t, _)| now.saturating_since(t) < PENDING_TTL);
            !faces.is_empty()
        });
    }

    /// Relays one packet that arrived on `face`. A user Interest is
    /// noted and forwarded upstream (Interests never flow AP-ward); Data
    /// and NACKs go to the pending user faces the reply claims.
    ///
    /// The mechanism supplies its two differences: `stamp` rewrites an
    /// Interest before it leaves (TACTIC extends the access path with
    /// this AP's id), and `identity` reads the requester identity a
    /// packet carries (`None` broadcasts to everyone pending on the
    /// name).
    pub fn relay(
        &mut self,
        face: FaceId,
        packet: Packet,
        now: SimTime,
        stamp: impl FnOnce(NodeId, &mut Interest),
        identity: impl Fn(&Packet) -> Option<u64>,
        out: &mut Vec<Emit>,
    ) {
        let send = |face, packet| Emit::Send {
            face,
            packet,
            compute: SimDuration::ZERO,
        };
        match packet {
            Packet::Interest(_) if face == self.upstream => {}
            Packet::Interest(mut i) => {
                stamp(self.id, &mut i);
                let packet = Packet::Interest(i);
                self.note(packet.name().clone(), face, now, identity(&packet));
                out.push(send(self.upstream, packet));
            }
            reply => {
                let faces = self.claim(reply.name(), identity(&reply));
                fan_out(faces, reply, |f, p| out.push(send(f, p)));
            }
        }
    }

    /// Removes and returns the pending faces a reply identified by
    /// `identity` should go to. `None` delivers to everyone pending on
    /// the name.
    pub fn claim(&mut self, name: &Name, identity: Option<u64>) -> Vec<FaceId> {
        match identity {
            None => self
                .pending
                .remove(name)
                .unwrap_or_default()
                .into_iter()
                .map(|(f, _, _)| f)
                .collect(),
            Some(id) => {
                let Some(entries) = self.pending.get_mut(name) else {
                    return Vec::new();
                };
                let mut claimed = Vec::new();
                entries.retain(|&(f, _, eid)| {
                    if eid == Some(id) {
                        claimed.push(f);
                        false
                    } else {
                        true
                    }
                });
                if entries.is_empty() {
                    self.pending.remove(name);
                }
                claimed
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> Name {
        s.parse().unwrap()
    }

    fn relay() -> ApRelay {
        ApRelay {
            id: NodeId(3),
            upstream: FaceId::new(0),
            pending: HashMap::new(),
        }
    }

    #[test]
    fn unwired_ap_is_a_checked_error_not_a_panic() {
        use tactic_sim::rng::Rng;
        use tactic_topology::roles::{build_topology, TopologySpec};

        let mut topo = build_topology(
            &TopologySpec {
                core_routers: 8,
                edge_routers: 2,
                providers: 1,
                clients: 2,
                attackers: 0,
            },
            &mut Rng::seed_from_u64(5),
        );
        let ap = topo.access_points[0];
        // Demote the AP's edge router: the AP now has no edge-router
        // neighbour, the defect a scale-free generator can produce.
        let er = topo
            .graph
            .neighbors(ap)
            .find(|&n| topo.graph.role(n) == Role::EdgeRouter)
            .unwrap();
        topo.graph.set_role(er, Role::CoreRouter);
        let links = Links::build(&topo);
        assert_eq!(ApRelay::new(&topo, &links, ap).unwrap_err(), UnwiredAp(ap));

        // A healthy AP still wires up.
        let other = topo.access_points[1];
        let relay = ApRelay::new(&topo, &links, other).unwrap();
        assert_eq!(relay.id, other);
    }

    #[test]
    fn identity_claims_are_unicast() {
        let mut ap = relay();
        ap.note(name("/a/b"), FaceId::new(1), SimTime::ZERO, Some(10));
        ap.note(name("/a/b"), FaceId::new(2), SimTime::ZERO, Some(20));
        assert_eq!(ap.claim(&name("/a/b"), Some(20)), vec![FaceId::new(2)]);
        // The other association is untouched until its own copy arrives.
        assert_eq!(ap.claim(&name("/a/b"), Some(10)), vec![FaceId::new(1)]);
        assert!(ap.claim(&name("/a/b"), Some(10)).is_empty());
    }

    #[test]
    fn anonymous_claims_are_broadcast() {
        let mut ap = relay();
        ap.note(name("/a/b"), FaceId::new(1), SimTime::ZERO, None);
        ap.note(name("/a/b"), FaceId::new(2), SimTime::ZERO, Some(20));
        assert_eq!(
            ap.claim(&name("/a/b"), None),
            vec![FaceId::new(1), FaceId::new(2)]
        );
    }

    #[test]
    fn purge_drops_stale_entries() {
        let mut ap = relay();
        ap.note(name("/a/b"), FaceId::new(1), SimTime::ZERO, None);
        ap.note(name("/a/c"), FaceId::new(2), SimTime::from_secs(5), None);
        ap.purge(SimTime::from_secs(6));
        assert!(ap.claim(&name("/a/b"), None).is_empty(), "stale: purged");
        assert_eq!(ap.claim(&name("/a/c"), None), vec![FaceId::new(2)]);
    }
}
