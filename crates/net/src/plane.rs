//! The pluggable node-logic layer: a mechanism implements [`NodePlane`]
//! and the shared transport drives it through the event loop.
//!
//! A plane owns its node states (routers, providers, consumers, relays —
//! whatever the mechanism needs) and reacts to transport callbacks by
//! pushing [`Emit`]s; the transport performs them in order, which is what
//! keeps engine sequence numbers — and therefore whole runs —
//! deterministic across refactors and thread counts.

use tactic_ndn::face::FaceId;
use tactic_ndn::name::Name;
use tactic_ndn::packet::{Interest, Packet};
use tactic_sim::cost::CostModel;
use tactic_sim::rng::Rng;
use tactic_sim::time::{SimDuration, SimTime};
use tactic_telemetry::{Hop, ProtocolObserver, SampleRow, SpanProfiler};
use tactic_topology::graph::NodeId;

use crate::observer::DropTotals;

/// Per-event context handed to plane callbacks.
pub struct PlaneCtx<'a> {
    /// The current simulation time (time of the event being handled).
    pub now: SimTime,
    /// The run's shared RNG stream. Draws consume the stream, so a plane
    /// must draw exactly when its logic needs randomness — never
    /// speculatively — to stay reproducible.
    pub rng: &'a mut Rng,
    /// The computation-cost injection model.
    pub cost: &'a CostModel,
    /// The wall-clock span profiler, when enabled. Planes time their
    /// hot phases (`precheck`, `bf_lookup`, `sig_verify`, PIT ops, ...)
    /// through it; `None` (the default) must cost nothing.
    pub profiler: Option<&'a mut SpanProfiler>,
    /// The transport's drop ledger: planes count drops that happen
    /// inside their own state here (today: bounded-PIT evictions as
    /// [`DropTotals::pit_full`]), so they surface through the same
    /// report/telemetry path as transport-level drops.
    pub drops: &'a mut DropTotals,
}

/// A side effect a plane callback asks the transport to perform.
///
/// Emits are applied strictly in push order; interleaving matters (for
/// example, scheduling a request's expiry *before* transmitting it keeps
/// the engine's FIFO tie-break identical to the historical planes).
#[derive(Debug)]
pub enum Emit {
    /// Transmit `packet` out `face` of the handling node after `compute`
    /// processing time, subject to FIFO link serialisation.
    Send {
        /// The outgoing face of the node handling the event.
        face: FaceId,
        /// The packet to put on the wire.
        packet: Packet,
        /// Sender-side computation time charged before the link is taken.
        compute: SimDuration,
    },
    /// Schedule a request-expiry check for the handling node: the plane's
    /// [`NodePlane::on_timeout`] fires after `delay` with `sent` equal to
    /// the time of this emit.
    Timeout {
        /// The request name to re-examine.
        name: Name,
        /// How long until the expiry check fires.
        delay: SimDuration,
    },
}

/// Transmits a requesting node's `interests` on its radio face (face 0),
/// reporting each to `proto`. Each Interest's expiry check —
/// `timeout_for` its name, so a retransmission carries its backed-off
/// timeout — is scheduled *before* the Interest is transmitted: the
/// historical FIFO tie-break order every plane's golden runs rely on.
pub fn emit_requests<PO: ProtocolObserver>(
    proto: &mut PO,
    hop: Hop,
    interests: Vec<Interest>,
    timeout_for: impl Fn(&Name) -> SimDuration,
    out: &mut Vec<Emit>,
) {
    for i in interests {
        proto.on_interest_emitted(hop, i.nonce(), i.name());
        out.push(Emit::Timeout {
            name: i.name().clone(),
            delay: timeout_for(i.name()),
        });
        out.push(Emit::Send {
            face: FaceId::new(0),
            packet: Packet::Interest(i),
            compute: SimDuration::ZERO,
        });
    }
}

/// What a plane held at one purge sweep, summed over its routers and
/// sampled *before* the sweep purged anything, so the peaks reflect what
/// loss actually accumulated. The transport records one per sweep in
/// [`TransportReport::sweeps`](crate::TransportReport::sweeps).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepGauges {
    /// PIT records (in-records, not entries).
    pub pit_records: u64,
    /// Content-store entries.
    pub cs_entries: u64,
}

/// Mechanism-specific node logic plugged into the shared transport.
///
/// Implementations hold every node's state and must be deterministic: the
/// same callback sequence with the same [`PlaneCtx`] draws must produce
/// the same emits. All methods other than [`on_packet`](Self::on_packet)
/// have no-op defaults so minimal planes (tests, examples) stay short.
#[allow(unused_variables)]
pub trait NodePlane {
    /// A packet finished arriving at `node` on `face`.
    fn on_packet(
        &mut self,
        node: NodeId,
        face: FaceId,
        packet: Packet,
        ctx: &mut PlaneCtx<'_>,
        out: &mut Vec<Emit>,
    );

    /// A consumer/requester node begins its request loop.
    fn on_start(&mut self, node: NodeId, ctx: &mut PlaneCtx<'_>, out: &mut Vec<Emit>) {}

    /// An expiry check scheduled via [`Emit::Timeout`] fired: the request
    /// for `name` sent at `sent` may have expired.
    fn on_timeout(
        &mut self,
        node: NodeId,
        name: Name,
        sent: SimTime,
        ctx: &mut PlaneCtx<'_>,
        out: &mut Vec<Emit>,
    ) {
    }

    /// The periodic (1 s) expiry sweep: purge PITs, relay state, and any
    /// other soft state, returning the gauges read before purging. A
    /// sharded replica's non-owned nodes stay pristine (empty PITs and
    /// content stores), so summing every node yields exactly this
    /// shard's share.
    fn on_purge(&mut self, now: SimTime) -> SweepGauges {
        SweepGauges::default()
    }

    /// `node` was just re-attached to a new access point by the mobility
    /// model; the plane may refresh credentials and refill its window.
    fn on_handover(&mut self, node: NodeId, ctx: &mut PlaneCtx<'_>, out: &mut Vec<Emit>) {}

    /// A scheduled fault changed the usable topology; `routes` is the
    /// complete recomputed FIB (full-replacement semantics: the plane
    /// should clear every router's FIB and install exactly these entries).
    fn on_reroute(&mut self, routes: &[crate::links::FibRoute]) {}

    /// The periodic sampler tick: add this plane's gauges for the nodes
    /// it owns (per `owns`, always true sequentially) into `row` —
    /// PIT records, content-store entries, Bloom-filter state. Every
    /// contribution must be a cumulative/instantaneous integer so the
    /// per-shard rows merge to the sequential row exactly.
    fn on_sample(&mut self, now: SimTime, owns: &dyn Fn(NodeId) -> bool, row: &mut SampleRow) {}
}
