//! The baseline node plane: vanilla NDN routers plus one of the
//! [`Mechanism`] baselines, driven by the *same* shared [`tactic_net`]
//! transport as the TACTIC simulation.
//!
//! Both planes run on one event loop and assemble their runs through the
//! same [`Scenario`] methods, so link models, the Zipf-window workload,
//! the edge defenses and the paper topologies are shared structurally:
//! the comparison in the paper's motivation (§1) — how much bandwidth
//! client-side AC wastes on unauthorized users, how much load/latency
//! always-online provider auth costs — differs only in node logic.
//! Generated topologies are the exception: each plane salts its run RNG
//! differently (`RNG_SALT` below), so one seed on a
//! [`TopologyChoice::Custom`](tactic::scenario::TopologyChoice::Custom)
//! network yields a different graph per plane.

use std::collections::HashSet;
use std::sync::Arc;

use tactic::scenario::{Assembly, Scenario};
use tactic_ndn::face::FaceId;
use tactic_ndn::forwarder::{process_data, process_interest, InterestAction, Tables};
use tactic_ndn::name::Name;
use tactic_ndn::packet::{fan_out, Packet};
use tactic_net::{
    emit_requests, populate_fib, provider_prefix, ApRelay, AttackFleet, Catalog, CatalogEntry,
    Emit, Net, NetObserver, NodePlane, NoopObserver, PlaneCtx, RequesterConfig, ShardSpec,
    ShardablePlane, ShardedStats, SweepGauges, TransportReport, ZipfRequester, ATTACK_STREAM,
};
use tactic_sim::stats::{ratio, TimeSeries};
use tactic_sim::time::{SimDuration, SimTime};
use tactic_telemetry::{
    Hop, NodeRole, NoopProtocolObserver, ProtocolObserver, RetrievalOutcome, SampleRow,
    SpanProfiler,
};
use tactic_topology::graph::{NodeId, Role};
use tactic_topology::shard::ShardError;

use crate::adversary::BaselineAdversary;
use crate::mechanism::Mechanism;
use crate::provider::BaselineProvider;

/// The baseline planes' RNG salt (see [`Scenario::assembly`]). It seeds
/// generated topologies too, so on a custom topology the baselines and
/// the TACTIC plane (salted `0x7AC7_1C00`) run different graphs for one
/// seed.
const RNG_SALT: u64 = 0xBA5E_11E5;

/// What one baseline run measured.
#[derive(Clone, Default)]
pub struct BaselineReport {
    /// The mechanism simulated.
    pub mechanism_name: String,
    /// Chunks requested by clients.
    pub client_requested: u64,
    /// Chunks received by clients.
    pub client_received: u64,
    /// Chunks requested by attackers.
    pub attacker_requested: u64,
    /// Chunks delivered to attackers (for `ClientSideAc` these are the
    /// wasted encrypted deliveries; for `ProviderAuthAc` they should be 0).
    pub attacker_received: u64,
    /// Bytes of payload delivered to attackers.
    pub attacker_bytes: u64,
    /// Content requests the provider itself had to answer.
    pub provider_handled: u64,
    /// Per-request authentications performed by providers.
    pub provider_auth_ops: u64,
    /// Client retrieval latencies over time.
    pub latency: TimeSeries,
    /// Aggregate router cache hits.
    pub cache_hits: u64,
    /// Aggregate router cache misses.
    pub cache_misses: u64,
    /// Engine events processed.
    pub events: u64,
    /// High-water mark of the engine's pending-event queue (run manifest
    /// provenance; not a paper metric).
    pub peak_queue_depth: u64,
    /// Transport drops split by reason (resilience extension; all zero on
    /// the paper's ideal links).
    pub drops: tactic_net::DropTotals,
    /// High-water mark of PIT records summed over every router, sampled at
    /// the periodic purge sweeps (resilience extension).
    pub peak_pit_records: u64,
    /// Client Interests retransmitted after an expiry (resilience
    /// extension; zero without a retransmission policy).
    pub client_retransmitted: u64,
    /// Client chunks abandoned after exhausting the retransmission budget.
    pub client_gave_up: u64,
    /// Client request expiries (stale-timeout-filtered).
    pub client_timeouts: u64,
    /// High-water mark of content-store entries summed over every router,
    /// sampled at the periodic purge sweeps (observability extension).
    pub peak_cs_entries: u64,
    /// Deterministic sim-time samples (observability extension; empty
    /// unless the scenario sets `sample_every`).
    pub samples: Vec<SampleRow>,
    /// Wall-clock span profile (observability extension; `None` unless
    /// the scenario enables profiling). Nondeterministic — never golden.
    pub profile: Option<Box<SpanProfiler>>,
}

/// Manual `Debug`: every field except `peak_queue_depth` (a per-engine
/// quantity that depends on the shard partition) and the observability
/// extensions (`peak_cs_entries`, `samples`, `profile`) — excluding
/// them keeps formatted reports (golden snapshots, equivalence diffs)
/// byte-identical across shard counts and sampler settings.
impl std::fmt::Debug for BaselineReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BaselineReport")
            .field("mechanism_name", &self.mechanism_name)
            .field("client_requested", &self.client_requested)
            .field("client_received", &self.client_received)
            .field("attacker_requested", &self.attacker_requested)
            .field("attacker_received", &self.attacker_received)
            .field("attacker_bytes", &self.attacker_bytes)
            .field("provider_handled", &self.provider_handled)
            .field("provider_auth_ops", &self.provider_auth_ops)
            .field("latency", &self.latency)
            .field("cache_hits", &self.cache_hits)
            .field("cache_misses", &self.cache_misses)
            .field("events", &self.events)
            .field("drops", &self.drops)
            .field("peak_pit_records", &self.peak_pit_records)
            .field("client_retransmitted", &self.client_retransmitted)
            .field("client_gave_up", &self.client_gave_up)
            .field("client_timeouts", &self.client_timeouts)
            .finish()
    }
}

impl BaselineReport {
    /// Clients' delivery ratio.
    pub fn client_ratio(&self) -> f64 {
        ratio(self.client_received, self.client_requested)
    }

    /// Attackers' delivery ratio.
    pub fn attacker_ratio(&self) -> f64 {
        ratio(self.attacker_received, self.attacker_requested)
    }

    /// Mean client retrieval latency in seconds.
    pub fn mean_latency(&self) -> f64 {
        self.latency.overall_mean()
    }

    /// Router cache hit ratio.
    pub fn cache_hit_ratio(&self) -> f64 {
        ratio(self.cache_hits, self.cache_hits + self.cache_misses)
    }
}

enum Node {
    Router(Tables),
    Provider(BaselineProvider),
    Requester(Box<ZipfRequester>),
    Ap(ApRelay),
}

/// A baseline mechanism as a pluggable [`NodePlane`].
///
/// Generic over a [`ProtocolObserver`] so telemetry can watch the same
/// decision points the TACTIC plane exposes. Baseline routers carry no
/// edge/core distinction in their logic, so all router hops are stamped
/// [`NodeRole::CoreRouter`].
pub struct BaselinePlane<PO: ProtocolObserver = NoopProtocolObserver> {
    mechanism: Mechanism,
    nodes: Vec<Node>,
    /// The open-loop attack drivers of an active attack plan (none
    /// otherwise).
    fleet: AttackFleet<BaselineAdversary>,
    proto: PO,
}

impl<PO: ProtocolObserver> BaselinePlane<PO> {
    fn into_report(self, transport: TransportReport) -> (BaselineReport, PO) {
        let mut report = BaselineReport {
            mechanism_name: self.mechanism.to_string(),
            events: transport.events,
            peak_queue_depth: transport.peak_queue_depth,
            drops: transport.drops,
            peak_pit_records: transport.peak_pit_records(),
            peak_cs_entries: transport.peak_cs_entries(),
            samples: transport.samples,
            profile: transport.profile,
            ..Default::default()
        };
        for node in self.nodes {
            match node {
                Node::Router(t) => {
                    report.cache_hits += t.cs.hits();
                    report.cache_misses += t.cs.misses();
                }
                Node::Provider(p) => {
                    report.provider_handled += p.handled;
                    report.provider_auth_ops += p.auth_ops;
                }
                Node::Requester(r) => {
                    if r.is_client {
                        report.client_requested += r.requested;
                        report.client_received += r.received;
                        report.client_retransmitted += r.retransmitted;
                        report.client_gave_up += r.gave_up;
                        report.client_timeouts += r.timeouts;
                        for (at, lat) in r.latencies {
                            report.latency.record(at, lat);
                        }
                    } else {
                        report.attacker_requested += r.requested;
                        report.attacker_received += r.received;
                        report.attacker_bytes += r.received_bytes;
                    }
                }
                Node::Ap(_) => {}
            }
        }
        (report, self.proto)
    }
}

impl<PO: ProtocolObserver> NodePlane for BaselinePlane<PO> {
    fn on_packet(
        &mut self,
        node: NodeId,
        face: FaceId,
        packet: Packet,
        ctx: &mut PlaneCtx<'_>,
        out: &mut Vec<Emit>,
    ) {
        let now = ctx.now;
        let proto = &mut self.proto;
        let node_id = node.index() as u64;
        match &mut self.nodes[node.index()] {
            Node::Router(tables) => {
                let hop = Hop::new(node_id, NodeRole::CoreRouter, now);
                let send = |face, packet| Emit::Send {
                    face,
                    packet,
                    compute: SimDuration::ZERO,
                };
                match packet {
                    Packet::Interest(i) => {
                        proto.on_interest_hop(hop, i.nonce(), i.name());
                        match process_interest(tables, &i, face, now, Vec::new()) {
                            InterestAction::ReplyFromCache(d) => {
                                proto.on_cache_hit(hop, d.name());
                                out.push(send(face, Packet::Data(d)));
                            }
                            // Relay the Interest by move: no copy made.
                            InterestAction::Forward(f) => out.push(send(f, Packet::Interest(i))),
                            _ => {}
                        }
                    }
                    Packet::Data(d) => {
                        let action = process_data(tables, &d, now);
                        fan_out(action.downstream, d, |rec, d| {
                            out.push(send(rec.face, Packet::Data(d)));
                        });
                    }
                    Packet::Nack(_) => {}
                }
                // Bounded-PIT enforcement (no-op when unbounded): evicted
                // records surface through the shared drop ledger.
                for evicted in tables.pit.evict_over_capacity() {
                    ctx.drops.pit_full += evicted.records().len() as u64;
                }
            }
            Node::Provider(p) => {
                if let Packet::Interest(i) = &packet {
                    let hop = Hop::new(node_id, NodeRole::Provider, now);
                    proto.on_interest_hop(hop, i.nonce(), i.name());
                    let auth_before = p.auth_ops;
                    let (reply, charge) = p.handle(i, self.mechanism, ctx.rng, ctx.cost);
                    if p.auth_ops > auth_before {
                        proto.on_sig_verify(hop, reply.is_some(), false);
                    }
                    if let Some(d) = reply {
                        out.push(Emit::Send {
                            face,
                            packet: Packet::Data(d),
                            compute: charge,
                        });
                    }
                }
            }
            Node::Requester(r) => {
                if self.fleet.drives(node) {
                    return; // Open-loop fleet: replies are never tracked.
                }
                if let Packet::Data(d) = &packet {
                    let hop = Hop::new(node_id, NodeRole::Consumer, now);
                    proto.on_retrieval(hop, d.name(), RetrievalOutcome::Data);
                    let sends = r.on_data(d, now);
                    emit_requests(proto, hop, sends, |n| r.timeout_for(n), out);
                }
            }
            // No tag, no identity: baseline replies are broadcast to
            // everyone pending on the name.
            Node::Ap(ap) => ap.relay(face, packet, now, |_, _| {}, |_| None, out),
        }
    }

    fn on_start(&mut self, node: NodeId, ctx: &mut PlaneCtx<'_>, out: &mut Vec<Emit>) {
        if self.fleet.on_start(node, out) {
            return;
        }
        let Node::Requester(r) = &mut self.nodes[node.index()] else {
            return;
        };
        let sends = r.fill(ctx.now);
        let hop = Hop::new(node.index() as u64, NodeRole::Consumer, ctx.now);
        emit_requests(&mut self.proto, hop, sends, |n| r.timeout_for(n), out);
    }

    fn on_timeout(
        &mut self,
        node: NodeId,
        name: Name,
        sent: SimTime,
        ctx: &mut PlaneCtx<'_>,
        out: &mut Vec<Emit>,
    ) {
        if self
            .fleet
            .on_timeout(node, &name, ctx.now, &mut self.proto, out)
        {
            return;
        }
        let Node::Requester(r) = &mut self.nodes[node.index()] else {
            return;
        };
        let hop = Hop::new(node.index() as u64, NodeRole::Consumer, ctx.now);
        self.proto.on_timeout_expired(hop, &name, sent);
        let sends = r.on_timeout(&name, sent, ctx.now);
        emit_requests(&mut self.proto, hop, sends, |n| r.timeout_for(n), out);
    }

    fn on_purge(&mut self, now: SimTime) -> SweepGauges {
        let mut gauges = SweepGauges::default();
        for node in &mut self.nodes {
            match node {
                Node::Router(t) => {
                    gauges.pit_records += t.pit.total_records() as u64;
                    gauges.cs_entries += t.cs.len() as u64;
                    t.pit.purge_expired(now);
                }
                Node::Ap(ap) => ap.purge(now),
                _ => {}
            }
        }
        gauges
    }

    fn on_sample(&mut self, _now: SimTime, owns: &dyn Fn(NodeId) -> bool, row: &mut SampleRow) {
        // Baseline routers carry no Bloom filter, so only the table
        // gauges contribute; every term is an integer sum over owned
        // nodes, which is what makes per-shard rows merge exactly.
        for (idx, node) in self.nodes.iter().enumerate() {
            if !owns(NodeId(idx as u32)) {
                continue;
            }
            if let Node::Router(t) = node {
                row.pit_records += t.pit.total_records() as u64;
                row.cs_entries += t.cs.len() as u64;
            }
        }
    }

    fn on_reroute(&mut self, routes: &[tactic_net::FibRoute]) {
        // Full replacement: rebuild every router's FIB from the
        // post-failure routing plane the transport computed.
        for node in &mut self.nodes {
            if let Node::Router(t) = node {
                t.fib.clear();
            }
        }
        for route in routes {
            if let Node::Router(t) = &mut self.nodes[route.router.index()] {
                t.fib
                    .add_route(route.prefix.clone(), route.face, route.cost_us);
            }
        }
    }

    fn on_handover(&mut self, node: NodeId, ctx: &mut PlaneCtx<'_>, out: &mut Vec<Emit>) {
        if self.fleet.drives(node) {
            return; // The open-loop fleet keeps its pace across moves.
        }
        let Node::Requester(r) = &mut self.nodes[node.index()] else {
            return;
        };
        let sends = r.on_move(ctx.now);
        let hop = Hop::new(node.index() as u64, NodeRole::Consumer, ctx.now);
        emit_requests(&mut self.proto, hop, sends, |n| r.timeout_for(n), out);
    }
}

impl<PO: ProtocolObserver> ShardablePlane for BaselinePlane<PO> {
    fn adopt(&mut self, owner: &mut Self, node: NodeId) {
        std::mem::swap(
            &mut self.nodes[node.index()],
            &mut owner.nodes[node.index()],
        );
    }
}

/// The assembled baseline simulation on the shared transport.
pub struct BaselineNetwork<O = NoopObserver, PO: ProtocolObserver = NoopProtocolObserver> {
    net: Net<BaselinePlane<PO>, O>,
}

impl BaselineNetwork {
    /// Builds a baseline run from the same [`Scenario`] shape the TACTIC
    /// simulation uses (tag-related fields are ignored; mobility is
    /// honoured through the shared transport).
    pub fn build(scenario: &Scenario, mechanism: Mechanism, seed: u64) -> Self {
        Self::build_observed(scenario, mechanism, seed, NoopObserver)
    }

    /// Runs to the horizon and reports.
    pub fn run(self) -> BaselineReport {
        self.run_observed().0
    }
}

impl<O: NetObserver> BaselineNetwork<O> {
    /// Builds a baseline run with an explicit transport observer.
    pub fn build_observed(
        scenario: &Scenario,
        mechanism: Mechanism,
        seed: u64,
        observer: O,
    ) -> Self {
        Self::build_traced(scenario, mechanism, seed, observer, NoopProtocolObserver)
    }

    /// Runs to the horizon; returns the report and the observer.
    pub fn run_observed(self) -> (BaselineReport, O) {
        let (report, observer, _) = self.run_traced();
        (report, observer)
    }
}

impl<O: NetObserver, PO: ProtocolObserver> BaselineNetwork<O, PO> {
    /// Builds a baseline run with both a transport observer and a
    /// protocol observer.
    pub fn build_traced(
        scenario: &Scenario,
        mechanism: Mechanism,
        seed: u64,
        observer: O,
        proto: PO,
    ) -> Self {
        Self::build_inner(scenario, mechanism, seed, observer, proto, None)
    }

    /// Shared construction path: a sequential run (`shard == None`) or
    /// one replica of a sharded run (see `tactic::net` for the
    /// replicated-state protocol).
    fn build_inner(
        scenario: &Scenario,
        mechanism: Mechanism,
        seed: u64,
        observer: O,
        proto: PO,
        shard: Option<ShardSpec>,
    ) -> Self {
        let asm = scenario.assembly(seed, RNG_SALT);
        let Assembly { rng, topo, links } = &asm;
        let n = topo.graph.node_count();

        let entries = (0..topo.providers.len())
            .map(|i| CatalogEntry {
                prefix: provider_prefix(i),
                objects: scenario.objects_per_provider,
                chunks: scenario.chunks_per_object,
            })
            .collect();
        let catalog = Arc::new(Catalog::new(entries, scenario.zipf_alpha));

        let clients: Arc<HashSet<u64>> =
            Arc::new(topo.clients.iter().map(|c| c.index() as u64).collect());

        // Routers: disable caching entirely for provider-auth (protected
        // content must reach the provider).
        let cs_capacity = if mechanism.caches_protected_content() {
            scenario.cs_capacity
        } else {
            0
        };

        let mut nodes = Vec::with_capacity(n);
        let mut provider_idx = 0usize;
        for node in topo.graph.nodes() {
            let state = match topo.graph.role(node) {
                Role::CoreRouter | Role::EdgeRouter => {
                    let mut tables = Tables::new(cs_capacity);
                    tables.pit.set_capacity(scenario.defense.pit_capacity);
                    Node::Router(tables)
                }
                Role::Provider => {
                    let entry = &catalog.entries()[provider_idx];
                    provider_idx += 1;
                    Node::Provider(BaselineProvider::new(
                        entry.prefix.clone(),
                        entry.objects,
                        entry.chunks,
                        scenario.chunk_size,
                        Arc::clone(&clients),
                    ))
                }
                Role::Client | Role::Attacker => Node::Requester(Box::new(ZipfRequester::new(
                    RequesterConfig {
                        principal: node.index() as u64,
                        is_client: topo.graph.role(node) == Role::Client,
                        window: scenario.window,
                        timeout: scenario.request_timeout,
                        per_session_names: mechanism.per_request_provider_auth(),
                        retransmit: scenario.retransmit,
                    },
                    Arc::clone(&catalog),
                    rng.fork(0x200 + node.index() as u64),
                ))),
                Role::AccessPoint => Node::Ap(
                    ApRelay::new(topo, links, node)
                        .expect("validated topology: AP wired to an edge router"),
                ),
            };
            nodes.push(state);
        }
        populate_fib(topo, links, |rnode, _i, prefix, face, cost_us| {
            if let Node::Router(t) = &mut nodes[rnode.index()] {
                t.fib.add_route(prefix, face, cost_us);
            }
        });

        // Adversarial fleet: an active plan repurposes every attacker
        // into an open-loop traffic source ([`crate::adversary`]).
        let mut adversaries: Vec<Option<BaselineAdversary>> = (0..n).map(|_| None).collect();
        if let Some(class) = scenario.attack.driver_class() {
            let lifetime_ms = (scenario.request_timeout.as_nanos() / 1_000_000) as u32;
            for &anode in &topo.attackers {
                let principal = anode.index() as u64;
                adversaries[anode.index()] = Some(BaselineAdversary::new(
                    class,
                    principal,
                    scenario.attack.intensity,
                    lifetime_ms,
                    rng.fork(ATTACK_STREAM ^ principal),
                    Arc::clone(&catalog),
                    mechanism.per_request_provider_auth(),
                ));
            }
        }

        let plane = BaselinePlane {
            mechanism,
            nodes,
            fleet: AttackFleet::new(adversaries),
            proto,
        };
        BaselineNetwork {
            net: scenario.assemble(asm, plane, observer, shard),
        }
    }

    /// Runs to the horizon; returns the report, the transport observer,
    /// and the protocol observer.
    pub fn run_traced(self) -> (BaselineReport, O, PO) {
        let (plane, observer, transport) = self.net.run();
        let (report, proto) = plane.into_report(transport);
        (report, observer, proto)
    }
}

/// Builds and runs one baseline.
pub fn run_baseline(scenario: &Scenario, mechanism: Mechanism, seed: u64) -> BaselineReport {
    BaselineNetwork::build(scenario, mechanism, seed).run()
}

/// Runs one baseline space-partitioned across `shards` worker threads,
/// with per-shard transport and protocol observers. The merged
/// [`BaselineReport`] is byte-identical to [`run_baseline`]'s for every
/// shard count (see `tactic::net::run_traced_sharded` for the
/// protocol; this is the same machinery on the baseline plane).
pub fn run_baseline_traced_sharded<O, PO, MO, MP>(
    scenario: &Scenario,
    mechanism: Mechanism,
    seed: u64,
    shards: usize,
    make_observer: MO,
    make_proto: MP,
) -> Result<(BaselineReport, Vec<O>, Vec<PO>, ShardedStats), ShardError>
where
    O: NetObserver + Send,
    PO: ProtocolObserver + Send,
    MO: Fn(u32) -> O + Sync,
    MP: Fn(u32) -> PO + Sync,
{
    let run = scenario.run_sharded_plane(seed, RNG_SALT, shards, |spec| {
        let s = spec.my_shard;
        BaselineNetwork::build_inner(
            scenario,
            mechanism,
            seed,
            make_observer(s),
            make_proto(s),
            Some(spec),
        )
        .net
    })?;
    let mut planes = run.planes.into_iter();
    let host = planes.next().expect("at least one shard");
    let (report, proto) = host.into_report(run.transport);
    let protos = std::iter::once(proto)
        .chain(planes.map(|p| p.proto))
        .collect();
    Ok((report, run.observers, protos, run.stats))
}

/// Convenience: [`run_baseline_traced_sharded`] with no observers.
pub fn run_baseline_sharded(
    scenario: &Scenario,
    mechanism: Mechanism,
    seed: u64,
    shards: usize,
) -> Result<(BaselineReport, ShardedStats), ShardError> {
    let (report, _, _, stats) = run_baseline_traced_sharded(
        scenario,
        mechanism,
        seed,
        shards,
        |_| NoopObserver,
        |_| NoopProtocolObserver,
    )?;
    Ok((report, stats))
}
