//! The TACTIC node plane: routers running Protocols 1–4, providers issuing
//! tags, access points accumulating the access path, and Zipf-window
//! consumers — all driven by the shared [`tactic_net`] transport.
//!
//! This is the reproduction's equivalent of the paper's ndnSIM scenario:
//! the transport supplies store-and-forward links with per-link FIFO
//! serialisation (500 Mbps/1 ms core, 10 Mbps/2 ms edge) and the
//! mobility/handover model; this module supplies only what is
//! TACTIC-specific.

use std::sync::Arc;

use tactic_crypto::cert::{CertStore, Certificate};
use tactic_crypto::schnorr::KeyPair;
use tactic_ndn::face::FaceId;
use tactic_ndn::name::Name;
use tactic_ndn::packet::Packet;
use tactic_net::{
    emit_requests, populate_fib, provider_prefix, ApRelay, AttackClass, AttackFleet, Catalog,
    CatalogEntry, Emit, Net, NetObserver, NodePlane, NoopObserver, PlaneCtx, ShardSpec,
    ShardablePlane, ShardedStats, SweepGauges, TransportReport, ATTACK_STREAM,
};
use tactic_sim::time::{SimDuration, SimTime};
use tactic_telemetry::{
    ratio_to_fp, Hop, NodeRole, NoopProtocolObserver, ProtocolObserver, RetrievalOutcome, SampleRow,
};
use tactic_topology::graph::{NodeId, Role};
use tactic_topology::shard::ShardError;

use crate::access::AccessLevel;
use crate::access_path::AccessPath;
use crate::adversary::{self, AdversaryDriver};
use crate::consumer::{AttackerStrategy, Consumer, ConsumerConfig, ConsumerKind};
use crate::ext;
use crate::metrics::RunReport;
use crate::provider::{Grant, GrantTable, Provider, ProviderConfig};
use crate::router::{RouterConfig, RouterRole, TacticRouter};
use crate::scenario::{Assembly, Scenario, TagLifetimePolicy};

/// The TACTIC plane's RNG salt (see [`Scenario::assembly`]). It seeds
/// generated topologies too, so on a custom topology this plane and the
/// baselines (salted `0xBA5E_11E5`) run different graphs for one seed.
const RNG_SALT: u64 = 0x7AC7_1C00;

/// The dedicated RNG stream for tag-lifecycle jitter (xor'd with the
/// consumer's principal). Forked only while a churn
/// [`TagLifetimePolicy`] is active, so [`TagLifetimePolicy::Fixed`] runs
/// draw nothing from it and stay byte-identical to builds that predate
/// the lifecycle layer.
pub const LIFECYCLE_STREAM: u64 = 0x11FE_C7C1_E000_0001;

enum NodeState {
    Router(Box<TacticRouter>),
    Provider(Box<Provider>),
    Consumer(Box<Consumer>),
    Ap(ApRelay),
}

/// The TACTIC mechanism as a pluggable [`NodePlane`]: owns every node's
/// state and reacts to transport callbacks, reporting protocol decisions
/// to the [`ProtocolObserver`] `PO` (a no-op by default).
pub struct TacticPlane<PO: ProtocolObserver = NoopProtocolObserver> {
    nodes: Vec<NodeState>,
    edge_router_set: Vec<bool>,
    /// The open-loop attack drivers of an active
    /// [`crate::scenario::AttackPlan`] (none otherwise).
    fleet: AttackFleet<AdversaryDriver>,
    proto: PO,
}

impl<PO: ProtocolObserver> TacticPlane<PO> {
    /// Consumes the plane into the aggregated [`RunReport`], returning
    /// the protocol observer alongside it.
    fn into_report(self, duration: SimDuration, transport: TransportReport) -> (RunReport, PO) {
        let mut report = RunReport {
            duration,
            events: transport.events,
            moves: transport.moves,
            peak_queue_depth: transport.peak_queue_depth,
            drops: transport.drops,
            peak_pit_records: transport.peak_pit_records(),
            peak_cs_entries: transport.peak_cs_entries(),
            samples: transport.samples,
            profile: transport.profile,
            ..Default::default()
        };
        for (idx, state) in self.nodes.into_iter().enumerate() {
            match state {
                NodeState::Router(r) => {
                    for &(identity, observed_path, at) in r.sightings() {
                        report.sightings.push(crate::traitor::Sighting {
                            identity,
                            observed_path,
                            edge_router: idx as u64,
                            at,
                        });
                    }
                    if self.edge_router_set[idx] {
                        report.edge_ops.merge(r.counters());
                        report
                            .edge_reset_requests
                            .extend_from_slice(r.reset_request_counts());
                    } else {
                        report.core_ops.merge(r.counters());
                        report
                            .core_reset_requests
                            .extend_from_slice(r.reset_request_counts());
                    }
                }
                NodeState::Provider(p) => {
                    let c = p.counters();
                    report.providers.tags_issued += c.tags_issued;
                    report.providers.registrations_denied += c.registrations_denied;
                    report.providers.chunks_served += c.chunks_served;
                    report.providers.nacks += c.nacks;
                    report.providers.tags_renewed += c.tags_renewed;
                }
                NodeState::Consumer(c) => {
                    report.absorb_consumer(c.kind(), c.stats().clone());
                }
                NodeState::Ap(_) => {}
            }
        }
        (report, self.proto)
    }
}

impl<PO: ProtocolObserver> NodePlane for TacticPlane<PO> {
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
            NodeState::Router(r) => {
                let mut prof = ctx.profiler.as_deref_mut();
                let res = match packet {
                    Packet::Interest(i) => r.handle_interest_observed(
                        i, face, now, ctx.rng, ctx.cost, node_id, proto, &mut prof,
                    ),
                    Packet::Data(d) => r.handle_data_observed(
                        d, face, now, ctx.rng, ctx.cost, node_id, proto, &mut prof,
                    ),
                    // Standalone NACKs travel downstream: relay toward the
                    // pending requesters, consuming the PIT state.
                    Packet::Nack(n) => r.handle_nack_observed(n, now, node_id, proto),
                };
                ctx.drops.pit_full += res.pit_evictions;
                for (out_face, pkt) in res.sends {
                    out.push(Emit::Send {
                        face: out_face,
                        packet: pkt,
                        compute: res.compute,
                    });
                }
            }
            NodeState::Provider(p) => {
                let (replies, compute) = match &packet {
                    Packet::Interest(i) => p.handle_interest_observed(
                        i,
                        now,
                        ctx.rng,
                        ctx.cost,
                        node_id,
                        proto,
                        &mut ctx.profiler.as_deref_mut(),
                    ),
                    _ => (Vec::new(), SimDuration::ZERO),
                };
                for pkt in replies {
                    out.push(Emit::Send {
                        face,
                        packet: pkt,
                        compute,
                    });
                }
            }
            NodeState::Consumer(c) => {
                if self.fleet.drives(node) {
                    return; // Open-loop fleet: replies are never tracked.
                }
                let hop = Hop::new(node_id, NodeRole::Consumer, now);
                let sends = match &packet {
                    Packet::Data(d) => {
                        proto.on_retrieval(hop, d.name(), RetrievalOutcome::Data);
                        c.on_data(d, now)
                    }
                    Packet::Nack(n) => {
                        proto.on_retrieval(hop, n.interest().name(), RetrievalOutcome::Nack);
                        c.on_nack(n, now)
                    }
                    Packet::Interest(_) => Vec::new(),
                };
                emit_requests(proto, hop, sends, |n| c.timeout_for(n), out);
            }
            // The AP accumulates the access path with its own identity
            // and demultiplexes replies by the requester identity their
            // tag carries.
            NodeState::Ap(ap) => ap.relay(
                face,
                packet,
                now,
                |id, i| {
                    let path = ext::interest_access_path(i).extended(id.0 as u64);
                    ext::set_interest_access_path(i, path);
                },
                |p| {
                    let tag = match p {
                        Packet::Interest(i) => ext::interest_tag(i),
                        Packet::Data(d) => ext::data_tag(d),
                        Packet::Nack(n) => ext::interest_tag(n.interest()),
                    };
                    tag.as_deref().map(crate::tag::SignedTag::client_identity)
                },
                out,
            ),
        }
    }

    fn on_start(&mut self, node: NodeId, ctx: &mut PlaneCtx<'_>, out: &mut Vec<Emit>) {
        if self.fleet.on_start(node, out) {
            return;
        }
        let NodeState::Consumer(c) = &mut self.nodes[node.index()] else {
            return;
        };
        let hop = Hop::new(node.index() as u64, NodeRole::Consumer, ctx.now);
        let sends = c.fill(ctx.now);
        emit_requests(&mut self.proto, hop, sends, |n| c.timeout_for(n), out);
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
        let NodeState::Consumer(c) = &mut self.nodes[node.index()] else {
            return;
        };
        let hop = Hop::new(node.index() as u64, NodeRole::Consumer, ctx.now);
        self.proto.on_timeout_expired(hop, &name, sent);
        let sends = c.on_timeout(&name, sent, ctx.now);
        emit_requests(&mut self.proto, hop, sends, |n| c.timeout_for(n), out);
    }

    fn on_purge(&mut self, now: SimTime) -> SweepGauges {
        let mut gauges = SweepGauges::default();
        for state in &mut self.nodes {
            match state {
                NodeState::Router(r) => {
                    gauges.pit_records += r.tables().pit.total_records() as u64;
                    gauges.cs_entries += r.tables().cs.len() as u64;
                    r.purge_pit(now);
                }
                NodeState::Ap(ap) => ap.purge(now),
                _ => {}
            }
        }
        gauges
    }

    fn on_reroute(&mut self, routes: &[tactic_net::FibRoute]) {
        // Full replacement: the transport hands us the complete post-failure
        // routing plane, so every router's FIB is rebuilt from scratch.
        for state in &mut self.nodes {
            if let NodeState::Router(r) = state {
                r.clear_routes();
            }
        }
        for route in routes {
            if let NodeState::Router(r) = &mut self.nodes[route.router.index()] {
                r.add_route(route.prefix.clone(), route.face, route.cost_us);
            }
        }
    }

    fn on_sample(&mut self, _now: SimTime, owns: &dyn Fn(NodeId) -> bool, row: &mut SampleRow) {
        // Every gauge is an integer sum (or a fixed-point max) over the
        // nodes this instance owns, so K per-shard rows merge to exactly
        // the sequential row.
        for (idx, state) in self.nodes.iter().enumerate() {
            if !owns(NodeId(idx as u32)) {
                continue;
            }
            if let NodeState::Router(r) = state {
                let tables = r.tables();
                row.pit_records += tables.pit.total_records() as u64;
                row.cs_entries += tables.cs.len() as u64;
                let cache = r.validation_cache();
                row.bf_set_bits += cache.set_bits() as u64;
                row.bf_bits += cache.bit_count() as u64;
                row.bf_fpp_fp += ratio_to_fp(cache.estimated_fpp());
                row.bf_occ_max_fp = row.bf_occ_max_fp.max(ratio_to_fp(cache.occupancy()));
                row.bf_resets += cache.resets();
                row.bf_rotations += cache.rotations();
                row.bf_routers += 1;
            }
        }
    }

    fn on_handover(&mut self, node: NodeId, ctx: &mut PlaneCtx<'_>, out: &mut Vec<Emit>) {
        // The consumer drops its tags so the next request re-registers
        // from the new location, then refills its window immediately.
        if self.fleet.drives(node) {
            return; // The open-loop fleet keeps its credentials and pace.
        }
        let NodeState::Consumer(c) = &mut self.nodes[node.index()] else {
            return;
        };
        let hop = Hop::new(node.index() as u64, NodeRole::Consumer, ctx.now);
        c.on_move(ctx.now);
        let sends = c.fill(ctx.now);
        emit_requests(&mut self.proto, hop, sends, |n| c.timeout_for(n), out);
    }
}

impl<PO: ProtocolObserver> ShardablePlane for TacticPlane<PO> {
    fn adopt(&mut self, owner: &mut Self, node: NodeId) {
        std::mem::swap(
            &mut self.nodes[node.index()],
            &mut owner.nodes[node.index()],
        );
    }
}

/// The assembled simulation: the TACTIC plane on the shared transport,
/// optionally instrumented with a transport-level [`NetObserver`] `O`
/// and/or a protocol-level [`ProtocolObserver`] `PO`.
pub struct Network<O = NoopObserver, PO: ProtocolObserver = NoopProtocolObserver> {
    net: Net<TacticPlane<PO>, O>,
    duration: SimDuration,
}

impl<O, PO: ProtocolObserver> std::fmt::Debug for Network<O, PO> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("duration", &self.duration)
            .finish()
    }
}

impl Network {
    /// Builds the network for `scenario` with the given seed.
    pub fn build(scenario: &Scenario, seed: u64) -> Network {
        Self::build_observed(scenario, seed, NoopObserver)
    }

    /// Runs to the horizon and aggregates the [`RunReport`].
    pub fn run(self) -> RunReport {
        self.run_observed().0
    }
}

impl<O: NetObserver> Network<O> {
    /// Builds the network with an explicit transport observer (tracing,
    /// link-utilisation counters, drop accounting — see
    /// [`tactic_net::observer`]).
    pub fn build_observed(scenario: &Scenario, seed: u64, observer: O) -> Network<O> {
        Self::build_traced(scenario, seed, observer, NoopProtocolObserver)
    }

    /// Runs to the horizon; returns the aggregated [`RunReport`] and the
    /// observer with whatever it recorded.
    pub fn run_observed(self) -> (RunReport, O) {
        let (report, observer, _) = self.run_traced();
        (report, observer)
    }
}

impl<O: NetObserver, PO: ProtocolObserver> Network<O, PO> {
    /// Builds the network with both a transport observer and a
    /// protocol-decision observer (see [`tactic_telemetry`]). The
    /// protocol observer receives every Protocol 1–4 decision hook;
    /// a [`NoopProtocolObserver`] run is byte-identical to an
    /// unobserved one.
    pub fn build_traced(scenario: &Scenario, seed: u64, observer: O, proto: PO) -> Network<O, PO> {
        Self::build_inner(scenario, seed, observer, proto, None)
    }

    /// Shared construction path: a sequential run (`shard == None`) or
    /// one replica of a sharded run. Every shard builds the identical
    /// network from the identical seed; the [`ShardSpec`] only filters
    /// which bootstrap events enter this instance's calendar.
    fn build_inner(
        scenario: &Scenario,
        seed: u64,
        observer: O,
        proto: PO,
        shard: Option<ShardSpec>,
    ) -> Network<O, PO> {
        let asm = scenario.assembly(seed, RNG_SALT);
        let Assembly { rng, topo, links } = &asm;
        let n = topo.graph.node_count();
        // Every node's state, staged by node id until all are built.
        let mut staged: Vec<Option<NodeState>> = (0..n).map(|_| None).collect();

        let user_list: Vec<(NodeId, ConsumerKind)> = topo
            .clients
            .iter()
            .map(|&c| (c, ConsumerKind::Client))
            .chain(topo.attackers.iter().enumerate().map(|(i, &a)| {
                let strat = scenario.attacker_mix[i % scenario.attacker_mix.len()];
                (a, ConsumerKind::Attacker(strat))
            }))
            .collect();

        // One registry for every provider: clients at their level, and
        // "freemium" principals (registered, bottom level).
        let grants: GrantTable = user_list
            .iter()
            .filter_map(|&(unode, kind)| {
                let level = match kind {
                    ConsumerKind::Client => scenario.client_level,
                    ConsumerKind::Attacker(AttackerStrategy::InsufficientLevel) => {
                        AccessLevel::Public
                    }
                    ConsumerKind::Attacker(_) => return None,
                };
                let grant = Grant {
                    level,
                    revoked: false,
                };
                Some((unode.index() as u64, grant))
            })
            .collect();
        let grants = Arc::new(grants);

        // PKI: one ISP trust anchor; every provider certified.
        let anchor = KeyPair::derive(b"isp-trust-anchor", seed);
        let mut certs = CertStore::new();
        certs.add_anchor(anchor.public());

        // Providers, indexed like `topo.providers`.
        let mut providers: Vec<Provider> = Vec::with_capacity(topo.providers.len());
        let mut entries: Vec<CatalogEntry> = Vec::with_capacity(topo.providers.len());
        for i in 0..topo.providers.len() {
            let prefix = provider_prefix(i);
            let config = ProviderConfig {
                prefix: prefix.clone(),
                objects: scenario.objects_per_provider,
                chunks_per_object: scenario.chunks_per_object,
                chunk_size: scenario.chunk_size,
                tag_validity: scenario.effective_tag_validity(),
                access_levels: scenario.content_levels.clone(),
            };
            let provider = Provider::with_grants(config, Arc::clone(&grants));
            certs
                .register(Certificate::issue(
                    prefix.to_string(),
                    provider.keypair().public(),
                    &anchor,
                ))
                .expect("anchor-signed cert");
            entries.push(CatalogEntry {
                prefix,
                objects: scenario.objects_per_provider,
                chunks: scenario.chunks_per_object,
            });
            providers.push(provider);
        }
        let catalog = Arc::new(Catalog::new(entries, scenario.zipf_alpha));
        let certs = Arc::new(certs);

        // Routers.
        let mut edge_router_set = vec![false; n];
        for &e in &topo.edge_routers {
            edge_router_set[e.index()] = true;
        }
        for rnode in topo.routers() {
            let role = if edge_router_set[rnode.index()] {
                RouterRole::Edge
            } else {
                RouterRole::Core
            };
            let config = RouterConfig {
                role,
                bf_params: scenario.bf_params(),
                cache_policy: scenario.cache_policy,
                track_revalidations: scenario.track_revalidations,
                cs_capacity: scenario.cs_capacity,
                access_path_enabled: scenario.access_path_enabled,
                flag_f_enabled: scenario.flag_f_enabled,
                content_nack_enabled: scenario.content_nack_enabled,
                record_sightings: scenario.record_sightings,
                pit_capacity: scenario.defense.pit_capacity,
            };
            let mut router = TacticRouter::new(config, Arc::clone(&certs));
            for (face_idx, &(peer, _)) in links.neighbors[rnode.index()].iter().enumerate() {
                if topo.graph.role(peer) == Role::AccessPoint {
                    router.mark_downstream(FaceId::new(face_idx as u32));
                }
            }
            staged[rnode.index()] = Some(NodeState::Router(Box::new(router)));
        }

        // Routing: one Dijkstra per provider, FIB entries at every router.
        populate_fib(topo, links, |rnode, _i, prefix, face, cost_us| {
            let Some(NodeState::Router(r)) = &mut staged[rnode.index()] else {
                unreachable!("FIB entries go to routers");
            };
            r.add_route(prefix, face, cost_us);
        });

        // Consumers.
        for &(unode, kind) in &user_list {
            let principal = unode.index() as u64;
            let config = ConsumerConfig {
                principal,
                kind,
                window: scenario.window,
                request_timeout: scenario.request_timeout,
                zipf_alpha: scenario.zipf_alpha,
                refresh_margin: scenario.tag_refresh_margin,
                retransmit: scenario.retransmit,
            };
            let mut consumer =
                Consumer::with_catalog(config, Arc::clone(&catalog), rng.fork(0x100 + principal));
            if let TagLifetimePolicy::Churn { lead, jitter, .. } = scenario.lifetime {
                if kind == ConsumerKind::Client {
                    consumer.enable_renewal(lead, jitter, rng.fork(LIFECYCLE_STREAM ^ principal));
                }
            }
            let own_ap = topo.access_point_of(unode);
            let own_path = AccessPath::of([own_ap.0 as u64]);
            match kind {
                ConsumerKind::Attacker(AttackerStrategy::ExpiredTag) => {
                    // A revoked client clinging to a once-genuine tag.
                    for (idx, p) in providers.iter_mut().enumerate() {
                        let tag = p.issue_tag(
                            principal,
                            scenario.client_level,
                            if scenario.access_path_enabled {
                                own_path
                            } else {
                                AccessPath::EMPTY
                            },
                            SimTime::from_nanos(1),
                        );
                        consumer.preset_tag(idx, tag);
                    }
                }
                ConsumerKind::Attacker(AttackerStrategy::SharedTag) => {
                    // A tag genuinely issued to a VICTIM client behind a
                    // different access point, shared with this attacker
                    // (§3.C threat (e)). Valid for the whole run so the
                    // access path / traitor tracing are the only defences.
                    // The victim keeps using her own identity too, which is
                    // what traitor tracing latches onto.
                    let victim = topo
                        .clients
                        .iter()
                        .copied()
                        .find(|&c| topo.access_point_of(c) != own_ap)
                        .or_else(|| topo.clients.first().copied());
                    let (victim_principal, victim_path) = match victim {
                        Some(v) => {
                            let vap = topo.access_point_of(v);
                            (v.0 as u64, AccessPath::of([vap.0 as u64]))
                        }
                        // Degenerate topology without clients: fall back to
                        // a fabricated absent principal.
                        None => (principal ^ 0xDEAD, AccessPath::EMPTY),
                    };
                    for (idx, p) in providers.iter_mut().enumerate() {
                        let tag = p.issue_tag(
                            victim_principal,
                            scenario.client_level,
                            victim_path,
                            SimTime::ZERO + scenario.duration,
                        );
                        consumer.preset_tag(idx, tag);
                    }
                }
                _ => {}
            }
            staged[unode.index()] = Some(NodeState::Consumer(Box::new(consumer)));
        }

        // Adversarial fleet: an active plan repurposes every attacker
        // into an open-loop traffic source ([`crate::adversary`]).
        // Credentials are issued here because only the assembly holds
        // the providers' signing state. (Churn is the transport's
        // business; the scenario schedules it.)
        let mut adversaries: Vec<Option<AdversaryDriver>> = (0..n).map(|_| None).collect();
        if let Some(class) = scenario.attack.driver_class() {
            let lifetime_ms = (scenario.request_timeout.as_nanos() / 1_000_000) as u32;
            for &anode in &topo.attackers {
                let principal = anode.index() as u64;
                let path = if scenario.access_path_enabled {
                    AccessPath::of([topo.access_point_of(anode).0 as u64])
                } else {
                    AccessPath::EMPTY
                };
                let mut issue = |prov_idx: usize, who: u64, expiry: SimTime| {
                    let tag =
                        providers[prov_idx].issue_tag(who, scenario.client_level, path, expiry);
                    Arc::new(tag)
                };
                let horizon = SimTime::ZERO + scenario.duration;
                let issued: Vec<(usize, Arc<crate::tag::SignedTag>)> = match class {
                    AttackClass::Flood => (0..topo.providers.len())
                        .map(|idx| (idx, issue(idx, principal, horizon)))
                        .collect(),
                    AttackClass::ReplayExpired => (0..topo.providers.len())
                        .map(|idx| (idx, issue(idx, principal, SimTime::from_nanos(1))))
                        .collect(),
                    AttackClass::BfPollution => (0..adversary::POLLUTION_POOL)
                        .map(|k| {
                            let idx = k % topo.providers.len();
                            // Distinct synthetic principals yield
                            // distinct (still genuinely signed) tags.
                            let who = principal ^ ((k as u64 + 1) << 32);
                            (idx, issue(idx, who, horizon))
                        })
                        .collect(),
                    AttackClass::ForgeTags => Vec::new(),
                    AttackClass::Churn => unreachable!("not a driver class"),
                };
                adversaries[anode.index()] = Some(AdversaryDriver::new(
                    class,
                    principal,
                    scenario.attack.intensity,
                    lifetime_ms,
                    rng.fork(ATTACK_STREAM ^ principal),
                    Arc::clone(&catalog),
                    issued,
                ));
            }
        }

        // Assemble node states.
        for (&pnode, provider) in topo.providers.iter().zip(providers) {
            staged[pnode.index()] = Some(NodeState::Provider(Box::new(provider)));
        }
        let nodes: Vec<NodeState> = topo
            .graph
            .nodes()
            .zip(staged)
            .map(|(node, state)| match topo.graph.role(node) {
                Role::AccessPoint => NodeState::Ap(
                    ApRelay::new(topo, links, node)
                        .expect("validated topology: AP wired to an edge router"),
                ),
                _ => state.expect("every router, provider and user built"),
            })
            .collect();

        let plane = TacticPlane {
            nodes,
            edge_router_set,
            fleet: AttackFleet::new(adversaries),
            proto,
        };
        Network {
            net: scenario.assemble(asm, plane, observer, shard),
            duration: scenario.duration,
        }
    }

    /// Runs to the horizon; returns the aggregated [`RunReport`], the
    /// transport observer, and the protocol observer.
    pub fn run_traced(self) -> (RunReport, O, PO) {
        let duration = self.duration;
        let (plane, observer, transport) = self.net.run();
        let (report, proto) = plane.into_report(duration, transport);
        (report, observer, proto)
    }
}

/// Convenience: build and run a scenario with one seed.
pub fn run_scenario(scenario: &Scenario, seed: u64) -> RunReport {
    Network::build(scenario, seed).run()
}

/// Runs `scenario` space-partitioned across `shards` worker threads,
/// with per-shard transport and protocol observers.
///
/// Each worker builds the full replicated network from `(scenario,
/// seed)` and processes only events homed at its owned nodes; the
/// conservative epoch coordinator (see [`tactic_net::sharded`])
/// exchanges cross-shard packets at lookahead barriers. The merged
/// [`RunReport`] is byte-identical to [`run_scenario`]'s for every
/// shard count (the engine-queue high-water mark, which is
/// partition-dependent, is excluded from the report's `Debug` output).
///
/// Per-shard observers are returned unmerged, in shard order — fold
/// them with their own merge operations
/// ([`NetCounters::merge`](tactic_net::NetCounters::merge),
/// `ProtocolRecorder::merge`) as needed.
pub fn run_traced_sharded<O, PO, MO, MP>(
    scenario: &Scenario,
    seed: u64,
    shards: usize,
    make_observer: MO,
    make_proto: MP,
) -> Result<(RunReport, Vec<O>, Vec<PO>, ShardedStats), ShardError>
where
    O: NetObserver + Send,
    PO: ProtocolObserver + Send,
    MO: Fn(u32) -> O + Sync,
    MP: Fn(u32) -> PO + Sync,
{
    let run = scenario.run_sharded_plane(seed, RNG_SALT, shards, |spec| {
        let s = spec.my_shard;
        Network::build_inner(scenario, seed, make_observer(s), make_proto(s), Some(spec)).net
    })?;
    let mut planes = run.planes.into_iter();
    let host = planes.next().expect("at least one shard");
    let (report, proto) = host.into_report(scenario.duration, run.transport);
    let protos = std::iter::once(proto)
        .chain(planes.map(|p| p.proto))
        .collect();
    Ok((report, run.observers, protos, run.stats))
}

/// Convenience: [`run_traced_sharded`] with no observers.
pub fn run_scenario_sharded(
    scenario: &Scenario,
    seed: u64,
    shards: usize,
) -> Result<(RunReport, ShardedStats), ShardError> {
    let (report, _, _, stats) = run_traced_sharded(
        scenario,
        seed,
        shards,
        |_| NoopObserver,
        |_| NoopProtocolObserver,
    )?;
    Ok((report, stats))
}
