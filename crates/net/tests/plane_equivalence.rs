//! The transport treats planes as black boxes: two independently written
//! planes with identical emission semantics must produce byte-identical
//! transport schedules on the same `(topology, seed)`, and the observer
//! layer must account for every scheduled delivery exactly once without
//! perturbing the run.

use tactic_ndn::face::FaceId;
use tactic_ndn::name::Name;
use tactic_ndn::packet::{Data, Interest, Packet, Payload};
use tactic_net::{
    run_plane_sharded, Emit, EventTrace, Links, Net, NetConfig, NodePlane, NoopObserver, PlaneCtx,
    ShardablePlane, SweepGauges, TransportReport,
};
use tactic_sim::cost::CostModel;
use tactic_sim::rng::Rng;
use tactic_sim::time::{SimDuration, SimTime};
use tactic_topology::graph::{Graph, LinkSpec, NodeId, Role};
use tactic_topology::roles::Topology;

const REQUESTS: usize = 8;

/// client(0) — edge router(1) — provider(2).
fn chain() -> Topology {
    let mut graph = Graph::new();
    let client = graph.add_node(Role::Client);
    let router = graph.add_node(Role::EdgeRouter);
    let provider = graph.add_node(Role::Provider);
    graph.add_link(client, router, LinkSpec::edge());
    graph.add_link(router, provider, LinkSpec::edge());
    Topology {
        graph,
        core_routers: vec![],
        edge_routers: vec![router],
        access_points: vec![],
        providers: vec![provider],
        clients: vec![client],
        attackers: vec![],
    }
}

fn config() -> NetConfig {
    NetConfig {
        duration: SimDuration::from_secs(2),
        mobility: None,
        cost: CostModel::free(),
        faults: tactic_net::FaultPlan::none(),
        sample_every: None,
        profile: false,
        defense: None,
        churn: None,
    }
}

fn request_name(i: usize) -> Name {
    format!("/prov0/obj{i}/c0").parse().expect("static name")
}

/// Plane one: node ids matched directly, the router flips between its two
/// faces arithmetically.
struct FlipPlane;

impl NodePlane for FlipPlane {
    fn on_start(&mut self, _node: NodeId, _ctx: &mut PlaneCtx<'_>, out: &mut Vec<Emit>) {
        for i in 0..REQUESTS {
            out.push(Emit::Send {
                face: FaceId::new(0),
                packet: Packet::Interest(Interest::new(request_name(i), i as u64 + 1)),
                compute: SimDuration::ZERO,
            });
        }
    }

    fn on_packet(
        &mut self,
        node: NodeId,
        face: FaceId,
        packet: Packet,
        _ctx: &mut PlaneCtx<'_>,
        out: &mut Vec<Emit>,
    ) {
        match node.0 {
            1 => out.push(Emit::Send {
                face: FaceId::new(1 - face.index()),
                packet,
                compute: SimDuration::ZERO,
            }),
            2 => {
                if let Packet::Interest(i) = packet {
                    out.push(Emit::Send {
                        face,
                        packet: Packet::Data(Data::new(i.name().clone(), Payload::Synthetic(256))),
                        compute: SimDuration::ZERO,
                    });
                }
            }
            _ => {} // The client absorbs its Data.
        }
    }
}

/// Plane two: written against roles and a prebuilt forwarding table, but
/// semantically identical to [`FlipPlane`].
struct TablePlane {
    roles: Vec<Role>,
    forward: Vec<Vec<FaceId>>,
}

impl TablePlane {
    fn new(topo: &Topology) -> Self {
        let n = topo.graph.node_count();
        let mut forward = vec![Vec::new(); n];
        // Per in-face, the out-face on the 2-degree router path.
        for node in topo.graph.nodes() {
            let degree = topo.graph.degree(node);
            forward[node.index()] = (0..degree as u32)
                .map(|f| FaceId::new(if degree == 2 { 1 - f } else { f }))
                .collect();
        }
        TablePlane {
            roles: topo.graph.nodes().map(|n| topo.graph.role(n)).collect(),
            forward,
        }
    }
}

impl NodePlane for TablePlane {
    fn on_start(&mut self, _node: NodeId, _ctx: &mut PlaneCtx<'_>, out: &mut Vec<Emit>) {
        let interests: Vec<Interest> = (0..REQUESTS)
            .map(|i| Interest::new(request_name(i), i as u64 + 1))
            .collect();
        for i in interests {
            out.push(Emit::Send {
                face: FaceId::new(0),
                packet: Packet::Interest(i),
                compute: SimDuration::ZERO,
            });
        }
    }

    fn on_packet(
        &mut self,
        node: NodeId,
        face: FaceId,
        packet: Packet,
        _ctx: &mut PlaneCtx<'_>,
        out: &mut Vec<Emit>,
    ) {
        match self.roles[node.index()] {
            Role::EdgeRouter => {
                let out_face = self.forward[node.index()][face.index() as usize];
                out.push(Emit::Send {
                    face: out_face,
                    packet,
                    compute: SimDuration::ZERO,
                });
            }
            Role::Provider => {
                if let Packet::Interest(i) = &packet {
                    let reply = Data::new(i.name().clone(), Payload::Synthetic(256));
                    out.push(Emit::Send {
                        face,
                        packet: Packet::Data(reply),
                        compute: SimDuration::ZERO,
                    });
                }
            }
            _ => {}
        }
    }
}

fn run_traced<P: NodePlane>(plane: P, seed: u64) -> (TransportReport, EventTrace) {
    let topo = chain();
    let links = Links::build(&topo);
    let net = Net::assemble_observed(
        &topo,
        links,
        plane,
        Rng::seed_from_u64(seed),
        config(),
        EventTrace::default(),
    );
    let (_plane, trace, report) = net.run();
    (report, trace)
}

#[test]
fn equivalent_planes_produce_identical_transport_schedules() {
    let (report_a, trace_a) = run_traced(FlipPlane, 11);
    let (report_b, trace_b) = run_traced(TablePlane::new(&chain()), 11);
    assert_eq!(report_a, report_b);
    assert_eq!(
        trace_a.events, trace_b.events,
        "every scheduled/delivered event must match, in order"
    );
    // Interest out, Interest forwarded, Data back, Data forwarded: four
    // deliveries per request, all inside the horizon.
    assert_eq!(report_a.deliveries, 4 * REQUESTS as u64);
}

#[test]
fn trace_sees_every_scheduled_delivery_exactly_once() {
    let (report, trace) = run_traced(FlipPlane, 5);
    assert_eq!(trace.delivered() as u64, report.deliveries);
    assert_eq!(
        trace.scheduled(),
        trace.delivered(),
        "a 2 s horizon drains this workload completely"
    );
    assert!(trace
        .events
        .iter()
        .all(|e| !matches!(e, tactic_net::observer::TraceEvent::Dropped { .. })));
}

#[test]
fn observers_do_not_perturb_the_transport() {
    let topo = chain();
    let plain = Net::assemble(
        &topo,
        Links::build(&topo),
        FlipPlane,
        Rng::seed_from_u64(3),
        config(),
    );
    let (_, _, plain_report) = plain.run();
    let (traced_report, trace) = run_traced(FlipPlane, 3);
    assert_eq!(plain_report, traced_report);
    assert!(trace.delivered() > 0);
}

/// client(0) — edge router(1) — core router(2) — provider(3): the
/// smallest topology two shards can split.
fn two_router_chain() -> Topology {
    let mut graph = Graph::new();
    let client = graph.add_node(Role::Client);
    let edge = graph.add_node(Role::EdgeRouter);
    let core = graph.add_node(Role::CoreRouter);
    let provider = graph.add_node(Role::Provider);
    graph.add_link(client, edge, LinkSpec::edge());
    graph.add_link(edge, core, LinkSpec::core());
    graph.add_link(core, provider, LinkSpec::edge());
    Topology {
        graph,
        core_routers: vec![core],
        edge_routers: vec![edge],
        access_points: vec![],
        providers: vec![provider],
        clients: vec![client],
        attackers: vec![],
    }
}

/// A minimal plane with per-node state to stitch: every node counts the
/// packets it handled and remembers when it saw the last one. Routers
/// relay between their two faces, the provider answers Interests.
#[derive(Debug, Clone, PartialEq, Eq)]
struct CountPlane {
    seen: Vec<(u64, SimTime)>,
}

impl NodePlane for CountPlane {
    fn on_start(&mut self, node: NodeId, ctx: &mut PlaneCtx<'_>, out: &mut Vec<Emit>) {
        FlipPlane.on_start(node, ctx, out);
    }

    fn on_packet(
        &mut self,
        node: NodeId,
        face: FaceId,
        packet: Packet,
        ctx: &mut PlaneCtx<'_>,
        out: &mut Vec<Emit>,
    ) {
        self.seen[node.index()] = (self.seen[node.index()].0 + 1, ctx.now);
        let relay = |face: FaceId| Emit::Send {
            face,
            packet: packet.clone(),
            compute: SimDuration::ZERO,
        };
        match node.0 {
            1 | 2 => out.push(relay(FaceId::new(1 - face.index()))),
            3 => {
                if let Packet::Interest(i) = &packet {
                    out.push(Emit::Send {
                        face,
                        packet: Packet::Data(Data::new(i.name().clone(), Payload::Synthetic(256))),
                        compute: SimDuration::ZERO,
                    });
                }
            }
            _ => {}
        }
    }

    fn on_purge(&mut self, _now: SimTime) -> SweepGauges {
        // Non-owned replicas never change, so their zeros add nothing.
        SweepGauges {
            pit_records: self.seen.iter().map(|&(n, _)| n).sum(),
            cs_entries: self.seen.iter().filter(|&&(n, _)| n > 0).count() as u64,
        }
    }
}

impl ShardablePlane for CountPlane {
    fn adopt(&mut self, owner: &mut Self, node: NodeId) {
        std::mem::swap(&mut self.seen[node.index()], &mut owner.seen[node.index()]);
    }
}

#[test]
fn the_generic_sharded_runner_reproduces_a_sequential_plane() {
    let topo = two_router_chain();
    let fresh = || CountPlane {
        seen: vec![(0, SimTime::ZERO); topo.graph.node_count()],
    };
    let seq = Net::assemble(
        &topo,
        Links::build(&topo),
        fresh(),
        Rng::seed_from_u64(9),
        config(),
    );
    let (seq_plane, _, seq_report) = seq.run();
    assert_eq!(
        seq_report.deliveries,
        6 * REQUESTS as u64,
        "three hops each way"
    );
    assert!(seq_report.peak_pit_records() > 0, "sweeps saw the traffic");

    for k in [1, 2] {
        let horizon = SimTime::ZERO + config().duration;
        let run = run_plane_sharded(topo.clone(), k, false, horizon, false, |spec| {
            Net::assemble_sharded(
                &topo,
                Links::build(&topo),
                fresh(),
                Rng::seed_from_u64(9),
                config(),
                NoopObserver,
                spec,
            )
        })
        .expect("two routers split into two shards");
        assert_eq!(run.planes.len(), k);
        assert_eq!(run.stats.edge_cut > 0, k > 1, "K={k}: the chain is cut");
        assert_eq!(run.planes[0], seq_plane, "K={k}: stitched node state");
        // The queue high-water mark is per engine; everything else merges
        // to the sequential totals exactly.
        let mut merged = run.transport;
        merged.peak_queue_depth = seq_report.peak_queue_depth;
        assert_eq!(merged, seq_report, "K={k}: merged transport report");
        assert_eq!(run.stats.per_shard_peak_pit.len(), k);
    }
}
