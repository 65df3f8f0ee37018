//! Shortest-path routing and FIB population.
//!
//! The simulation precomputes routes the way ndnSIM's `GlobalRoutingHelper`
//! does: Dijkstra from every provider's attachment point over link latency,
//! then install the provider's name prefix in every node's FIB pointing at
//! the next hop toward the provider.

use tactic_sim::time::SimDuration;

use crate::graph::{Graph, NodeId};

/// Per-node Dijkstra result relative to one destination.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteEntry {
    /// The neighbour to forward to in order to reach the destination.
    pub next_hop: NodeId,
    /// Total path latency.
    pub cost: SimDuration,
}

/// Computes, for every node, the next hop and cost toward `target`
/// (`None` for unreachable nodes and for `target` itself).
///
/// Edge weight is the link's propagation latency; ties resolve toward the
/// lower node id, so routing is deterministic.
pub fn routes_toward(graph: &Graph, target: NodeId) -> Vec<Option<RouteEntry>> {
    routes_toward_filtered(graph, target, |_, _| true)
}

/// [`routes_toward`] over the subgraph of links for which `usable(a, b)`
/// returns `true` — the fault-injection layer recomputes routes around
/// scheduled link/node failures with this.
///
/// The predicate sees each link at most once per direction as
/// `(from, to)` while relaxing `from`'s neighbours; a symmetric predicate
/// yields symmetric routing. Nodes cut off by the filter get `None`,
/// exactly like physically unreachable nodes.
///
/// A settled node is never relaxed again, so equal-cost ties over
/// zero-latency links cannot re-parent it into a forwarding loop. A
/// degree-1 node (every user of a fleet) is given its route but never
/// queued: its one neighbour is the settled node that reached it, so
/// settling it would relax nothing.
pub fn routes_toward_filtered<F>(
    graph: &Graph,
    target: NodeId,
    mut usable: F,
) -> Vec<Option<RouteEntry>>
where
    F: FnMut(NodeId, NodeId) -> bool,
{
    let n = graph.node_count();
    let mut dist: Vec<Option<SimDuration>> = vec![None; n];
    let mut next: Vec<Option<NodeId>> = vec![None; n];
    let mut settled = vec![false; n];
    // Dijkstra from the target; `next[v]` is v's neighbour on the shortest
    // path toward the target (the node we relaxed v from).
    let mut heap = std::collections::BinaryHeap::new();
    dist[target.index()] = Some(SimDuration::ZERO);
    heap.push(std::cmp::Reverse((SimDuration::ZERO, target)));
    while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
        if std::mem::replace(&mut settled[u.index()], true) {
            continue; // Stale entry.
        }
        for (v, link_id) in graph.incident(u) {
            if settled[v.index()] || !usable(u, v) {
                continue;
            }
            let w = graph.link(link_id).spec.latency;
            let cand = d + w;
            let better = match dist[v.index()] {
                None => true,
                Some(cur) => cand < cur || (cand == cur && Some(u) < next[v.index()]),
            };
            if better {
                dist[v.index()] = Some(cand);
                next[v.index()] = Some(u);
                if graph.degree(v) > 1 {
                    heap.push(std::cmp::Reverse((cand, v)));
                }
            }
        }
    }
    (0..n)
        .map(|i| {
            if i == target.index() {
                None
            } else {
                match (next[i], dist[i]) {
                    (Some(hop), Some(cost)) => Some(RouteEntry {
                        next_hop: hop,
                        cost,
                    }),
                    _ => None,
                }
            }
        })
        .collect()
}

/// [`routes_toward`] for many targets at once, fanned out across std
/// threads with a deterministic merge: the result is *exactly*
/// `targets.iter().map(|&t| routes_toward(graph, t)).collect()` — each
/// Dijkstra is independent and internally deterministic, and results are
/// written back by target index, so the merge order cannot depend on
/// thread scheduling. This is what makes 10⁵-node FIB population scale
/// with cores instead of burning 7 s on one.
pub fn routes_toward_many(graph: &Graph, targets: &[NodeId]) -> Vec<Vec<Option<RouteEntry>>> {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(targets.len().max(1));
    if threads <= 1 || targets.len() <= 1 {
        return targets.iter().map(|&t| routes_toward(graph, t)).collect();
    }
    let mut results: Vec<Vec<Option<RouteEntry>>> = vec![Vec::new(); targets.len()];
    // Chunk targets contiguously; each worker owns a disjoint slice of the
    // result vector, so no locking and no post-hoc reordering is needed.
    let chunk = targets.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (targets, results) in targets.chunks(chunk).zip(results.chunks_mut(chunk)) {
            scope.spawn(move || {
                for (slot, &target) in results.iter_mut().zip(targets) {
                    *slot = routes_toward(graph, target);
                }
            });
        }
    });
    results
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use super::*;
    use crate::graph::{LinkSpec, Role};
    use tactic_sim::rng::Rng;

    /// The textbook Dijkstra this module shipped before settled nodes
    /// were frozen and leaves left the heap: every node is queued, and
    /// a node is relaxed whenever a candidate beats or ties-and-lowers
    /// its route. Kept as the reference the optimised search must match
    /// row for row on positive-latency graphs.
    fn reference_routes<F>(graph: &Graph, target: NodeId, mut usable: F) -> Vec<Option<RouteEntry>>
    where
        F: FnMut(NodeId, NodeId) -> bool,
    {
        let n = graph.node_count();
        let mut dist: Vec<Option<SimDuration>> = vec![None; n];
        let mut next: Vec<Option<NodeId>> = vec![None; n];
        let mut heap = std::collections::BinaryHeap::new();
        dist[target.index()] = Some(SimDuration::ZERO);
        heap.push(std::cmp::Reverse((SimDuration::ZERO, target)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if dist[u.index()] != Some(d) {
                continue;
            }
            for (v, link_id) in graph.incident(u) {
                if !usable(u, v) {
                    continue;
                }
                let cand = d + graph.link(link_id).spec.latency;
                let better = match dist[v.index()] {
                    None => true,
                    Some(cur) => cand < cur || (cand == cur && Some(u) < next[v.index()]),
                };
                if better {
                    dist[v.index()] = Some(cand);
                    next[v.index()] = Some(u);
                    heap.push(std::cmp::Reverse((cand, v)));
                }
            }
        }
        (0..n)
            .map(|i| match (next[i], dist[i]) {
                (Some(next_hop), Some(cost)) if i != target.index() => {
                    Some(RouteEntry { next_hop, cost })
                }
                _ => None,
            })
            .collect()
    }

    /// A random connected core of `core` nodes (a random tree plus
    /// chords) with `leaves` degree-1 nodes hung off random core nodes
    /// and one isolated node. Latencies of 1–3 ms make equal-cost ties
    /// common, so the tie-break is exercised too.
    fn random_graph(rng: &mut Rng, core: usize, leaves: usize) -> Graph {
        let mut g = Graph::new();
        let mut linked = HashSet::new();
        let mut link = |g: &mut Graph, rng: &mut Rng, a: NodeId, b: NodeId| {
            if a != b && linked.insert((a.min(b), a.max(b))) {
                let latency = SimDuration::from_millis(rng.range_u64(1, 4));
                g.add_link(
                    a,
                    b,
                    LinkSpec {
                        bandwidth_bps: 1_000_000,
                        latency,
                    },
                );
            }
        };
        let nodes: Vec<NodeId> = (0..core).map(|_| g.add_node(Role::CoreRouter)).collect();
        for i in 1..core {
            let parent = nodes[rng.below_usize(i)];
            link(&mut g, rng, nodes[i], parent);
        }
        for _ in 0..core {
            let (a, b) = (*rng.choose(&nodes), *rng.choose(&nodes));
            link(&mut g, rng, a, b);
        }
        for _ in 0..leaves {
            let (leaf, parent) = (g.add_node(Role::Client), *rng.choose(&nodes));
            link(&mut g, rng, leaf, parent);
        }
        g.add_node(Role::Client);
        g
    }

    /// A symmetric predicate cutting roughly a fifth of the links.
    fn random_cuts(g: &Graph, rng: &mut Rng) -> HashSet<(NodeId, NodeId)> {
        (0..g.link_count())
            .map(|i| g.link(crate::graph::LinkId::from_index(i)))
            .filter(|_| rng.chance(0.2))
            .flat_map(|l| [(l.a, l.b), (l.b, l.a)])
            .collect()
    }

    /// Asserts every row toward `target` equals the reference's, with
    /// and without `cuts` applied.
    fn assert_matches_reference(g: &Graph, target: NodeId, cuts: &HashSet<(NodeId, NodeId)>) {
        assert_eq!(
            routes_toward(g, target),
            reference_routes(g, target, |_, _| true),
            "target {target:?}"
        );
        let usable = |a: NodeId, b: NodeId| !cuts.contains(&(a, b));
        assert_eq!(
            routes_toward_filtered(g, target, usable),
            reference_routes(g, target, usable),
            "target {target:?} with {} cut links",
            cuts.len() / 2
        );
    }

    #[test]
    fn matches_the_reference_on_random_graphs_with_leaves() {
        for seed in 0..40 {
            let mut rng = Rng::seed_from_u64(seed);
            let g = random_graph(&mut rng, 12 + seed as usize, 30);
            let cuts = random_cuts(&g, &mut rng);
            for target in g.nodes() {
                assert_matches_reference(&g, target, &cuts);
            }
        }
    }

    #[test]
    fn matches_the_reference_on_fleet_topologies() {
        use crate::fleet::{build_fleet, FleetSpec};
        for (seed, size) in [(1, 500), (2, 2_000), (3, 5_000)] {
            let mut rng = Rng::seed_from_u64(seed);
            let topo = build_fleet(&FleetSpec::sized(size), &mut rng);
            let cuts = random_cuts(&topo.graph, &mut rng);
            let sampled = (0..8).map(|_| NodeId::from_index(rng.below_usize(size)));
            for target in topo.providers.iter().copied().chain(sampled) {
                assert_matches_reference(&topo.graph, target, &cuts);
            }
        }
    }

    #[test]
    fn zero_latency_ties_never_reparent_a_settled_node() {
        // b(0) --0 ms-- a(1) --1 ms-- t(2). Settling b used to tie a's
        // cost through the zero-latency link and, b's id being lower,
        // re-parent a onto b: a -> b and b -> a, a forwarding loop.
        let mut g = Graph::new();
        let b = g.add_node(Role::Client);
        let a = g.add_node(Role::CoreRouter);
        let t = g.add_node(Role::Provider);
        g.add_link(t, a, LinkSpec::core());
        let zero = LinkSpec {
            latency: SimDuration::ZERO,
            ..LinkSpec::core()
        };
        g.add_link(a, b, zero);
        let check = |g: &Graph| {
            let routes = routes_toward(g, t);
            assert_eq!(routes[a.index()].unwrap().next_hop, t);
            assert_eq!(routes[b.index()].unwrap().next_hop, a);
            assert_eq!(routes[b.index()].unwrap().cost, SimDuration::from_millis(1));
        };
        check(&g);
        // With a second link b is no leaf, so it is queued and settled
        // after a: only the settled check keeps it from re-parenting a.
        let c = g.add_node(Role::Client);
        g.add_link(b, c, zero);
        check(&g);
        assert_eq!(routes_toward(&g, t)[c.index()].unwrap().next_hop, b);
    }

    /// a --1ms-- b --1ms-- c
    ///  \________2ms_______/   (direct a-c link, higher latency than a-b-c? no: 2ms = 1+1)
    fn line_graph() -> (Graph, [NodeId; 3]) {
        let mut g = Graph::new();
        let a = g.add_node(Role::CoreRouter);
        let b = g.add_node(Role::CoreRouter);
        let c = g.add_node(Role::CoreRouter);
        g.add_link(a, b, LinkSpec::core());
        g.add_link(b, c, LinkSpec::core());
        (g, [a, b, c])
    }

    #[test]
    fn line_routes() {
        let (g, [a, b, c]) = line_graph();
        let routes = routes_toward(&g, c);
        assert_eq!(routes[a.index()].unwrap().next_hop, b);
        assert_eq!(routes[a.index()].unwrap().cost, SimDuration::from_millis(2));
        assert_eq!(routes[b.index()].unwrap().next_hop, c);
        assert!(routes[c.index()].is_none(), "target has no route to itself");
    }

    #[test]
    fn prefers_lower_latency_path() {
        let mut g = Graph::new();
        let a = g.add_node(Role::CoreRouter);
        let b = g.add_node(Role::CoreRouter);
        let c = g.add_node(Role::CoreRouter);
        // a-c direct over a slow edge link (2 ms), a-b-c over core links (1+1 ms).
        g.add_link(
            a,
            c,
            LinkSpec {
                bandwidth_bps: 10_000_000,
                latency: SimDuration::from_millis(5),
            },
        );
        g.add_link(a, b, LinkSpec::core());
        g.add_link(b, c, LinkSpec::core());
        let routes = routes_toward(&g, c);
        assert_eq!(
            routes[a.index()].unwrap().next_hop,
            b,
            "must avoid the 5 ms link"
        );
        assert_eq!(routes[a.index()].unwrap().cost, SimDuration::from_millis(2));
    }

    #[test]
    fn unreachable_nodes_have_no_route() {
        let mut g = Graph::new();
        let a = g.add_node(Role::CoreRouter);
        let b = g.add_node(Role::CoreRouter);
        let island = g.add_node(Role::CoreRouter);
        g.add_link(a, b, LinkSpec::core());
        let routes = routes_toward(&g, a);
        assert!(routes[b.index()].is_some());
        assert!(routes[island.index()].is_none());
    }

    #[test]
    fn tie_breaking_is_deterministic() {
        // Diamond: a -> {b, c} -> d with equal latencies. a must always pick
        // the same branch.
        let mut g = Graph::new();
        let a = g.add_node(Role::CoreRouter);
        let b = g.add_node(Role::CoreRouter);
        let c = g.add_node(Role::CoreRouter);
        let d = g.add_node(Role::CoreRouter);
        g.add_link(a, b, LinkSpec::core());
        g.add_link(a, c, LinkSpec::core());
        g.add_link(b, d, LinkSpec::core());
        g.add_link(c, d, LinkSpec::core());
        for _ in 0..5 {
            let routes = routes_toward(&g, d);
            assert_eq!(
                routes[a.index()].unwrap().next_hop,
                b,
                "lowest-id branch wins ties"
            );
        }
    }

    #[test]
    fn filtered_routes_detour_or_disconnect() {
        let (g, [a, b, c]) = line_graph();
        // Cutting b-c severs the only path: everything loses its route.
        let cut_bc = routes_toward_filtered(&g, c, |x, y| !(x == b && y == c || x == c && y == b));
        assert!(cut_bc[a.index()].is_none());
        assert!(cut_bc[b.index()].is_none());

        // A diamond detours instead: cut a-b and a routes via c.
        let mut g = Graph::new();
        let a = g.add_node(Role::CoreRouter);
        let b = g.add_node(Role::CoreRouter);
        let c = g.add_node(Role::CoreRouter);
        let d = g.add_node(Role::CoreRouter);
        g.add_link(a, b, LinkSpec::core());
        g.add_link(a, c, LinkSpec::core());
        g.add_link(b, d, LinkSpec::core());
        g.add_link(c, d, LinkSpec::core());
        let routes = routes_toward_filtered(&g, d, |x, y| !(x == a && y == b || x == b && y == a));
        assert_eq!(
            routes[a.index()].unwrap().next_hop,
            c,
            "detours around the cut"
        );
        assert_eq!(routes[a.index()].unwrap().cost, SimDuration::from_millis(2));
    }

    #[test]
    fn many_targets_match_sequential_per_target_runs() {
        use crate::roles::{build_topology, TopologySpec};
        use tactic_sim::rng::Rng;
        let topo = build_topology(
            &TopologySpec {
                core_routers: 24,
                edge_routers: 6,
                providers: 4,
                clients: 12,
                attackers: 3,
            },
            &mut Rng::seed_from_u64(11),
        );
        let targets: Vec<NodeId> = topo.providers.iter().map(|&p| topo.gateway_of(p)).collect();
        let parallel = routes_toward_many(&topo.graph, &targets);
        for (i, &t) in targets.iter().enumerate() {
            assert_eq!(parallel[i], routes_toward(&topo.graph, t), "target {i}");
        }
    }

    #[test]
    fn many_targets_handles_degenerate_inputs() {
        let (g, [a, _, c]) = line_graph();
        assert!(routes_toward_many(&g, &[]).is_empty());
        assert_eq!(routes_toward_many(&g, &[c]), vec![routes_toward(&g, c)]);
        let dup = routes_toward_many(&g, &[a, a]);
        assert_eq!(dup[0], dup[1]);
    }

    #[test]
    fn routes_form_a_tree_toward_target() {
        let (g, [a, _, c]) = line_graph();
        let routes = routes_toward(&g, c);
        // Following next hops from any node must terminate at the target.
        let mut cur = a;
        let mut hops = 0;
        while let Some(entry) = routes[cur.index()] {
            cur = entry.next_hop;
            hops += 1;
            assert!(hops < 10, "routing loop");
        }
        assert_eq!(cur, c);
    }
}
