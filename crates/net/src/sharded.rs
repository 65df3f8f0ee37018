//! The conservative epoch coordinator: K shard [`Net`]s on K threads,
//! synchronized at epoch barriers, byte-identical to a sequential run.
//!
//! # Protocol
//!
//! Each epoch covers the half-open window `[T, T + lookahead)`, where
//! `T` is the global minimum over every shard's next pending event and
//! every undelivered mailbox event (a GVT-style idle jump: quiet
//! stretches cost one barrier, not `gap / lookahead` of them). Per
//! round the coordinator hands each worker its inbox (all mailbox events
//! addressed to it, in ascending source-shard order), the worker injects
//! them, processes everything strictly before `T + lookahead`, and
//! returns its outboxes plus its next pending timestamp.
//!
//! # Why this is deterministic
//!
//! Lookahead is the minimum latency any cross-shard packet can
//! experience, so an event processed at time `s ∈ [T, T + L)` can only
//! create foreign work at `s + L ≥ T + L` — strictly after the window.
//! Every event that belongs in a window is therefore present in the
//! owning shard's calendar before the window runs, and the calendar
//! orders events by the same shard-invariant `(time, key)` pairs the
//! sequential engine uses (see the [`transport`](crate::transport)
//! module docs). Mailbox drain order cannot matter: injection only
//! inserts into the calendar, and the keys already fix the total order.

use std::sync::mpsc;
use std::time::Instant;

use tactic_sim::time::{SimDuration, SimTime};
use tactic_telemetry::EpochSpan;
use tactic_topology::graph::NodeId;
use tactic_topology::roles::Topology;
use tactic_topology::shard::{ShardError, ShardMap};

use crate::observer::NetObserver;
use crate::plane::NodePlane;
use crate::transport::{KeyedEvent, Net, ShardSpec, TransportReport};

/// What the coordinator measured about one sharded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedStats {
    /// Number of shards (worker threads).
    pub k: usize,
    /// Synchronization epochs executed.
    pub epochs: u64,
    /// Cross-shard events exchanged through mailboxes.
    pub cross_events: u64,
    /// Undirected links crossing shard boundaries.
    pub edge_cut: u64,
    /// Per shard: engine events processed.
    pub per_shard_events: Vec<u64>,
    /// Per shard: engine queue high-water mark.
    pub per_shard_peak_queue: Vec<u64>,
    /// Per shard: PIT-record high-water mark over the purge sweeps.
    pub per_shard_peak_pit: Vec<u64>,
    /// Per shard: content-store high-water mark over the purge sweeps.
    pub per_shard_peak_cs: Vec<u64>,
    /// One wall-clock span per (shard, epoch), ordered by shard then
    /// epoch. Only populated when the run profiles — nondeterministic,
    /// never golden.
    pub epoch_spans: Vec<EpochSpan>,
}

/// A [`NodePlane`] whose per-node state a sharded run can stitch back
/// together. Every shard replica holds a state for every node, but only
/// the owning shard's copy ever changes; [`run_plane_sharded`] moves
/// each node's owned state into shard 0's plane.
pub trait ShardablePlane: NodePlane {
    /// Swaps `node`'s state with `owner`'s copy of it, so `self` holds
    /// the state the owning shard evolved.
    fn adopt(&mut self, owner: &mut Self, node: NodeId);
}

/// A finished sharded run, merged back to the sequential-equivalent view.
pub struct ShardedRun<P, O> {
    /// Every shard's plane in shard order. `planes[0]` holds the stitched
    /// node states of the whole network; the others keep only their own
    /// protocol observers meaningful.
    pub planes: Vec<P>,
    /// Every shard's transport observer in shard order, unmerged.
    pub observers: Vec<O>,
    /// The merged transport report ([`TransportReport::merge_shards`]).
    pub transport: TransportReport,
    /// What the coordinator measured.
    pub stats: ShardedStats,
}

/// Runs one plane space-partitioned across `k` worker threads.
///
/// Partitions `topo` with [`ShardMap::partition`] (its lookahead widened
/// to any link when `mobility` re-points radio links mid-run), then has
/// each worker call `build` with its [`ShardSpec`]; every instance must
/// be assembled via [`Net::assemble_sharded`] from identical inputs.
/// `horizon` is the nets' engine horizon and `profile` turns on per-epoch
/// wall-clock spans. The per-shard transport reports are merged, the
/// node states stitched by owner, and the partition's edge cut recorded.
///
/// # Errors
///
/// Returns the partitioner's [`ShardError`] for `k == 0` or more shards
/// than routers.
///
/// # Panics
///
/// Panics if a worker thread panics.
pub fn run_plane_sharded<P, O, F>(
    topo: Topology,
    k: usize,
    mobility: bool,
    horizon: SimTime,
    profile: bool,
    build: F,
) -> Result<ShardedRun<P, O>, ShardError>
where
    P: ShardablePlane + Send,
    O: NetObserver + Send,
    F: Fn(ShardSpec) -> Net<P, O> + Sync,
{
    let map = ShardMap::partition(&topo, k)?;
    // Workers rebuild the network themselves; the partition is all the
    // coordinator needs, so the topology goes before the run.
    drop(topo);
    let lookahead = map.lookahead(mobility);
    let (results, mut stats) = coordinate(k, lookahead, horizon, profile, |s| {
        build(ShardSpec {
            k,
            my_shard: s,
            shard_of: map.shard_of.clone(),
        })
    });
    stats.edge_cut = map.edge_cut;

    let (mut planes, rest): (Vec<P>, Vec<_>) =
        results.into_iter().map(|(p, o, t)| (p, (o, t))).unzip();
    let (observers, transports): (Vec<O>, Vec<_>) = rest.into_iter().unzip();
    let (host, others) = planes.split_first_mut().expect("at least one shard");
    for (i, &s) in map.shard_of.iter().enumerate() {
        if s != 0 {
            host.adopt(&mut others[s as usize - 1], NodeId::from_index(i));
        }
    }
    Ok(ShardedRun {
        planes,
        observers,
        transport: TransportReport::merge_shards(&transports),
        stats,
    })
}

enum ToWorker {
    Epoch {
        end: SimTime,
        inbox: Vec<KeyedEvent>,
    },
    Finish,
}

struct FromWorker {
    shard: usize,
    outboxes: Vec<Vec<KeyedEvent>>,
    next_at: Option<SimTime>,
}

/// The epoch coordinator: runs `k` shard [`Net`]s to completion on `k`
/// threads.
///
/// `build(shard)` constructs shard `shard`'s instance (each worker calls
/// it on its own thread, so replicated-state construction parallelizes
/// too). `lookahead` is the epoch window width, and `None` means no
/// event can cross shards (each shard runs to its horizon in a single
/// epoch). `horizon` must equal the nets' engine horizon: events pending
/// beyond it (the perpetual purge reschedule, tail deliveries) terminate
/// the loop instead of driving more epochs. When `profile` is set, every
/// worker records one [`EpochSpan`] per epoch (work time, barrier-wait
/// time, mailbox drain size) relative to a shared origin captured before
/// the threads spawn; the simulation itself is bit-identical either way.
///
/// Returns each shard's `(plane, observer, report)` in shard order plus
/// the coordinator's stats (`edge_cut` left 0 for the caller).
fn coordinate<P, O, F>(
    k: usize,
    lookahead: Option<SimDuration>,
    horizon: SimTime,
    profile: bool,
    build: F,
) -> (Vec<(P, O, TransportReport)>, ShardedStats)
where
    P: NodePlane + Send,
    O: NetObserver + Send,
    F: Fn(u32) -> Net<P, O> + Sync,
{
    assert!(k > 0, "at least one shard");
    let mut epochs = 0u64;
    let mut cross_events = 0u64;
    let mut results: Vec<Option<(P, O, TransportReport)>> = (0..k).map(|_| None).collect();
    let mut epoch_spans: Vec<EpochSpan> = Vec::new();
    // The run-wide wall-clock origin every span is relative to.
    let t0 = Instant::now();

    std::thread::scope(|scope| {
        let (to_main, from_workers) = mpsc::channel::<FromWorker>();
        let (span_tx, span_rx) = mpsc::channel::<Vec<EpochSpan>>();
        let mut to_worker = Vec::with_capacity(k);
        let mut final_rx = Vec::with_capacity(k);
        let mut handles = Vec::with_capacity(k);
        for shard in 0..k {
            let (cmd_tx, cmd_rx) = mpsc::channel::<ToWorker>();
            let (fin_tx, fin_rx) = mpsc::channel::<(P, O, TransportReport)>();
            to_worker.push(cmd_tx);
            final_rx.push(fin_rx);
            let to_main = to_main.clone();
            let span_tx = span_tx.clone();
            let build = &build;
            handles.push(scope.spawn(move || {
                let mut net = build(shard as u32);
                let mut spans: Vec<EpochSpan> = Vec::new();
                // Report readiness (and the first pending event) before
                // the first epoch command.
                to_main
                    .send(FromWorker {
                        shard,
                        outboxes: Vec::new(),
                        next_at: net.next_event_at(),
                    })
                    .expect("coordinator alive");
                loop {
                    let wait_started = profile.then(Instant::now);
                    let Ok(cmd) = cmd_rx.recv() else { break };
                    let wait_ns = wait_started.map_or(0, |w| w.elapsed().as_nanos() as u64);
                    match cmd {
                        ToWorker::Epoch { end, inbox } => {
                            let inbox_len = inbox.len() as u64;
                            let start_ns = profile.then(|| t0.elapsed().as_nanos() as u64);
                            net.inject(inbox);
                            net.run_epoch(end);
                            if let Some(start_ns) = start_ns {
                                spans.push(EpochSpan {
                                    shard: shard as u32,
                                    epoch: spans.len() as u64,
                                    start_ns,
                                    work_ns: t0.elapsed().as_nanos() as u64 - start_ns,
                                    wait_ns,
                                    inbox: inbox_len,
                                });
                            }
                            let outboxes = net.take_outboxes();
                            let next_at = net.next_event_at();
                            to_main
                                .send(FromWorker {
                                    shard,
                                    outboxes,
                                    next_at,
                                })
                                .expect("coordinator alive");
                        }
                        ToWorker::Finish => {
                            span_tx.send(spans).expect("coordinator alive");
                            fin_tx.send(net.finish()).expect("coordinator alive");
                            break;
                        }
                    }
                }
            }));
        }
        drop(to_main);
        drop(span_tx);

        // Undelivered mailbox events, per destination shard.
        let mut pending: Vec<Vec<KeyedEvent>> = (0..k).map(|_| Vec::new()).collect();
        let mut next_at: Vec<Option<SimTime>> = vec![None; k];
        // Collect one report per worker per round (the initial round
        // reports readiness).
        let collect = |next_at: &mut Vec<Option<SimTime>>,
                       pending: &mut Vec<Vec<KeyedEvent>>,
                       cross: &mut u64| {
            for _ in 0..k {
                let msg = from_workers.recv().expect("worker alive");
                next_at[msg.shard] = msg.next_at;
                for (dst, mut events) in msg.outboxes.into_iter().enumerate() {
                    *cross += events.len() as u64;
                    pending[dst].append(&mut events);
                }
            }
        };
        collect(&mut next_at, &mut pending, &mut cross_events);

        loop {
            // Global minimum over pending calendars and mailboxes.
            let mut t = None::<SimTime>;
            for at in next_at.iter().flatten() {
                t = Some(t.map_or(*at, |m: SimTime| m.min(*at)));
            }
            for mailbox in &pending {
                for &(at, _, _) in mailbox {
                    t = Some(t.map_or(at, |m: SimTime| m.min(at)));
                }
            }
            let Some(t) = t else { break };
            if t > horizon {
                // Everything left is beyond the simulated duration; the
                // engines would never pop it anyway.
                break;
            }
            let end = match lookahead {
                Some(l) => t + l,
                None => SimTime::MAX,
            };
            epochs += 1;
            // Inboxes travel with the epoch command; source-shard order
            // was fixed when the outboxes were appended above.
            for (shard, tx) in to_worker.iter().enumerate() {
                let inbox = std::mem::take(&mut pending[shard]);
                tx.send(ToWorker::Epoch { end, inbox })
                    .expect("worker alive");
            }
            collect(&mut next_at, &mut pending, &mut cross_events);
        }

        for tx in &to_worker {
            tx.send(ToWorker::Finish).expect("worker alive");
        }
        for (shard, rx) in final_rx.iter().enumerate() {
            results[shard] = Some(rx.recv().expect("worker alive"));
        }
        for spans in span_rx {
            epoch_spans.extend(spans);
        }
        for handle in handles {
            handle.join().expect("worker thread panicked");
        }
    });
    epoch_spans.sort_by_key(|s| (s.shard, s.epoch));

    let results: Vec<(P, O, TransportReport)> =
        results.into_iter().map(|r| r.expect("collected")).collect();
    let stats = ShardedStats {
        k,
        epochs,
        cross_events,
        edge_cut: 0,
        per_shard_events: results.iter().map(|r| r.2.events).collect(),
        per_shard_peak_queue: results.iter().map(|r| r.2.peak_queue_depth).collect(),
        per_shard_peak_pit: results.iter().map(|r| r.2.peak_pit_records()).collect(),
        per_shard_peak_cs: results.iter().map(|r| r.2.peak_cs_entries()).collect(),
        epoch_spans,
    };
    (results, stats)
}
