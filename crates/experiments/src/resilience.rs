//! Graceful-degradation experiments: loss rate × failure intensity sweeps
//! over all four planes, with and without client retransmission.
//!
//! Each cell runs the same Zipf-window workload through the shared
//! transport under a [`FaultPlan`]: a uniform per-hop loss probability
//! plus (optionally) a "heavy" schedule that crashes a core router and
//! cuts a router-router link mid-run, both recovering later. The output
//! curves show how each mechanism's satisfaction ratio degrades, what
//! retransmission buys back, and what the faults cost in PIT occupancy
//! and per-reason drops.
//!
//! Restricted to the paper topologies so the fault schedule's node ids
//! mean the same thing in the TACTIC and baseline planes (both build the
//! topology from the same seed).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tactic::scenario::{FaultEvent, FaultKind, FaultPlan, LossModel, RetransmitPolicy, Scenario};
use tactic_net::{DropTotals, ShardedStats};
use tactic_sim::rng::derive_seed;
use tactic_sim::stats::ratio;
use tactic_sim::time::{SimDuration, SimTime};
use tactic_telemetry::RunManifest;
use tactic_topology::graph::{NodeId, Role};
use tactic_topology::paper::PaperTopology;
use tactic_topology::roles::Topology;

use crate::opts::{RunOpts, Verbosity};
use crate::output::{fmt_f, write_file, write_manifests, TextTable};
use crate::runner::{
    run_named_plane, scenario_id, scenario_summary, shaped_scenario, transport_manifest,
    PlaneReport, BASE_SEED, PLANES,
};

/// The loss rates swept by the `resilience` binary.
pub const LOSS_RATES: [f64; 3] = [0.0, 0.05, 0.2];

/// What one run of one plane contributed to its grid cell.
#[derive(Debug, Clone, Copy, Default)]
struct RunTotals {
    requested: u64,
    received: u64,
    retransmitted: u64,
    gave_up: u64,
    timeouts: u64,
    drops: DropTotals,
    peak_pit_records: u64,
    peak_cs_entries: u64,
    events: u64,
    peak_queue_depth: u64,
    tag_renewals: u64,
    revalidations: u64,
    bf_rotations: u64,
}

/// One aggregated grid cell of the degradation sweep (summed over seeds).
#[derive(Debug, Clone)]
pub struct CellRow {
    /// Plane name (`tactic` or a baseline mechanism).
    pub plane: String,
    /// Per-hop uniform loss probability.
    pub loss: f64,
    /// Failure-schedule intensity (`none` or `heavy`).
    pub failures: &'static str,
    /// Whether clients retransmitted expired Interests.
    pub retransmit: bool,
    /// Client chunks requested (retransmissions excluded).
    pub requested: u64,
    /// Client chunks received.
    pub received: u64,
    /// Client Interests retransmitted after expiry.
    pub retransmitted: u64,
    /// Client chunks abandoned after the retry budget.
    pub gave_up: u64,
    /// Client request expiries.
    pub timeouts: u64,
    /// Transport drops by reason, summed over seeds.
    pub drops: DropTotals,
    /// Max over seeds of the per-run PIT-occupancy peak.
    pub peak_pit_records: u64,
}

impl CellRow {
    /// Clients' satisfaction ratio (received / requested).
    pub fn satisfaction(&self) -> f64 {
        ratio(self.received, self.requested)
    }

    /// Retransmission overhead: extra Interests per requested chunk.
    pub fn retransmit_overhead(&self) -> f64 {
        if self.requested == 0 {
            0.0
        } else {
            self.retransmitted as f64 / self.requested as f64
        }
    }
}

/// The "heavy" failure schedule for a built topology: crash the first
/// core router for the middle quarter of the run and cut one
/// router-router link (not touching the victim) overlapping it. Purely a
/// function of the topology and duration, so runs stay deterministic.
fn heavy_schedule(topo: &Topology, duration: SimDuration) -> Vec<FaultEvent> {
    let at = |frac: f64| SimTime::from_secs_f64(duration.as_secs_f64() * frac);
    let mut schedule = Vec::new();
    let Some(&victim) = topo.core_routers.first() else {
        return schedule;
    };
    schedule.push(FaultEvent {
        at: at(0.25),
        kind: FaultKind::NodeDown { node: victim },
    });
    schedule.push(FaultEvent {
        at: at(0.5),
        kind: FaultKind::NodeUp { node: victim },
    });
    if let Some((a, b)) = cuttable_link(topo, victim) {
        schedule.push(FaultEvent {
            at: at(0.4),
            kind: FaultKind::LinkDown { a, b },
        });
        schedule.push(FaultEvent {
            at: at(0.7),
            kind: FaultKind::LinkUp { a, b },
        });
    }
    schedule
}

/// The first router-router link neither of whose endpoints is `victim`,
/// in deterministic (node order, adjacency order) scan order.
fn cuttable_link(topo: &Topology, victim: NodeId) -> Option<(NodeId, NodeId)> {
    let is_router = |n: NodeId| matches!(topo.graph.role(n), Role::CoreRouter | Role::EdgeRouter);
    for a in topo.graph.nodes() {
        if !is_router(a) || a == victim {
            continue;
        }
        for (b, _) in topo.graph.incident(a) {
            if a < b && is_router(b) && b != victim {
                return Some((a, b));
            }
        }
    }
    None
}

/// The fault plan for one run: uniform loss at `loss` plus the heavy
/// schedule when requested. The schedule derives from the topology this
/// seed builds, which is the same one both planes simulate.
fn cell_plan(
    topo: PaperTopology,
    seed: u64,
    loss: f64,
    heavy: bool,
    duration: SimDuration,
) -> FaultPlan {
    let loss_model = if loss > 0.0 {
        LossModel::Uniform { p: loss }
    } else {
        LossModel::None
    };
    let schedule = if heavy {
        heavy_schedule(&topo.build(seed), duration)
    } else {
        Vec::new()
    };
    FaultPlan {
        loss: loss_model,
        schedule,
    }
}

/// One cell run, sequential or space-partitioned across `shards`
/// intra-run workers (see [`run_named_plane`]). The totals are
/// byte-identical for any shard count; only the returned
/// [`ShardedStats`] (provenance for the manifest) depends on it.
fn run_plane(
    plane: &str,
    scenario: &Scenario,
    seed: u64,
    shards: usize,
) -> (RunTotals, Option<ShardedStats>) {
    let (report, stats) = run_named_plane(plane, scenario, seed, shards);
    let totals = match report {
        PlaneReport::Tactic(r) => RunTotals {
            requested: r.delivery.client_requested,
            received: r.delivery.client_received,
            retransmitted: r.client_retransmissions,
            gave_up: r.client_gave_up,
            timeouts: r.client_timeouts,
            drops: r.drops,
            peak_pit_records: r.peak_pit_records,
            peak_cs_entries: r.peak_cs_entries,
            events: r.events,
            peak_queue_depth: r.peak_queue_depth,
            tag_renewals: r.providers.tags_renewed,
            revalidations: r.edge_ops.evicted_revalidations + r.core_ops.evicted_revalidations,
            bf_rotations: r.edge_ops.bf_rotations + r.core_ops.bf_rotations,
        },
        PlaneReport::Baseline(r) => RunTotals {
            requested: r.client_requested,
            received: r.client_received,
            retransmitted: r.client_retransmitted,
            gave_up: r.client_gave_up,
            timeouts: r.client_timeouts,
            drops: r.drops,
            peak_pit_records: r.peak_pit_records,
            peak_cs_entries: r.peak_cs_entries,
            events: r.events,
            peak_queue_depth: r.peak_queue_depth,
            // Baseline mechanisms have no tag lifecycle.
            tag_renewals: 0,
            revalidations: 0,
            bf_rotations: 0,
        },
    };
    (totals, stats)
}

/// Runs the full (plane × loss × failures × retransmit × seed) sweep
/// fanned out over `threads` workers and aggregates each cell over its
/// seeds **in job order**, so rows and manifests are byte-identical for
/// any thread count.
#[allow(clippy::too_many_arguments)]
pub fn sweep_cells(
    topo: PaperTopology,
    base: &Scenario,
    losses: &[f64],
    failure_levels: &[bool],
    retransmits: &[bool],
    seeds: usize,
    threads: usize,
    shards: usize,
    verbosity: Verbosity,
) -> (Vec<CellRow>, Vec<RunManifest>) {
    struct Job {
        plane: &'static str,
        loss: f64,
        heavy: bool,
        retransmit: bool,
        sid: u64,
        run_idx: u64,
    }
    let mut jobs = Vec::new();
    for (pi, plane) in PLANES.iter().enumerate() {
        for &loss in losses {
            for &heavy in failure_levels {
                for &retransmit in retransmits {
                    let sid = scenario_id(
                        "resilience",
                        &[pi as u64, loss.to_bits(), heavy as u64, retransmit as u64],
                    );
                    for run_idx in 0..seeds as u64 {
                        jobs.push(Job {
                            plane,
                            loss,
                            heavy,
                            retransmit,
                            sid,
                            run_idx,
                        });
                    }
                }
            }
        }
    }

    let workers = threads.max(1).min(jobs.len().max(1));
    type Slot = Mutex<Option<(RunTotals, RunManifest)>>;
    let slots: Vec<Slot> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let seed = derive_seed(BASE_SEED, topo.index() as u32, job.sid, job.run_idx);
                let mut scenario = base.clone();
                scenario.faults = cell_plan(topo, seed, job.loss, job.heavy, base.duration);
                scenario.retransmit = job.retransmit.then(RetransmitPolicy::default);
                let started = Instant::now();
                let (totals, stats) = run_plane(job.plane, &scenario, seed, shards);
                let manifest = RunManifest {
                    label: format!(
                        "resilience {} loss={} failures={} retransmit={}",
                        job.plane,
                        job.loss,
                        if job.heavy { "heavy" } else { "none" },
                        if job.retransmit { "on" } else { "off" },
                    ),
                    topology: format!("Topo{}", topo.index()),
                    scenario_id: job.sid,
                    run_idx: job.run_idx,
                    seed,
                    scenario: scenario_summary(&scenario),
                    wall_ms: started.elapsed().as_millis() as u64,
                    tag_renewals: totals.tag_renewals,
                    revalidations: totals.revalidations,
                    bf_rotations: totals.bf_rotations,
                    ..transport_manifest(
                        totals.events,
                        totals.peak_queue_depth,
                        totals.peak_pit_records,
                        totals.peak_cs_entries,
                        &totals.drops,
                        stats,
                    )
                };
                if verbosity.progress() {
                    eprintln!(
                        "[{i}/{total}] {label} run {run} (seed {seed:#018x}) in {t:.1?}",
                        total = jobs.len(),
                        label = manifest.label,
                        run = job.run_idx,
                        t = started.elapsed(),
                    );
                }
                *slots[i].lock().expect("slot") = Some((totals, manifest));
            });
        }
    });

    // Fold runs into cells in job order: `seeds` consecutive slots per cell.
    let mut rows = Vec::new();
    let mut manifests = Vec::with_capacity(jobs.len());
    let mut cell: Option<CellRow> = None;
    for (job, slot) in jobs.iter().zip(slots) {
        let (totals, manifest) = slot.into_inner().expect("slot").expect("job ran");
        manifests.push(manifest);
        if job.run_idx == 0 {
            if let Some(done) = cell.take() {
                rows.push(done);
            }
            cell = Some(CellRow {
                plane: job.plane.to_string(),
                loss: job.loss,
                failures: if job.heavy { "heavy" } else { "none" },
                retransmit: job.retransmit,
                requested: 0,
                received: 0,
                retransmitted: 0,
                gave_up: 0,
                timeouts: 0,
                drops: DropTotals::default(),
                peak_pit_records: 0,
            });
        }
        let row = cell.as_mut().expect("cell opened at run 0");
        row.requested += totals.requested;
        row.received += totals.received;
        row.retransmitted += totals.retransmitted;
        row.gave_up += totals.gave_up;
        row.timeouts += totals.timeouts;
        row.drops.dangling_face += totals.drops.dangling_face;
        row.drops.reverse_face += totals.drops.reverse_face;
        row.drops.lossy += totals.drops.lossy;
        row.drops.link_down += totals.drops.link_down;
        row.drops.node_down += totals.drops.node_down;
        row.drops.rate_limited += totals.drops.rate_limited;
        row.drops.face_capped += totals.drops.face_capped;
        row.drops.pit_full += totals.drops.pit_full;
        row.peak_pit_records = row.peak_pit_records.max(totals.peak_pit_records);
    }
    if let Some(done) = cell.take() {
        rows.push(done);
    }
    (rows, manifests)
}

/// Renders the sweep rows as the experiment's CSV table.
pub fn rows_to_csv(rows: &[CellRow]) -> String {
    let mut csv = TextTable::new(vec![
        "plane",
        "loss",
        "failures",
        "retransmit",
        "requested",
        "received",
        "satisfaction",
        "retransmitted",
        "gave_up",
        "timeouts",
        "drops_lossy",
        "drops_link_down",
        "drops_node_down",
        "drops_other",
        "peak_pit_records",
    ]);
    for r in rows {
        csv.row(vec![
            r.plane.clone(),
            fmt_f(r.loss),
            r.failures.to_string(),
            if r.retransmit { "on" } else { "off" }.to_string(),
            r.requested.to_string(),
            r.received.to_string(),
            fmt_f(r.satisfaction()),
            r.retransmitted.to_string(),
            r.gave_up.to_string(),
            r.timeouts.to_string(),
            r.drops.lossy.to_string(),
            r.drops.link_down.to_string(),
            r.drops.node_down.to_string(),
            (r.drops.dangling_face + r.drops.reverse_face).to_string(),
            r.peak_pit_records.to_string(),
        ]);
    }
    csv.to_csv()
}

/// The graceful-degradation sweep: loss × failure intensity × retransmit
/// across all four planes, written as `resilience.csv` (+ manifests).
pub fn resilience(opts: &RunOpts) -> std::io::Result<String> {
    let topo = opts.topologies[0];
    let scenario = shaped_scenario(topo, opts, 20);
    let seeds = opts.seed_count(2);
    let threads = opts.thread_count();

    let (rows, manifests) = sweep_cells(
        topo,
        &scenario,
        &LOSS_RATES,
        &[false, true],
        &[false, true],
        seeds,
        threads,
        opts.shard_count(),
        opts.verbosity,
    );

    let mut report = format!("Resilience under faults ({topo}, {seeds} seeds)\n\n");
    let mut table = TextTable::new(vec![
        "plane",
        "loss",
        "failures",
        "retransmit",
        "satisfaction",
        "retx/req",
        "gave up",
        "peak PIT",
    ]);
    for r in &rows {
        table.row(vec![
            r.plane.clone(),
            fmt_f(r.loss),
            r.failures.to_string(),
            if r.retransmit { "on" } else { "off" }.to_string(),
            fmt_f(r.satisfaction()),
            fmt_f(r.retransmit_overhead()),
            r.gave_up.to_string(),
            r.peak_pit_records.to_string(),
        ]);
    }
    report.push_str(&table.render());
    report.push_str(
        "\nLoss is the per-hop uniform drop probability; `heavy` failures\n\
         crash a core router for the middle quarter of the run and cut one\n\
         router-router link overlapping it (both recover). Retransmission\n\
         is capped exponential backoff at the clients; the paper's own\n\
         clients never retry, so `off` rows are its model under loss.\n",
    );

    write_file(&opts.out_dir, "resilience.csv", &rows_to_csv(&rows))?;
    write_manifests(&opts.out_dir, "resilience.csv", &manifests)?;
    report.push_str("\nWritten to resilience.csv (+ .manifest.jsonl)\n");
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts(out: &str) -> RunOpts {
        RunOpts {
            duration_secs: Some(5),
            seeds: Some(1),
            out_dir: std::env::temp_dir().join(out),
            verbosity: Verbosity::Quiet,
            ..RunOpts::default()
        }
    }

    fn cell<'a>(
        rows: &'a [CellRow],
        plane: &str,
        loss: f64,
        failures: &str,
        retransmit: bool,
    ) -> &'a CellRow {
        rows.iter()
            .find(|r| {
                r.plane == plane
                    && r.loss == loss
                    && r.failures == failures
                    && r.retransmit == retransmit
            })
            .expect("cell present")
    }

    /// The ISSUE's acceptance cases: satisfaction degrades monotonically
    /// with loss, retransmission strictly improves it at the same loss,
    /// and the fault machinery visibly fired (lossy drops, PIT pressure).
    #[test]
    fn degradation_curves_behave() {
        let opts = tiny_opts("tactic-resilience-curves");
        let topo = PaperTopology::Topo1;
        let scenario = shaped_scenario(topo, &opts, 5);
        let (rows, manifests) = sweep_cells(
            topo,
            &scenario,
            &LOSS_RATES,
            &[false],
            &[false, true],
            1,
            4,
            1,
            Verbosity::Quiet,
        );
        assert_eq!(rows.len(), PLANES.len() * LOSS_RATES.len() * 2);
        assert_eq!(manifests.len(), rows.len());
        for plane in PLANES {
            let clean = cell(&rows, plane, 0.0, "none", false);
            let light = cell(&rows, plane, 0.05, "none", false);
            let harsh = cell(&rows, plane, 0.2, "none", false);
            assert!(clean.drops.lossy == 0, "{plane}: lossless run dropped");
            assert!(harsh.drops.lossy > 0, "{plane}: loss model never fired");
            assert!(
                clean.satisfaction() >= light.satisfaction()
                    && light.satisfaction() >= harsh.satisfaction(),
                "{plane}: satisfaction must degrade monotonically \
                 ({} >= {} >= {} violated)",
                clean.satisfaction(),
                light.satisfaction(),
                harsh.satisfaction(),
            );
            let retried = cell(&rows, plane, 0.2, "none", true);
            assert!(retried.retransmitted > 0, "{plane}: no retransmissions");
            assert!(
                retried.satisfaction() > harsh.satisfaction(),
                "{plane}: retransmission must strictly improve satisfaction \
                 ({} vs {})",
                retried.satisfaction(),
                harsh.satisfaction(),
            );
        }
    }

    #[test]
    fn sweep_is_byte_identical_across_thread_counts() {
        let opts = tiny_opts("tactic-resilience-threads");
        let topo = PaperTopology::Topo1;
        let scenario = shaped_scenario(topo, &opts, 4);
        let run = |threads| {
            sweep_cells(
                topo,
                &scenario,
                &[0.2],
                &[true],
                &[true],
                2,
                threads,
                1,
                Verbosity::Quiet,
            )
        };
        let (serial, serial_m) = run(1);
        let (parallel, parallel_m) = run(8);
        assert_eq!(rows_to_csv(&serial), rows_to_csv(&parallel));
        // Manifests too, minus the wall-clock field.
        let strip = |ms: &[RunManifest]| {
            ms.iter()
                .map(|m| {
                    let mut m = m.clone();
                    m.wall_ms = 0;
                    m.to_json_line()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&serial_m), strip(&parallel_m));
    }

    #[test]
    fn resilience_writes_parseable_outputs() {
        let opts = tiny_opts("tactic-resilience-outputs");
        let report = resilience(&opts).expect("runs");
        for plane in PLANES {
            assert!(report.contains(plane), "missing {plane}:\n{report}");
        }
        let csv = std::fs::read_to_string(opts.out_dir.join("resilience.csv")).expect("csv");
        let mut lines = csv.lines();
        let header = lines.next().expect("header");
        assert!(header.starts_with("plane,loss,failures,retransmit,"));
        let columns = header.split(',').count();
        let mut rows = 0;
        for line in lines {
            assert_eq!(line.split(',').count(), columns, "ragged row: {line}");
            rows += 1;
        }
        assert_eq!(rows, PLANES.len() * LOSS_RATES.len() * 2 * 2);
        let manifest = std::fs::read_to_string(opts.out_dir.join("resilience.manifest.jsonl"))
            .expect("manifest");
        assert_eq!(manifest.lines().count(), rows, "one seed per cell here");
        for key in RunManifest::REQUIRED_KEYS {
            assert!(
                manifest.lines().all(|l| l.contains(&format!("\"{key}\":"))),
                "manifest lines must carry {key}"
            );
        }
    }
}
