//! Shared run helpers: the parallel deterministic grid runner, per-run
//! seed derivation, scenario shaping, and aggregation.
//!
//! Every experiment fans its (topology × scenario × seed) grid out over
//! worker threads via [`run_grid`]. Each run's RNG stream is derived by
//! [`tactic_sim::rng::derive_seed`] from the run's grid coordinates alone
//! — never from thread count or scheduling — and results are collected
//! and aggregated in job order, so the produced tables and CSV files are
//! byte-identical for any `--threads` value.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tactic::metrics::RunReport;
use tactic::net::{run_scenario, run_scenario_sharded, run_traced_sharded, Network};
use tactic::router::OpCounters;
use tactic::scenario::Scenario;
use tactic_baselines::net::{run_baseline_traced_sharded, BaselineNetwork};
use tactic_baselines::{BaselineReport, Mechanism};
use tactic_net::{DropTotals, NetObserver, NoopObserver, ShardedStats};
use tactic_sim::rng::{derive_seed, splitmix64};
use tactic_sim::time::SimDuration;
use tactic_telemetry::{NoopProtocolObserver, ProtocolObserver, RunManifest};
use tactic_topology::paper::PaperTopology;
use tactic_topology::ShardError;

use crate::opts::{RunOpts, Verbosity};

/// Every simulated plane's label, as tables and manifests print it:
/// TACTIC, then each [`Mechanism`].
pub(crate) const PLANES: [&str; 4] = [
    "tactic",
    "no-access-control",
    "client-side-ac",
    "provider-auth-ac",
];

/// Base seed so experiment runs are reproducible but distinct per grid
/// cell.
pub const BASE_SEED: u64 = 0x7A_C71C;

/// One cell of the (topology × scenario × seed) grid.
pub struct GridJob<'a> {
    /// Shown in stderr progress lines (never in the output tables).
    pub label: String,
    /// Topology coordinate for seed derivation.
    pub topology: u32,
    /// Scenario coordinate for seed derivation; use [`scenario_id`] to
    /// build one from an experiment tag and its knob values.
    pub scenario_id: u64,
    /// Seed index within the (topology, scenario) cell.
    pub run_idx: u64,
    /// The scenario to simulate.
    pub scenario: &'a Scenario,
}

impl GridJob<'_> {
    /// The derived RNG seed for this cell.
    pub fn seed(&self) -> u64 {
        derive_seed(BASE_SEED, self.topology, self.scenario_id, self.run_idx)
    }
}

/// A stable scenario coordinate for seed derivation, hashed from an
/// experiment tag and its knob values (pass `f64` knobs as `to_bits()`).
/// FNV-1a over the tag, then a SplitMix64 chain over the knobs: stable
/// across runs, platforms, and thread counts.
pub fn scenario_id(tag: &str, knobs: &[u64]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in tag.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    for &k in knobs {
        let mut s = h ^ k;
        h = splitmix64(&mut s);
    }
    h
}

/// One line of reproducibility provenance for a [`GridJob`]'s scenario.
/// Deterministic for a given scenario (no RNG, no clocks).
pub fn scenario_summary(s: &Scenario) -> String {
    format!(
        "duration={}s bf={}x{} window={} flag_f={} mobility={} faults=[{}] retransmit={} \
         attack={} defense={} life={} cache={}",
        s.duration.as_secs_f64(),
        s.bf_capacity,
        s.bf_hashes,
        s.window,
        s.flag_f_enabled,
        s.mobility.is_some(),
        s.faults.summary(),
        s.retransmit.is_some(),
        s.attack.summary(),
        s.defense.summary(),
        s.lifetime.summary(),
        s.cache_policy.summary(),
    )
}

/// Runs every job in the grid, fanned out over `threads` worker threads.
///
/// Workers claim jobs from a shared counter and write each report into
/// the slot of the job that produced it, so the returned reports are in
/// job order regardless of which worker finished when. Per-run progress
/// and timing lines go to stderr only (and only when `verbosity` allows);
/// stdout and files stay byte-identical across thread counts.
pub fn run_grid(jobs: &[GridJob<'_>], threads: usize, verbosity: Verbosity) -> Vec<RunReport> {
    run_grid_detailed(jobs, threads, verbosity).0
}

/// [`run_grid`] plus one [`RunManifest`] per job, in job order. The only
/// nondeterministic manifest field is `wall_ms`.
pub fn run_grid_detailed(
    jobs: &[GridJob<'_>],
    threads: usize,
    verbosity: Verbosity,
) -> (Vec<RunReport>, Vec<RunManifest>) {
    run_grid_sharded(jobs, threads, 1, verbosity).expect("a sequential grid cannot fail to shard")
}

/// [`run_grid_detailed`] with every run space-partitioned across
/// `shards` worker threads (see [`tactic::net::run_scenario_sharded`]).
/// `shards <= 1` runs sequentially. Reports and every manifest field
/// except `wall_ms`, `epochs`, and the per-shard vectors are
/// byte-identical for any shard count.
///
/// # Errors
///
/// Returns the first [`ShardError`] (in job order) when the requested
/// shard count does not fit the topology.
pub fn run_grid_sharded(
    jobs: &[GridJob<'_>],
    threads: usize,
    shards: usize,
    verbosity: Verbosity,
) -> Result<(Vec<RunReport>, Vec<RunManifest>), ShardError> {
    let workers = threads.max(1).min(jobs.len().max(1));
    type Slot = Mutex<Option<Result<(RunReport, RunManifest), ShardError>>>;
    let results: Vec<Slot> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let done = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else { break };
                let started = Instant::now();
                let outcome = run_one(job, shards);
                let elapsed = started.elapsed();
                let Ok((report, _manifest)) = &outcome else {
                    *results[i].lock().expect("result slot") = Some(outcome);
                    continue;
                };
                let finished = done.fetch_add(1, Ordering::Relaxed) + 1;
                if verbosity.progress() {
                    eprintln!(
                        "[{finished}/{total}] {label} run {run} (seed {seed:#018x}) in {t:.1?}",
                        total = jobs.len(),
                        label = job.label,
                        run = job.run_idx,
                        seed = job.seed(),
                        t = elapsed,
                    );
                    if verbosity.detailed() {
                        eprintln!(
                            "    events={events} peak_queue={peak}",
                            events = report.events,
                            peak = report.peak_queue_depth,
                        );
                    }
                }
                *results[i].lock().expect("result slot") = Some(outcome);
            });
        }
    });
    let mut reports = Vec::with_capacity(jobs.len());
    let mut manifests = Vec::with_capacity(jobs.len());
    for slot in results {
        let (report, manifest) = slot
            .into_inner()
            .expect("result slot")
            .expect("every claimed job produced a result")?;
        reports.push(report);
        manifests.push(manifest);
    }
    Ok((reports, manifests))
}

/// The CLI front door for `--shards`: runs the grid once per entry of
/// `shards` (in order), asserts the reports are byte-identical across
/// entries — the live determinism check the flag's multi-entry form
/// promises — and returns the **last** entry's results, so
/// `--shards 1,4` leaves manifests that record the sharded execution.
///
/// Exits the process with status 2 when a shard count does not fit the
/// topology, like any other bad CLI argument.
///
/// # Panics
///
/// Panics if `shards` is empty (the option parser guarantees at least
/// one entry), or if two shard counts produce different reports — a
/// determinism bug, not an input error.
pub fn run_grid_cli(
    jobs: &[GridJob<'_>],
    threads: usize,
    shards: &[usize],
    verbosity: Verbosity,
) -> (Vec<RunReport>, Vec<RunManifest>) {
    let mut prev: Option<(usize, Vec<RunReport>, Vec<RunManifest>)> = None;
    for &k in shards {
        let (reports, manifests) =
            run_grid_sharded(jobs, threads, k, verbosity).unwrap_or_else(|e| exit_bad_shards(k, e));
        if let Some((k0, prev_reports, _)) = &prev {
            for ((a, b), job) in prev_reports.iter().zip(&reports).zip(jobs) {
                assert_eq!(
                    format!("{a:#?}"),
                    format!("{b:#?}"),
                    "--shards {k} diverged from --shards {k0} on {label} run {run}",
                    label = job.label,
                    run = job.run_idx,
                );
            }
        }
        prev = Some((k, reports, manifests));
    }
    let (_, reports, manifests) = prev.expect("--shards has at least one entry");
    (reports, manifests)
}

/// Exits with status 2 for a `--shards` count the topology cannot take,
/// like any other bad CLI argument.
fn exit_bad_shards(shards: usize, e: ShardError) -> ! {
    eprintln!("--shards {shards}: {e}");
    std::process::exit(2);
}

/// One run's report from either plane.
pub(crate) enum PlaneReport {
    /// The TACTIC plane.
    Tactic(Box<RunReport>),
    /// A baseline mechanism.
    Baseline(Box<BaselineReport>),
}

/// Runs the plane labelled `plane` — `"tactic"` or a [`Mechanism`] name
/// — sequentially when `shards <= 1` and space-partitioned otherwise
/// (the reports are byte-identical; only the returned [`ShardedStats`]
/// differ). Exits via [`exit_bad_shards`] when the shard count does not
/// fit the topology.
pub(crate) fn run_named_plane(
    plane: &str,
    scenario: &Scenario,
    seed: u64,
    shards: usize,
) -> (PlaneReport, Option<ShardedStats>) {
    let (report, _, _, stats) = run_named_plane_traced(
        plane,
        scenario,
        seed,
        shards,
        |_| NoopObserver,
        |_| NoopProtocolObserver,
    );
    (report, stats)
}

/// [`run_named_plane`] with a transport and a protocol observer per
/// shard (one of each for a sequential run), returned unmerged in shard
/// order.
pub(crate) fn run_named_plane_traced<O, PO>(
    plane: &str,
    scenario: &Scenario,
    seed: u64,
    shards: usize,
    make_observer: impl Fn(u32) -> O + Sync,
    make_proto: impl Fn(u32) -> PO + Sync,
) -> (PlaneReport, Vec<O>, Vec<PO>, Option<ShardedStats>)
where
    O: NetObserver + Send,
    PO: ProtocolObserver + Send,
{
    if plane == "tactic" {
        if shards <= 1 {
            let net = Network::build_traced(scenario, seed, make_observer(0), make_proto(0));
            let (r, o, p) = net.run_traced();
            return (PlaneReport::Tactic(Box::new(r)), vec![o], vec![p], None);
        }
        let (r, o, p, stats) =
            run_traced_sharded(scenario, seed, shards, make_observer, make_proto)
                .unwrap_or_else(|e| exit_bad_shards(shards, e));
        return (PlaneReport::Tactic(Box::new(r)), o, p, Some(stats));
    }
    let m = Mechanism::ALL
        .into_iter()
        .find(|m| m.to_string() == plane)
        .expect("known mechanism");
    if shards <= 1 {
        let net = BaselineNetwork::build_traced(scenario, m, seed, make_observer(0), make_proto(0));
        let (r, o, p) = net.run_traced();
        return (PlaneReport::Baseline(Box::new(r)), vec![o], vec![p], None);
    }
    let (r, o, p, stats) =
        run_baseline_traced_sharded(scenario, m, seed, shards, make_observer, make_proto)
            .unwrap_or_else(|e| exit_bad_shards(shards, e));
    (PlaneReport::Baseline(Box::new(r)), o, p, Some(stats))
}

/// The manifest fields every run fills from its transport totals: event
/// and queue counts, drops by reason, and shard provenance (`stats ==
/// None` is a sequential run, recorded as one shard). Callers set the
/// identity, timing and lifecycle fields over this base.
pub(crate) fn transport_manifest(
    events: u64,
    peak_queue: u64,
    peak_pit: u64,
    peak_cs: u64,
    drops: &DropTotals,
    stats: Option<ShardedStats>,
) -> RunManifest {
    let s = stats.unwrap_or_else(|| ShardedStats {
        k: 1,
        epochs: 0,
        cross_events: 0,
        edge_cut: 0,
        per_shard_events: vec![events],
        per_shard_peak_queue: vec![peak_queue],
        per_shard_peak_pit: vec![peak_pit],
        per_shard_peak_cs: vec![peak_cs],
        epoch_spans: Vec::new(),
    });
    RunManifest {
        sim_events: events,
        peak_queue_depth: peak_queue,
        drops_dangling_face: drops.dangling_face,
        drops_reverse_face: drops.reverse_face,
        drops_lossy: drops.lossy,
        drops_link_down: drops.link_down,
        drops_node_down: drops.node_down,
        drops_rate_limited: drops.rate_limited,
        drops_face_capped: drops.face_capped,
        drops_pit_full: drops.pit_full,
        shards: s.k as u64,
        edge_cut: s.edge_cut,
        epochs: s.epochs,
        per_shard_events: s.per_shard_events,
        per_shard_peak_queue: s.per_shard_peak_queue,
        per_shard_peak_pit: s.per_shard_peak_pit,
        per_shard_peak_cs: s.per_shard_peak_cs,
        ..RunManifest::default()
    }
}

/// One grid cell, sequential or sharded, with its provenance manifest.
fn run_one(job: &GridJob<'_>, shards: usize) -> Result<(RunReport, RunManifest), ShardError> {
    let started = Instant::now();
    let (report, stats) = if shards <= 1 {
        (run_scenario(job.scenario, job.seed()), None)
    } else {
        let (report, stats) = run_scenario_sharded(job.scenario, job.seed(), shards)?;
        (report, Some(stats))
    };
    let manifest = RunManifest {
        label: job.label.clone(),
        topology: format!("Topo{}", job.topology),
        scenario_id: job.scenario_id,
        run_idx: job.run_idx,
        seed: job.seed(),
        scenario: scenario_summary(job.scenario),
        wall_ms: started.elapsed().as_millis() as u64,
        tag_renewals: report.providers.tags_renewed,
        revalidations: report.edge_ops.evicted_revalidations
            + report.core_ops.evicted_revalidations,
        bf_rotations: report.edge_ops.bf_rotations + report.core_ops.bf_rotations,
        ..transport_manifest(
            report.events,
            report.peak_queue_depth,
            report.peak_pit_records,
            report.peak_cs_entries,
            &report.drops,
            stats,
        )
    };
    Ok((report, manifest))
}

/// Runs `seeds` independent replicas of one scenario in parallel — the
/// common case of a figure/table averaging one knob setting over seeds.
/// `shards` follows [`run_grid_cli`] semantics (every listed count runs,
/// byte-identity asserted, last entry's results returned).
#[allow(clippy::too_many_arguments)]
pub fn run_replicas(
    label: &str,
    topo: PaperTopology,
    scenario_id: u64,
    scenario: &Scenario,
    seeds: usize,
    threads: usize,
    shards: &[usize],
    verbosity: Verbosity,
) -> Vec<RunReport> {
    run_replicas_detailed(
        label,
        topo,
        scenario_id,
        scenario,
        seeds,
        threads,
        shards,
        verbosity,
    )
    .0
}

/// [`run_replicas`] plus the per-replica manifests.
#[allow(clippy::too_many_arguments)]
pub fn run_replicas_detailed(
    label: &str,
    topo: PaperTopology,
    scenario_id: u64,
    scenario: &Scenario,
    seeds: usize,
    threads: usize,
    shards: &[usize],
    verbosity: Verbosity,
) -> (Vec<RunReport>, Vec<RunManifest>) {
    let jobs: Vec<GridJob<'_>> = (0..seeds)
        .map(|i| GridJob {
            label: label.to_string(),
            topology: topo.index() as u32,
            scenario_id,
            run_idx: i as u64,
            scenario,
        })
        .collect();
    run_grid_cli(&jobs, threads, shards, verbosity)
}

/// The paper-replica scenario for `topo`, shaped by the options
/// (duration override and the observability switches `--sample-every` /
/// `--profile`; everything else stays at §8.A defaults).
pub fn shaped_scenario(topo: PaperTopology, opts: &RunOpts, reduced_duration: u64) -> Scenario {
    let mut s = Scenario::paper(topo);
    s.duration = SimDuration::from_secs(opts.duration(reduced_duration));
    s.sample_every = opts.sample_every_secs.map(SimDuration::from_secs_f64);
    s.profile = opts.profile;
    s
}

/// Merged per-tier operation counters across runs, through the
/// [`OpCounters::merge`] aggregation path. Returns `(edge, core)`.
pub fn merged_ops(reports: &[RunReport]) -> (OpCounters, OpCounters) {
    let mut edge = OpCounters::default();
    let mut core = OpCounters::default();
    for r in reports {
        edge.merge(&r.edge_ops);
        core.merge(&r.core_ops);
    }
    (edge, core)
}

/// Mean over reports of a projection.
pub fn mean_of<F: Fn(&RunReport) -> f64>(reports: &[RunReport], f: F) -> f64 {
    if reports.is_empty() {
        return 0.0;
    }
    reports.iter().map(f).sum::<f64>() / reports.len() as f64
}

/// Sum over reports of a projection (u64).
pub fn sum_of<F: Fn(&RunReport) -> u64>(reports: &[RunReport], f: F) -> u64 {
    reports.iter().map(f).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(secs: u64) -> Scenario {
        let mut s = Scenario::small();
        s.duration = SimDuration::from_secs(secs);
        s
    }

    #[test]
    fn replicas_are_reproducible_and_distinct() {
        let s = small(5);
        let a = run_replicas(
            "t",
            PaperTopology::Topo1,
            1,
            &s,
            2,
            1,
            &[1],
            Verbosity::Quiet,
        );
        let b = run_replicas(
            "t",
            PaperTopology::Topo1,
            1,
            &s,
            2,
            1,
            &[1],
            Verbosity::Quiet,
        );
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].events, b[0].events);
        assert_ne!(
            a[0].events, a[1].events,
            "run indices give distinct streams"
        );
    }

    #[test]
    fn grid_order_is_job_order_regardless_of_threads() {
        let s = small(5);
        let jobs: Vec<GridJob<'_>> = (0..4)
            .map(|i| GridJob {
                label: format!("job{i}"),
                topology: 1,
                scenario_id: 7,
                run_idx: i,
                scenario: &s,
            })
            .collect();
        let serial = run_grid(&jobs, 1, Verbosity::Quiet);
        let parallel = run_grid(&jobs, 4, Verbosity::Quiet);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.events, b.events);
            assert_eq!(a.edge_ops, b.edge_ops);
            assert_eq!(a.core_ops, b.core_ops);
        }
    }

    #[test]
    fn scenario_ids_separate_experiments() {
        assert_ne!(scenario_id("fig5", &[500]), scenario_id("fig5", &[2500]));
        assert_ne!(scenario_id("fig5", &[500]), scenario_id("fig8", &[500]));
        assert_eq!(scenario_id("fig5", &[500]), scenario_id("fig5", &[500]));
    }

    #[test]
    fn shaped_scenario_respects_duration() {
        let opts = RunOpts::default();
        let s = shaped_scenario(PaperTopology::Topo1, &opts, 45);
        assert_eq!(s.duration, SimDuration::from_secs(45));
    }

    #[test]
    fn aggregations() {
        let s = small(5);
        let reports = run_replicas(
            "agg",
            PaperTopology::Topo1,
            2,
            &s,
            2,
            2,
            &[1],
            Verbosity::Quiet,
        );
        let m = mean_of(&reports, |r| r.delivery.client_ratio());
        assert!(m > 0.5);
        let total = sum_of(&reports, |r| r.delivery.client_requested);
        assert!(total > 0);
        let (edge, core) = merged_ops(&reports);
        assert_eq!(edge.bf_lookups, sum_of(&reports, |r| r.edge_ops.bf_lookups));
        assert_eq!(core.interests, sum_of(&reports, |r| r.core_ops.interests));
    }
}
