//! Adversarial-workload experiments: attack class × intensity × defense
//! posture across all four planes, producing graceful-degradation curves.
//!
//! Each cell drives the same Zipf-window client workload while the
//! attacker fleet executes one [`AttackClass`] at a fixed per-attacker
//! intensity — Interest flooding with valid credentials, tag-forgery
//! storms, Bloom-filter pollution, expired-tag replay, or mobility churn
//! — with the edge defenses (per-client token bucket, per-face fairness
//! cap, bounded PIT) either all off or all armed. The output curves show
//! what each attack costs every mechanism in client goodput, latency,
//! and authentication work, and what the defenses buy back.
//!
//! Restricted to the paper topologies so attacker placement means the
//! same thing in the TACTIC and baseline planes (both build the topology
//! from the same seed).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tactic::scenario::{AttackClass, AttackPlan, DefenseConfig, RateLimit, Scenario};
use tactic_net::{DropTotals, ShardedStats};
use tactic_sim::rng::derive_seed;
use tactic_sim::stats::ratio;
use tactic_telemetry::RunManifest;
use tactic_topology::paper::PaperTopology;

use crate::opts::{RunOpts, Verbosity};
use crate::output::{fmt_f, write_file, write_manifests, TextTable};
use crate::runner::{
    run_named_plane, scenario_id, scenario_summary, shaped_scenario, transport_manifest,
    PlaneReport, BASE_SEED, PLANES,
};

/// Per-attacker intensities (Interests per second) swept for every
/// attack class except churn, which re-attaches on its own clock and
/// only needs one active point.
pub const INTENSITIES: [u32; 2] = [500, 2000];

/// The armed defensive posture every `defense=on` cell uses.
///
/// The token bucket is sized above what a legitimate windowed client
/// ever sustains on the paper topologies (window 5 over millisecond
/// radio RTTs peaks near 150 Interests/s when the edge cache is hot)
/// but well below the swept attack intensities, so it clamps the fleet
/// without touching clients — measured on Topo1, the unattacked armed
/// run is packet-for-packet identical to the undefended one. The burst
/// allowance is kept small so the bucket engages within the first
/// second of a flood rather than lending the fleet seconds of credit;
/// the face cap and PIT bound are second-line caps that bind only
/// under concentrated pressure.
pub fn armed_defense() -> DefenseConfig {
    DefenseConfig {
        rate_limit: Some(RateLimit {
            per_sec: 150,
            burst: 50,
        }),
        face_cap: Some(400),
        pit_capacity: Some(512),
    }
}

/// The swept attack points: the no-attack baseline, every traffic class
/// at each intensity, and churn once.
pub fn attack_points() -> Vec<AttackPlan> {
    let mut points = vec![AttackPlan::none()];
    for class in AttackClass::ALL {
        if class == AttackClass::Churn {
            points.push(AttackPlan {
                class: Some(class),
                intensity: INTENSITIES[0],
            });
        } else {
            for &intensity in &INTENSITIES {
                points.push(AttackPlan {
                    class: Some(class),
                    intensity,
                });
            }
        }
    }
    points
}

/// What one run of one plane contributed to its grid cell.
#[derive(Debug, Clone, Copy, Default)]
struct RunTotals {
    requested: u64,
    received: u64,
    auth_ops: u64,
    expired_rejections: u64,
    drops: DropTotals,
    peak_pit_records: u64,
    peak_cs_entries: u64,
    latency_mean: f64,
    events: u64,
    peak_queue_depth: u64,
    tag_renewals: u64,
    revalidations: u64,
    bf_rotations: u64,
}

/// One aggregated grid cell of the degradation sweep (summed over
/// seeds; latency is the mean of per-run means).
#[derive(Debug, Clone)]
pub struct CellRow {
    /// Plane name (`tactic` or a baseline mechanism).
    pub plane: String,
    /// Attack-plan token (`off`, `flood@200`, ...).
    pub attack: String,
    /// Per-attacker intensity (0 for the no-attack baseline).
    pub intensity: u32,
    /// Whether the edge defenses were armed.
    pub defended: bool,
    /// Client chunks requested (the fleet's open-loop traffic excluded).
    pub requested: u64,
    /// Client chunks received.
    pub received: u64,
    /// Authentication work: TACTIC router signature verifications, or
    /// baseline provider per-request authentications.
    pub auth_ops: u64,
    /// Expired-tag pre-check rejections (TACTIC planes only).
    pub expired_rejections: u64,
    /// Transport + plane drops by reason, summed over seeds.
    pub drops: DropTotals,
    /// Max over seeds of the per-run PIT-occupancy peak.
    pub peak_pit_records: u64,
    /// Sum over seeds of per-run mean client latency (seconds).
    latency_mean_sum: f64,
    /// Runs folded into this cell.
    runs: u64,
}

impl CellRow {
    /// Clients' goodput ratio (received / requested).
    pub fn goodput(&self) -> f64 {
        ratio(self.received, self.requested)
    }

    /// Mean over seeds of the per-run mean client latency, in seconds.
    pub fn mean_latency(&self) -> f64 {
        if self.runs == 0 {
            0.0
        } else {
            self.latency_mean_sum / self.runs as f64
        }
    }
}

/// One cell run, sequential or space-partitioned across `shards`
/// intra-run workers (see [`run_named_plane`]).
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
            auth_ops: r.edge_ops.sig_verifications + r.core_ops.sig_verifications,
            expired_rejections: r.edge_ops.expired_rejections + r.core_ops.expired_rejections,
            drops: r.drops,
            peak_pit_records: r.peak_pit_records,
            peak_cs_entries: r.peak_cs_entries,
            latency_mean: r.latency.overall_mean(),
            events: r.events,
            peak_queue_depth: r.peak_queue_depth,
            tag_renewals: r.providers.tags_renewed,
            revalidations: r.edge_ops.evicted_revalidations + r.core_ops.evicted_revalidations,
            bf_rotations: r.edge_ops.bf_rotations + r.core_ops.bf_rotations,
        },
        PlaneReport::Baseline(r) => RunTotals {
            requested: r.client_requested,
            received: r.client_received,
            auth_ops: r.provider_auth_ops,
            expired_rejections: 0,
            drops: r.drops,
            peak_pit_records: r.peak_pit_records,
            peak_cs_entries: r.peak_cs_entries,
            latency_mean: r.mean_latency(),
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

/// Runs the full (plane × attack point × defense × seed) sweep fanned
/// out over `threads` workers and aggregates each cell over its seeds
/// **in job order**, so rows and manifests are byte-identical for any
/// thread count.
#[allow(clippy::too_many_arguments)]
pub fn sweep_cells(
    topo: PaperTopology,
    base: &Scenario,
    points: &[AttackPlan],
    defenses: &[bool],
    seeds: usize,
    threads: usize,
    shards: usize,
    verbosity: Verbosity,
) -> (Vec<CellRow>, Vec<RunManifest>) {
    struct Job {
        plane: &'static str,
        plan: AttackPlan,
        defended: bool,
        sid: u64,
        run_idx: u64,
    }
    let mut jobs = Vec::new();
    for (pi, plane) in PLANES.iter().enumerate() {
        for plan in points {
            for &defended in defenses {
                // The seed depends on the plane alone, NOT on the attack
                // point or defense posture: every cell in a plane's grid
                // replays the identical client workload (attack drivers
                // draw from their own forked streams), so the on/off and
                // attacked/unattacked comparisons are same-seed and the
                // degradation curve measures only the adversarial knobs.
                let sid = scenario_id("attacks", &[pi as u64]);
                for run_idx in 0..seeds as u64 {
                    jobs.push(Job {
                        plane,
                        plan: *plan,
                        defended,
                        sid,
                        run_idx,
                    });
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
                scenario.attack = job.plan;
                scenario.defense = if job.defended {
                    armed_defense()
                } else {
                    DefenseConfig::none()
                };
                let started = Instant::now();
                let (totals, stats) = run_plane(job.plane, &scenario, seed, shards);
                let manifest = RunManifest {
                    label: format!(
                        "attacks {} attack={} defense={}",
                        job.plane,
                        job.plan.summary(),
                        if job.defended { "on" } else { "off" },
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
                attack: job.plan.summary(),
                intensity: job.plan.intensity,
                defended: job.defended,
                requested: 0,
                received: 0,
                auth_ops: 0,
                expired_rejections: 0,
                drops: DropTotals::default(),
                peak_pit_records: 0,
                latency_mean_sum: 0.0,
                runs: 0,
            });
        }
        let row = cell.as_mut().expect("cell opened at run 0");
        row.requested += totals.requested;
        row.received += totals.received;
        row.auth_ops += totals.auth_ops;
        row.expired_rejections += totals.expired_rejections;
        row.drops.dangling_face += totals.drops.dangling_face;
        row.drops.reverse_face += totals.drops.reverse_face;
        row.drops.lossy += totals.drops.lossy;
        row.drops.link_down += totals.drops.link_down;
        row.drops.node_down += totals.drops.node_down;
        row.drops.rate_limited += totals.drops.rate_limited;
        row.drops.face_capped += totals.drops.face_capped;
        row.drops.pit_full += totals.drops.pit_full;
        row.peak_pit_records = row.peak_pit_records.max(totals.peak_pit_records);
        row.latency_mean_sum += totals.latency_mean;
        row.runs += 1;
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
        "attack",
        "intensity",
        "defense",
        "requested",
        "received",
        "goodput",
        "mean_latency",
        "auth_ops",
        "expired_rejections",
        "drops_rate_limited",
        "drops_face_capped",
        "drops_pit_full",
        "drops_other",
        "peak_pit_records",
    ]);
    for r in rows {
        csv.row(vec![
            r.plane.clone(),
            r.attack.clone(),
            r.intensity.to_string(),
            if r.defended { "on" } else { "off" }.to_string(),
            r.requested.to_string(),
            r.received.to_string(),
            fmt_f(r.goodput()),
            fmt_f(r.mean_latency()),
            r.auth_ops.to_string(),
            r.expired_rejections.to_string(),
            r.drops.rate_limited.to_string(),
            r.drops.face_capped.to_string(),
            r.drops.pit_full.to_string(),
            (r.drops.dangling_face
                + r.drops.reverse_face
                + r.drops.lossy
                + r.drops.link_down
                + r.drops.node_down)
                .to_string(),
            r.peak_pit_records.to_string(),
        ]);
    }
    csv.to_csv()
}

/// The adversarial-workload sweep: attack class × intensity × defense
/// posture across all four planes, written as `attacks.csv`
/// (+ manifests).
pub fn attacks(opts: &RunOpts) -> std::io::Result<String> {
    let topo = opts.topologies[0];
    let scenario = shaped_scenario(topo, opts, 20);
    let seeds = opts.seed_count(2);
    let threads = opts.thread_count();

    let points = attack_points();
    let (rows, manifests) = sweep_cells(
        topo,
        &scenario,
        &points,
        &[false, true],
        seeds,
        threads,
        opts.shard_count(),
        opts.verbosity,
    );

    let mut report = format!("Adversarial workloads ({topo}, {seeds} seeds)\n\n");
    let mut table = TextTable::new(vec![
        "plane",
        "attack",
        "defense",
        "goodput",
        "latency",
        "auth ops",
        "rate-limited",
        "pit-full",
    ]);
    for r in &rows {
        table.row(vec![
            r.plane.clone(),
            r.attack.clone(),
            if r.defended { "on" } else { "off" }.to_string(),
            fmt_f(r.goodput()),
            fmt_f(r.mean_latency()),
            r.auth_ops.to_string(),
            r.drops.rate_limited.to_string(),
            r.drops.pit_full.to_string(),
        ]);
    }
    report.push_str(&table.render());
    report.push_str(
        "\nEach attack row drives every attacker at the named per-attacker\n\
         intensity (Interests/s) through the shared edge; `defense=on` arms\n\
         the per-client token bucket, the per-face fairness cap, and the\n\
         bounded PIT together. `off` rows are the graceful-degradation\n\
         curve; the on/off gap is what the edge defenses buy back.\n",
    );

    write_file(&opts.out_dir, "attacks.csv", &rows_to_csv(&rows))?;
    write_manifests(&opts.out_dir, "attacks.csv", &manifests)?;
    report.push_str("\nWritten to attacks.csv (+ .manifest.jsonl)\n");
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

    fn cell<'a>(rows: &'a [CellRow], plane: &str, attack: &str, defended: bool) -> &'a CellRow {
        rows.iter()
            .find(|r| r.plane == plane && r.attack == attack && r.defended == defended)
            .expect("cell present")
    }

    #[test]
    fn flood_defenses_clamp_the_fleet_and_protect_goodput() {
        let opts = tiny_opts("tactic-attacks-flood");
        let topo = PaperTopology::Topo1;
        let scenario = shaped_scenario(topo, &opts, 5);
        let points = [
            AttackPlan::none(),
            AttackPlan {
                class: Some(AttackClass::Flood),
                intensity: 500,
            },
        ];
        let (rows, manifests) = sweep_cells(
            topo,
            &scenario,
            &points,
            &[false, true],
            1,
            4,
            1,
            Verbosity::Quiet,
        );
        assert_eq!(rows.len(), PLANES.len() * points.len() * 2);
        assert_eq!(manifests.len(), rows.len());
        for plane in PLANES {
            let off = cell(&rows, plane, "flood@500", false);
            let on = cell(&rows, plane, "flood@500", true);
            assert!(
                on.drops.rate_limited > 0,
                "{plane}: token bucket never fired under flood"
            );
            assert!(
                on.goodput() >= off.goodput(),
                "{plane}: defenses must not lose goodput ({} vs {})",
                on.goodput(),
                off.goodput(),
            );
            let base_off = cell(&rows, plane, "off", false);
            let base_on = cell(&rows, plane, "off", true);
            assert_eq!(
                base_on.requested, base_off.requested,
                "{plane}: unattacked defenses must not touch client traffic"
            );
            assert_eq!(base_on.received, base_off.received);
            assert_eq!(base_on.drops.rate_limited, 0);
        }
    }

    #[test]
    fn sweep_is_byte_identical_across_thread_counts() {
        let opts = tiny_opts("tactic-attacks-threads");
        let topo = PaperTopology::Topo1;
        let scenario = shaped_scenario(topo, &opts, 4);
        let points = [AttackPlan {
            class: Some(AttackClass::ForgeTags),
            intensity: 500,
        }];
        let run = |threads| {
            sweep_cells(
                topo,
                &scenario,
                &points,
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
    fn attacks_writes_parseable_outputs() {
        let opts = RunOpts {
            duration_secs: Some(4),
            seeds: Some(1),
            out_dir: std::env::temp_dir().join("tactic-attacks-outputs"),
            verbosity: Verbosity::Quiet,
            ..RunOpts::default()
        };
        let report = attacks(&opts).expect("runs");
        for plane in PLANES {
            assert!(report.contains(plane), "missing {plane}:\n{report}");
        }
        let csv = std::fs::read_to_string(opts.out_dir.join("attacks.csv")).expect("csv");
        let mut lines = csv.lines();
        let header = lines.next().expect("header");
        assert!(header.starts_with("plane,attack,intensity,defense,"));
        let columns = header.split(',').count();
        let mut rows = 0;
        for line in lines {
            assert_eq!(line.split(',').count(), columns, "ragged row: {line}");
            rows += 1;
        }
        assert_eq!(rows, PLANES.len() * attack_points().len() * 2);
        let manifest =
            std::fs::read_to_string(opts.out_dir.join("attacks.manifest.jsonl")).expect("manifest");
        assert_eq!(manifest.lines().count(), rows, "one seed per cell here");
        for key in RunManifest::REQUIRED_KEYS {
            assert!(
                manifest.lines().all(|l| l.contains(&format!("\"{key}\":"))),
                "manifest lines must carry {key}"
            );
        }
        // Every cell's scenario summary names its attack and defense posture.
        assert!(manifest
            .lines()
            .all(|l| l.contains("attack=") && l.contains("defense=")));
    }

    #[test]
    fn attack_points_cover_every_class_once() {
        let points = attack_points();
        assert_eq!(points[0], AttackPlan::none());
        for class in AttackClass::ALL {
            assert!(
                points.iter().any(|p| p.class == Some(class)),
                "{class} missing from the sweep"
            );
        }
        // Churn appears once; traffic classes at every intensity.
        assert_eq!(
            points.len(),
            1 + (AttackClass::ALL.len() - 1) * INTENSITIES.len() + 1
        );
    }
}
