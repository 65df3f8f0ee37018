//! Protocol-level telemetry: drives a recording [`ProtocolRecorder`]
//! through both simulation planes, folds the per-run metric registries
//! deterministically (job order, so any `--threads` value yields
//! byte-identical JSONL), and writes the labeled metrics next to a
//! per-run manifest file.
//!
//! This is the decision-level companion to the `transport` experiment:
//! where that one watches the wire, this one watches Protocols 1–4 —
//! pre-check verdicts, BF lookups, signature (re-)validations, PIT
//! aggregation, NACKs — plus the per-Interest lifecycle histograms.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use tactic::scenario::Scenario;
use tactic_net::{DropTotals, NoopObserver};
use tactic_sim::rng::derive_seed;
use tactic_telemetry::{ProtocolRecorder, Registry, RunManifest};

use crate::opts::{RunOpts, Verbosity};
use crate::output::{fmt_f, write_file, write_manifests, TextTable};
use crate::runner::{
    run_named_plane_traced, scenario_id, scenario_summary, shaped_scenario, transport_manifest,
    PlaneReport, BASE_SEED, PLANES,
};

/// Folds the transport's per-reason drop totals into the decision-metric
/// registry so the exported JSONL carries them alongside Protocol 1–4
/// counters (all zero on lossless runs, but the keys are always present).
fn inject_drop_metrics(registry: &mut Registry, drops: DropTotals) {
    registry.add("net.drop.dangling_face", drops.dangling_face);
    registry.add("net.drop.reverse_face", drops.reverse_face);
    registry.add("net.drop.lossy", drops.lossy);
    registry.add("net.drop.link_down", drops.link_down);
    registry.add("net.drop.node_down", drops.node_down);
}

/// Runs one plane once with a recording observer; returns the folded
/// registry (decision metrics + lifecycle + drop totals) and a manifest
/// with the run's transport and lifecycle fields filled in (the caller
/// sets the identity fields). Sharded runs merge the per-shard
/// recorders in shard order; the resulting registry (and therefore the
/// JSONL export) is byte-identical to the sequential run's.
fn record_plane(
    plane: &str,
    scenario: &Scenario,
    seed: u64,
    shards: usize,
) -> (Registry, RunManifest) {
    let (report, _, recorders, stats) = run_named_plane_traced(
        plane,
        scenario,
        seed,
        shards,
        |_| NoopObserver,
        |_| ProtocolRecorder::default(),
    );
    let mut recorder = ProtocolRecorder::default();
    for r in &recorders {
        recorder.merge(r);
    }
    let (drops, manifest) = match report {
        PlaneReport::Tactic(r) => (
            r.drops,
            RunManifest {
                tag_renewals: r.providers.tags_renewed,
                revalidations: r.edge_ops.evicted_revalidations + r.core_ops.evicted_revalidations,
                bf_rotations: r.edge_ops.bf_rotations + r.core_ops.bf_rotations,
                ..transport_manifest(
                    r.events,
                    r.peak_queue_depth,
                    r.peak_pit_records,
                    r.peak_cs_entries,
                    &r.drops,
                    stats,
                )
            },
        ),
        // Baseline mechanisms have no tag lifecycle.
        PlaneReport::Baseline(r) => (
            r.drops,
            transport_manifest(
                r.events,
                r.peak_queue_depth,
                r.peak_pit_records,
                r.peak_cs_entries,
                &r.drops,
                stats,
            ),
        ),
    };
    let mut registry = recorder.export_registry();
    inject_drop_metrics(&mut registry, drops);
    (registry, manifest)
}

/// Runs `seeds` recorded replicas of one plane fanned out over `threads`
/// workers, then folds the per-run registries **in job order** — the
/// fold is what makes the exported JSONL byte-identical for any thread
/// count. Returns the folded registry and one manifest per run.
#[allow(clippy::too_many_arguments)]
pub fn folded_plane_registry(
    plane: &str,
    plane_idx: u64,
    topology: u32,
    scenario: &Scenario,
    seeds: usize,
    threads: usize,
    shards: usize,
    verbosity: Verbosity,
) -> (Registry, Vec<RunManifest>) {
    let sid = scenario_id("telemetry", &[plane_idx]);
    let workers = threads.max(1).min(seeds.max(1));
    type Slot = Mutex<Option<(Registry, RunManifest)>>;
    let slots: Vec<Slot> = (0..seeds).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= seeds {
                    break;
                }
                let seed = derive_seed(BASE_SEED, topology, sid, i as u64);
                let started = Instant::now();
                let (registry, base) = record_plane(plane, scenario, seed, shards);
                let manifest = RunManifest {
                    label: format!("telemetry {plane}"),
                    topology: format!("Topo{topology}"),
                    scenario_id: sid,
                    run_idx: i as u64,
                    seed,
                    scenario: scenario_summary(scenario),
                    wall_ms: started.elapsed().as_millis() as u64,
                    ..base
                };
                if verbosity.progress() {
                    eprintln!(
                        "telemetry {plane} run {i} (seed {seed:#018x}) in {t:.1?}",
                        t = started.elapsed(),
                    );
                }
                *slots[i].lock().expect("slot") = Some((registry, manifest));
            });
        }
    });
    let mut folded = Registry::new();
    let mut manifests = Vec::with_capacity(seeds);
    for slot in slots {
        let (registry, manifest) = slot
            .into_inner()
            .expect("slot")
            .expect("every replica recorded");
        folded.merge(&registry);
        manifests.push(manifest);
    }
    (folded, manifests)
}

/// Protocol-decision telemetry across all four planes: per-plane decision
/// counters, lifecycle histograms, a combined JSONL metrics export, and
/// per-run manifests.
pub fn telemetry(opts: &RunOpts) -> std::io::Result<String> {
    let topo = opts.topologies[0];
    let scenario = shaped_scenario(topo, opts, 30);
    let seeds = opts.seed_count(2);
    let threads = opts.thread_count();

    let mut report = format!("Protocol telemetry ({topo}, {seeds} seeds)\n\n");
    let mut table = TextTable::new(vec![
        "plane",
        "bf lookups",
        "sig verifies",
        "revalidations",
        "nacks",
        "cache hits",
        "data",
        "timeouts",
        "mean hops",
    ]);
    let mut combined = Registry::new();
    let mut manifests = Vec::new();
    for (pi, plane) in PLANES.iter().enumerate() {
        let (registry, runs) = folded_plane_registry(
            plane,
            pi as u64,
            topo.index() as u32,
            &scenario,
            seeds,
            threads,
            opts.shard_count(),
            opts.verbosity,
        );
        table.row(vec![
            plane.to_string(),
            registry.counter_prefix_sum("tactic.bf_lookup.").to_string(),
            registry
                .counter_prefix_sum("tactic.sig_verify.")
                .to_string(),
            registry
                .counter_prefix_sum("tactic.revalidation.")
                .to_string(),
            registry.counter_prefix_sum("tactic.nack.").to_string(),
            registry.counter_prefix_sum("tactic.cache_hit.").to_string(),
            registry
                .counter("tactic.lifecycle.completed.data")
                .to_string(),
            registry
                .counter("tactic.lifecycle.completed.timeout")
                .to_string(),
            fmt_f(
                registry
                    .histogram("tactic.lifecycle.hops")
                    .map_or(0.0, |h| h.mean()),
            ),
        ]);
        combined.merge(&registry.with_key_prefix(&format!("{plane}/")));
        manifests.extend(runs);
    }

    write_file(
        &opts.out_dir,
        "telemetry_metrics.jsonl",
        &combined.to_jsonl(),
    )?;
    write_manifests(&opts.out_dir, "telemetry_metrics.jsonl", &manifests)?;
    report.push_str(&table.render());
    report.push_str(
        "\nMetric keys are `<plane>/tactic.<decision>.<role>[.<qualifier>]`;\n\
         baseline planes surface only the decisions they actually make\n\
         (cache hits, provider auth), so most TACTIC keys exist only on\n\
         the tactic plane.\n",
    );
    report.push_str("\nWritten to telemetry_metrics.jsonl (+ .manifest.jsonl)\n");
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tactic_topology::paper::PaperTopology;

    fn tiny_opts(out: &str) -> RunOpts {
        RunOpts {
            duration_secs: Some(5),
            seeds: Some(2),
            out_dir: std::env::temp_dir().join(out),
            verbosity: Verbosity::Quiet,
            ..RunOpts::default()
        }
    }

    /// The ISSUE's acceptance case: folding per-thread registries in job
    /// order must yield byte-identical JSONL for any `--threads` value.
    #[test]
    fn registry_fold_is_byte_identical_across_thread_counts() {
        let opts = tiny_opts("tactic-telemetry-fold");
        let topo = PaperTopology::Topo1;
        let scenario = shaped_scenario(topo, &opts, 5);
        let (serial, _) = folded_plane_registry(
            "tactic",
            0,
            topo.index() as u32,
            &scenario,
            4,
            1,
            1,
            Verbosity::Quiet,
        );
        let (parallel, _) = folded_plane_registry(
            "tactic",
            0,
            topo.index() as u32,
            &scenario,
            4,
            8,
            1,
            Verbosity::Quiet,
        );
        assert_eq!(serial.to_jsonl(), parallel.to_jsonl());
        assert!(!serial.is_empty());

        // The intra-run axis: space-partitioning each replica across 2
        // shards must not change a byte of the folded export either.
        let (sharded, manifests) = folded_plane_registry(
            "tactic",
            0,
            topo.index() as u32,
            &scenario,
            4,
            1,
            2,
            Verbosity::Quiet,
        );
        assert_eq!(serial.to_jsonl(), sharded.to_jsonl());
        assert!(manifests.iter().all(|m| m.shards == 2));
    }

    #[test]
    fn telemetry_report_covers_all_planes_and_writes_outputs() {
        let opts = tiny_opts("tactic-telemetry-test");
        let report = telemetry(&opts).expect("runs");
        for plane in PLANES {
            assert!(report.contains(plane), "missing {plane}:\n{report}");
        }
        let jsonl =
            std::fs::read_to_string(opts.out_dir.join("telemetry_metrics.jsonl")).expect("jsonl");
        assert!(!jsonl.is_empty());
        for line in jsonl.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "not a JSON object: {line}"
            );
        }
        assert!(jsonl.contains("tactic/tactic.bf_lookup."));
        let manifest =
            std::fs::read_to_string(opts.out_dir.join("telemetry_metrics.manifest.jsonl"))
                .expect("manifest");
        assert_eq!(
            manifest.lines().count(),
            2 * PLANES.len(),
            "one manifest line per (plane, seed)"
        );
        for key in tactic_telemetry::RunManifest::REQUIRED_KEYS {
            assert!(
                manifest.lines().all(|l| l.contains(&format!("\"{key}\":"))),
                "manifest lines must carry {key}"
            );
        }
    }
}
