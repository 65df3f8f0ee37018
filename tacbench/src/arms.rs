//! The arms of the traced run, one per child process so that every arm
//! starts from a cold process like an untraced trial does: the workload
//! with the span profiler on, with the sim-time sampler on, and on the
//! no-access-control plane. `run.py` interleaves them with untraced
//! trials on the same seed and forms the ratios from their medians.

use std::time::Instant;

use tactic::RunReport;
use tactic_baselines::{run_baseline, run_baseline_sharded, Mechanism};
use tactic_net::ShardedStats;
use tactic_sim::time::SimDuration;
use tactic_telemetry::json::JsonObject;

use crate::trial::{self, digest};
use crate::workloads::Workload;

/// The router sub-spans of `dispatch.deliver`.
const SUB_SPANS: [&str; 5] = [
    "precheck",
    "bf_lookup",
    "bf_insert",
    "sig_verify",
    "pit_ops",
];

/// Total seconds recorded under span `name`.
fn span_s(report: &RunReport, name: &str) -> f64 {
    report
        .profile
        .as_ref()
        .and_then(|p| p.get(name))
        .map_or(0.0, |s| s.total_ns as f64 / 1e9)
}

/// The deterministic per-layer counts of a finished run.
pub fn layer_counts(report: &RunReport, sharded: Option<&ShardedStats>, out: &mut JsonObject) {
    let mut ops = report.edge_ops;
    ops.merge(&report.core_ops);
    let lookups = ops.bf_lookups + ops.bf_lookups_reval;
    // Every signature verification follows a validation-cache miss.
    let verifies = ops.sig_verifications + ops.revalidations;
    out.field_u64("sim.events", report.events)
        .field_u64("sim.peak_queue_depth", report.peak_queue_depth)
        .field_u64("ndn.peak_pit_records", report.peak_pit_records)
        .field_u64("ndn.peak_cs_entries", report.peak_cs_entries)
        .field_f64(
            "ndn.cs_hit_ratio",
            tactic_sim::stats::ratio(ops.cache_hits, ops.interests),
        )
        .field_u64("bloom.lookups", lookups)
        .field_u64("bloom.insertions", ops.bf_insertions)
        .field_u64("bloom.resets", ops.bf_resets)
        .field_f64(
            "bloom.hit_ratio",
            tactic_sim::stats::ratio(lookups.saturating_sub(verifies), lookups),
        )
        .field_u64("crypto.sig_verifications", verifies)
        .field_u64("crypto.tags_signed", report.providers.tags_issued);

    let per_shard = |v: fn(&ShardedStats) -> &Vec<u64>, i: usize| {
        sharded.and_then(|s| v(s).get(i).copied()).unwrap_or(0)
    };
    out.field_u64("net.epochs", sharded.map_or(0, |s| s.epochs))
        .field_u64("net.cross_events", sharded.map_or(0, |s| s.cross_events))
        .field_u64("net.edge_cut", sharded.map_or(0, |s| s.edge_cut))
        .field_u64(
            "net.shard0_peak_queue",
            per_shard(|s| &s.per_shard_peak_queue, 0),
        )
        .field_u64(
            "net.shard1_peak_queue",
            per_shard(|s| &s.per_shard_peak_queue, 1),
        )
        .field_u64(
            "net.shard0_peak_pit",
            per_shard(|s| &s.per_shard_peak_pit, 0),
        )
        .field_u64(
            "net.shard1_peak_pit",
            per_shard(|s| &s.per_shard_peak_pit, 1),
        );

    let d = &report.drops;
    let reasons = [
        ("dangling_face", d.dangling_face),
        ("reverse_face", d.reverse_face),
        ("lossy", d.lossy),
        ("link_down", d.link_down),
        ("node_down", d.node_down),
        ("rate_limited", d.rate_limited),
        ("face_capped", d.face_capped),
        ("pit_full", d.pit_full),
    ];
    out.field_u64("net.drops", reasons.iter().map(|r| r.1).sum());
    for (name, n) in reasons {
        out.field_u64(&format!("net.drops_{name}"), n);
    }
}

/// The workload with the span profiler on: its events/s and the span
/// totals, including the shard epochs' work and barrier wait.
pub fn profiled(workload: Workload, seed: u64) -> JsonObject {
    let mut scenario = workload.scenario();
    scenario.profile = true;
    let o = trial::run(workload, &scenario, seed);
    let r = &o.report;
    let mut out = JsonObject::new();
    out.field_str("digest", &digest(r))
        .field_f64("events_per_s", r.events as f64 / o.wall_s);

    let deliver = span_s(r, "dispatch.deliver");
    let named: f64 = SUB_SPANS.iter().map(|s| span_s(r, s)).sum();
    out.field_f64("core.deliver_s", deliver);
    for s in SUB_SPANS {
        out.field_f64(&format!("core.{s}_s"), span_s(r, s));
    }
    out.field_f64(
        "core.unattributed_share",
        if deliver > 0.0 {
            (deliver - named) / deliver
        } else {
            0.0
        },
    );

    let dispatch_ns: u64 = r.profile.as_ref().map_or(0, |p| {
        p.spans()
            .filter(|(n, _)| n.starts_with("dispatch."))
            .map(|(_, s)| s.total_ns)
            .sum()
    });
    let epochs = o.sharded.as_ref().map_or(&[][..], |s| &s.epoch_spans[..]);
    out.field_f64("net.dispatch_s", dispatch_ns as f64 / 1e9)
        .field_f64("net.link_transit_s", span_s(r, "link.transit"))
        .field_f64("net.calendar_pop_s", span_s(r, "calendar.pop"))
        .field_f64(
            "net.epoch_work_s",
            epochs.iter().map(|e| e.work_ns).sum::<u64>() as f64 / 1e9,
        )
        .field_f64(
            "net.barrier_wait_s",
            epochs.iter().map(|e| e.wait_ns).sum::<u64>() as f64 / 1e9,
        );
    out
}

/// The workload with the sim-time sampler on at a tenth of the horizon:
/// its events/s, and the busiest validation cache's set bits (median over
/// the samples) that size the per-op filter.
pub fn sampled(workload: Workload, seed: u64) -> JsonObject {
    let mut scenario = workload.scenario();
    scenario.sample_every = Some(SimDuration::from_nanos(
        (scenario.duration.as_nanos() / 10).max(1),
    ));
    let mut o = trial::run(workload, &scenario, seed);
    let eps = o.report.events as f64 / o.wall_s;
    let samples = std::mem::take(&mut o.report.samples);
    // Sampler ticks are engine events; net of them the report must not
    // change.
    o.report.events -= samples.len() as u64;
    let set_bits: Vec<f64> = samples
        .iter()
        .filter(|r| r.bf_routers > 0)
        .map(|r| {
            let occupancy = r.bf_occ_max_fp as f64 / (1u64 << 32) as f64;
            occupancy * (r.bf_bits / r.bf_routers) as f64
        })
        .collect();
    let mut out = JsonObject::new();
    out.field_str("digest", &digest(&o.report))
        .field_f64("events_per_s", eps)
        .field_u64("samples", samples.len() as u64)
        .field_f64("cache_set_bits", crate::stats::median(&set_bits));
    out
}

/// The same inputs and seed on the no-access-control plane, sharded
/// like the workload: its events/s.
pub fn noac(workload: Workload, seed: u64) -> JsonObject {
    let scenario = workload.scenario();
    let started = Instant::now();
    let report = if workload.shards() == 1 {
        run_baseline(&scenario, Mechanism::NoAccessControl, seed)
    } else {
        run_baseline_sharded(
            &scenario,
            Mechanism::NoAccessControl,
            seed,
            workload.shards(),
        )
        .expect("the fleet outnumbers the shards")
        .0
    };
    let mut out = JsonObject::new();
    out.field_f64(
        "events_per_s",
        report.events as f64 / started.elapsed().as_secs_f64(),
    );
    out
}
