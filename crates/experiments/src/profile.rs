//! The observability experiment: deterministic sim-time sampling plus
//! wall-clock span profiling, exported as the three in-flight artifacts.
//!
//! One run per plane (TACTIC and the no-access-control baseline) with
//! the sampler and profiler forced on:
//!
//! * `profile.timeseries.jsonl` — the sim-time sampler's counter rows
//!   (queue depth, PIT, CS, BF occupancy/FPP, drop deltas). Golden:
//!   byte-identical for any `--threads`/`--shards` value, and this
//!   binary *asserts* that by re-running every `--shards` entry.
//! * `profile.profile.jsonl` — wall-clock span totals per handler class
//!   and per shard epoch. Nondeterministic, never golden.
//! * `profile.trace.json` — a Chrome/Perfetto trace of the last TACTIC
//!   run: one lane per shard (epochs + barrier waits) plus sampled
//!   counter tracks. Load it in `ui.perfetto.dev`. Never golden.

use tactic::scenario::Scenario;
use tactic_sim::rng::derive_seed;
use tactic_sim::time::SimDuration;
use tactic_telemetry::{
    profile_to_jsonl, run_trace_json, timeseries_to_jsonl, EpochSpan, SampleRow, SpanProfiler,
};

use crate::opts::RunOpts;
use crate::output::{fmt_f, write_file, TextTable};
use crate::runner::{run_named_plane, scenario_id, shaped_scenario, PlaneReport, BASE_SEED};

/// Sampling cadence when `--sample-every` is not given: one simulated
/// second per tick.
pub const DEFAULT_SAMPLE_SECS: f64 = 1.0;

const PLANES: [&str; 2] = ["tactic", "no-access-control"];

/// Everything one run contributes to the three artifacts.
struct Capture {
    samples: Vec<SampleRow>,
    profiler: SpanProfiler,
    epochs: Vec<EpochSpan>,
    events: u64,
}

/// Runs one plane at one shard count (see [`run_named_plane`]).
fn capture(plane: &str, scenario: &Scenario, seed: u64, shards: usize) -> Capture {
    let (report, stats) = run_named_plane(plane, scenario, seed, shards);
    let (samples, profiler, events) = match report {
        PlaneReport::Tactic(r) => (r.samples, r.profile, r.events),
        PlaneReport::Baseline(r) => (r.samples, r.profile, r.events),
    };
    Capture {
        samples,
        profiler: profiler.map(|p| *p).unwrap_or_default(),
        epochs: stats.map(|s| s.epoch_spans).unwrap_or_default(),
        events,
    }
}

/// The in-flight observability experiment: samples both planes, checks
/// the time series is byte-identical across every `--shards` entry, and
/// writes `profile.timeseries.jsonl`, `profile.profile.jsonl`, and
/// `profile.trace.json`.
///
/// # Errors
///
/// Propagates I/O errors from writing the artifacts.
pub fn profile(opts: &RunOpts) -> std::io::Result<String> {
    let topo = opts.topologies[0];
    let mut scenario = shaped_scenario(topo, opts, 20);
    if scenario.sample_every.is_none() {
        scenario.sample_every = Some(SimDuration::from_secs_f64(DEFAULT_SAMPLE_SECS));
    }
    scenario.profile = true;

    let mut report = format!(
        "In-flight observability ({topo}, sample every {:.3} s)\n\n",
        scenario.sample_every.expect("forced on").as_secs_f64(),
    );
    let mut table = TextTable::new(vec![
        "plane",
        "events",
        "samples",
        "final PIT",
        "final CS",
        "BF occupancy",
        "busiest span",
        "span total (ms)",
    ]);
    let mut timeseries = String::new();
    let mut profiles = String::new();
    let mut trace = String::new();
    for (pi, plane) in PLANES.iter().enumerate() {
        let sid = scenario_id("profile", &[pi as u64]);
        let seed = derive_seed(BASE_SEED, topo.index() as u32, sid, 0);
        // Every listed shard count runs; the sampler rows must be
        // byte-identical across all of them (live determinism check,
        // same contract as the grid binaries).
        let mut cap = capture(plane, &scenario, seed, opts.shards[0]);
        let reference = timeseries_to_jsonl(plane, &cap.samples);
        for &k in &opts.shards[1..] {
            cap = capture(plane, &scenario, seed, k);
            assert_eq!(
                reference,
                timeseries_to_jsonl(plane, &cap.samples),
                "{plane}: timeseries must be byte-identical at --shards {k}",
            );
        }
        let last = cap.samples.last().cloned().unwrap_or_default();
        let busiest = cap
            .profiler
            .spans()
            .max_by_key(|(_, s)| s.total_ns)
            .map_or(("-", 0u64), |(n, s)| (n, s.total_ns));
        let span_total: u64 = cap.profiler.spans().map(|(_, s)| s.total_ns).sum();
        table.row(vec![
            plane.to_string(),
            cap.events.to_string(),
            cap.samples.len().to_string(),
            last.pit_records.to_string(),
            last.cs_entries.to_string(),
            fmt_f(last.bf_occupancy()),
            busiest.0.to_string(),
            fmt_f(span_total as f64 / 1e6),
        ]);
        timeseries.push_str(&reference);
        profiles.push_str(&profile_to_jsonl(plane, &cap.profiler, &cap.epochs));
        if *plane == "tactic" {
            trace = run_trace_json(plane, &cap.epochs, &cap.samples);
        }
    }

    write_file(&opts.out_dir, "profile.timeseries.jsonl", &timeseries)?;
    write_file(&opts.out_dir, "profile.profile.jsonl", &profiles)?;
    write_file(&opts.out_dir, "profile.trace.json", &trace)?;
    report.push_str(&table.render());
    report.push_str(
        "\nThe time series is golden (byte-identical for any --threads/\n\
         --shards value; re-checked above); the span profile and trace are\n\
         wall-clock and therefore never compared. Open profile.trace.json\n\
         in ui.perfetto.dev: one lane per shard, counters underneath.\n",
    );
    report.push_str(
        "\nWritten to profile.timeseries.jsonl, profile.profile.jsonl, profile.trace.json\n",
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tactic_telemetry::TIMESERIES_KEYS;
    use tactic_topology::paper::PaperTopology;

    fn tiny_opts(out: &str, shards: Vec<usize>) -> RunOpts {
        RunOpts {
            duration_secs: Some(5),
            topologies: vec![PaperTopology::Topo1],
            out_dir: std::env::temp_dir().join(out),
            shards,
            verbosity: crate::opts::Verbosity::Quiet,
            ..RunOpts::default()
        }
    }

    /// The ISSUE's acceptance case: the binary emits all three artifacts,
    /// the time series carries the full schema, the span profile names
    /// the hot paths, and the trace parses as Chrome-trace JSON with the
    /// required Perfetto event fields.
    #[test]
    fn profile_writes_all_three_artifacts() {
        let opts = tiny_opts("tactic-profile-artifacts", vec![1, 2]);
        let report = profile(&opts).expect("runs");
        assert!(report.contains("tactic"));
        assert!(report.contains("no-access-control"));

        let ts = std::fs::read_to_string(opts.out_dir.join("profile.timeseries.jsonl"))
            .expect("timeseries");
        assert!(!ts.is_empty());
        for key in TIMESERIES_KEYS {
            assert!(
                ts.lines().all(|l| l.contains(&format!("\"{key}\":"))),
                "every timeseries row must carry {key}"
            );
        }
        for plane in PLANES {
            assert!(ts.contains(&format!("\"label\":\"{plane}\"")));
        }

        let prof =
            std::fs::read_to_string(opts.out_dir.join("profile.profile.jsonl")).expect("profile");
        for span in [
            "precheck",
            "bf_lookup",
            "sig_verify",
            "pit_ops",
            "link.transit",
        ] {
            assert!(
                prof.contains(&format!("\"span\":\"{span}\"")),
                "span profile must name {span}:\n{prof}"
            );
        }
        assert!(
            prof.contains("\"kind\":\"epoch\""),
            "sharded epochs missing"
        );

        let trace =
            std::fs::read_to_string(opts.out_dir.join("profile.trace.json")).expect("trace");
        assert!(trace.starts_with("{\"traceEvents\":["));
        for field in ["\"ph\":", "\"ts\":", "\"pid\":", "\"name\":"] {
            assert!(trace.contains(field), "trace must carry {field}");
        }
        assert!(
            trace.contains("\"name\":\"epoch\""),
            "trace must render epoch slices"
        );
        assert!(
            trace.contains("\"name\":\"shard 0\"") && trace.contains("\"name\":\"shard 1\""),
            "trace must name one lane per shard"
        );
    }

    /// `--sample-every` overrides the forced-on default cadence.
    #[test]
    fn sample_every_flag_changes_cadence() {
        let mut opts = tiny_opts("tactic-profile-cadence", vec![1]);
        opts.sample_every_secs = Some(2.5);
        let report = profile(&opts).expect("runs");
        assert!(report.contains("sample every 2.500 s"), "{report}");
    }
}
