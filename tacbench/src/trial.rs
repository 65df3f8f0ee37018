//! One untraced trial: scenario in, `RunReport` out, timed from outside
//! the program, plus the sim-time QoS the paper reports and a digest of
//! the report for the correctness check.

use std::fmt::Write as _;
use std::time::Instant;

use tactic::net::{run_scenario_sharded, Network};
use tactic::scenario::Scenario;
use tactic::RunReport;
use tactic_net::ShardedStats;
use tactic_telemetry::json::JsonObject;

use crate::arms::layer_counts;
use crate::stats::{median, quantile_sorted};
use crate::workloads::Workload;

/// A finished run and how long its phases took on the host.
pub struct Outcome {
    /// The merged report.
    pub report: RunReport,
    /// Seconds in `Network::build` (sequential runs only).
    pub setup_s: Option<f64>,
    /// Seconds from scenario in to report out.
    pub wall_s: f64,
    /// Coordinator statistics (sharded runs only).
    pub sharded: Option<ShardedStats>,
}

/// Runs `scenario` the way `workload` does: `Network::build` + `run` for
/// one shard, `run_scenario_sharded` otherwise.
pub fn run(workload: Workload, scenario: &Scenario, seed: u64) -> Outcome {
    let started = Instant::now();
    if workload.shards() == 1 {
        let net = Network::build(scenario, seed);
        let setup_s = started.elapsed().as_secs_f64();
        let report = net.run();
        Outcome {
            report,
            setup_s: Some(setup_s),
            wall_s: started.elapsed().as_secs_f64(),
            sharded: None,
        }
    } else {
        let (report, stats) = run_scenario_sharded(scenario, seed, workload.shards())
            .expect("the fleet outnumbers the shards");
        Outcome {
            report,
            setup_s: None,
            wall_s: started.elapsed().as_secs_f64(),
            sharded: Some(stats),
        }
    }
}

/// FNV-1a over everything written to it: hashes a report's `Debug` form
/// without materialising the (at fleet scale, very long) string.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
        Ok(())
    }
}

/// The hex FNV-1a digest of `value`'s `Debug` rendering. `RunReport`'s
/// `Debug` omits the partition-dependent and wall-clock fields, so equal
/// digests mean equal simulations across trials and shard counts.
pub fn digest(value: &impl std::fmt::Debug) -> String {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    write!(h, "{value:?}").expect("hashing never fails");
    format!("{:016x}", h.0)
}

/// `VmHWM` (peak resident set) of this process in MB; 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The sim-time QoS fields of a report: delivery totals and ratios and
/// the client latency quantiles. Deterministic for a fixed seed.
pub fn qos_fields(report: &RunReport, out: &mut JsonObject) {
    let d = &report.delivery;
    out.field_u64("client_requested", d.client_requested)
        .field_u64("client_received", d.client_received)
        .field_u64("attacker_requested", d.attacker_requested)
        .field_u64("attacker_received", d.attacker_received)
        .field_f64("client_delivery_ratio", d.client_ratio())
        .field_f64("attacker_delivery_ratio", d.attacker_ratio());
    let blocked = d.attacker_requested.saturating_sub(d.attacker_received);
    out.field_f64(
        "attacker_block_ratio",
        tactic_sim::stats::ratio(blocked, d.attacker_requested),
    );
    let mut lat: Vec<f64> = report.latency.points().iter().map(|&(_, v)| v).collect();
    lat.sort_by(f64::total_cmp);
    out.field_u64("latency_samples", lat.len() as u64)
        .field_f64("latency_p50_ms", quantile_sorted(&lat, 0.50) * 1e3)
        .field_f64("latency_p99_ms", quantile_sorted(&lat, 0.99) * 1e3);
}

/// Host seconds the extra set-ups of one trial may take: cheap builds
/// are repeated so `setup_s` is a median rather than one short sample.
const EXTRA_SETUP_BUDGET_S: f64 = 0.25;
/// At most this many extra set-ups per trial.
const EXTRA_SETUPS: usize = 9;

/// Times `Network::build` of `scenario` again while the next build is
/// predicted to fit the budget, and returns every sample taken, `first`
/// included (`first = None` forces one build).
fn setup_samples(scenario: &Scenario, seed: u64, first: Option<f64>) -> Vec<f64> {
    let mut samples: Vec<f64> = first.into_iter().collect();
    let mut spent = 0.0;
    while samples
        .last()
        .is_none_or(|&last| samples.len() <= EXTRA_SETUPS && spent + last <= EXTRA_SETUP_BUDGET_S)
    {
        let started = Instant::now();
        let net = Network::build(scenario, seed);
        let took = started.elapsed().as_secs_f64();
        drop(net);
        spent += took;
        samples.push(took);
    }
    samples
}

/// Runs one trial and renders its fields.
pub fn trial(workload: Workload, seed: u64) -> JsonObject {
    let scenario = workload.scenario();
    let o = run(workload, &scenario, seed);
    let mut out = JsonObject::new();
    out.field_str("workload", workload.name())
        .field_u64("seed", seed)
        .field_u64("routers", scenario.topology.spec().routers() as u64)
        .field_str("digest", &digest(&o.report))
        .field_f64("wall_s", o.wall_s)
        .field_u64("events", o.report.events)
        .field_f64("events_per_s", o.report.events as f64 / o.wall_s);
    qos_fields(&o.report, &mut out);
    layer_counts(&o.report, o.sharded.as_ref(), &mut out);
    let first_setup = o.setup_s;
    drop(o);
    out.field_f64("peak_rss_mb", peak_rss_mb());
    // Extra set-ups run after the peak RSS is read, so they cannot
    // inflate it. The sharded entry point builds inside its workers and
    // does not expose their set-up time; for it, every sample is the
    // `Network::build` each of its workers performs.
    let setups = setup_samples(&scenario, seed, first_setup);
    out.field_f64("setup_s", median(&setups))
        .field_u64("setup_samples", setups.len() as u64);
    out
}
