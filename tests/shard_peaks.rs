//! Per-shard PIT/CS high-water marks: the transport records each purge
//! sweep's gauges, so every sharded run reports one peak per shard, and
//! those peaks must bracket the merged (sequential-equivalent) peak.

use tactic::net::{run_scenario, run_scenario_sharded};
use tactic::scenario::{LossModel, Scenario};
use tactic_baselines::{run_baseline, run_baseline_sharded, Mechanism};
use tactic_net::ShardedStats;
use tactic_sim::time::SimDuration;

/// A lossy run: dropped Data strands PIT records until the sweeps
/// expire them, so PIT state accumulates between sweeps.
fn lossy() -> Scenario {
    let mut s = Scenario::small();
    s.duration = SimDuration::from_secs(10);
    s.faults.loss = LossModel::Uniform { p: 0.05 };
    s
}

/// `max(per-shard) ≤ merged ≤ Σ per-shard`, one entry per shard.
fn assert_brackets(what: &str, k: usize, per_shard: &[u64], merged: u64) {
    assert_eq!(per_shard.len(), k, "{what} K={k}: one peak per shard");
    let max = per_shard.iter().copied().max().unwrap_or(0);
    let sum: u64 = per_shard.iter().sum();
    assert!(
        max <= merged && merged <= sum,
        "{what} K={k}: per-shard {per_shard:?} must bracket merged {merged}"
    );
}

/// Checks one plane's sharded run against its sequential peaks.
fn check(plane: &str, k: usize, seq: (u64, u64), sharded: (u64, u64), stats: &ShardedStats) {
    let (seq_pit, seq_cs) = seq;
    let (pit, cs) = sharded;
    assert!(pit > 0, "{plane} K={k}: loss must leave PIT state behind");
    assert_eq!((pit, cs), (seq_pit, seq_cs), "{plane} K={k}: merged peaks");
    assert_brackets(&format!("{plane} PIT"), k, &stats.per_shard_peak_pit, pit);
    assert_brackets(&format!("{plane} CS"), k, &stats.per_shard_peak_cs, cs);
}

#[test]
fn per_shard_peaks_bracket_the_merged_peak_on_both_planes() {
    let scenario = lossy();
    let seq = run_scenario(&scenario, 5);
    let seq_base = run_baseline(&scenario, Mechanism::NoAccessControl, 5);
    for k in [2, 4] {
        let (r, stats) = run_scenario_sharded(&scenario, 5, k).expect("small topology fits");
        check(
            "tactic",
            k,
            (seq.peak_pit_records, seq.peak_cs_entries),
            (r.peak_pit_records, r.peak_cs_entries),
            &stats,
        );
        let (b, stats) = run_baseline_sharded(&scenario, Mechanism::NoAccessControl, 5, k)
            .expect("small topology fits");
        check(
            "no-access-control",
            k,
            (seq_base.peak_pit_records, seq_base.peak_cs_entries),
            (b.peak_pit_records, b.peak_cs_entries),
            &stats,
        );
    }
}
