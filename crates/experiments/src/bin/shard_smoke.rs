//! Sharded-determinism smoke: run each selected topology's paper preset
//! sequentially and at every `--shards` count, on the TACTIC plane and
//! every baseline mechanism, and byte-diff the reports. Exits nonzero on
//! any divergence or shard-partition error — the CI gate for the
//! conservative-PDES equivalence guarantee, covering the one sharded
//! runner both planes share.

use std::fmt::Debug;

use tactic::net::{run_scenario, run_scenario_sharded};
use tactic_baselines::{run_baseline, run_baseline_sharded, Mechanism};
use tactic_experiments::runner::shaped_scenario;
use tactic_experiments::RunOpts;
use tactic_net::ShardedStats;
use tactic_topology::ShardError;

/// Byte-diffs one plane's sharded reports against its sequential report
/// at every `shards` count; returns false on any divergence or error.
fn check<R: Debug>(
    plane: &str,
    shards: &[usize],
    sequential: R,
    sharded: impl Fn(usize) -> Result<(R, ShardedStats), ShardError>,
) -> bool {
    let sequential = format!("{sequential:#?}");
    println!(
        "{plane}: sequential report rendered ({} bytes)",
        sequential.len()
    );
    let mut ok = true;
    for &k in shards.iter().filter(|&&k| k > 1) {
        match sharded(k) {
            Ok((report, stats)) => {
                let dump = format!("{report:#?}");
                if dump == sequential {
                    println!(
                        "{plane}: K={k} byte-identical \
                         ({} epochs, edge cut {}, {} cross-shard events)",
                        stats.epochs, stats.edge_cut, stats.cross_events
                    );
                } else {
                    ok = false;
                    eprintln!("{plane}: K={k} report DIVERGED from sequential");
                    if let Some((a, b)) = sequential.lines().zip(dump.lines()).find(|(a, b)| a != b)
                    {
                        eprintln!("  sequential: {a}");
                        eprintln!("  sharded   : {b}");
                    }
                }
            }
            Err(e) => {
                ok = false;
                eprintln!("{plane}: K={k}: {e}");
            }
        }
    }
    ok
}

fn main() {
    let opts = match RunOpts::from_env() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("shard_smoke: {msg}");
            std::process::exit(if msg.starts_with("usage") { 0 } else { 2 });
        }
    };
    let mut ok = true;
    for &topo in &opts.topologies {
        let scenario = shaped_scenario(topo, &opts, 30);
        let seed = 42; // fixed seed: this is a determinism check, not a sweep
        ok &= check(
            &format!("{topo:?}"),
            &opts.shards,
            run_scenario(&scenario, seed),
            |k| run_scenario_sharded(&scenario, seed, k),
        );
        for m in Mechanism::ALL {
            ok &= check(
                &format!("{topo:?} {m}"),
                &opts.shards,
                run_baseline(&scenario, m, seed),
                |k| run_baseline_sharded(&scenario, m, seed, k),
            );
        }
    }
    if !ok {
        std::process::exit(1);
    }
}
