//! Golden-report snapshots guarding the shared-transport refactor.
//!
//! The files under `tests/snapshots/` were generated from the pre-refactor
//! simulation planes (`crates/core/src/net.rs` and
//! `crates/baselines/src/net.rs` before their event loops were unified into
//! `tactic-net`). These tests re-run the same small scenarios and assert the
//! aggregated reports are byte-identical, per plane and per `--threads`
//! count: the transport extraction must not perturb a single RNG draw,
//! event timestamp, or engine sequence number.
//!
//! Regenerate (only when a *deliberate* behaviour change lands) with:
//!
//! ```sh
//! SNAPSHOT_UPDATE=1 cargo test --test report_snapshots
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use tactic::metrics::RunReport;
use tactic::net::run_scenario;
use tactic::scenario::Scenario;
use tactic_baselines::mechanism::Mechanism;
use tactic_baselines::net::run_baseline;
use tactic_experiments::opts::Verbosity;
use tactic_experiments::runner::{run_replicas, scenario_id};
use tactic_sim::time::SimDuration;
use tactic_topology::paper::PaperTopology;

fn small(secs: u64) -> Scenario {
    let mut s = Scenario::small();
    s.duration = SimDuration::from_secs(secs);
    s
}

fn check(name: &str, got: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(name);
    if std::env::var_os("SNAPSHOT_UPDATE").is_some() {
        std::fs::create_dir_all(path.parent().expect("snapshot dir")).expect("mkdir");
        std::fs::write(&path, got).expect("write snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing snapshot {name} ({e}); run with SNAPSHOT_UPDATE=1"));
    assert_eq!(
        want, got,
        "report for {name} diverged from the pre-refactor snapshot"
    );
}

fn dump_runs(reports: &[RunReport]) -> String {
    let mut out = String::new();
    for (i, r) in reports.iter().enumerate() {
        writeln!(out, "=== run {i} ===\n{r:#?}").expect("string write");
    }
    out
}

#[test]
fn tactic_plane_small_report_is_byte_identical() {
    let r = run_scenario(&small(5), 42);
    check("tactic_small_seed42.txt", &format!("{r:#?}\n"));
}

#[test]
fn baseline_planes_small_reports_are_byte_identical() {
    let r = run_baseline(&small(5), Mechanism::ClientSideAc, 42);
    check("baseline_client_side_seed42.txt", &format!("{r:#?}\n"));
    let r = run_baseline(&small(5), Mechanism::ProviderAuthAc, 42);
    check("baseline_provider_auth_seed42.txt", &format!("{r:#?}\n"));
}

#[test]
fn grid_reports_are_byte_identical_across_thread_counts() {
    let s = small(5);
    let sid = scenario_id("refactor-snapshot", &[]);
    let serial = run_replicas(
        "snap",
        PaperTopology::Topo1,
        sid,
        &s,
        2,
        1,
        &[1],
        Verbosity::Quiet,
    );
    let serial_dump = dump_runs(&serial);
    for threads in [4, 8] {
        let parallel = run_replicas(
            "snap",
            PaperTopology::Topo1,
            sid,
            &s,
            2,
            threads,
            &[1],
            Verbosity::Quiet,
        );
        assert_eq!(
            serial_dump,
            dump_runs(&parallel),
            "--threads 1 vs {threads} must not change any report byte"
        );
    }
    check("grid_small_2seeds.txt", &serial_dump);
}

/// Guards the snapshot *files themselves* against churn: an accidental
/// `SNAPSHOT_UPDATE=1` regeneration that changes anything fails this
/// test even though the behavioural tests above would then trivially
/// pass. Re-pinned for the sharded-PDES refactor: shard-invariant event
/// keys and per-node RNG streams re-ordered same-instant draws (and
/// `peak_queue_depth`, a per-engine quantity, left the report dump), so
/// the sequential trajectory itself legitimately changed.
#[test]
fn checked_in_snapshots_are_unchanged_from_seed() {
    use tactic_crypto::hash::Hasher64;
    let pinned: &[(&str, u64, usize)] =
        &[("tactic_small_seed42.txt", 0xBED1_760F_680E_BB95, 852_596)];
    for &(name, digest, len) in pinned {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/snapshots")
            .join(name);
        let bytes =
            std::fs::read(&path).unwrap_or_else(|e| panic!("missing snapshot {name} ({e})"));
        let mut h = Hasher64::new();
        h.update(&bytes);
        assert_eq!(
            bytes.len(),
            len,
            "{name} changed size since the seed commit"
        );
        assert_eq!(
            h.finish(),
            digest,
            "{name} diverged from the seed commit's bytes"
        );
    }
}

/// A fleet-shaped network: many providers times many users, the regime in
/// which per-network tables (catalog, popularity CDF, grant table,
/// certificate store, routes) are shared by every node. `Scenario::small`
/// has two providers and nine users, so only this snapshot pins set-up
/// at a shape where a per-user or per-provider divergence would show.
fn fleet_shape() -> Scenario {
    let mut s = Scenario::small();
    s.topology = tactic::scenario::TopologyChoice::Custom(tactic_topology::roles::TopologySpec {
        core_routers: 36,
        edge_routers: 12,
        providers: 6,
        clients: 1_140,
        attackers: 60,
    });
    s.duration = SimDuration::from_millis(400);
    s.objects_per_provider = 40;
    s.chunks_per_object = 4;
    s
}

#[test]
fn fleet_shape_reports_are_byte_identical() {
    let s = fleet_shape();
    let r = run_scenario(&s, 7);
    check("tactic_fleet_seed7.txt", &format!("{r:#?}\n"));
    let r = run_baseline(&s, Mechanism::NoAccessControl, 7);
    check("baseline_noac_fleet_seed7.txt", &format!("{r:#?}\n"));
}
