//! Transport-level observability: link utilisation, drop accounting, and
//! handover counts per simulation plane, measured by attaching a
//! [`NetCounters`] observer to the shared transport — numbers no plane
//! report exposes on its own.

use tactic::scenario::Scenario;
use tactic_net::{MobilityConfig, NetCounters};
use tactic_sim::time::SimDuration;
use tactic_telemetry::NoopProtocolObserver;

use crate::opts::RunOpts;
use crate::output::{fmt_f, write_file, TextTable};
use crate::runner::{run_named_plane_traced, shaped_scenario, BASE_SEED, PLANES};

/// One observed run of `plane`, space-partitioned across `shards` when
/// `shards > 1`; the per-shard counters merge to exactly the sequential
/// counters, so the rendered tables are byte-identical for any shard
/// count. Exits with status 2 when the shard count does not fit the
/// topology, like any other bad CLI argument.
fn counters_for(scenario: &Scenario, plane: &str, seed: u64, shards: usize) -> NetCounters {
    let (_, counters, _, _) = run_named_plane_traced(
        plane,
        scenario,
        seed,
        shards,
        |_| NetCounters::default(),
        |_| NoopProtocolObserver,
    );
    let mut merged = NetCounters::default();
    for c in &counters {
        merged.merge(c);
    }
    merged
}

fn fill(
    table: &mut TextTable,
    csv: &mut TextTable,
    label: &str,
    scenario: &Scenario,
    seed: u64,
    shards: usize,
) {
    for plane in PLANES {
        let c = counters_for(scenario, plane, seed, shards);
        let busiest = c
            .busiest_links(1)
            .first()
            .map(|((from, to), load)| format!("{from}->{to} ({:.2} MB)", load.bytes as f64 / 1e6))
            .unwrap_or_else(|| "-".to_string());
        let row = vec![
            plane.to_string(),
            c.scheduled.to_string(),
            c.delivered.to_string(),
            c.dropped().to_string(),
            c.handovers.to_string(),
            fmt_f(c.bytes_on_wire as f64 / 1e6),
            busiest,
        ];
        let mut csv_row = vec![label.to_string()];
        csv_row.extend(row.iter().cloned());
        csv.row(csv_row);
        table.row(row);
    }
}

/// Transport-plane utilisation and loss accounting, static and mobile.
pub fn transport(opts: &RunOpts) -> std::io::Result<String> {
    let topo = opts.topologies[0];
    let scenario = shaped_scenario(topo, opts, 60);
    let header = vec![
        "plane",
        "scheduled",
        "delivered",
        "dropped",
        "handovers",
        "wire MB",
        "busiest link",
    ];
    let mut csv = TextTable::new(vec![
        "mobility",
        "plane",
        "scheduled",
        "delivered",
        "dropped",
        "handovers",
        "wire_mb",
        "busiest_link",
    ]);
    let mut report = format!("Transport observability ({topo})\n\n");

    let mut static_table = TextTable::new(header.clone());
    fill(
        &mut static_table,
        &mut csv,
        "static",
        &scenario,
        BASE_SEED,
        opts.shard_count(),
    );
    report.push_str("Static clients:\n");
    report.push_str(&static_table.render());

    let mut mobile = scenario.clone();
    mobile.mobility = Some(MobilityConfig {
        mean_dwell: SimDuration::from_secs(5),
        mobile_fraction: 0.5,
    });
    let mut mobile_table = TextTable::new(header);
    fill(
        &mut mobile_table,
        &mut csv,
        "mobile",
        &mobile,
        BASE_SEED,
        opts.shard_count(),
    );
    report.push_str("\nHalf the clients mobile (5 s mean dwell):\n");
    report.push_str(&mobile_table.render());
    report.push_str(
        "\nDrops are in-flight packets whose radio link a handover tore down\n\
         (the shared transport accounts for them instead of panicking).\n",
    );

    write_file(&opts.out_dir, "transport.csv", &csv.to_csv())?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_report_covers_both_regimes_and_all_planes() {
        let dir = std::env::temp_dir().join("tactic-transport-test");
        let opts = RunOpts {
            duration_secs: Some(5),
            seeds: Some(1),
            out_dir: dir.clone(),
            ..RunOpts::default()
        };
        let report = transport(&opts).expect("runs");
        for plane in PLANES {
            assert!(report.contains(plane), "missing {plane}:\n{report}");
        }
        assert!(report.contains("Half the clients mobile"));
        let csv = std::fs::read_to_string(dir.join("transport.csv")).expect("csv written");
        assert_eq!(csv.lines().count(), 1 + 2 * PLANES.len());
    }
}
