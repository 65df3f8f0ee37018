//! The named workloads. Each is a fixed [`Scenario`] plus a shard count;
//! the seed comes from the command line.

use tactic::scenario::{Scenario, TagLifetimePolicy, TopologyChoice};
use tactic::AttackerStrategy;
use tactic_bloom::{BloomParams, CachePolicy};
use tactic_sim::time::SimDuration;
use tactic_topology::fleet::FleetSpec;
use tactic_topology::paper::PaperTopology;
use tactic_topology::roles::TopologySpec;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's own evaluation: Topo1 with the paper attacker mix.
    PaperTopo1,
    /// A 10⁵-node fleet with the scale bench's small catalogue, sequential.
    Fleet1e5,
    /// The same inputs as [`Workload::Fleet1e5`], sharded across two threads.
    Fleet1e5K2,
    /// The tag-lifecycle fleet under renewal churn with an undersized
    /// validation cache.
    TagChurn,
}

/// Every workload, in the order they are documented.
pub const ALL: [Workload; 4] = [
    Workload::PaperTopo1,
    Workload::Fleet1e5,
    Workload::Fleet1e5K2,
    Workload::TagChurn,
];

/// Nodes in the fleet workloads.
const FLEET_NODES: usize = 100_000;
/// Simulated horizon of the fleet workloads: about as long in host time
/// as the ~2 s set-up, so a trial weighs both and a run holds several.
const FLEET_HORIZON_MS: u64 = 100;
/// Simulated horizon of `paper_topo1`: three tag lifetimes, so renewals
/// and re-validations are in the measured mix.
const PAPER_HORIZON_S: u64 = 30;

/// Clients per edge router in `tag_churn`.
const CHURN_CLIENTS: usize = 10_000;
/// Attackers beside them (paper mix), so attacker delivery is measured.
const CHURN_ATTACKERS: usize = 100;
/// Clients per router the `tag_churn` validation cache is sized for.
const CHURN_CACHE_CLIENTS: usize = 1_000;
/// Providers in the `tag_churn` fleet.
const CHURN_PROVIDERS: usize = 2;
/// Simulated horizon of `tag_churn`: the `tagscale` horizon at 10⁴
/// clients per router.
const CHURN_HORIZON_MS: u64 = 5_000;

impl Workload {
    /// Parses a workload name as `BENCHMARK.json` spells it.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperTopo1 => "paper_topo1",
            Workload::Fleet1e5 => "fleet_1e5",
            Workload::Fleet1e5K2 => "fleet_1e5_k2",
            Workload::TagChurn => "tag_churn",
        }
    }

    /// Shard threads the workload runs on (1 = `Network::build`/`run`).
    pub fn shards(self) -> usize {
        match self {
            Workload::Fleet1e5K2 => 2,
            _ => 1,
        }
    }

    /// The scenario the workload runs.
    pub fn scenario(self) -> Scenario {
        match self {
            Workload::PaperTopo1 => {
                let mut s = Scenario::paper(PaperTopology::Topo1);
                s.duration = SimDuration::from_secs(PAPER_HORIZON_S);
                s
            }
            Workload::Fleet1e5 | Workload::Fleet1e5K2 => {
                let mut s = Scenario::small();
                s.topology = TopologyChoice::Custom(FleetSpec::sized(FLEET_NODES).to_table_spec());
                s.duration = SimDuration::from_millis(FLEET_HORIZON_MS);
                s.objects_per_provider = 10;
                s.chunks_per_object = 10;
                s
            }
            Workload::TagChurn => tag_churn_scenario(),
        }
    }
}

/// The `tagscale` cell at 10⁴ clients per router: one edge, three core
/// routers, two providers, proactive renewal at half the horizon's
/// validity, and a monolithic validation cache sized for 10³ clients.
fn tag_churn_scenario() -> Scenario {
    let mut s = Scenario::paper(PaperTopology::Topo1);
    s.topology = TopologyChoice::Custom(TopologySpec {
        core_routers: 3,
        edge_routers: 1,
        providers: CHURN_PROVIDERS,
        clients: CHURN_CLIENTS,
        attackers: CHURN_ATTACKERS,
    });
    s.attacker_mix = AttackerStrategy::PAPER_MIX.to_vec();
    let duration = SimDuration::from_millis(CHURN_HORIZON_MS);
    s.duration = duration;
    s.objects_per_provider = 10;
    s.chunks_per_object = 10;

    let design_fpp = 1e-3;
    let mut p = BloomParams::for_capacity(CHURN_CACHE_CLIENTS * CHURN_PROVIDERS, design_fpp);
    p.max_fpp = 2e-2;
    s.bf_capacity = p.capacity;
    s.bf_hashes = p.hashes;
    s.bf_design_fpp = design_fpp;
    s.bf_max_fpp = p.max_fpp;

    let validity = SimDuration::from_nanos(duration.as_nanos() / 2);
    s.lifetime = TagLifetimePolicy::Churn {
        validity,
        lead: SimDuration::from_nanos(validity.as_nanos() / 4),
        jitter: SimDuration::from_nanos(validity.as_nanos() / 8),
    };
    s.cache_policy = CachePolicy::MonolithicReset;
    s.track_revalidations = true;
    s
}
