//! Scenario configuration: everything §8.A fixes about a simulation run.

use tactic_bloom::CachePolicy;
use tactic_net::{
    run_plane_sharded, ChurnConfig, EdgeDefense, Links, Net, NetConfig, NetObserver, NodePlane,
    ShardSpec, ShardablePlane, ShardedRun,
};
use tactic_sim::cost::CostModel;
use tactic_sim::rng::Rng;
use tactic_sim::time::{SimDuration, SimTime};
use tactic_topology::paper::PaperTopology;
use tactic_topology::roles::{build_topology, Topology, TopologySpec};
use tactic_topology::shard::ShardError;

use crate::access::AccessLevel;
use crate::consumer::AttackerStrategy;

// Mobility, the fault model, and the adversarial layer live in the
// shared transport plane now; re-exported here so scenario construction
// keeps reading naturally.
pub use tactic_net::MobilityConfig;
pub use tactic_net::{AttackClass, AttackPlan, DefenseConfig, RateLimit};
pub use tactic_net::{FaultEvent, FaultKind, FaultPlan, LossModel, RetransmitPolicy};

/// How tag issuance and expiry churn are modelled — §5's expiry knob
/// ("a shorter expiry time mandates clients to request fresh tags more
/// frequently") made a first-class workload axis.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum TagLifetimePolicy {
    /// The paper's reactive model: tags live for
    /// [`Scenario::tag_validity`] and a client re-registers only once its
    /// tag is within the refresh margin of expiry. Draws nothing from the
    /// lifecycle RNG stream, so runs are byte-identical to builds that
    /// predate the lifecycle layer.
    #[default]
    Fixed,
    /// Issuance/renewal churn: `validity` overrides
    /// [`Scenario::tag_validity`], and each client proactively
    /// re-registers `lead` before expiry plus a per-tag uniform jitter in
    /// `[0, jitter)` drawn from the dedicated lifecycle RNG stream (the
    /// jitter desynchronises fleet-wide renewal waves). `validity` must
    /// comfortably exceed `lead + jitter` or clients spend their whole
    /// life re-registering.
    Churn {
        /// Tag validity period (`T_e - T_issue`).
        validity: SimDuration,
        /// How long before expiry the renewal fires.
        lead: SimDuration,
        /// Per-tag uniform jitter bound added to the lead.
        jitter: SimDuration,
    },
}

impl TagLifetimePolicy {
    /// True when proactive renewal churn is active.
    pub fn is_churn(&self) -> bool {
        matches!(self, TagLifetimePolicy::Churn { .. })
    }

    /// A compact token for run labels and manifests (`fixed` or
    /// `churn<validity>-<lead>-<jitter>` in milliseconds).
    pub fn summary(&self) -> String {
        match self {
            TagLifetimePolicy::Fixed => "fixed".to_string(),
            TagLifetimePolicy::Churn {
                validity,
                lead,
                jitter,
            } => format!(
                "churn{}-{}-{}",
                validity.as_nanos() / 1_000_000,
                lead.as_nanos() / 1_000_000,
                jitter.as_nanos() / 1_000_000
            ),
        }
    }
}

/// Which network to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologyChoice {
    /// One of the paper's Table III topologies.
    Paper(PaperTopology),
    /// An arbitrary spec (tests, examples, sweeps).
    Custom(TopologySpec),
}

impl TopologyChoice {
    /// The entity counts.
    pub fn spec(&self) -> TopologySpec {
        match self {
            TopologyChoice::Paper(p) => p.spec(),
            TopologyChoice::Custom(s) => *s,
        }
    }
}

/// The transport-side inputs every plane builds a run from (see
/// [`Scenario::assembly`]).
#[derive(Debug)]
pub struct Assembly {
    /// The plane's salted run RNG: per-node and per-consumer streams
    /// fork off it.
    pub rng: Rng,
    /// The network.
    pub topo: Topology,
    /// Face tables for `topo`.
    pub links: Links,
}

/// A complete experiment configuration.
///
/// Defaults ([`Scenario::paper`]) follow §8.A: Zipf(0.7) popularity,
/// window 5, 1 s request expiry, 10 s tag validity, 10 providers × 50
/// objects × 50 chunks, BF of 500 tags / 5 hashes / max FPP 1e-4, and the
/// benchmarked computation-cost injection.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The network.
    pub topology: TopologyChoice,
    /// Simulated duration (paper: 2000 s; reduced-scale runs use less).
    pub duration: SimDuration,
    /// Bloom-filter design capacity in tags (sizes the bit array together
    /// with [`bf_design_fpp`](Self::bf_design_fpp)).
    pub bf_capacity: usize,
    /// Bloom-filter hash count.
    pub bf_hashes: u32,
    /// The FPP the bit array is *sized* for at design capacity.
    pub bf_design_fpp: f64,
    /// The saturation threshold that triggers a reset (Fig. 8 sweeps this
    /// independently of the array size).
    pub bf_max_fpp: f64,
    /// Tag validity period.
    pub tag_validity: SimDuration,
    /// Tag issuance/renewal model ([`TagLifetimePolicy::Fixed`] = the
    /// paper's reactive clients; churn adds proactive pre-expiry renewal
    /// driven by a dedicated RNG stream).
    pub lifetime: TagLifetimePolicy,
    /// Validation-cache policy at every router
    /// ([`CachePolicy::MonolithicReset`] = the paper's saturate-and-reset
    /// filter; generational policies rotate sub-filters instead).
    pub cache_policy: CachePolicy,
    /// Routers remember the ids of tags they have validated and count
    /// re-validations forced by cache churn (a reset/rotation evicting a
    /// still-valid registration). Costs one hash-set entry per distinct
    /// tag per router; off by default.
    pub track_revalidations: bool,
    /// Objects per provider.
    pub objects_per_provider: usize,
    /// Chunks per object.
    pub chunks_per_object: usize,
    /// Chunk payload bytes. The paper does not state its payload size; we
    /// default to 8 KiB, which reproduces the paper's observed per-client
    /// throughput regime (~tens of chunks/s) on 10 Mbps edge links.
    pub chunk_size: usize,
    /// Access levels cycled over each provider's objects.
    pub content_levels: Vec<AccessLevel>,
    /// The level granted to legitimate clients.
    pub client_level: AccessLevel,
    /// Zipf exponent for content popularity.
    pub zipf_alpha: f64,
    /// Outstanding-request window per consumer.
    pub window: usize,
    /// Request expiry at consumers.
    pub request_timeout: SimDuration,
    /// Clients treat tags within this margin of expiry as stale and
    /// refresh proactively (keeps in-flight requests from crossing the
    /// expiry; set to zero for the paper's bare client model).
    pub tag_refresh_margin: SimDuration,
    /// Content-store capacity per router, in packets.
    pub cs_capacity: usize,
    /// Enforce access-path authentication (paper's sim: off).
    pub access_path_enabled: bool,
    /// Honour the cooperation flag `F` (ablation switch).
    pub flag_f_enabled: bool,
    /// Content routers answer invalid tags with content + NACK (§5.B);
    /// ablation: off means plain drops.
    pub content_nack_enabled: bool,
    /// Edge routers record tag sightings for traitor tracing (§9's future
    /// work, implemented in `tactic::traitor`).
    pub record_sightings: bool,
    /// Client mobility (None = the paper's static evaluation).
    pub mobility: Option<MobilityConfig>,
    /// Attacker strategies, assigned round-robin.
    pub attacker_mix: Vec<AttackerStrategy>,
    /// Computation-cost injection model.
    pub cost_model: CostModel,
    /// Transport-level fault injection: packet loss and scheduled
    /// link/node failures ([`FaultPlan::none`] = the paper's ideal links).
    pub faults: FaultPlan,
    /// Consumer Interest retransmission with exponential backoff
    /// (`None` = the paper's no-retry clients).
    pub retransmit: Option<RetransmitPolicy>,
    /// Deterministic sim-time sampling period: every `sample_every` of
    /// simulated time the transport snapshots queue depth, PIT/CS sizes,
    /// Bloom-filter occupancy, and drop counters into one
    /// [`SampleRow`](tactic_telemetry::SampleRow). `None` (the default)
    /// disables sampling at zero cost.
    pub sample_every: Option<SimDuration>,
    /// Collect the wall-clock span profile (hot-path handler classes,
    /// per-shard epoch spans). Nondeterministic metadata only — the
    /// simulation itself is bit-identical either way.
    pub profile: bool,
    /// What the attacker fleet does ([`AttackPlan::none`] = the paper's
    /// historical attacker mix; an active plan repurposes every attacker
    /// into the named adversarial class).
    pub attack: AttackPlan,
    /// The edge's defensive posture ([`DefenseConfig::none`] = all
    /// defenses off, provably zero-cost).
    pub defense: DefenseConfig,
}

impl Scenario {
    /// The paper-replica configuration on the given topology.
    pub fn paper(topology: PaperTopology) -> Self {
        Scenario {
            topology: TopologyChoice::Paper(topology),
            duration: SimDuration::from_secs(2_000),
            bf_capacity: 500,
            bf_hashes: 5,
            bf_design_fpp: 1e-4,
            bf_max_fpp: 1e-4,
            tag_validity: SimDuration::from_secs(10),
            lifetime: TagLifetimePolicy::Fixed,
            cache_policy: CachePolicy::MonolithicReset,
            track_revalidations: false,
            objects_per_provider: 50,
            chunks_per_object: 50,
            chunk_size: 8 * 1024,
            content_levels: vec![AccessLevel::Level(1)],
            client_level: AccessLevel::Level(1),
            zipf_alpha: 0.7,
            window: 5,
            request_timeout: SimDuration::from_secs(1),
            tag_refresh_margin: SimDuration::from_millis(250),
            cs_capacity: 300,
            access_path_enabled: false,
            flag_f_enabled: true,
            content_nack_enabled: true,
            record_sightings: false,
            mobility: None,
            attacker_mix: AttackerStrategy::PAPER_MIX.to_vec(),
            cost_model: CostModel::paper(),
            faults: FaultPlan::none(),
            retransmit: None,
            sample_every: None,
            profile: false,
            attack: AttackPlan::none(),
            defense: DefenseConfig::none(),
        }
    }

    /// A small, fast configuration for tests and examples: a custom
    /// topology and a short horizon.
    pub fn small() -> Self {
        let mut s = Scenario::paper(PaperTopology::Topo1);
        s.topology = TopologyChoice::Custom(TopologySpec {
            core_routers: 12,
            edge_routers: 4,
            providers: 2,
            clients: 6,
            attackers: 3,
        });
        s.duration = SimDuration::from_secs(30);
        s.objects_per_provider = 10;
        s.chunks_per_object = 10;
        s
    }

    /// Whether any handover machinery is active: client mobility, or an
    /// attacker-churn plan (which rides the same Move events with its
    /// own dwell). This — not `mobility.is_some()` alone — is what the
    /// sharded lookahead must conservatively account for, because
    /// handovers re-point radio links across shard boundaries at will.
    pub fn any_mobility(&self) -> bool {
        self.mobility.is_some() || self.attack_churns()
    }

    fn attack_churns(&self) -> bool {
        self.attack.active() && self.attack.class == Some(AttackClass::Churn)
    }

    /// The run RNG `seed ^ salt` and the network built from it: the
    /// shared first step of every plane's assembly. Each plane passes its
    /// own `salt` so no two planes share a random stream.
    ///
    /// The salt also seeds generated topologies. A
    /// [`TopologyChoice::Paper`] network depends on `seed` alone, but a
    /// [`TopologyChoice::Custom`] one (`Scenario::small`, every fleet
    /// spec) is drawn from the salted RNG, so the same seed gives each
    /// plane a *different* Barabási–Albert graph. Cross-plane
    /// comparisons on custom topologies therefore compare different
    /// graphs of the same size; aligning the salts would change every
    /// pinned baseline golden.
    pub fn assembly(&self, seed: u64, salt: u64) -> Assembly {
        let rng = Rng::seed_from_u64(seed ^ salt);
        let topo = self.build_topology(seed, &rng);
        let links = Links::build(&topo);
        Assembly { rng, topo, links }
    }

    fn build_topology(&self, seed: u64, rng: &Rng) -> Topology {
        match self.topology {
            TopologyChoice::Paper(p) => p.build(seed),
            TopologyChoice::Custom(spec) => build_topology(&spec, &mut rng.fork(1)),
        }
    }

    /// The transport configuration for `topo`: everything the scenario
    /// fixes, plus the edge defenses and the attacker churn schedule,
    /// which need the topology's roles.
    fn net_config(&self, topo: &Topology) -> NetConfig {
        let d = &self.defense;
        let defense = (d.rate_limit.is_some() || d.face_cap.is_some()).then(|| {
            EdgeDefense::new(
                d.rate_limit,
                d.face_cap,
                topo.clients
                    .iter()
                    .chain(&topo.attackers)
                    .copied()
                    .collect(),
                topo.access_points.clone(),
                topo.edge_routers.clone(),
            )
        });
        let churn = self.attack_churns().then(|| {
            let mut nodes = topo.attackers.clone();
            nodes.sort_unstable();
            ChurnConfig {
                nodes,
                mean_dwell: SimDuration::from_secs(2),
            }
        });
        NetConfig {
            duration: self.duration,
            mobility: self.mobility,
            cost: self.cost_model.clone(),
            faults: self.faults.clone(),
            sample_every: self.sample_every,
            profile: self.profile,
            defense,
            churn,
        }
    }

    /// Puts a plane built from `asm` on the transport: a sequential run
    /// (`shard == None`) or one replica of a sharded run.
    pub fn assemble<P: NodePlane, O: NetObserver>(
        &self,
        asm: Assembly,
        plane: P,
        observer: O,
        shard: Option<ShardSpec>,
    ) -> Net<P, O> {
        let Assembly { rng, topo, links } = asm;
        let config = self.net_config(&topo);
        match shard {
            None => Net::assemble_observed(&topo, links, plane, rng, config, observer),
            Some(s) => Net::assemble_sharded(&topo, links, plane, rng, config, observer, s),
        }
    }

    /// Runs a plane space-partitioned across `shards` worker threads (see
    /// [`run_plane_sharded`]). Each worker calls `build` with its
    /// [`ShardSpec`] and must return the net [`Scenario::assemble`] makes
    /// from `self.assembly(seed, salt)`, so the partition and every
    /// replica see the same topology.
    ///
    /// # Errors
    ///
    /// A [`ShardError`] for zero shards or more shards than routers.
    pub fn run_sharded_plane<P, O, F>(
        &self,
        seed: u64,
        salt: u64,
        shards: usize,
        build: F,
    ) -> Result<ShardedRun<P, O>, ShardError>
    where
        P: ShardablePlane + Send,
        O: NetObserver + Send,
        F: Fn(ShardSpec) -> Net<P, O> + Sync,
    {
        let topo = self.build_topology(seed, &Rng::seed_from_u64(seed ^ salt));
        run_plane_sharded(
            topo,
            shards,
            self.any_mobility(),
            SimTime::ZERO + self.duration,
            self.profile,
            build,
        )
    }

    /// The tag validity the providers actually issue under: the churn
    /// policy's `validity` when active, [`tag_validity`](Self::tag_validity)
    /// otherwise.
    pub fn effective_tag_validity(&self) -> SimDuration {
        match self.lifetime {
            TagLifetimePolicy::Churn { validity, .. } => validity,
            TagLifetimePolicy::Fixed => self.tag_validity,
        }
    }

    /// The Bloom-filter parameters for this scenario: the bit array is
    /// sized for `bf_capacity` tags at `bf_design_fpp` under `bf_hashes`
    /// hash functions, while `bf_max_fpp` acts only as the reset
    /// threshold.
    pub fn bf_params(&self) -> tactic_bloom::BloomParams {
        let mut p = tactic_bloom::BloomParams::with_fixed_hashes(
            self.bf_capacity,
            self.bf_hashes,
            self.bf_design_fpp,
        );
        p.max_fpp = self.bf_max_fpp;
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_section_8a() {
        let s = Scenario::paper(PaperTopology::Topo2);
        assert_eq!(s.duration, SimDuration::from_secs(2000));
        assert_eq!(s.bf_capacity, 500);
        assert_eq!(s.bf_hashes, 5);
        assert_eq!(s.bf_max_fpp, 1e-4);
        assert_eq!(s.tag_validity, SimDuration::from_secs(10));
        assert_eq!(s.objects_per_provider, 50);
        assert_eq!(s.chunks_per_object, 50);
        assert_eq!(s.zipf_alpha, 0.7);
        assert_eq!(s.window, 5);
        assert!(
            !s.access_path_enabled,
            "the paper's sim left AP to future work"
        );
        assert_eq!(s.topology.spec().providers, 10);
    }

    #[test]
    fn bf_params_derive_from_scenario() {
        let s = Scenario::paper(PaperTopology::Topo1);
        let p = s.bf_params();
        assert_eq!(p.hashes, 5);
        assert_eq!(p.capacity, 500);
        assert_eq!(p.max_fpp, 1e-4);
    }

    #[test]
    fn lifecycle_defaults_are_the_paper_model() {
        let s = Scenario::paper(PaperTopology::Topo1);
        assert_eq!(s.lifetime, TagLifetimePolicy::Fixed);
        assert_eq!(s.cache_policy, CachePolicy::MonolithicReset);
        assert!(!s.track_revalidations);
        assert_eq!(s.effective_tag_validity(), s.tag_validity);
        assert_eq!(s.lifetime.summary(), "fixed");
        let churn = TagLifetimePolicy::Churn {
            validity: SimDuration::from_secs(2),
            lead: SimDuration::from_millis(500),
            jitter: SimDuration::from_millis(250),
        };
        assert!(churn.is_churn());
        assert_eq!(churn.summary(), "churn2000-500-250");
        let mut s2 = s;
        s2.lifetime = churn;
        assert_eq!(s2.effective_tag_validity(), SimDuration::from_secs(2));
    }

    #[test]
    fn small_scenario_is_small() {
        let s = Scenario::small();
        let spec = s.topology.spec();
        assert!(spec.routers() < 20);
        assert!(s.duration < SimDuration::from_secs(60));
    }
}
