//! Per-operation costs, measured by calling each crate's public functions
//! on inputs shaped like the workload's own: its tags, its filter
//! geometry and occupancy, its table sizes and its queue depth.

use std::hint::black_box;
use std::time::Instant;

use tactic::precheck::edge_precheck;
use tactic::provider::{Provider, ProviderConfig};
use tactic::scenario::{Scenario, TopologyChoice};
use tactic::{AccessPath, SignedTag};
use tactic_bloom::ValidationCache;
use tactic_ndn::face::FaceId;
use tactic_ndn::packet::{Data, Payload};
use tactic_ndn::{ContentStore, Fib, Name, Pit};
use tactic_net::{populate_fib, provider_prefix, Links};
use tactic_sim::rng::Rng;
use tactic_sim::time::{SimDuration, SimTime};
use tactic_sim::Engine;
use tactic_telemetry::json::JsonObject;
use tactic_topology::roles::{build_topology, Topology};
use tactic_topology::ShardMap;

use crate::stats::{median, Summary};
use crate::workloads::Workload;

/// The paper's §8.A benchmarked means, in seconds.
const PAPER_BF_LOOKUP_S: f64 = 9.14e-7;
const PAPER_BF_INSERT_S: f64 = 3.35e-7;
const PAPER_SIG_VERIFY_S: f64 = 1.12e-5;

/// How the workload's own run loaded each structure; sizes the inputs.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Set bits of the busiest validation cache, median over the samples.
    pub cache_set_bits: u64,
    /// Share of BF lookups that hit in the run.
    pub bf_hit_ratio: f64,
    /// Engine queue high-water mark.
    pub peak_queue: u64,
    /// PIT records per router at the run's high-water mark.
    pub pit_per_router: u64,
    /// Content-store entries per router at the run's high-water mark.
    pub cs_per_router: u64,
}

/// Timer overhead: the median cost of an empty `Instant` pair, in ns.
fn timer_floor_ns() -> f64 {
    let v: Vec<f64> = (0..10_000)
        .map(|_| {
            let t = Instant::now();
            black_box(());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&v)
}

/// One call of `f`, net of the timer floor, in ns.
fn time_one(floor: f64, f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    (t.elapsed().as_nanos() as f64 - floor).max(0.0)
}

/// Times `f` once per call for `n` calls, net of the timer floor, in ns.
fn time_each(floor: f64, n: usize, mut f: impl FnMut(usize)) -> Summary {
    let mut v: Vec<f64> = (0..n).map(|i| time_one(floor, || f(i))).collect();
    Summary::of(&mut v)
}

/// Times `f` over batches of `batch` calls and reports the median
/// per-call cost in ns — for operations too short to time one by one.
fn time_batched(batches: usize, batch: usize, mut f: impl FnMut(usize)) -> f64 {
    let v: Vec<f64> = (0..batches)
        .map(|b| {
            let t = Instant::now();
            for i in 0..batch {
                f(b * batch + i);
            }
            t.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    median(&v)
}

/// The measured per-op table.
#[derive(Debug, Default)]
pub struct OpCosts {
    /// Timer floor subtracted from every single-call sample, ns.
    pub timer_floor_ns: f64,
    /// Validation-cache lookup, ns.
    pub bf_lookup: Summary,
    /// Validation-cache insert at the run's occupancy, ns.
    pub bf_insert: Summary,
    /// Schnorr verification of a signed tag, ns.
    pub sig_verify: Summary,
    /// Schnorr signing of a tag body, ns.
    pub sig_sign: Summary,
    /// Calendar push + pop at the run's peak depth, ns per pair.
    pub calendar_ns: f64,
    /// `Name` parse from its URI, ns.
    pub name_parse_ns: f64,
    /// PIT insert + take at the run's per-router PIT size, ns per pair.
    pub pit_op_ns: f64,
    /// Fresh content-store lookup at the run's per-router CS size, ns.
    pub cs_lookup_ns: f64,
    /// FIB longest-prefix match over the workload's provider prefixes, ns.
    pub fib_lpm_ns: f64,
    /// Protocol 1 edge pre-check, ns.
    pub precheck_ns: f64,
    /// Signed-tag decode from its wire form, ns.
    pub tag_decode_ns: f64,
}

/// Tags for `count` distinct principals of the workload's first provider,
/// issued the way the run's provider issues them.
fn workload_tags(scenario: &Scenario, provider: &mut Provider, count: usize) -> Vec<SignedTag> {
    let expiry = SimTime::ZERO + scenario.effective_tag_validity();
    (0..count as u64)
        .map(|u| provider.issue_tag(u, scenario.client_level, AccessPath::EMPTY, expiry))
        .collect()
}

fn workload_provider(scenario: &Scenario) -> Provider {
    Provider::new(ProviderConfig {
        prefix: provider_prefix(0),
        objects: scenario.objects_per_provider,
        chunks_per_object: scenario.chunks_per_object,
        chunk_size: scenario.chunk_size,
        tag_validity: scenario.effective_tag_validity(),
        access_levels: scenario.content_levels.clone(),
    })
}

/// Measures every per-op cost for `scenario` loaded as `shape` says.
pub fn measure(scenario: &Scenario, shape: &Shape) -> OpCosts {
    let floor = timer_floor_ns();
    let mut provider = workload_provider(scenario);
    let pk = provider.keypair().public();
    let mut rng = Rng::seed_from_u64(0x0B5E_55ED);

    // Validation cache at the run's occupancy: insert distinct tags until
    // the busiest cache's set-bit count is reached.
    const KEYS: usize = 20_000;
    let tags = workload_tags(scenario, &mut provider, KEYS);
    let keys: Vec<[u8; 32]> = tags.iter().map(SignedTag::bloom_key).collect();
    let prefix = tags[0].partition_key().to_vec();
    let mut occupied = ValidationCache::new(scenario.bf_params(), scenario.cache_policy);
    let mut filled = 0;
    while filled < KEYS / 2 && (occupied.set_bits() as u64) < shape.cache_set_bits {
        occupied.insert(&prefix, &keys[filled]);
        filled += 1;
    }
    // Lookups hit resident keys in the run's hit proportion, miss otherwise.
    let hit_every = (shape.bf_hit_ratio * 100.0).round() as usize;
    let bf_lookup = time_each(floor, KEYS, |i| {
        let key = if filled > 0 && i % 100 < hit_every {
            &keys[i % filled]
        } else {
            &keys[KEYS / 2 + i % (KEYS / 2)]
        };
        black_box(occupied.contains(&prefix, key));
    });
    // Inserts of fresh tags, restoring the occupancy (untimed) every
    // hundred so the samples stay at the run's fill level.
    let mut cache = occupied.clone();
    let mut inserts: Vec<f64> = (0..KEYS / 2)
        .map(|i| {
            if i % 100 == 0 {
                cache.clone_from(&occupied);
            }
            time_one(floor, || {
                black_box(cache.insert(&prefix, &keys[KEYS / 2 + i]));
            })
        })
        .collect();
    let bf_insert = Summary::of(&mut inserts);

    const SIGS: usize = 2_000;
    let sig_verify = time_each(floor, SIGS, |i| {
        black_box(tags[i].verify(&pk));
    });
    let bodies: Vec<_> = tags[..SIGS].iter().map(|t| t.tag.clone()).collect();
    let mut bodies = bodies.into_iter();
    let kp = provider.keypair().clone();
    let sig_sign = time_each(floor, SIGS, |_| {
        let body = bodies.next().expect("one body per sample");
        black_box(body.sign(&kp));
    });

    // Calendar hold model at the run's peak depth, through the engine
    // that owns the calendar queue: pop the earliest event, reschedule it.
    let depth = shape.peak_queue.clamp(1, 2_000_000) as usize;
    let mut engine: Engine<u64> = Engine::new();
    let horizon = scenario.duration.as_nanos().max(1);
    for v in 0..depth as u64 {
        engine.schedule(SimTime::from_nanos(rng.below(horizon)), v);
    }
    let draws: Vec<u64> = (0..200_000).map(|_| rng.below(horizon / 64 + 1)).collect();
    let calendar_ns = time_batched(200, 1_000, |i| {
        let v = engine.pop().expect("the queue holds `depth` events");
        engine.schedule_after(SimDuration::from_nanos(draws[i]), v);
    });

    // Names as the workload's provider spells its content.
    let objects = scenario.objects_per_provider.max(1);
    let chunks = scenario.chunks_per_object.max(1);
    let names: Vec<Name> = (0..objects * chunks)
        .map(|i| provider.content_name(i / chunks, i % chunks))
        .collect();
    let uris: Vec<String> = names.iter().map(Name::to_string).collect();
    let name_parse_ns = time_batched(100, 1_000, |i| {
        black_box(uris[i % uris.len()].parse::<Name>().expect("round-trips"));
    });

    // PIT: hold `pit_per_router` pending names, then insert + take.
    let mut pit: Pit<()> = Pit::new();
    let far = SimTime::from_secs(3_600);
    let resident = shape.pit_per_router as usize;
    let pending: Vec<Name> = (0..resident + 100_000)
        .map(|i| names[i % names.len()].child(format!("n{i}")))
        .collect();
    for (i, n) in pending.iter().take(resident).enumerate() {
        pit.on_interest(n, FaceId::new(1), i as u64, far, ());
    }
    let pit_op_ns = time_batched(100, 1_000, |i| {
        let n = &pending[resident + i];
        pit.on_interest(n, FaceId::new(2), i as u64, far, ());
        black_box(pit.take(n));
    });

    // Content store at the run's per-router occupancy, capped by capacity.
    let mut cs = ContentStore::new(scenario.cs_capacity);
    let cached = (shape.cs_per_router as usize).min(scenario.cs_capacity);
    for n in names.iter().cycle().take(cached) {
        cs.insert_at(
            Data::new(n.clone(), Payload::Synthetic(scenario.chunk_size)),
            SimTime::ZERO,
        );
    }
    let now = SimTime::from_nanos(1_000_000);
    let cs_lookup_ns = time_batched(100, 1_000, |i| {
        black_box(cs.get_fresh(&names[i % names.len()], now).is_some());
    });

    // FIB over every provider prefix of the workload.
    let providers = scenario.topology.spec().providers;
    let mut fib = Fib::new();
    for p in 0..providers {
        fib.add_route(provider_prefix(p), FaceId::new(p as u32 % 8), 1);
    }
    let fib_lpm_ns = time_batched(100, 1_000, |i| {
        black_box(fib.next_hop(&names[i % names.len()]));
    });

    let precheck_ns = time_batched(100, 1_000, |i| {
        black_box(edge_precheck(&tags[i % KEYS].tag, &names[i % names.len()], now).is_ok());
    });
    let wire: Vec<Vec<u8>> = tags[..1_000].iter().map(SignedTag::encode).collect();
    let tag_decode_ns = time_batched(100, 1_000, |i| {
        black_box(SignedTag::decode(&wire[i % wire.len()]).expect("decodes"));
    });

    OpCosts {
        timer_floor_ns: floor,
        bf_lookup,
        bf_insert,
        sig_verify,
        sig_sign,
        calendar_ns,
        name_parse_ns,
        pit_op_ns,
        cs_lookup_ns,
        fib_lpm_ns,
        precheck_ns,
        tag_decode_ns,
    }
}

/// Host seconds of the topology set-up steps for `scenario` and `seed`:
/// graph build, FIB population, and a two-way shard partition.
#[derive(Debug, Default)]
pub struct SetupCosts {
    /// `build_topology` (the paper presets build through it too).
    pub build_s: f64,
    /// `Links::build` + `populate_fib`.
    pub fib_s: f64,
    /// `ShardMap::partition` into two shards.
    pub partition_s: f64,
}

/// Times the topology layer's set-up calls on the workload's inputs.
pub fn measure_setup(scenario: &Scenario, seed: u64) -> SetupCosts {
    let t = Instant::now();
    let topo: Topology = match scenario.topology {
        TopologyChoice::Paper(p) => p.build(seed),
        TopologyChoice::Custom(spec) => {
            build_topology(&spec, &mut Rng::seed_from_u64(seed ^ 0x7AC7_1C00).fork(1))
        }
    };
    let build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let links = Links::build(&topo);
    let mut entries = 0u64;
    populate_fib(&topo, &links, |_, _, _, _, _| entries += 1);
    black_box(entries);
    let fib_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    black_box(ShardMap::partition(&topo, 2).expect("every workload has two routers"));
    let partition_s = t.elapsed().as_secs_f64();
    SetupCosts {
        build_s,
        fib_s,
        partition_s,
    }
}

/// Measures every per-op and set-up cost of `workload` loaded as `shape`
/// says, prints the per-op table beside the paper's means, and renders
/// the per-layer fields.
pub fn ops(workload: Workload, seed: u64, shape: &Shape) -> JsonObject {
    let scenario = workload.scenario();
    let c = measure(&scenario, shape);
    let setup = measure_setup(&scenario, seed);
    print_op_table(workload, &c, shape);

    let mut out = JsonObject::new();
    out.field_f64("sim.calendar_ns_per_op", c.calendar_ns)
        .field_f64("ndn.name_parse_ns", c.name_parse_ns)
        .field_f64("ndn.pit_op_ns", c.pit_op_ns)
        .field_f64("ndn.cs_lookup_ns", c.cs_lookup_ns)
        .field_f64("ndn.fib_lpm_ns", c.fib_lpm_ns);
    summary_fields(&mut out, "bloom.lookup", &c.bf_lookup);
    summary_fields(&mut out, "bloom.insert", &c.bf_insert);
    summary_fields(&mut out, "crypto.verify", &c.sig_verify);
    summary_fields(&mut out, "crypto.sign", &c.sig_sign);
    out.field_f64("core.precheck_ns", c.precheck_ns)
        .field_f64("core.tag_decode_ns", c.tag_decode_ns)
        .field_f64("topology.build_s", setup.build_s)
        .field_f64("topology.fib_s", setup.fib_s)
        .field_f64("topology.partition_s", setup.partition_s);
    out
}

/// Adds `<prefix>_ns`, `_sd_ns`, `_p50_ns` and `_p99_ns`.
fn summary_fields(out: &mut JsonObject, prefix: &str, s: &Summary) {
    out.field_f64(&format!("{prefix}_ns"), s.mean)
        .field_f64(&format!("{prefix}_sd_ns"), s.sd)
        .field_f64(&format!("{prefix}_p50_ns"), s.p50)
        .field_f64(&format!("{prefix}_p99_ns"), s.p99);
}

/// Prints the per-op cost table beside the paper's §8.A means.
fn print_op_table(workload: Workload, c: &OpCosts, shape: &Shape) {
    eprintln!(
        "per-op costs on {} (busiest cache {} set bits, lookup hit share {:.3}, \
         timer floor {:.0} ns subtracted):",
        workload.name(),
        shape.cache_set_bits,
        shape.bf_hit_ratio,
        c.timer_floor_ns
    );
    eprintln!(
        "  {:<12} {:>10} {:>10} {:>10} {:>10} {:>7}  {:>10}",
        "op", "mean s", "sd s", "p50 s", "p99 s", "n", "paper s"
    );
    let rows = [
        ("bf_lookup", &c.bf_lookup, Some(PAPER_BF_LOOKUP_S)),
        ("bf_insert", &c.bf_insert, Some(PAPER_BF_INSERT_S)),
        ("sig_verify", &c.sig_verify, Some(PAPER_SIG_VERIFY_S)),
        ("sig_sign", &c.sig_sign, None),
    ];
    for (name, s, paper) in rows {
        eprintln!(
            "  {:<12} {:>10.3e} {:>10.3e} {:>10.3e} {:>10.3e} {:>7}  {:>10}",
            name,
            s.mean * 1e-9,
            s.sd * 1e-9,
            s.p50 * 1e-9,
            s.p99 * 1e-9,
            s.n,
            paper.map_or_else(|| "-".to_string(), |p| format!("{p:.3e}")),
        );
    }
}
