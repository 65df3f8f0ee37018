//! The repository benchmark's measuring program. `run.py` builds it and
//! drives it; each invocation does one job in a fresh process and prints
//! one `RESULT` line of JSON fields.
//!
//! ```text
//! tacbench trial|profiled|sampled|noac --workload NAME --seed N
//! tacbench ops --workload NAME --seed N --cache-set-bits B --bf-hit-ratio H
//!              --peak-queue Q --pit-per-router P --cs-per-router C
//! ```

mod arms;
mod ops;
mod stats;
mod trial;
mod workloads;

use workloads::Workload;

fn usage() -> ! {
    eprintln!(
        "usage: tacbench <trial|profiled|sampled|noac|ops> --workload NAME --seed N [shape flags]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first() else { usage() };
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let number = |name: &str| flag(name).and_then(|v| v.parse::<f64>().ok());
    let Some(workload) = flag("--workload").and_then(|w| Workload::parse(&w)) else {
        usage()
    };
    let Some(seed) = flag("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        usage()
    };
    let fields = match mode.as_str() {
        "trial" => trial::trial(workload, seed),
        "profiled" => arms::profiled(workload, seed),
        "sampled" => arms::sampled(workload, seed),
        "noac" => arms::noac(workload, seed),
        "ops" => {
            let (Some(bits), Some(hit), Some(queue), Some(pit), Some(cs)) = (
                number("--cache-set-bits"),
                number("--bf-hit-ratio"),
                number("--peak-queue"),
                number("--pit-per-router"),
                number("--cs-per-router"),
            ) else {
                usage()
            };
            let shape = ops::Shape {
                cache_set_bits: bits as u64,
                bf_hit_ratio: hit.clamp(0.0, 1.0),
                peak_queue: queue as u64,
                pit_per_router: pit as u64,
                cs_per_router: cs as u64,
            };
            ops::ops(workload, seed, &shape)
        }
        _ => usage(),
    };
    println!("RESULT {}", fields.finish());
}
