#!/usr/bin/env python3
"""The repository benchmark.

Builds the measuring program (``tacbench/``, a cargo package of its own
that depends on the simulator crates by path) and runs one named workload
for a host-time budget:

    python3 tacbench/run.py --workload paper_topo1 --seed 1 --seconds 25 --trace 0

Every run is made of child processes of the measuring program, each doing
one job from a cold start. ``--trace 0`` repeats untraced trials, so that
each trial's peak RSS belongs to it alone, and reports the medians of the
end-to-end metrics named in ``BENCHMARK.json``. ``--trace 1`` interleaves
rounds of arms on the same seed (untraced, span profiler on, sim-time
sampler on, no-access-control plane, and for ``fleet_1e5_k2`` the K = 1
run of the same inputs), then times each crate's public functions on
inputs shaped like the workload's own, and reports the per-layer metrics.
Every ratio is formed from arms of the same invocation.

Every trial is checked: its ``RunReport`` digest and its sim-time results
must repeat exactly across the run, and ``fleet_1e5_k2`` must reproduce
the digest of a K = 1 run of the same inputs made in the same invocation.
The operations are the client Interests the trials issue; a trial that
crashes or fails the check fails all of its operations.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Each untraced run
also appends one record to ``tacbench/history.jsonl``.
"""

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
HISTORY = os.path.join(HERE, "history.jsonl")

# Trials every untraced run makes whatever its budget: the median and the
# cross-trial check need at least this many.
MIN_TRIALS = 3
# Host seconds one child may take before it is abandoned.
CHILD_TIMEOUT_S = 150
# The sequential workload a sharded one must reproduce, run beside it.
TWINS = {"fleet_1e5_k2": "fleet_1e5"}
# The overhead budget the profiler and sampler are meant to meet.
OVERHEAD_BUDGET_PCT = 5.0

# Trial fields that are simulated, so must repeat exactly.
SIM_FIELDS = (
    "digest",
    "events",
    "client_requested",
    "client_received",
    "attacker_requested",
    "attacker_received",
    "latency_samples",
    "latency_p50_ms",
    "latency_p99_ms",
)
# End-to-end metrics measured on the host, reported as trial medians.
HOST_METRICS = ("wall_s", "setup_s", "events_per_s", "peak_rss_mb")


def fail(message):
    print(f"tacbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_spec():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build():
    """Builds the measuring program; returns the path of its binary."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    except OSError as e:
        fail(f"cannot run cargo: {e}")
    if done.returncode != 0:
        fail("building the benchmark failed")
    binary = os.path.join(ROOT, target, "release", "tacbench")
    if not os.path.isfile(binary):
        fail(f"no benchmark binary at {binary}")
    return binary


def run_child(binary, args):
    """Runs one child; returns its RESULT fields, or None if it failed."""
    try:
        done = subprocess.run(
            [binary] + args, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"  child {' '.join(args)} timed out")
        return None
    for line in done.stderr.splitlines():
        print(f"  | {line}")
    if done.returncode != 0:
        print(f"  child {' '.join(args)} exited with {done.returncode}")
        return None
    for line in reversed(done.stdout.splitlines()):
        if line.startswith("RESULT "):
            return json.loads(line[len("RESULT "):])
    return None


def check(trials, others):
    """Problems with a run: `trials` must repeat the first trial's
    simulation exactly, and every (arm, fields) in `others` must share its
    digest. Any problem fails every operation of the run."""
    if not trials:
        return ["no trial completed"]
    first, problems = trials[0], []
    for t in trials[1:]:
        diff = [k for k in SIM_FIELDS if t[k] != first[k]]
        if diff:
            problems.append(f"a trial differs from the first in {', '.join(diff)}")
    for arm, fields in others:
        if fields["digest"] != first["digest"]:
            problems.append(f"{arm} digest {fields['digest']} != trial digest {first['digest']}")
    if first["attacker_requested"] == 0:
        problems.append("no attacker Interests, so the block ratio is undefined")
    if first["latency_samples"] == 0:
        problems.append("no client latency samples")
    return problems


def commit_id():
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if done.returncode == 0:
            return done.stdout.strip()
    except OSError:
        pass
    return "unknown"


def append_history(args, trials, correct, metrics):
    record = {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "commit": commit_id(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trials": trials,
        "correct": correct,
        "medians": {k: v["value"] for k, v in metrics.items()},
    }
    try:
        with open(HISTORY, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    except OSError as e:
        print(f"cannot append to {HISTORY}: {e}", file=sys.stderr)


def untraced(binary, spec, args):
    started = time.monotonic()
    seed = ["--seed", str(args.seed)]
    others = []
    twin = TWINS.get(args.workload)
    if twin:
        # Same-run K = 1 arm: the digest the sharded run must reproduce
        # and the base of the K = 2 speed-up.
        reference = run_child(binary, ["trial", "--workload", twin] + seed)
        others.append((f"K = 1 {twin}", reference or {"digest": "crashed"}))
    trials, durations, crashed = [], [], 0
    while True:
        t = time.monotonic()
        result = run_child(binary, ["trial", "--workload", args.workload] + seed)
        durations.append(time.monotonic() - t)
        if result is None:
            crashed += 1
        else:
            trials.append(result)
        elapsed = time.monotonic() - started
        if len(durations) >= MIN_TRIALS and elapsed + statistics.median(durations) > args.seconds:
            break

    problems = check(trials, others)
    correct = not problems and crashed == 0
    per_trial = trials[0]["client_requested"] if trials else 1
    attempted = per_trial * len(durations)
    failed = attempted if problems else per_trial * crashed

    print(f"workload {args.workload}, seed {args.seed}, {os.cpu_count()} CPUs: "
          f"{len(trials)} trials ({crashed} crashed) in {time.monotonic() - started:.1f} s")
    print(f"  {'metric':<24} {'median':>13} {'unit':<9} {'min':>12} {'max':>12}")
    metrics = {}
    for m in spec["end_to_end"]:
        name, unit = m["name"], m["unit"]
        values = [t[name] for t in trials]
        if not values:
            break
        value = statistics.median(values) if name in HOST_METRICS else values[0]
        print(f"  {name:<24} {value:>13.6g} {unit:<9} {min(values):>12.6g} {max(values):>12.6g}")
        metrics[name] = {"value": value, "unit": unit}
    if trials:
        t = trials[0]
        n = t["latency_samples"]
        print(f"  latency quantiles over {n} client samples"
              + ("; fewer than 10 lie beyond p99" if n < 1000 else ""))
        print(f"  client Interests {t['client_requested']} ({t['client_received']} satisfied); "
              f"attacker Interests {t['attacker_requested']} ({t['attacker_received']} "
              f"satisfied, attacker_delivery_ratio {t['attacker_delivery_ratio']:.6g}); "
              f"sim events {t['events']}; set-ups per trial {t['setup_samples']}")
    if twin and others[0][1].get("wall_s") and trials:
        k1 = others[0][1]["wall_s"]
        kk = statistics.median(t["wall_s"] for t in trials)
        print(f"  K = 2 speed-up {k1 / kk:.3f}x = {k1:.3f} s at K = 1 / {kk:.3f} s at K = 2 "
              f"(same run, same seed); K = 1 peak RSS {others[0][1]['peak_rss_mb']:.1f} MB")
    for p in problems:
        print(f"  CHECK FAILED: {p}")
    append_history(args, len(trials), correct, metrics)
    return correct, attempted, failed, metrics


def traced(binary, spec, args):
    started = time.monotonic()
    seed = ["--seed", str(args.seed)]
    mine = ["--workload", args.workload] + seed
    twin = TWINS.get(args.workload)
    arms = {"trial": ["trial"] + mine, "profiled": ["profiled"] + mine,
            "sampled": ["sampled"] + mine, "noac": ["noac"] + mine}
    if twin:
        arms["twin"] = ["trial", "--workload", twin] + seed
    results = {arm: [] for arm in arms}
    crashed, rounds, durations = 0, 0, []
    while True:
        t = time.monotonic()
        # Alternate the arm order so that no arm always runs first.
        order = list(arms) if rounds % 2 == 0 else list(arms)[::-1]
        for arm in order:
            result = run_child(binary, arms[arm])
            if result is None:
                crashed += 1
            else:
                results[arm].append(result)
        rounds += 1
        durations.append(time.monotonic() - t)
        # Leave a fifth of the budget for the per-op measurements.
        if time.monotonic() - started + statistics.median(durations) > 0.8 * args.seconds:
            break

    missing = [arm for arm, r in results.items() if not r]
    trials = results["trial"]
    others = [(arm, r) for arm in ("profiled", "sampled", "twin") for r in results.get(arm, [])]
    problems = check(trials, others)
    problems += [f"every {arm} arm crashed" for arm in missing]
    runs = sum(len(results[a]) for a in ("trial", "profiled", "sampled")) + crashed
    per_trial = trials[0]["client_requested"] if trials else 1
    attempted = per_trial * runs
    if problems:
        for p in problems:
            print(f"  CHECK FAILED: {p}")
        return False, attempted, attempted, {}

    first = trials[0]
    median = lambda arm, key: statistics.median(r[key] for r in results[arm])
    shape = {
        "--cache-set-bits": median("sampled", "cache_set_bits"),
        "--bf-hit-ratio": first["bloom.hit_ratio"],
        "--peak-queue": first["sim.peak_queue_depth"],
        "--pit-per-router": first["ndn.peak_pit_records"] / first["routers"],
        "--cs-per-router": first["ndn.peak_cs_entries"] / first["routers"],
    }
    costs = run_child(binary, ["ops"] + mine + [str(x) for kv in shape.items() for x in kv])
    if costs is None:
        return False, attempted, attempted, {}

    values = dict(first)
    values.update(costs)
    for key in results["profiled"][0]:
        if key != "digest":
            values[key] = median("profiled", key)
    plain, profiled = median("trial", "events_per_s"), median("profiled", "events_per_s")
    sampled, noac = median("sampled", "events_per_s"), median("noac", "events_per_s")
    values["baselines.noac_events_per_s"] = noac
    values["core.access_control_share"] = 1 - plain / noac
    values["telemetry.profiler_overhead_pct"] = (plain / profiled - 1) * 100
    values["telemetry.sampler_overhead_pct"] = (plain / sampled - 1) * 100
    values["net.shard_speedup"] = (
        median("twin", "wall_s") / median("trial", "wall_s") if twin else 1.0
    )

    print(f"workload {args.workload}, seed {args.seed}, {os.cpu_count()} CPUs: traced, "
          f"{rounds} round(s) in {time.monotonic() - started:.1f} s; medians of each arm:")
    print(f"  access-control share {values['core.access_control_share']:.4f} = "
          f"1 - {plain:.0f} TACTIC ev/s / {noac:.0f} no-AC ev/s")
    for name, arm in (("profiler", profiled), ("sampler", sampled)):
        pct = values[f"telemetry.{name}_overhead_pct"]
        print(f"  {name} overhead {pct:.2f}% = {plain:.0f} untraced / {arm:.0f} {name} ev/s "
              f"(budget {OVERHEAD_BUDGET_PCT:g}%, reported, not asserted)")
    if twin:
        print(f"  K = 2 speed-up {values['net.shard_speedup']:.3f}x = "
              f"{median('twin', 'wall_s'):.3f} s at K = 1 / {median('trial', 'wall_s'):.3f} s at K = 2")
    metrics = {}
    for m in spec["per_layer"]:
        name, unit = m["name"], m["unit"]
        if name not in values:
            fail(f"the traced run did not report {name}")
        value = values[name] if values[name] is not None else 0.0
        print(f"  {name:<34} {value:>16.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return crashed == 0, attempted, per_trial * crashed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    if args.seed < 0:
        fail("the seed must be a non-negative integer")
    binary = build()
    run = traced if args.trace else untraced
    correct, attempted, failed, metrics = run(binary, spec, args)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
