#!/usr/bin/env python3
"""Host-side benchmark of the Neu10 simulators.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

It builds `perfbench/` (a Rust package of its own, release profile, into
`$CARGO_TARGET_DIR`, default `.bench_build`) and drives it in separate
processes:

* `--trace 0` reports the end-to-end metrics from untraced runs. Set-up time
  is the median of several cold processes; the run calls are timed after a
  warm-up call, for `--seconds`, in one process whose peak RSS is reported.
* `--trace 1` runs the traced pass in its own process, so compilation and
  calibration happen cold, and reports the per-layer metrics.

Every run is checked (see README.md); the last line of standard output is
one JSON object with `correct`, `attempted`, `failed` and `metrics`.
`--self-test` runs every workload at the smallest size that still checks
every metric and every check.

The workload seed is the only input: the program under test receives the
trace, fleet and fault schedule generated from it. Seed 1 is the tuning
seed; seed 7 is held out for checking gain claims.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet-open", "fleet-sharded", "fleet-closed", "colloc")
TUNING_SEED = 1
HELD_OUT_SEED = 7
# Cold set-up processes per run; the measuring process adds one more sample.
SETUP_PROCESSES = 10
# Each process must finish well inside the 180 s a run may take.
PROCESS_TIMEOUT_S = 150
PAPER_BEST = {"best_throughput_x": 1.4, "best_p99_x": 4.6, "best_me_util_x": 1.2}


def log(*parts):
    print(*parts, flush=True)


def build():
    """Builds the benchmark binary; a failed build raises and exits non-zero."""
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr, check=True, timeout=840)
    return os.path.join(ROOT, target, "release", "perfbench")


def call(binary, mode, workload, seed, seconds=0.0):
    """Runs one benchmark process; returns its record, or None if it failed."""
    argv = [binary, mode, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    try:
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"# {mode}: timed out after {PROCESS_TIMEOUT_S} s")
        return None
    if done.returncode != 0 or not done.stdout.strip():
        log(f"# {mode}: exited {done.returncode}: {done.stderr.strip()[-400:]}")
        return None
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def host_facts():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return model, os.cpu_count()


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        return json.load(spec)


class Tally:
    """Run calls attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def process(self, record, what):
        if record is None:
            self.attempted += 1
            self.failed += 1
            self.reasons.append(f"{what} process failed")
            return False
        self.attempted += record.get("attempted", 0)
        self.failed += record.get("failed", 0)
        self.reasons += record.get("failures", [])
        return True

    def check(self, ok, reason):
        if not ok:
            self.failed += 1
            self.reasons.append(reason)


def print_runs(name, unit, values):
    for index, value in enumerate(values):
        log(f"#   run {index + 1:>2}: {name} = {value:.6g} {unit}")
    q1, q2, q3 = quartiles(values)
    log(f"# {name}: median {q2:.6g} {unit}, quartiles {q1:.6g} .. {q3:.6g} "
        f"({len(values)} runs)")
    return q2


def print_fidelity(workload, measured):
    fidelity = measured["fidelity"]
    if workload == "colloc":
        for key, paper in PAPER_BEST.items():
            log(f"# fidelity: {key} = {fidelity[key]:.3f} (paper: up to {paper}x)")
        log("# fidelity: the collocation model is unvalidated against hardware; "
            "the repository holds no hardware measurements")
    else:
        log(f"# fidelity: report digest {measured['digest']}")
        log("# fidelity: " + ", ".join(
            f"{key} {fidelity[key]}" for key in
            ("offered", "completed", "rejected", "dropped", "lost",
             "p99_cycles", "makespan_cycles")))
        if workload == "fleet-closed":
            log("# fidelity: " + ", ".join(f"{k} {v}" for k, v in fidelity.items()
                                          if k not in ("offered", "completed")))


def end_to_end(binary, workload, seed, seconds, tally):
    setups = [call(binary, "setup", workload, seed) for _ in range(SETUP_PROCESSES)]
    measured = call(binary, "measure", workload, seed, seconds)
    if not tally.process(measured, "measure"):
        return None
    setup_s = [record["setup_s"] for record in setups if record is not None]
    setup_s.append(measured["setup_s"])
    tally.check(len(setup_s) == SETUP_PROCESSES + 1, "a set-up process failed")
    tally.check(all(r is None or r["input_digest"] == measured["input_digest"]
                    for r in setups), "set-up processes generated different inputs")

    rates = [measured["requests"] / wall for wall in measured["walls"]]
    log(f"# untraced runs after one warm-up call; {measured['requests']} "
        f"simulated requests per run")
    print_runs("requests_per_s", "req/s", rates)
    # Other tenants of the host only ever slow a run down, in bursts of
    # seconds, so the fastest run of the window is the steady estimate of
    # what the code costs.
    log(f"# requests_per_s: fastest run {max(rates):.6g} req/s")
    metrics = {
        "requests_per_s": max(rates),
        "setup_s": print_runs("setup_s", "s", setup_s),
        "peak_rss_mb": measured["peak_rss_kib"] / 1024.0,
    }
    log(f"# peak_rss_mb: {metrics['peak_rss_mb']:.3f} MiB (VmHWM of the measuring "
        f"process after set-up, the warm-up and three calls)")
    print_fidelity(workload, measured)
    return metrics


def per_layer(binary, workload, seed, seconds, tally, names):
    traced = call(binary, "trace", workload, seed, seconds)
    if not tally.process(traced, "trace"):
        return None
    layers = {}
    for key, value in traced["layers"].items():
        name = key if key == "trace_overhead_pct" else key.replace("_", ".", 1)
        layers[name] = value
    unknown = sorted(set(layers) - set(names))
    tally.check(not unknown, f"unknown layer values {unknown}")
    log(f"# traced pass: {len(traced['traced_walls'])} traced and "
        f"{len(traced['untraced_walls'])} untraced calls after one warm-up; "
        f"report digest {traced['digest']}, count digest {traced['counts']}")
    print_runs("traced wall_s", "s", traced["traced_walls"])
    print_runs("untraced wall_s", "s", traced["untraced_walls"])
    # Layers the workload does not drive are reported as 0.
    log(f"# layers measured: {' '.join(sorted(layers))}")
    return {name: layers.get(name, 0.0) for name in names}


def run(args):
    spec = load_spec()
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    model, cores = host_facts()
    binary = build()
    log(f"# workload {args.workload}, seed {args.seed} (held-out seed {HELD_OUT_SEED}), "
        f"{args.seconds} s, trace {args.trace}")
    log(f"# host: {model}, nproc {cores}")
    tally = Tally()
    if args.trace:
        metrics = per_layer(binary, args.workload, args.seed, args.seconds, tally,
                            [m["name"] for m in metrics_spec])
    else:
        metrics = end_to_end(binary, args.workload, args.seed, args.seconds, tally)
    if metrics is None:
        return 1
    for name, value in metrics.items():
        tally.check(isinstance(value, (int, float)) and math.isfinite(value),
                    f"{name} is not a finite number")
    for reason in tally.reasons:
        log(f"# CHECK FAILED: {reason}")
    share = 100.0 * tally.failed / max(tally.attempted, 1)
    log(f"# failed_runs: {share:.1f}% of {tally.attempted} run calls")
    units = {m["name"]: m["unit"] for m in metrics_spec}
    for name, value in metrics.items():
        log(f"{name}: {value:.6g} {units[name]}")
    result = {
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


def self_test():
    """Every workload, both passes, the fewest calls each: every metric is
    printed, finite and carries its unit, every check passes, and every
    per-layer metric is measured on at least one workload."""
    spec = load_spec()
    measured = set()
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            label = f"{workload} trace {trace}"
            before = len(problems)
            argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                    "--seed", str(TUNING_SEED), "--seconds", "0", "--trace", str(trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append(f"{label}: exited {done.returncode}")
                continue
            result = json.loads(lines[-1])
            expected = spec["per_layer"] if trace else spec["end_to_end"]
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: checks failed")
            if set(result["metrics"]) != {m["name"] for m in expected}:
                problems.append(f"{label}: metric names differ from BENCHMARK.json")
            for metric in expected:
                got = result["metrics"].get(metric["name"], {})
                value = got.get("value")
                if got.get("unit") != metric["unit"] or not isinstance(value, (int, float)) \
                        or not math.isfinite(value):
                    problems.append(f"{label}: {metric['name']} = {got}")
                if not any(line.startswith(metric["name"] + ":") for line in lines):
                    problems.append(f"{label}: {metric['name']} is not printed")
            for line in lines:
                if line.startswith("# layers measured:"):
                    measured.update(line.split(":", 1)[1].split())
            log(f"# self-test: {label} {'ok' if len(problems) == before else 'FAILED'}")
    unmeasured = [m["name"] for m in spec["per_layer"] if m["name"] not in measured]
    if unmeasured:
        problems.append(f"per-layer metrics no workload measures: {unmeasured}")
    for problem in problems:
        log(f"# SELF-TEST FAILED: {problem}")
    log("# self-test passed" if not problems else "# self-test failed")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=TUNING_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
