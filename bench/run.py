"""Benchmark entry point: one workload of wschebor experiments through `cli.run`.

Run from the repository root:

    python3 bench/run.py --workload occupation --seed 0 --seconds 24 --trace 0

The run measures set-up in fresh interpreters (`setup_probe.py`), then in
this process imports wschebor from ``src/``, builds the workload's
configs with the seed applied, runs one discarded warm-up pass and then
as many timed passes as fit in `--seconds` (at least one).  With ``--trace 1``
one more pass runs under the layer tracer and the per-layer metrics are
reported instead of the end-to-end ones.

Every pass's outputs are checked: each experiment's results.json must
hold finite metrics with pass flags, and every pass must write the same
bytes as the warm-up pass.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  Detail
files (result with machine stamp, spans) go to ``bench/out/``.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import layertrace
import passes
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SPEC = ROOT / "BENCHMARK.json"
REFERENCE = BENCH / "reference.json"

# Fresh interpreters timed per run for setup_s; the median is reported.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 30


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=24.0,
                        help="time budget of the timed passes; at least one pass runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(workload, seed):
    """Median set-up seconds over SETUP_PROBES fresh interpreters."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"),
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples), samples


def cache_sizes():
    """L2 and L3 sizes as lscpu prints them, or None where unavailable."""
    sizes = {"L2 cache": None, "L3 cache": None}
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        return sizes
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() in sizes:
            sizes[key.strip()] = value.strip()
    return sizes


def machine_stamp(args, load_1m, passes_timed):
    import mpmath
    import numpy
    import scipy
    caches = cache_sizes()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "configs": workloads.configs(args.workload, args.seed),
        "timed_passes": passes_timed,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_cache": caches["L2 cache"],
        "l3_cache": caches["L3 cache"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "loadavg_1m_at_start": load_1m,
    }


class Ledger:
    """Checks attempted and failed in each timed pass, and output problems."""

    def __init__(self, first_digests):
        self.first = first_digests
        self.per_pass = []  # (failed, attempted) of each timed pass
        self.failing = []
        self.problems = []

    @property
    def attempted(self):
        return sum(a for _, a in self.per_pass)

    @property
    def failed(self):
        return sum(f for f, _ in self.per_pass)

    def add(self, outcomes, counted, pass_name):
        for o in outcomes:
            self.problems.extend(o["problems"])
        # A rerun that writes other bytes than the warm-up pass is one more failure.
        rerun_failed = int(passes.digests(outcomes) != self.first)
        if rerun_failed:
            self.problems.append(f"{pass_name}: output bytes differ from the warm-up pass")
        if not counted:
            return
        failing = passes.failing_checks(outcomes)
        self.per_pass.append((len(failing) + rerun_failed,
                              passes.check_count(outcomes) + rerun_failed))
        self.failing.extend(f for f in failing if f not in self.failing)


def measure(cli, configs, run_dir, seconds, trace):
    """Warm-up, timed passes and, with `trace`, one traced pass."""
    _, warm = passes.run_pass(cli, configs, run_dir / "pass0")
    shutil.rmtree(run_dir / "pass0", ignore_errors=True)
    ledger = Ledger(passes.digests(warm))
    ledger.add(warm, counted=False, pass_name="pass0")
    walls = []
    # Another pass only when a typical pass still fits in `seconds`.
    while not walls or sum(walls) + statistics.median(walls) <= seconds:
        pass_dir = run_dir / f"pass{len(walls) + 1}"
        wall, outcomes = passes.run_pass(cli, configs, pass_dir)
        shutil.rmtree(pass_dir, ignore_errors=True)
        walls.append(wall)
        ledger.add(outcomes, counted=True, pass_name=pass_dir.name)
    traced = None
    if trace:
        pass_dir = run_dir / f"pass{len(walls) + 1}"
        tracer = layertrace.Tracer()
        tracer.pass_id = len(walls) + 1
        with tracer:
            wall, outcomes = passes.run_pass(cli, configs, pass_dir)
        shutil.rmtree(pass_dir, ignore_errors=True)
        ledger.add(outcomes, counted=False, pass_name=pass_dir.name)
        traced = (tracer, wall, outcomes)
    return walls, ledger, traced


def layer_report(workload, seed, walls, traced):
    tracer, wall, outcomes = traced
    m = layertrace.layer_metrics(tracer.spans, wall, workloads.EXPERIMENTS)
    m["cli.output_bytes"] = sum(o["bytes"] for o in outcomes)
    reference = load_reference().get(workload, {}).get(str(seed))
    if reference is None:
        # No recorded outputs for this seed: -1 marks "not compared".
        m["cli.outputs_changed"], m["cli.max_rel_dev"] = -1, -1.0
    else:
        m["cli.outputs_changed"], m["cli.max_rel_dev"] = \
            passes.compare_reference(outcomes, reference)
    m["trace.overhead_frac"] = wall / statistics.median(walls) - 1.0
    return m


def load_reference():
    try:
        return json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        return {}


def main(argv=None):
    args = parse_args(argv)
    load_1m = os.getloadavg()[0]
    if not (SRC / "wschebor" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: run from a checkout holding src/wschebor and {SPEC.name}",
              file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {d["name"]: d["unit"] for d in declared}

    setup_s = setup_samples = None
    if not args.trace:
        setup_s, setup_samples = measure_setup(args.workload, args.seed)
    sys.path.insert(0, str(SRC))
    from wschebor import cli
    configs = [cli.ExperimentConfig.from_dict(d)
               for d in workloads.configs(args.workload, args.seed)]

    OUT.mkdir(parents=True, exist_ok=True)
    run_dir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    try:
        walls, ledger, traced = measure(cli, configs, run_dir, args.seconds, args.trace)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        values = layer_report(args.workload, args.seed, walls, traced)
        traced[0].write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        values = {
            "wall_s": statistics.median(walls),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    if set(values) != set(units):
        raise RuntimeError(f"measured metrics {sorted(set(values) ^ set(units))} "
                           f"do not match {SPEC.name}")
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    correct = not ledger.problems
    stamp = machine_stamp(args, load_1m, len(walls))
    detail = {"stamp": stamp, "metrics": metrics, "timed_walls_s": walls,
              "setup_samples_s": setup_samples, "failing_checks": ledger.failing,
              "problems": ledger.problems, "fail_frac_per_pass": ledger.per_pass,
              "attempted": ledger.attempted, "failed": ledger.failed}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {len(walls)} timed passes "
          f"after one warm-up pass")
    for name, entry in metrics.items():
        print(f"  {name:32s} {entry['value']:.6g} {entry['unit']}"
              if isinstance(entry["value"], float) else
              f"  {name:32s} {entry['value']} {entry['unit']}")
    print("  fail_frac per pass: " + ", ".join(f"{f}/{a}" for f, a in ledger.per_pass))
    print(f"  failing checks: {', '.join(ledger.failing) or 'none'}")
    for problem in ledger.problems:
        print(f"  output problem: {problem}")
    print("stamp " + json.dumps(stamp))
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
