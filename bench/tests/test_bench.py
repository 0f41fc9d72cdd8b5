"""Tests of the benchmark's own code: tracer, pass runner and entry point.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import layertrace
import passes
from wschebor import cli, discrete, measures, paths

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

SMALL_COUPLING = {"experiment": "discrete-lag", "n_discrete": 2 ** 12, "replicas": 1,
                  "threads": 2}
SMALL_MIX = [
    {"experiment": "wschebor-check", "grid_n": 2 ** 12, "epsilon": 2.0 ** -7,
     "replicas": 2, "threads": 2},
    {"experiment": "level-process", "t_count": 2 ** 8},
    {"experiment": "stable-marginal", "replicas": 50},
    {"experiment": "ou-match", "kernel_id": "ou-exp", "replicas": 2, "horizon": 8.0},
    SMALL_COUPLING,
]


def _configs(dicts):
    return [cli.ExperimentConfig.from_dict(d) for d in dicts]


def _traced_pass(out_dir, dicts, pass_id=1):
    configs = _configs(dicts)
    tracer = layertrace.Tracer()
    tracer.pass_id = pass_id
    with tracer:
        wall, outcomes = passes.run_pass(cli, configs, out_dir)
    return tracer, wall, outcomes


def _bindings():
    """Identity snapshot of every wschebor namespace, layer class and experiment."""
    namespaces = {name: dict(vars(mod)) for name, mod in sys.modules.items()
                  if mod is not None and (name == "wschebor" or name.startswith("wschebor."))}
    classes = {}
    for layer in layertrace.LAYERS:
        module = sys.modules[f"wschebor.{layer}"]
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                classes[obj] = dict(vars(obj))
    return namespaces, classes, dict(cli.EXPERIMENTS)


def _same(a, b):
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_from_import_bindings_are_traced(tmp_path):
    tracer, _, _ = _traced_pass(tmp_path, [SMALL_COUPLING])
    by_id = {s.sid: s for s in tracer.spans}
    callers = {by_id[s.parent].name for s in tracer.spans
               if s.name == "simulate_brownian" and s.parent in by_id}
    # discrete binds simulate_brownian through `from .paths import`.
    assert "coupled_pair" in callers
    names = {s.name for s in tracer.spans}
    assert {"run", "experiment:discrete-lag", "dbl_distance", "ks_distance",
            "EmpiricalMeasure.__init__", "EmpiricalMeasure.integrate",
            "normalized_increment"} <= names


def test_uninstall_restores_every_binding():
    namespaces, classes, experiments = _bindings()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert discrete.simulate_brownian is not namespaces["wschebor.discrete"]["simulate_brownian"]
        assert cli.bessel_k0 is not namespaces["wschebor.cli"]["bessel_k0"]
        assert vars(measures.EmpiricalMeasure)["integrate"] \
            is not classes[measures.EmpiricalMeasure]["integrate"]
        assert cli.EXPERIMENTS["ou-match"] is not experiments["ou-match"]
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after[0].keys() == namespaces.keys()
    assert all(_same(after[0][k], namespaces[k]) for k in namespaces)
    assert all(_same(after[1][c], classes[c]) for c in classes)
    assert _same(after[2], experiments)
    assert paths.simulate_brownian.__module__ == "wschebor.paths"


def test_self_time_within_busy_time(tmp_path):
    tracer, wall, _ = _traced_pass(tmp_path, SMALL_MIX)
    m = layertrace.layer_metrics(tracer.spans, wall, ())
    for layer in layertrace.LAYERS:
        assert m[f"{layer}.self_s"] <= m[f"{layer}.busy_s"] + 1e-9, layer
    # Replicas run on a pool with threads=2; their spans hang off the waiting call.
    threads = {s.thread for s in tracer.spans}
    assert len(threads) > 1
    roots = [s for s in tracer.spans if s.parent is None]
    assert {s.name for s in roots} == {"run"}


def test_count_metrics_repeat_between_traced_passes(tmp_path):
    counts = [d["name"] for d in SPEC["per_layer"] if d["unit"] in ("count", "bytes")]
    results = []
    for pass_id in (1, 2):
        tracer, wall, outcomes = _traced_pass(tmp_path / f"p{pass_id}", SMALL_MIX, pass_id)
        m = layertrace.layer_metrics(tracer.spans, wall, ())
        m["cli.output_bytes"] = sum(o["bytes"] for o in outcomes)
        results.append({k: m[k] for k in counts if k in m})
    assert results[0] == results[1]
    assert results[0]["mollifiers.k0_points"] > 0
    assert results[0]["measures.integrate_points"] > 0
    assert results[0]["paths.nodes"] > 0


def test_raising_experiment_is_a_failed_check(tmp_path):
    # ou-match rejects the psi1 kernel only once it runs.
    dicts = [{"experiment": "ou-match", "kernel_id": "psi1"},
             {"experiment": "stable-marginal", "replicas": 50}]
    tracer, _, outcomes = _traced_pass(tmp_path, dicts)
    assert outcomes[0]["error"].startswith("ConfigError")
    assert passes.failing_checks(outcomes) == ["0-ou-match:raised"]
    assert passes.check_count(outcomes) == 2
    assert outcomes[1]["checks"] == [("two_sample_ks", True)]
    m = layertrace.layer_metrics(tracer.spans, 1.0, ())
    assert m["cli.errors"] == 1


def test_outputs_are_validated(tmp_path):
    good = tmp_path / "good"
    good.mkdir()
    (good / "results.json").write_text(json.dumps({"metrics": [
        {"name": "a", "value": 0.5, "tolerance": 1.0, "pass": True},
        {"name": "b", "value": 2.0, "tolerance": 1.0, "pass": False}]}))
    (good / "timing.json").write_text("{}")
    out = passes.read_outputs(good, "0-x")
    assert out["checks"] == [("a", True), ("b", False)] and not out["problems"]
    assert list(out["files"]) == ["0-x/results.json"]
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "results.json").write_text('{"metrics": [{"name": "a", "value": NaN, "pass": true}]}')
    out = passes.read_outputs(bad, "0-x")
    assert out["checks"] == [("a", False)] and out["problems"]


def test_entry_point_refuses_without_source(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "occupation",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
