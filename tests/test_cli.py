import contextlib
import csv
import dataclasses
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

import wschebor
from wschebor import discrete, ldp, levelproc, measures, spectral
from wschebor.cli import (
    COMMON_FIELDS,
    EXPERIMENTS,
    SPECS,
    ExperimentConfig,
    _occupation_grid,
    _occupation_ks,
    _write_outputs,
    list_experiments,
    main,
    metric,
    run,
    run_replicas,
    seed_split,
)
from wschebor.errors import ConfigError
from wschebor.increments import dpsi_window, normalized_increment
from wschebor.measures import ks_critical_value
from wschebor.mollifiers import kernel_by_id
from wschebor.paths import (ProcessDescriptor, brownian_paths, replica_seeds, simulate,
                            simulate_brownian)

FAST_CONFIGS = {
    "wschebor-check": {"grid_n": 2 ** 13, "replicas": 2, "epsilon": 2.0 ** -7},
    "spectral-tables": {"kernel_id": "ou-exp"},
    "ou-match": {"kernel_id": "ou-exp", "replicas": 8, "horizon": 25.0},
    "moment-rate": {"kernel_id": "ou-exp"},
    "level-process": {"t_count": 2 ** 10, "epsilon": 2.0 ** -6},
    "discrete-lag": {"n_discrete": 2 ** 13, "replicas": 3},
    "stable-marginal": {"family": "stable", "alpha": 1.5, "replicas": 400},
}


NAMED_KERNELS = ("psi1", "psi2", "triangle", "ou-exp", "ou-bessel", "fbm-ou:H=0.4")


def small_config(name, **overrides):
    body = {"experiment": name, "seed": 7, **FAST_CONFIGS[name], **overrides}
    return ExperimentConfig.from_dict(body)


def admitted_analytic_configs():
    """spectral-tables and moment-rate at every named kernel and hurst in {0.3, 0.5, h*},
    and ou-match at every named kernel, wherever validate() admits them."""
    for name in ("spectral-tables", "moment-rate", "ou-match"):
        for kid in NAMED_KERNELS:
            hursts = {0.5} if name == "ou-match" else {0.3, 0.5, kernel_by_id(kid).critical_hurst}
            for hurst in sorted(hursts):
                try:
                    small_config(name, kernel_id=kid, hurst=hurst)
                except ConfigError:
                    continue
                yield pytest.param(name, kid, hurst, id=f"{name}-{kid}-{hurst:g}")


def separate_occupation(kernel, eps, seed, grid_n):
    """(KS, occupation measure) at one scale, from a Brownian path of its own."""
    lo, hi, n = _occupation_grid(kernel, eps, grid_n)
    src = simulate_brownian(n, hi - lo, seed, t_start=lo)
    mu = measures.occupation_measure(normalized_increment(src, kernel, eps))
    scale = kernel.norm(2)
    return measures.ks_distance(mu, lambda x: special.ndtr(x / scale)), mu


def csv_writer_bytes(rows):
    expected = io.StringIO(newline="")
    csv.writer(expected).writerows(rows)
    return expected.getvalue()


def output_blobs(out):
    """The bytes of every output but timing.json, with parameters.threads left out."""
    blobs = {}
    for p in sorted(out.iterdir()):
        if p.name == "timing.json":
            continue
        raw = p.read_bytes()
        if p.name == "results.json":
            body = json.loads(raw)
            body["parameters"].pop("threads", None)
            raw = json.dumps(body, sort_keys=True).encode()
        blobs[p.name] = raw
    return blobs


def reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def assert_strict_outputs(out):
    """Every JSON output is strict JSON and every CSV data cell a finite number."""
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            json.loads(path.read_text(), parse_constant=reject_constant)
            continue
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows, path.name
        for cell in (c for row in rows for c in row):
            # The char_functional.csv atoms column is a JSON list of numbers.
            numbers = np.ravel(json.loads(cell, parse_constant=reject_constant)) \
                if cell.startswith("[") else [float(cell)]
            assert all(np.isfinite(numbers)), (path.name, cell)


def run_main(payload, out, *extra):
    """(exit code, stderr) of `wschebor run` on a JSON config payload."""
    cfg_path = out.parent / f"{out.name}.json"
    cfg_path.write_text(json.dumps(payload))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["run", "--config", str(cfg_path), "--output", str(out), *extra])
    return code, err.getvalue()


def fields_read(fn, config):
    """The config fields beyond COMMON_FIELDS that fn(config) reads."""
    seen = set()

    class Spy(ExperimentConfig):
        def __getattribute__(self, name):
            if name in ExperimentConfig.__dataclass_fields__:
                seen.add(name)
            return super().__getattribute__(name)

    fn(Spy(**config.to_dict()))
    return seen - COMMON_FIELDS


# A valid value other than the default for each experiment-specific field.
VALID_VALUES = {"kernel_id": "triangle", "family": "fbm", "hurst": 0.3, "alpha": 1.5,
                "epsilon": 0.125, "lag_kind": "overlog", "grid_n": 2 ** 12,
                "horizon": 10.0, "t_count": 2 ** 10, "s_count": 9, "n_discrete": 2 ** 10,
                "replicas": 3}


def unread_field_cases():
    for name, spec in sorted(SPECS.items()):
        for field in sorted(set(VALID_VALUES) - spec.reads):
            yield pytest.param(name, {field: VALID_VALUES[field]}, field,
                               id=f"{name}-{field}")
    yield pytest.param("level-process", {"family": "stable", "alpha": 1.2, "t_count": 1024,
                                         "epsilon": 2.0 ** -6}, "family",
                       id="level-process-stable-family")
    yield pytest.param("wschebor-check", {"horizon": 3.0, "alpha": 1.1}, "alpha",
                       id="wschebor-check-horizon-alpha")


# Cheap values of every experiment-specific field, valid or not for a given experiment.
CHEAP_VALUES = {
    "kernel_id": st.sampled_from(NAMED_KERNELS + ("fbm-ou:H=0.1", "fbm-ou:H=0.5", "psi9")),
    "family": st.sampled_from(["brownian", "stable", "fbm"]),
    "hurst": st.sampled_from([0.1, 0.3, 0.4, 0.5, 0.7]),
    "alpha": st.sampled_from([0.7, 1.0, 1.3, 2.0]),
    "epsilon": st.sampled_from([2.0 ** -k for k in range(1, 8)] + [0.3]),
    "lag_kind": st.sampled_from(["overlog", "power:gamma=0.3", "power:gamma=0.6"]),
    "grid_n": st.sampled_from([2 ** 9, 2 ** 10, 1000]),
    "horizon": st.floats(1.0, 6.0),
    "t_count": st.integers(1, 2 ** 9),
    "s_count": st.integers(1, 9),
    "n_discrete": st.sampled_from([2 ** 8, 2 ** 9, 1000]),
    "replicas": st.integers(2, 4),
}


@st.composite
def cheap_configs(draw):
    """(config, whether it sets a field its experiment does not read)."""
    name = draw(st.sampled_from(sorted(SPECS)))
    body = {"experiment": name, "seed": draw(st.integers(0, 2 ** 32)),
            "threads": draw(st.sampled_from([1, 2]))}
    for field in sorted(SPECS[name].reads):
        # The sizes are always drawn, since their defaults are the full-size runs.
        if field in ("epsilon", "grid_n", "horizon", "t_count", "n_discrete", "replicas") \
                or draw(st.booleans()):
            body[field] = draw(CHEAP_VALUES[field])
    unread = draw(st.none() | st.sampled_from(sorted(set(CHEAP_VALUES) - SPECS[name].reads)))
    if unread is not None:
        body[unread] = VALID_VALUES[unread]
    return body, unread is not None


def fresh_env():
    """The environment under which a fresh interpreter imports this wschebor."""
    src = os.path.dirname(os.path.dirname(wschebor.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def fresh_python(*args):
    """Run `python *args` in a fresh interpreter that imports this wschebor."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          check=True, env=fresh_env())


class TestSeedSplit:
    def test_deterministic(self):
        assert seed_split(42, 3) == seed_split(42, 3)

    def test_distinct_inputs_differ(self):
        assert seed_split(42, 0) != seed_split(42, 1)
        assert seed_split(42, 0) != seed_split(43, 0)

    def test_no_collisions_over_a_million_pairs(self):
        seen = set()
        for master in range(100):
            for idx in range(10_000):
                seen.add(seed_split(master, idx))
        assert len(seen) == 10 ** 6

    def test_replica_seeds_are_the_split_seeds(self):
        assert replica_seeds(42, 5) == [seed_split(42, i) for i in range(5)]
        assert run_replicas(lambda i, s: s, 5, 42) == replica_seeds(42, 5)


class TestConfig:
    def test_roundtrip(self):
        # The echoed parameters hold every field, read or not, at its value.
        for name in SPECS:
            for cfg in (small_config(name), ExperimentConfig.from_dict({"experiment": name})):
                assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_sixteen_fields(self):
        # Each field is a knob that every experiment reads or refuses; one
        # added, or a removed one brought back, has to change this count.
        assert len(dataclasses.fields(ExperimentConfig)) == 16
        assert "tolerances" not in ExperimentConfig.__dataclass_fields__

    def test_unknown_field_named(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"experiment": "moment-rate", "bogus": 1})
        assert err.value.field == "bogus"

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"experiment": "nope"})
        assert err.value.field == "experiment"

    def test_invalid_kernel_named(self):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"experiment": "moment-rate",
                                        "kernel_id": "psi9"})
        assert err.value.field == "kernel_id"

    def test_invalid_numbers(self):
        for name, field, value in (("moment-rate", "hurst", 1.5),
                                   ("stable-marginal", "alpha", 0.0),
                                   ("stable-marginal", "epsilon", -1.0),
                                   ("stable-marginal", "replicas", 0),
                                   ("moment-rate", "threads", 0)):
            with pytest.raises(ConfigError) as err:
                ExperimentConfig.from_dict({"experiment": name, field: value})
            assert err.value.field == field
            assert "does not read" not in str(err.value)

    def test_declared_fields_are_the_fields_read(self):
        # Each experiment's declaration against the fields its code reads.
        read = {name: set() for name in EXPERIMENTS}
        for name, overrides in [*((name, {}) for name in sorted(FAST_CONFIGS)),
                                ("stable-marginal", {"family": "brownian"}),
                                ("stable-marginal", {"family": "fbm", "hurst": 0.4})]:
            cfg = small_config(name, **overrides)
            read[name] |= fields_read(EXPERIMENTS[name][0], cfg)
            if SPECS[name].check is not None:
                assert fields_read(SPECS[name].check, cfg) <= SPECS[name].reads
        assert read == {name: spec.reads for name, spec in SPECS.items()}
        assert sum(len(spec.reads) for spec in SPECS.values()) == 23

    def test_unread_table_values_are_valid_where_read(self):
        for field, value in VALID_VALUES.items():
            name = next(n for n, spec in sorted(SPECS.items()) if field in spec.reads)
            assert getattr(small_config(name, **{field: value}), field) == value

    @pytest.mark.parametrize("seed", [0, 7])
    def test_benchmark_workload_configs_are_accepted(self, seed):
        # Every config bench/workloads.py gives the benchmark, with the seed it applies.
        path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
        for name in workloads.WORKLOADS:
            for body in workloads.configs(name, seed):
                assert ExperimentConfig.from_dict(body).seed == seed

    @pytest.mark.parametrize("name, overrides, field", unread_field_cases())
    def test_unread_field_exits_1(self, tmp_path, name, overrides, field):
        code, err = run_main({"experiment": name, **FAST_CONFIGS[name], **overrides},
                             tmp_path / "out", "--strict")
        assert code == 1
        assert err.startswith(f"config error: {field}: {name} does not read this field")
        assert not (tmp_path / "out").exists()

    def test_lag_kinds(self):
        ExperimentConfig.from_dict({"experiment": "discrete-lag",
                                    "lag_kind": "overlog"})
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "discrete-lag",
                                        "lag_kind": "power:gamma=2"})


# (payload, extra argv, text stderr must hold, exit code)
MALFORMED = {
    "top-level-list": ([1, 2], [], "JSON object", 1),
    "top-level-list-with-override": ([1, 2], ["--seed", "3"], "JSON object", 1),
    "replicas-string": ({"experiment": "moment-rate", "replicas": "abc"}, [],
                        "replicas:", 1),
    "replicas-bool": ({"experiment": "moment-rate", "replicas": True}, [],
                      "replicas:", 1),
    "replicas-float": ({"experiment": "moment-rate", "replicas": 2.5}, [],
                       "replicas:", 1),
    "seed-string": ({"experiment": "moment-rate", "seed": "7"}, [], "seed:", 1),
    "alpha-string": ({"experiment": "moment-rate", "alpha": "x"}, [], "alpha:", 1),
    "lag-kind-number": ({"experiment": "moment-rate", "lag_kind": 3}, [],
                        "lag_kind:", 1),
    "epsilon-nan": ({"experiment": "moment-rate", "epsilon": float("nan")}, [],
                    "epsilon:", 1),
    "epsilon-inf": ({"experiment": "moment-rate", "epsilon": float("inf")}, [],
                    "epsilon:", 1),
    "horizon-minus-inf": ({"experiment": "moment-rate", "horizon": -float("inf")}, [],
                          "horizon:", 1),
    "ou-match-psi1-kernel": ({"experiment": "ou-match", "kernel_id": "psi1"}, [],
                             "kernel_id:", 1),
    "wschebor-check-coarse-grid": ({"experiment": "wschebor-check", "grid_n": 8}, [],
                                   "grid_n:", 1),
    "spectral-tables-unbounded-fbm-ou": ({"experiment": "spectral-tables",
                                          "kernel_id": "fbm-ou:H=0.4", "hurst": 0.7}, [],
                                         "hurst:", 1),
    "spectral-tables-unbounded-psi1": ({"experiment": "spectral-tables",
                                        "kernel_id": "psi1", "hurst": 0.7}, [], "hurst:", 1),
    "moment-rate-unbounded-ou-exp": ({"experiment": "moment-rate",
                                      "kernel_id": "ou-exp", "hurst": 0.7}, [], "hurst:", 1),
    "stable-marginal-no-derivative-measure": ({"experiment": "stable-marginal",
                                               "kernel_id": "fbm-ou:H=0.4"}, [],
                                              "kernel_id:", 1),
    "discrete-lag-small-n": ({"experiment": "discrete-lag", "n_discrete": 255}, [],
                             "n_discrete:", 1),
    "discrete-lag-21-replicas": ({"experiment": "discrete-lag", "replicas": 21}, [],
                                 "replicas:", 1),
    "discrete-lag-21-replicas-override": ({"experiment": "discrete-lag"},
                                          ["--replicas", "21"], "replicas:", 1),
    "level-process-replicas-override": ({"experiment": "level-process"},
                                        ["--replicas", "3"], "replicas:", 1),
    "ou-match-horizon-below-lag": ({"experiment": "ou-match", "kernel_id": "ou-exp",
                                    "horizon": 0.5}, [], "horizon:", 1),
    "ou-match-horizon-at-lag": ({"experiment": "ou-match", "kernel_id": "ou-exp",
                                 "horizon": 2}, [], "horizon:", 1),
    "ou-match-horizon-zero": ({"experiment": "ou-match", "kernel_id": "ou-exp",
                               "horizon": 0}, [], "horizon:", 1),
    "ou-match-horizon-negative": ({"experiment": "ou-match", "kernel_id": "ou-bessel",
                                   "horizon": -1}, [], "horizon:", 1),
    "level-process-one-s": ({"experiment": "level-process", "s_count": 1}, [],
                            "s_count:", 1),
    "level-process-no-t": ({"experiment": "level-process", "t_count": 0}, [],
                           "t_count:", 1),
    "removed-time-bins": ({"experiment": "moment-rate", "time_bins": 8}, [],
                          "time_bins:", 1),
    "removed-value-bins": ({"experiment": "moment-rate", "value_bins": 32}, [],
                           "value_bins:", 1),
    "removed-custom-lag-table": ({"experiment": "discrete-lag",
                                  "lag_kind": "custom:lags.csv"}, [], "lag_kind:", 1),
    # Check bounds are fixed by each experiment; any override, even an empty one, is refused.
    "removed-tolerances": ({"experiment": "wschebor-check", "tolerances": {}}, [],
                           "tolerances: unknown configuration field", 1),
    "tolerances-list": ({"experiment": "moment-rate", "tolerances": [1]}, [],
                        "tolerances: unknown configuration field", 1),
    "tolerances-string-value": ({"experiment": "moment-rate",
                                 "tolerances": {"closed_form_error": "x"}}, [],
                                "tolerances: unknown configuration field", 1),
    "tolerances-nan-value": ({"experiment": "moment-rate",
                              "tolerances": {"closed_form_error": float("nan")}}, [],
                             "tolerances: unknown configuration field", 1),
    "tolerances-unknown-name": ({"experiment": "wschebor-check",
                                 "tolerances": {"ks_to_phy": 1e-9}}, [],
                                "tolerances: unknown configuration field", 1),
    "tolerances-other-experiments-name": ({"experiment": "stable-marginal",
                                           "tolerances": {"ks_to_phi": 0.1}}, [],
                                          "tolerances: unknown configuration field", 1),
    "ou-match-one-replica": ({"experiment": "ou-match", "kernel_id": "ou-exp",
                              "replicas": 1}, [], "replicas:", 1),
    "spectral-tables-unbounded-fbm-ou-at-half": ({"experiment": "spectral-tables",
                                                  "kernel_id": "fbm-ou:H=0.4",
                                                  "hurst": 0.5}, [], "hurst:", 1),
    "moment-rate-unbounded-fbm-ou-at-half": ({"experiment": "moment-rate",
                                              "kernel_id": "fbm-ou:H=0.4",
                                              "hurst": 0.5}, [], "hurst:", 1),
    # Just above the critical index h*, where a numerical probe of the
    # density near 0 cannot see it grow.
    "spectral-tables-psi1-at-0_51": ({"experiment": "spectral-tables", "kernel_id": "psi1",
                                      "hurst": 0.51}, [], "hurst:", 1),
    "spectral-tables-psi1-at-0_55": ({"experiment": "spectral-tables", "kernel_id": "psi1",
                                      "hurst": 0.55}, [], "hurst:", 1),
    "spectral-tables-triangle-at-0_55": ({"experiment": "spectral-tables",
                                          "kernel_id": "triangle", "hurst": 0.55}, [],
                                         "hurst:", 1),
    "spectral-tables-fbm-ou-0_4-at-0_45": ({"experiment": "spectral-tables",
                                            "kernel_id": "fbm-ou:H=0.4", "hurst": 0.45}, [],
                                           "hurst:", 1),
    "moment-rate-ou-exp-at-0_55": ({"experiment": "moment-rate", "kernel_id": "ou-exp",
                                    "hurst": 0.55}, [], "hurst:", 1),
    "moment-rate-psi1-at-0_51": ({"experiment": "moment-rate", "kernel_id": "psi1",
                                  "hurst": 0.51}, [], "hurst:", 1),
    "moment-rate-fbm-ou-0_3-at-0_35": ({"experiment": "moment-rate",
                                        "kernel_id": "fbm-ou:H=0.3", "hurst": 0.35}, [],
                                       "hurst:", 1),
}


class TestExitCodes:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_config(self, case, tmp_path, capsys):
        payload, extra, named, code = MALFORMED[case]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(payload))
        argv = ["run", "--config", str(cfg_path), "--output", str(tmp_path / "out")]
        assert main(argv + extra) == code
        err = capsys.readouterr().err
        assert named in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_valid_edges_still_accepted(self):
        ExperimentConfig.from_dict({"experiment": "stable-marginal", "epsilon": 1})
        ExperimentConfig.from_dict({"experiment": "ou-match", "kernel_id": "ou-bessel"})
        # epsilon/4 is 4 steps of a 1/256 grid, the coarsest that admits it
        ExperimentConfig.from_dict({"experiment": "wschebor-check",
                                    "epsilon": 2.0 ** -4, "grid_n": 2 ** 8})
        # psi2's density is bounded at hurst 0.7, and fbm-ou:H=0.4's at hurst <= 0.4
        ExperimentConfig.from_dict({"experiment": "moment-rate", "kernel_id": "psi2",
                                    "hurst": 0.7})
        ExperimentConfig.from_dict({"experiment": "spectral-tables", "kernel_id": "psi1",
                                    "hurst": 0.4})
        for hurst in (0.3, 0.4):
            ExperimentConfig.from_dict({"experiment": "spectral-tables",
                                        "kernel_id": "fbm-ou:H=0.4", "hurst": hurst})
        ExperimentConfig.from_dict({"experiment": "ou-match", "kernel_id": "ou-exp",
                                    "replicas": 2})
        ExperimentConfig.from_dict({"experiment": "discrete-lag", "n_discrete": 2 ** 8})
        # horizon only has to exceed the largest checked lag, 2
        ExperimentConfig.from_dict({"experiment": "ou-match", "kernel_id": "ou-exp",
                                    "horizon": 2.0 + 2.0 ** -8})
        ExperimentConfig.from_dict({"experiment": "level-process", "s_count": 2,
                                    "t_count": 1})
        # an experiment refuses a field it does not read, in or out of bounds
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_dict({"experiment": "moment-rate", "horizon": 0.5,
                                        "s_count": 1, "t_count": 0})
        assert err.value.field == "horizon"

    def test_internal_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def boom(config):
            raise RuntimeError("boom")
        monkeypatch.setitem(EXPERIMENTS, "moment-rate", (boom, "raises"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "moment-rate"}))
        argv = ["run", "--config", str(cfg_path), "--output", str(tmp_path / "out")]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal error: ") and "boom" in err
        assert len(err.splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_failed_write_leaves_no_output(self, tmp_path, monkeypatch):
        def unwritable(config):
            return [], {"a.csv": [("x",), (1,)], "b.csv": [("x",), 1]}  # 1 is no row
        monkeypatch.setitem(EXPERIMENTS, "moment-rate", (unwritable, "bad table"))
        with pytest.raises(csv.Error):
            run(small_config("moment-rate"), output_dir=tmp_path / "out")
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_value_exits_3(self, tmp_path, capsys, monkeypatch):
        def nan_metric(config):
            return [metric("x", float("nan"), 1.0)], {}
        monkeypatch.setitem(EXPERIMENTS, "moment-rate", (nan_metric, "writes NaN"))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "moment-rate"}))
        argv = ["run", "--config", str(cfg_path), "--output", str(tmp_path / "out")]
        assert main(argv) == 3
        assert "Out of range float" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_failed_run_keeps_existing_output(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        run(small_config("moment-rate"), output_dir=out)
        before = {p.name: p.read_bytes() for p in out.iterdir()}

        def unwritable(config):
            return [], {"rate_curve.csv": [("x",), (1,)], "b.csv": [("x",), 1]}  # 1 is no row
        monkeypatch.setitem(EXPERIMENTS, "moment-rate", (unwritable, "bad table"))
        with pytest.raises(csv.Error):
            run(small_config("moment-rate"), output_dir=out)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    @pytest.mark.parametrize("target", ["file", "under-file"])
    def test_output_path_not_a_directory_exits_1(self, tmp_path, capsys, monkeypatch,
                                                  target):
        def boom(config):
            raise RuntimeError("the experiment ran")
        monkeypatch.setitem(EXPERIMENTS, "stable-marginal", (boom, "raises"))
        (tmp_path / "afile").write_bytes(b"old")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "stable-marginal", "replicas": 20}))
        output = {"file": "afile", "under-file": "afile/sub"}[target]
        argv = ["run", "--config", str(cfg_path), "--output", str(tmp_path / output)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: output_dir") and len(err.splitlines()) == 1
        assert (tmp_path / "afile").read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "cfg.json"]

    def test_directory_in_place_of_an_output_file_exits_1(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "stable-marginal", "replicas": 20}))
        out = tmp_path / "out"
        argv = ["run", "--config", str(cfg_path), "--output", str(out)]
        assert main(argv) == 0
        (out / "marginal_samples.csv").unlink()
        (out / "marginal_samples.csv" / "sub").mkdir(parents=True)
        (out / "marginal_samples.csv" / "sub" / "kept.txt").write_text("kept")
        before = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        assert main(argv + ["--seed", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: output_dir") and "is a directory" in err
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "out"]

    def test_rerun_replaces_files_and_keeps_others(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        (out / "results.json").write_text("stale")
        assert run(small_config("moment-rate"), output_dir=out) == 0
        assert (out / "notes.txt").read_text() == "kept"
        assert json.loads((out / "results.json").read_text())["experiment"] == "moment-rate"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]


class TestListing:
    def test_seven_experiments(self):
        lines = list_experiments().splitlines()
        assert len(lines) == 7
        assert len(EXPERIMENTS) == 7

    def test_python_m_wschebor_runs_the_command_line(self):
        out = fresh_python("-m", "wschebor", "list")  # exit 0 or CalledProcessError
        assert out.stderr == ""
        assert out.stdout == list_experiments() + "\n"

    def test_python_m_wschebor_cli_runs_without_a_warning(self):
        # The package root does not import wschebor.cli, so running it as
        # __main__ does not find it already imported.
        out = fresh_python("-W", "error", "-m", "wschebor.cli", "list")
        assert out.stderr == ""
        assert out.stdout == list_experiments() + "\n"

    def test_listing_into_a_closed_pipe_exits_1_without_a_traceback(self):
        # As `wschebor list --json | head -1` does, the reader leaves before the write.
        proc = subprocess.Popen([sys.executable, "-m", "wschebor", "list", "--json"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=fresh_env())
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait() == 1
        proc.stderr.close()

    def test_import_leaves_out_scipy_signal_and_stats(self):
        # Each costs a large share of the import time and nothing uses them.
        code = ("import sys, wschebor.cli; "
                "print([m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_cold_start_loads_no_scipy(self, tmp_path):
        # Importing, validating, listing and a config error need numpy only;
        # scipy loads when a run first calls it.
        code = """
import json, sys
from wschebor.cli import EXPERIMENTS, ExperimentConfig, list_experiments, main
from wschebor.errors import ConfigError
fast, kernels, bad = json.loads(sys.argv[1])
for name in EXPERIMENTS:
    for body in [fast[name], *({**fast[name], "kernel_id": k} for k in kernels)]:
        try:
            ExperimentConfig.from_dict({"experiment": name, **body})
        except ConfigError:
            pass
list_experiments(as_json=True)
assert main(["run", "--config", bad]) == 1
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"experiment": "moment-rate", "hurst": 0.7}))
        out = fresh_python("-c", code, json.dumps([FAST_CONFIGS, NAMED_KERNELS, str(bad)]))
        assert out.stdout.strip() == "[]"

    def test_json_listing(self):
        payload = json.loads(list_experiments(as_json=True))
        assert sorted(payload) == sorted(EXPERIMENTS)
        for name, entry in payload.items():
            assert entry == {"description": EXPERIMENTS[name][1],
                             "fields": sorted(SPECS[name].reads)}
        assert payload["ou-match"]["fields"] == ["horizon", "kernel_id", "replicas"]

    def test_cli_entrypoints(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "moment-rate" in out
        assert main(["list", "--json"]) == 0

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["list", "--bogus"])
        assert exc.value.code == 2


class TestRunReplicas:
    def test_order_independent_merge(self):
        serial = run_replicas(lambda i, s: (i, s), 16, 5, threads=1)
        parallel = run_replicas(lambda i, s: (i, s), 16, 5, threads=8)
        assert serial == parallel


class TestRun:
    def test_results_schema_and_exit(self, tmp_path):
        cfg = small_config("moment-rate")
        rc = run(cfg, output_dir=tmp_path, strict=True)
        assert rc == 0
        res = json.loads((tmp_path / "results.json").read_text())
        assert res["experiment"] == "moment-rate"
        assert {"name", "value", "tolerance", "pass"} <= set(res["metrics"][0])
        assert (tmp_path / "rate_curve.csv").read_text().startswith("x,rate")
        assert (tmp_path / "timing.json").exists()

    def test_strict_failure_exit_code(self, tmp_path, monkeypatch):
        # A rate curve 1e-5 off in relative terms fails the OU closed form;
        # unmutated, the same config passes.
        cfg = small_config("moment-rate")
        assert run(cfg, output_dir=tmp_path, strict=True) == 0
        exact = ldp.moment_rate

        def off(dens, xs):
            curve = exact(dens, xs)
            return dataclasses.replace(curve, values=curve.values * (1.0 + 1e-5))
        monkeypatch.setattr(ldp, "moment_rate", off)
        assert run(cfg, output_dir=tmp_path, strict=True) == 2
        assert run(cfg, output_dir=tmp_path, strict=False) == 0
        res = json.loads((tmp_path / "results.json").read_text())
        assert [m["name"] for m in res["metrics"] if not m["pass"]] == ["closed_form_error"]

    def test_variance_consistency_can_fail(self, tmp_path, monkeypatch):
        # sigma_sq 1e-3 off in relative terms fails the variance identity;
        # unmutated, the same config passes.
        cfg = small_config("spectral-tables", kernel_id="triangle", hurst=0.5)
        assert run(cfg, output_dir=tmp_path, strict=True) == 0
        exact = spectral.sigma_sq
        monkeypatch.setattr(spectral, "sigma_sq",
                            lambda kernel, hurst: exact(kernel, hurst) * (1.0 + 1e-3))
        assert run(cfg, output_dir=tmp_path, strict=True) == 2
        res = json.loads((tmp_path / "results.json").read_text())
        assert [m["name"] for m in res["metrics"] if not m["pass"]] == ["variance_consistency"]

    def test_no_variance_consistency_without_derivative_measure(self, tmp_path):
        run(small_config("spectral-tables", kernel_id="ou-bessel"), output_dir=tmp_path)
        res = json.loads((tmp_path / "results.json").read_text())
        assert [m["name"] for m in res["metrics"]] == ["sup_value"]

    def test_wschebor_check_passes(self, tmp_path):
        cfg = small_config("wschebor-check")
        assert run(cfg, output_dir=tmp_path, strict=True) == 0
        res = json.loads((tmp_path / "results.json").read_text())
        ks = [m for m in res["metrics"] if m["name"] == "ks_to_phi"][0]
        assert ks["value"] <= 0.05 and ks["pass"]

    def test_wschebor_check_small_scale(self, tmp_path):
        cfg = ExperimentConfig.from_dict({
            "experiment": "wschebor-check", "kernel_id": "psi1",
            "epsilon": 2.0 ** -10, "grid_n": 2 ** 15, "replicas": 1, "seed": 3})
        assert run(cfg, output_dir=tmp_path, strict=True) == 0
        res = json.loads((tmp_path / "results.json").read_text())
        ks = [m for m in res["metrics"] if m["name"] == "ks_to_phi"][0]
        assert ks["value"] <= 0.05 and ks["pass"]

    def test_level_process_report_schema(self, tmp_path):
        cfg = small_config("level-process")
        run(cfg, output_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "ball.csv", "char_functional.csv", "results.json", "timing.json"]
        with open(tmp_path / "ball.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["epsilon", "frequency", "oracle_probability", "cloud_stderr",
                          "oracle_quad_error"]
        assert len(rows) == 1 and float(rows[0][0]) == 2.0 ** -8
        res = json.loads((tmp_path / "results.json").read_text())
        ball = dict(zip(header, map(float, rows[0])))
        check = [m for m in res["metrics"] if m["name"] == "ball_frequency_dev"][0]
        assert check["value"] == abs(ball["frequency"] - ball["oracle_probability"])
        assert check["tolerance"] == 3.0 * ball["cloud_stderr"]

    def test_ball_cloud_windows_lie_on_source_nodes(self, tmp_path, monkeypatch):
        # An off-node window is interpolated between two nodes and has less
        # than the Brownian variance; at t_count 2^14 the ball cloud (eps
        # 2^-8, s-step 2^-13) needs the source step 1/t_count.
        seen = []
        extract = levelproc.extract_cloud

        def spy(source, epsilon, t_count, s_count):
            seen.append((source, epsilon, t_count, s_count))
            return extract(source, epsilon, t_count, s_count)

        monkeypatch.setattr(levelproc, "extract_cloud", spy)
        run(small_config("level-process", t_count=2 ** 14, epsilon=2.0 ** -10),
            output_dir=tmp_path)
        assert [e for _, e, _, _ in seen] == [2.0 ** -10, 2.0 ** -8]
        for source, epsilon, t_count, s_count in seen:
            times = (np.arange(t_count)[:, None] / t_count
                     + epsilon * np.linspace(0.0, 1.0, s_count)[None, :])
            k = (times - source.t_start) / source.dt
            assert np.array_equal(k, np.round(k))

    def test_level_process_peak_memory(self, tmp_path):
        # The ball reference is exact, so the run builds no path ensemble:
        # its peak is about 34 MB, and 200 000 Monte Carlo paths alone need 160.
        cfg = ExperimentConfig.from_dict({"experiment": "level-process"})
        tracemalloc.start()
        try:
            run(cfg, output_dir=tmp_path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"

    def test_main_run_and_validation(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "moment-rate",
                                        "kernel_id": "ou-exp",
                                        "output_dir": str(tmp_path / "out")}))
        assert main(["run", "--config", str(cfg_path), "--strict"]) == 0
        cfg_path.write_text(json.dumps({"experiment": "moment-rate",
                                        "kernel_id": "bad"}))
        assert main(["run", "--config", str(cfg_path)]) == 1
        assert "kernel_id" in capsys.readouterr().err

    def test_occupation_cdf_table(self, tmp_path):
        cfg = small_config("wschebor-check")
        run(cfg, output_dir=tmp_path)
        kernel = kernel_by_id(cfg.kernel_id)
        scale = kernel.norm(2)
        xs = np.linspace(-4.0 * scale, 4.0 * scale, 161)
        cdfs = [separate_occupation(kernel, cfg.epsilon, seed_split(cfg.seed, i),
                                    cfg.grid_n)[1].cdf(xs) for i in range(cfg.replicas)]
        with open(tmp_path / "occupation_cdf.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        assert header == ["x", "cdf_replica_0", "cdf_pooled", "cdf_limit"]
        table = np.array(rows, dtype=float)
        assert rows == [list(map(repr, row)) for row in table.tolist()]
        assert np.array_equal(table[:, 0], xs)
        assert table[0, 0] == -4.0 * scale and table[-1, 0] == 4.0 * scale
        assert np.array_equal(table[:, 1], cdfs[0])
        assert np.array_equal(table[:, 2], np.mean(cdfs, axis=0))
        assert np.array_equal(table[:, 3], special.ndtr(xs / scale))

    @pytest.mark.parametrize("kernel_id", ["psi1", "psi2", "triangle", "ou-exp"])
    @pytest.mark.parametrize("grid_n, eps", [(2 ** 13, 2.0 ** -7), (1000, 0.1)])
    def test_one_draw_serves_both_scales(self, kernel_id, grid_n, eps):
        # Grid 1000 gives the two scales steps that differ in the last bit.
        kernel = kernel_by_id(kernel_id)
        seed = seed_split(3, 0)
        grids = [_occupation_grid(kernel, e, grid_n) for e in (eps, eps / 4.0)]
        sources = brownian_paths([(n, hi - lo, lo) for lo, hi, n in grids], seed)
        for (lo, hi, n), src in zip(grids, sources):
            alone = simulate_brownian(n, hi - lo, seed, t_start=lo)
            assert np.array_equal(src.values.view(np.int64), alone.values.view(np.int64))
            assert (src.t_start, src.dt) == (alone.t_start, alone.dt)
        both = _occupation_ks(kernel, (eps, eps / 4.0), seed, grid_n)
        for scale, (ks, mu) in zip((eps, eps / 4.0), both):
            ks_alone, mu_alone = separate_occupation(kernel, scale, seed, grid_n)
            assert ks == ks_alone
            assert np.array_equal(mu.points.view(np.int64), mu_alone.points.view(np.int64))
            assert np.array_equal(mu.weights.view(np.int64), mu_alone.weights.view(np.int64))

    @pytest.mark.parametrize("name", sorted(FAST_CONFIGS))
    def test_csv_writer_matches_csv_module(self, tmp_path, name):
        # Files are opened with newline="", so each holds csv.writer's CRLF bytes.
        fn, _ = EXPERIMENTS[name]
        _, tables = fn(small_config(name))
        _write_outputs(tmp_path, {}, 0.0, tables)
        assert tables and all(k.endswith(".csv") for k in tables)
        for k, rows in tables.items():
            assert (tmp_path / k).read_bytes() == csv_writer_bytes(rows).encode()

    @pytest.mark.parametrize("kernel_id, hurst, checked", [
        ("ou-exp", 0.5, True),
        ("ou-bessel", 0.5, True),
        ("fbm-ou:H=0.3", 0.3, True),
        # The unit-scale process is OU only at hurst h*; elsewhere there is no closed form.
        ("ou-exp", 0.3, False),
        ("ou-bessel", 0.3, False),
        ("ou-exp", 0.45, False),
        ("fbm-ou:H=0.3", 0.2, False),
        ("psi1", 0.5, False)])
    def test_moment_rate_closed_form_only_for_ou_density(self, tmp_path, kernel_id, hurst,
                                                         checked):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "moment-rate", "kernel_id": kernel_id,
                                        "hurst": hurst}))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_path), "--output", str(out), "--strict"]) == 0
        res = json.loads((out / "results.json").read_text())
        names = [m["name"] for m in res["metrics"]]
        assert ("closed_form_error" in names) == checked

    def test_wschebor_check_non_dyadic_grid(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "wschebor-check", "grid_n": 1000,
                                        "epsilon": 0.125, "replicas": 2}))
        assert main(["run", "--config", str(cfg_path),
                     "--output", str(tmp_path / "out")]) == 0

    def test_no_valid_wschebor_check_config_exits_3(self, tmp_path, capsys):
        ran = 0
        for kernel in ("psi1", "ou-exp", "triangle"):
            for grid_n in (8, 16, 40, 64, 100, 256, 1000):
                for k in range(10):
                    body = {"experiment": "wschebor-check", "kernel_id": kernel,
                            "grid_n": grid_n, "epsilon": 2.0 ** -k, "replicas": 1}
                    try:
                        ExperimentConfig.from_dict(body)
                    except ConfigError:
                        continue
                    cfg_path = tmp_path / "cfg.json"
                    cfg_path.write_text(json.dumps(body))
                    code = main(["run", "--config", str(cfg_path),
                                 "--output", str(tmp_path / "out")])
                    assert code == 0, (body, capsys.readouterr().err)
                    ran += 1
        assert ran == 60

    def test_discrete_lag_tolerance_from_effective_sample(self, tmp_path):
        # Windows of lag r overlap, so about n / r of the n windows are independent.
        n, r = 2 ** 13, int(2 ** (13 * 0.6))
        for seed in range(10):
            run(small_config("discrete-lag", seed=seed, replicas=1), output_dir=tmp_path)
            res = json.loads((tmp_path / "results.json").read_text())
            for m in res["metrics"]:
                if m["name"].startswith("ks_to_phi_"):
                    assert m["tolerance"] == ks_critical_value(n / r, alpha=0.05)
                    assert m["pass"], (seed, m)

    def test_discrete_lag_uncentred_uniform_fails(self, tmp_path, monkeypatch):
        def uncentred(n_total, seed):
            rng = np.random.Generator(np.random.PCG64(seed))
            return rng.random(n_total) * np.sqrt(12.0)
        monkeypatch.setattr(discrete, "uniform_innovations", uncentred)
        run(small_config("discrete-lag", replicas=1), output_dir=tmp_path)
        res = json.loads((tmp_path / "results.json").read_text())
        check = [m for m in res["metrics"] if m["name"] == "ks_to_phi_uniform"][0]
        assert not check["pass"]

    def _metrics(self, tmp_path, name, strict=False, **overrides):
        code = run(small_config(name, **overrides), output_dir=tmp_path, strict=strict)
        res = json.loads((tmp_path / "results.json").read_text())
        return code, {m["name"]: m for m in res["metrics"]}

    def _coupling_check(self, tmp_path, **overrides):
        _, checks = self._metrics(tmp_path, "discrete-lag", **overrides)
        return checks["coupling_median_decreases"]

    def test_discrete_lag_coupling_compares_sixteenth_size(self, tmp_path):
        # At n_discrete = 2^14 the check used to compare the median with itself.
        check = self._coupling_check(tmp_path, n_discrete=2 ** 14)
        assert check["value"] != check["tolerance"]
        rows = (tmp_path / "coupling.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["1024.0", "16384.0"]

    def test_discrete_lag_coupling_passes_below_2_14(self, tmp_path):
        # Below 2^14 the check used to demand that the distance grow with n.
        assert self._coupling_check(tmp_path, n_discrete=2 ** 13, replicas=3)["pass"]

    def test_discrete_lag_coupling_fails_on_independent_paths(self, tmp_path, monkeypatch):
        # A continuum measure from a path of its own is W1-close only like
        # sqrt(eps_n), slower than the r_n^(-1/2) bound.
        # Unmutated, this config passes (test_discrete_lag_coupling_passes_below_2_14).
        coupled = discrete.coupled_pair

        def independent(n, r, seed, oversample=8):
            m_n, _ = coupled(n, r, seed, oversample)
            _, mu = coupled(n, r, seed_split(seed, 1), oversample)
            return m_n, mu
        monkeypatch.setattr(discrete, "coupled_pair", independent)
        assert not self._coupling_check(tmp_path)["pass"]

    def test_discrete_lag_rejects_schedule_outside_coupling_regime(self, tmp_path):
        # At gamma = 1/2, eps_n sqrt(n) = floor(sqrt n) / sqrt n stays bounded.
        code, checks = self._metrics(tmp_path, "discrete-lag", strict=True,
                                     lag_kind="power:gamma=0.5")
        assert code == 2
        assert checks["gaussian_coupling_regime"]["value"] == 0.0
        assert not checks["gaussian_coupling_regime"]["pass"]
        assert [n for n, m in checks.items() if not m["pass"]] == ["gaussian_coupling_regime"]

    @pytest.mark.parametrize("lag_kind, q", [
        pytest.param("power:gamma=0.6", 0.1, id="gamma-0.6"),
        pytest.param("overlog", 0.5, id="overlog")])
    def test_discrete_lag_coupling_regime_passes(self, tmp_path, lag_kind, q):
        code, checks = self._metrics(tmp_path, "discrete-lag", strict=True,
                                     lag_kind=lag_kind)
        assert code == 0
        assert checks["gaussian_coupling_regime"]["value"] == pytest.approx(q)
        assert checks["gaussian_coupling_regime"]["pass"]

    def test_ou_match_defaults_to_the_ou_exp_kernel(self, tmp_path):
        assert run_main({"experiment": "ou-match"}, tmp_path / "out", "--strict") == (0, "")
        res = json.loads((tmp_path / "out" / "results.json").read_text())
        assert res["parameters"]["kernel_id"] == "ou-exp"

    @pytest.mark.parametrize("overrides", [
        {"epsilon": 0.3, "s_count": 2, "t_count": 1},
        {"epsilon": 0.3, "s_count": 5, "t_count": 7},
        {"epsilon": 0.15, "s_count": 6, "t_count": 10}])
    def test_level_process_source_steps_cover_the_horizon(self, tmp_path, overrides):
        # (1 + epsilon) / dt is no integer here, and rounding it gave a step
        # above epsilon * s_step, which extract_cloud refuses.
        code, err = run_main({"experiment": "level-process", **overrides}, tmp_path / "out")
        assert code == 0, err
        assert_strict_outputs(tmp_path / "out")

    @pytest.mark.parametrize("kernel_id", ["ou-exp", "ou-bessel"])
    @pytest.mark.parametrize("field, failing", [
        pytest.param(None, (), id="unmutated"),
        pytest.param("psi", ("fourier_error_0", "fourier_error_1", "fourier_error_5"),
                     id="psi-scaled"),
        pytest.param("fourier_abs2", ("fourier_error_0", "fourier_error_1",
                                      "fourier_error_5", "spectral_cov_error"),
                     id="abs2-scaled"),
    ])
    def test_ou_match_kernel_checks_read_the_kernel(self, tmp_path, monkeypatch,
                                                     kernel_id, field, failing):
        # A kernel whose psi or |psi_hat|^2 is 5 % off fails the checks that read it.
        def mutated(kid):
            kernel = kernel_by_id(kid)
            if field is None:
                return kernel
            scaled = getattr(kernel, field)
            return dataclasses.replace(kernel, **{field: lambda x: 1.05 * scaled(x)})
        monkeypatch.setattr("wschebor.cli.kernel_by_id", mutated)
        _, checks = self._metrics(tmp_path, "ou-match", kernel_id=kernel_id,
                                  replicas=4, horizon=5.0)
        kernel_checks = {n: m for n, m in checks.items() if not n.startswith("cov_dev")}
        assert sorted(kernel_checks) == ["fourier_error_0", "fourier_error_1",
                                         "fourier_error_5", "spectral_cov_error"]
        assert sorted(n for n, m in kernel_checks.items() if not m["pass"]) == list(failing)

    def test_stable_marginal_brownian_reference(self, tmp_path):
        # 2000 replicas: enough power to see a reference that is sqrt(2) too wide.
        cfg = small_config("stable-marginal", family="brownian", replicas=2000)
        assert run(cfg, output_dir=tmp_path, strict=True) == 0
        table = np.loadtxt(tmp_path / "marginal_samples.csv", delimiter=",",
                           skiprows=1)
        ratio = table[:, 1].var() / table[:, 0].var()
        assert 0.85 < ratio < 1.15

    @pytest.mark.parametrize("overrides", [
        pytest.param({"family": "brownian"}, id="brownian"),
        pytest.param({"family": "stable", "alpha": 1.5}, id="stable-1.5"),
        pytest.param({"family": "stable", "alpha": 1.0}, id="stable-1.0"),
        pytest.param({"family": "fbm", "hurst": 0.3}, id="fbm-0.3")])
    def test_stable_marginal_samples_match_a_replica_loop(self, tmp_path, overrides):
        # The batched draw writes the samples that one path per seed gives.
        cfg = small_config("stable-marginal", replicas=200, **overrides)
        run(cfg, output_dir=tmp_path)
        kernel, eps = kernel_by_id(cfg.kernel_id), cfg.epsilon
        desc = ProcessDescriptor(cfg.family, **{k: v for k, v in overrides.items()
                                                if k != "family"})
        lo, hi = dpsi_window(kernel, eps, (0.0, eps))
        n = int(round((hi - lo) / (eps / 8.0))) + 1
        loop = [normalized_increment(simulate(desc, n, hi - lo, seed_split(cfg.seed, i),
                                              t_start=lo),
                                     kernel, eps, window=(0.0, eps)).values[0]
                for i in range(cfg.replicas)]
        with open(tmp_path / "marginal_samples.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[0] for row in rows] == [repr(float(x)) for x in loop]

    @pytest.mark.parametrize("name, overrides", [
        *(pytest.param(name, {}, id=name) for name in sorted(FAST_CONFIGS)),
        pytest.param("spectral-tables", {"kernel_id": "fbm-ou:H=0.4", "hurst": 0.3},
                     id="spectral-tables-fbm-ou-hurst-0.3"),
        pytest.param("spectral-tables", {"kernel_id": "triangle", "hurst": 0.5},
                     id="spectral-tables-triangle-hurst-0.5"),
        # At the critical index h* the density is bounded, so these stay valid.
        pytest.param("spectral-tables", {"kernel_id": "fbm-ou:H=0.1", "hurst": 0.1},
                     id="spectral-tables-fbm-ou-0_1-at-0_1"),
        pytest.param("spectral-tables", {"kernel_id": "fbm-ou:H=0.4", "hurst": 0.4},
                     id="spectral-tables-fbm-ou-0_4-at-0_4"),
        pytest.param("moment-rate", {"kernel_id": "psi2", "hurst": 0.9},
                     id="moment-rate-psi2-at-0_9")])
    def test_outputs_are_strict_json_and_finite_csv(self, tmp_path, name, overrides):
        run(small_config(name, **overrides), output_dir=tmp_path)
        assert_strict_outputs(tmp_path)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(cheap_configs())
    def test_cheap_configs_exit_cleanly(self, case):
        # Over every experiment, kernel and family: no internal error, and a
        # run that completes writes strict JSON and finite tables.
        payload, sets_unread = case
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out"
            code, err = run_main(payload, out)
            assert code in ((1,) if sets_unread else (0, 1, 2)), (payload, err)
            if code == 1:
                assert not out.exists()
            else:
                assert_strict_outputs(out)

    @pytest.mark.parametrize("name, kernel_id, hurst", admitted_analytic_configs())
    def test_analytic_tables_hold_finite_plain_floats(self, tmp_path, name, kernel_id, hurst):
        # Under numpy 2 the repr of a numpy scalar is "np.float64(...)", not a number.
        run(small_config(name, kernel_id=kernel_id, hurst=hurst), output_dir=tmp_path)
        tables = sorted(tmp_path.glob("*.csv"))
        assert tables
        for path in tables:
            with open(path, newline="") as fh:
                cells = [c for row in list(csv.reader(fh))[1:] for c in row]
            assert cells and not [c for c in cells if "np." in c], path.name
            assert all(np.isfinite(float(c)) for c in cells), path.name

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_byte_identical_across_runs_and_threads(self, tmp_path, name):
        outs = []
        for tag, threads in (("a", 1), ("b", 1), ("c", 8)):
            cfg = small_config(name, threads=threads)
            out = tmp_path / tag
            run(cfg, output_dir=out)
            outs.append(output_blobs(out))
        assert outs[0] == outs[1]
        assert outs[0] == outs[2]

    def test_first_scipy_use_in_worker_threads(self, tmp_path):
        # In a fresh interpreter the 4-thread runs come first, so replicas in
        # worker threads are the first to import scipy.fft, .integrate and .special.
        code = """
import json, sys
from wschebor.cli import ExperimentConfig, run
configs, root = json.loads(sys.argv[1])
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
for threads in (4, 1):
    for k, body in enumerate(configs):
        run(ExperimentConfig.from_dict({**body, "seed": 7, "threads": threads}),
            output_dir=f"{root}/{k}/{threads}")
"""
        configs = [
            {"experiment": "wschebor-check", "kernel_id": "triangle", "grid_n": 2 ** 12,
             "epsilon": 2.0 ** -5, "replicas": 4},
            {"experiment": "stable-marginal", "kernel_id": "triangle",
             "family": "brownian", "replicas": 40},
            {"experiment": "ou-match", "kernel_id": "ou-exp", "replicas": 4,
             "horizon": 5.0},
        ]
        fresh_python("-c", code, json.dumps([configs, str(tmp_path)]))
        for k in range(len(configs)):
            assert output_blobs(tmp_path / str(k) / "4") == output_blobs(tmp_path / str(k) / "1")
