import csv
import io
import json

import numpy as np
import pytest

from wschebor import discrete
from wschebor.cli import (
    EXPERIMENTS,
    TOLERANCES,
    ExperimentConfig,
    _occupation_ks,
    list_experiments,
    main,
    metric,
    run,
    run_replicas,
    seed_split,
)
from wschebor.errors import ConfigError
from wschebor.measures import ks_critical_value
from wschebor.mollifiers import kernel_by_id

FAST_CONFIGS = {
    "wschebor-check": {"grid_n": 2 ** 13, "replicas": 2, "epsilon": 2.0 ** -7},
    "spectral-tables": {"kernel_id": "ou-exp"},
    "ou-match": {"kernel_id": "ou-exp", "replicas": 8, "horizon": 25.0},
    "moment-rate": {"kernel_id": "ou-exp"},
    "level-process": {"t_count": 2 ** 10, "epsilon": 2.0 ** -6},
    "discrete-lag": {"n_discrete": 2 ** 13, "replicas": 3},
    "stable-marginal": {"family": "stable", "alpha": 1.5, "replicas": 400},
}


def small_config(name, **overrides):
    body = {"experiment": name, "seed": 7, **FAST_CONFIGS[name], **overrides}
    return ExperimentConfig.from_dict(body)


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


class TestConfig:
    def test_roundtrip(self):
        cfg = small_config("wschebor-check")
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again == cfg

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
        for field, value in (("hurst", 1.5), ("alpha", 0.0), ("epsilon", -1.0),
                             ("replicas", 0), ("threads", 0)):
            with pytest.raises(ConfigError) as err:
                ExperimentConfig.from_dict({"experiment": "moment-rate", field: value})
            assert err.value.field == field

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
    "tolerances-list": ({"experiment": "moment-rate", "tolerances": [1]}, [],
                        "tolerances:", 1),
    "tolerances-string-value": ({"experiment": "moment-rate",
                                 "tolerances": {"closed_form_error": "x"}}, [],
                                "tolerances:", 1),
    "tolerances-nan-value": ({"experiment": "moment-rate",
                              "tolerances": {"closed_form_error": float("nan")}}, [],
                             "tolerances:", 1),
    "ou-match-default-kernel": ({"experiment": "ou-match"}, [], "kernel_id:", 1),
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
    "ou-match-one-replica": ({"experiment": "ou-match", "kernel_id": "ou-exp",
                              "replicas": 1}, [], "replicas:", 1),
    "spectral-tables-unbounded-fbm-ou-at-half": ({"experiment": "spectral-tables",
                                                  "kernel_id": "fbm-ou:H=0.4",
                                                  "hurst": 0.5}, [], "hurst:", 1),
    "moment-rate-unbounded-fbm-ou-at-half": ({"experiment": "moment-rate",
                                              "kernel_id": "fbm-ou:H=0.4",
                                              "hurst": 0.5}, [], "hurst:", 1),
    "tolerances-unknown-name": ({"experiment": "wschebor-check",
                                 "tolerances": {"ks_to_phy": 1e-9}}, [], "tolerances:", 1),
    "tolerances-other-experiments-name": ({"experiment": "stable-marginal",
                                           "tolerances": {"ks_to_phi": 0.1}}, [],
                                          "tolerances:", 1),
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
        ExperimentConfig.from_dict({"experiment": "moment-rate", "epsilon": 1,
                                    "tolerances": {"closed_form_error": 1}})
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
        for name, names in TOLERANCES.items():
            ExperimentConfig.from_dict({"experiment": name, **FAST_CONFIGS[name],
                                        "tolerances": {t: 1.0 for t in names}})
        ExperimentConfig.from_dict({"experiment": "discrete-lag", "n_discrete": 2 ** 8})
        # horizon only has to exceed the largest checked lag, 2
        ExperimentConfig.from_dict({"experiment": "ou-match", "kernel_id": "ou-exp",
                                    "horizon": 2.0 + 2.0 ** -8})
        ExperimentConfig.from_dict({"experiment": "level-process", "s_count": 2,
                                    "t_count": 1})
        # the bounds above bind only the experiments that read the field
        ExperimentConfig.from_dict({"experiment": "moment-rate", "horizon": 0.5,
                                    "s_count": 1, "t_count": 0})

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
            return [], {"a.csv": [("x",), (1,)], "b.json": {"x": object()}}
        monkeypatch.setitem(EXPERIMENTS, "moment-rate", (unwritable, "bad table"))
        with pytest.raises(TypeError):
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
            return [], {"rate_curve.csv": [("x",), (1,)], "b.json": {"x": object()}}
        monkeypatch.setitem(EXPERIMENTS, "moment-rate", (unwritable, "bad table"))
        with pytest.raises(TypeError):
            run(small_config("moment-rate"), output_dir=out)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

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

    def test_json_listing(self):
        payload = json.loads(list_experiments(as_json=True))
        assert sorted(payload) == sorted(EXPERIMENTS)

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

    def test_strict_failure_exit_code(self, tmp_path):
        cfg = small_config("moment-rate",
                           tolerances={"closed_form_error": 1e-30})
        assert run(cfg, output_dir=tmp_path, strict=True) == 2
        assert run(cfg, output_dir=tmp_path, strict=False) == 0

    def test_variance_consistency_can_fail(self, tmp_path):
        cfg = small_config("spectral-tables", kernel_id="triangle", hurst=0.5,
                           tolerances={"variance_consistency": 1e-15})
        assert run(cfg, output_dir=tmp_path, strict=True) == 2

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
        report = json.loads((tmp_path / "levelproc_report.json").read_text())
        assert {"char_functionals", "ball"} <= set(report)
        entry = report["char_functionals"][0]
        assert {"atoms", "empirical", "limit", "deviation"} <= set(entry)
        assert {"frequency", "oracle_probability", "oracle_stderr"} <= set(report["ball"])

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

    def test_occupation_csv_matches_per_value_formatting(self, tmp_path):
        cfg = small_config("wschebor-check")
        run(cfg, output_dir=tmp_path)
        _, mu = _occupation_ks(kernel_by_id(cfg.kernel_id), cfg.epsilon,
                               seed_split(cfg.seed, 0), cfg.grid_n)
        expected = io.StringIO(newline="")
        csv.writer(expected).writerows([("value", "weight")] + [
            (repr(float(v)), repr(float(w))) for v, w in zip(mu.points, mu.weights)])
        with open(tmp_path / "occupation_first_replica.csv", newline="") as fh:
            assert fh.read() == expected.getvalue()

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

    def _coupling_check(self, tmp_path, **overrides):
        run(small_config("discrete-lag", **overrides), output_dir=tmp_path)
        res = json.loads((tmp_path / "results.json").read_text())
        return [m for m in res["metrics"] if m["name"] == "coupling_median_decreases"][0]

    def test_discrete_lag_coupling_compares_sixteenth_size(self, tmp_path):
        # At n_discrete = 2^14 the check used to compare the median with itself.
        check = self._coupling_check(tmp_path, n_discrete=2 ** 14)
        assert check["value"] != check["tolerance"]
        rows = (tmp_path / "coupling.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in rows[1:]] == ["1024.0", "16384.0"]

    def test_discrete_lag_coupling_passes_below_2_14(self, tmp_path):
        # Below 2^14 the check used to demand that the distance grow with n.
        assert self._coupling_check(tmp_path, n_discrete=2 ** 13, replicas=3)["pass"]

    def test_discrete_lag_rejects_log_schedule(self, tmp_path):
        run(small_config("discrete-lag"), output_dir=tmp_path)
        res = json.loads((tmp_path / "results.json").read_text())
        check = [m for m in res["metrics"] if m["name"] == "log_schedule_rejected"][0]
        assert check["pass"]

    def test_stable_marginal_brownian_reference(self, tmp_path):
        # 2000 replicas: enough power to see a reference that is sqrt(2) too wide.
        cfg = small_config("stable-marginal", family="brownian", replicas=2000)
        assert run(cfg, output_dir=tmp_path, strict=True) == 0
        table = np.loadtxt(tmp_path / "marginal_samples.csv", delimiter=",",
                           skiprows=1)
        ratio = table[:, 1].var() / table[:, 0].var()
        assert 0.85 < ratio < 1.15

    @pytest.mark.parametrize("name, overrides", [
        *(pytest.param(name, {}, id=name) for name in sorted(FAST_CONFIGS)),
        pytest.param("spectral-tables", {"kernel_id": "fbm-ou:H=0.4", "hurst": 0.3},
                     id="spectral-tables-fbm-ou-hurst-0.3"),
        pytest.param("spectral-tables", {"kernel_id": "triangle", "hurst": 0.5},
                     id="spectral-tables-triangle-hurst-0.5")])
    def test_outputs_are_strict_json_and_finite_csv(self, tmp_path, name, overrides):
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        run(small_config(name, **overrides), output_dir=tmp_path)
        for path in sorted(tmp_path.iterdir()):
            if path.suffix == ".json":
                json.loads(path.read_text(), parse_constant=reject)
                continue
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            assert rows, path.name
            for cell in (c for row in rows for c in row):
                # The char_functional.csv atoms column is a JSON list of numbers.
                numbers = np.ravel(json.loads(cell, parse_constant=reject)) \
                    if cell.startswith("[") else [float(cell)]
                assert all(np.isfinite(numbers)), (path.name, cell)

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_byte_identical_across_runs_and_threads(self, tmp_path, name):
        outs = []
        for tag, threads in (("a", 1), ("b", 1), ("c", 8)):
            cfg = small_config(name, threads=threads)
            out = tmp_path / tag
            run(cfg, output_dir=out)
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
            outs.append(blobs)
        assert outs[0] == outs[1]
        assert outs[0] == outs[2]
