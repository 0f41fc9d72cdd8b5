import csv
import dataclasses
import io
import json
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import special

from wschebor import discrete, levelproc, measures
from wschebor.cli import (
    CSV_BLOCK_ROWS,
    EXPERIMENTS,
    TOLERANCES,
    ExperimentConfig,
    _occupation_grid,
    _occupation_ks,
    _write_csv,
    list_experiments,
    main,
    metric,
    run,
    run_replicas,
    seed_split,
)
from wschebor.errors import ConfigError
from wschebor.increments import normalized_increment
from wschebor.measures import ks_critical_value
from wschebor.mollifiers import kernel_by_id
from wschebor.paths import brownian_paths, simulate_brownian

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

    def test_import_leaves_out_scipy_signal_and_stats(self):
        # Each costs a large share of the import time and nothing uses them.
        code = ("import sys, wschebor.cli; "
                "print([m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"

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
        assert {"frequency", "oracle_probability", "oracle_quad_error"} <= set(report["ball"])

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

    def test_occupation_csv_matches_per_value_formatting(self, tmp_path):
        cfg = small_config("wschebor-check")
        run(cfg, output_dir=tmp_path)
        _, mu = separate_occupation(kernel_by_id(cfg.kernel_id), cfg.epsilon,
                                    seed_split(cfg.seed, 0), cfg.grid_n)
        expected = csv_writer_bytes([("value", "weight")] + [
            (repr(float(v)), repr(float(w))) for v, w in zip(mu.points, mu.weights)])
        with open(tmp_path / "occupation_first_replica.csv", newline="") as fh:
            assert fh.read() == expected

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
    def test_csv_writer_matches_csv_module(self, name):
        fn, _ = EXPERIMENTS[name]
        _, tables = fn(small_config(name))
        csv_tables = {k: list(rows) for k, rows in tables.items() if k.endswith(".csv")}
        assert csv_tables
        for rows in csv_tables.values():
            out = io.StringIO(newline="")
            _write_csv(out, rows)
            assert out.getvalue() == csv_writer_bytes(rows)

    def test_csv_writer_quotes_like_csv_module(self):
        special_rows = [("a,b", 'say "hi"'), ("line\nbreak", "cr\r"), (1, 2.5), (True, "x")]
        plain = [(repr(0.1 * k), str(k)) for k in range(2 * CSV_BLOCK_ROWS)]
        cases = [[], special_rows, plain,
                 plain + special_rows + plain,
                 [("x", "y", "z"), ("1",), ("2", "3"), (np.float64(0.1), np.int64(4))],
                 [("a\r\nb", "c"), ("d", "e")], [('say "hi"', "x")],
                 [(json.dumps([[0.5, 1.0]]), "0.5")]]
        for rows in cases:
            out = io.StringIO(newline="")
            _write_csv(out, iter(rows))
            assert out.getvalue() == csv_writer_bytes(rows), rows[:3]

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
