"""Reproducible experiment runner.

Each experiment is a pure function of (config, seed): replicas draw their
seeds from a counter-based derivation, run in a thread pool, and are
merged in replica order, so results are byte-identical regardless of
scheduling or thread count.  Wall-clock timing goes to a sidecar file and
never into results.json, keeping the primary outputs deterministic.

Exit codes: 0 success, 1 invalid configuration, 2 failed acceptance
check under --strict, 3 internal error.
"""

import argparse
import csv
import json
import math
import os
import shutil
import sys
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import discrete as dsc
from . import ldp, levelproc, measures, mollifiers, spectral
from .errors import ConfigError, WscheborError
from .increments import MIN_EPS_OVER_DT, dpsi_window, normalized_increment
# bessel_k0 is bound here only for the benchmark's tracer tests
# (bench/tests/test_bench.py), which read it through this module.
from .mollifiers import bessel_k0, kernel_by_id
from .paths import (ProcessDescriptor, _rng, brownian_paths, replica_seeds, seed_split,
                    simulate, simulate_brownian, standard_stable)


def run_replicas(fn, replicas, master_seed, threads=1):
    """Map fn(replica_index, seed) over replicas; results in index order."""
    seeds = replica_seeds(master_seed, replicas)
    if threads <= 1:
        return [fn(i, s) for i, s in enumerate(seeds)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(fn, i, s) for i, s in enumerate(seeds)]
        return [f.result() for f in futures]


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

EXPERIMENTS = {}  # name -> (fn, description)
SPECS = {}        # name -> ExperimentSpec
# Every experiment may be given these; it must declare any other field it reads.
COMMON_FIELDS = {"experiment", "seed", "threads", "output_dir", "tolerances"}


@dataclass(frozen=True)
class ExperimentSpec:
    """The config fields an experiment reads beyond COMMON_FIELDS, the tolerance
    names it reads, its check(config) of field combinations it cannot run, and
    its own defaults for fields it reads."""

    reads: frozenset
    tolerances: frozenset
    check: object
    defaults: dict


def experiment(name, description, reads, tolerances=(), check=None, defaults=None):
    def wrap(fn):
        EXPERIMENTS[name] = (fn, description)
        SPECS[name] = ExperimentSpec(frozenset(reads), frozenset(tolerances), check,
                                     defaults or {})
        return fn
    return wrap


@dataclass
class ExperimentConfig:
    experiment: str
    kernel_id: str = "psi1"
    family: str = "brownian"
    hurst: float = 0.5
    alpha: float = 2.0
    epsilon: float = 2.0 ** -10
    lag_kind: str = "power:gamma=0.6"
    replicas: int = 20
    seed: int = 0
    grid_n: int = 2 ** 18
    horizon: float = 50.0
    t_count: int = 2 ** 14
    s_count: int = 33
    n_discrete: int = 2 ** 18
    threads: int = 1
    output_dir: str = "results"
    tolerances: dict = field(default_factory=dict)

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError("config", "the top-level value must be a JSON object, "
                                        f"not {type(data).__name__}")
        fields = cls.__dataclass_fields__
        extra = set(data) - set(fields)
        if extra:
            raise ConfigError(sorted(extra)[0], "unknown configuration field")
        if "experiment" not in data:
            raise ConfigError("experiment", "missing required field")
        for name, value in data.items():
            kind = fields[name].type
            if not _fits(value, kind):
                raise ConfigError(name, f"must be {_TYPE_NAMES[kind]}, got {value!r}")
        if data["experiment"] in SPECS:
            data = {**SPECS[data["experiment"]].defaults, **data}
        cfg = cls(**data)
        cfg.validate()
        return cfg

    def validate(self):
        """The shared checks, then the experiment's own.  A field the experiment
        does not read keeps its default, so a config names only the run it makes."""
        spec = SPECS.get(self.experiment)
        if spec is None:
            raise ConfigError("experiment",
                              f"unknown experiment {self.experiment!r}; "
                              f"choose from {sorted(SPECS)}")
        for name, f in self.__dataclass_fields__.items():
            if name not in COMMON_FIELDS and name not in spec.reads \
                    and getattr(self, name) != f.default:
                raise ConfigError(name, f"{self.experiment} does not read this field; "
                                        f"it reads {sorted(spec.reads)}")
        try:
            kernel_by_id(self.kernel_id)
        except WscheborError as exc:
            raise ConfigError("kernel_id", str(exc))
        for name, ok, rule in (
                ("family", self.family in ("brownian", "stable", "fbm"),
                 f"unknown process family {self.family!r}"),
                ("hurst", 0.0 < self.hurst < 1.0, "must lie in (0, 1)"),
                ("alpha", 0.0 < self.alpha <= 2.0, "must lie in (0, 2]"),
                ("epsilon", self.epsilon > 0, "must be positive"),
                ("replicas", self.replicas >= 1, "must be at least 1"),
                ("grid_n", self.grid_n >= 8, "must be at least 8"),
                ("t_count", self.t_count >= 1, "must be at least 1"),
                ("s_count", self.s_count >= 2, "must be at least 2"),
                ("n_discrete", self.n_discrete >= 2 ** 8, "must be at least 256, so that "
                 "the coupling check can compare against n_discrete // 16"),
                ("threads", self.threads >= 1, "must be at least 1")):
            if not ok:
                raise ConfigError(name, rule)
        unknown = set(self.tolerances) - spec.tolerances
        if unknown:
            raise ConfigError("tolerances", f"{self.experiment} reads no tolerance "
                                            f"{sorted(unknown)[0]!r}; it reads "
                                            f"{sorted(spec.tolerances)}")
        if spec.check is not None:
            spec.check(self)

    def tolerance(self, name, default):
        return float(self.tolerances.get(name, default))


_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               dict: "an object of finite numbers"}


def _fits(value, kind):
    """Whether a JSON value fits a config field of type `kind`."""
    if kind is dict:
        return isinstance(value, dict) and all(_fits(v, float) for v in value.values())
    if kind is float:
        return _fits(value, int) or isinstance(value, float) and math.isfinite(value)
    return isinstance(value, kind) and not isinstance(value, bool)


def metric(name, value, tolerance, passed=None):
    """One results.json check; a check without a bound passes None and `passed`."""
    value = float(value)
    tolerance = None if tolerance is None else float(tolerance)
    if passed is None:
        passed = bool(value <= tolerance)
    return {"name": name, "value": value, "tolerance": tolerance, "pass": bool(passed)}


# ---------------------------------------------------------------------------
# Experiments
# ---------------------------------------------------------------------------

def _occupation_grid(kernel, eps, grid_n):
    """Source interval and node count of one occupation measure on [0, 1].

    The interval the increments need is padded outward to whole steps of
    1/grid_n, so that t = 0 and t = 1 are nodes of the source grid.
    """
    lo, hi = dpsi_window(kernel, eps, (0.0, 1.0))
    k_lo, k_hi = math.floor(lo * grid_n), math.ceil(hi * grid_n)
    return k_lo / grid_n, k_hi / grid_n, k_hi - k_lo + 1


def _occupation_ks(kernel, epsilons, seed, grid_n):
    """(KS distance to the Gaussian limit, occupation measure) at each epsilon.

    One Brownian draw serves every scale: each scale's source path sums
    the first normals of the seed's stream, scaled by its own grid step,
    so it is the path a separate simulation with that seed would give.
    """
    from scipy import special
    grids = [_occupation_grid(kernel, eps, grid_n) for eps in epsilons]
    sources = brownian_paths([(n, hi - lo, lo) for lo, hi, n in grids], seed)
    scale = kernel.norm(2)
    out = []
    for eps, src in zip(epsilons, sources):
        mu = measures.occupation_measure(normalized_increment(src, kernel, eps, window=(0.0, 1.0)))
        out.append((measures.ks_distance(mu, lambda x: special.ndtr(x / scale)), mu))
    return out


def _derivative_kernel(config):
    """The config's kernel, which must carry a derivative measure."""
    kernel = kernel_by_id(config.kernel_id)
    if not kernel.has_derivative_measure:
        raise ConfigError("kernel_id", f"{config.experiment} needs a kernel with a "
                                       f"derivative measure; {kernel.kernel_id!r} has none")
    return kernel


def _check_wschebor(config):
    # The check also runs at epsilon/4, which must span the minimum
    # number of steps of the source grid that _occupation_ks builds.
    fine = config.epsilon / 4.0
    lo, hi, n = _occupation_grid(_derivative_kernel(config), fine, config.grid_n)
    if fine < MIN_EPS_OVER_DT * ((hi - lo) / (n - 1)):
        raise ConfigError("grid_n", f"epsilon/4 = {fine:g} is below "
                                    f"{MIN_EPS_OVER_DT:g} steps of a 1/{config.grid_n} "
                                    "grid; raise grid_n or epsilon")


@experiment("wschebor-check",
            "occupation measure of normalized increments against the Gaussian limit",
            reads=("kernel_id", "epsilon", "grid_n", "replicas"), tolerances=("ks_to_phi",),
            check=_check_wschebor)
def run_wschebor_check(config):
    from scipy import special
    kernel = kernel_by_id(config.kernel_id)
    tol = config.tolerance("ks_to_phi", 0.05)
    scale = kernel.norm(2)
    xs = np.linspace(-4.0 * scale, 4.0 * scale, 161)

    def one(i, seed):
        (ks_a, mu), (ks_b, _) = _occupation_ks(
            kernel, (config.epsilon, config.epsilon / 4.0), seed, config.grid_n)
        return ks_a, ks_b, mu.cdf(xs)

    results = run_replicas(one, config.replicas, config.seed, config.threads)
    ks_coarse = np.array([r[0] for r in results])
    ks_fine = np.array([r[1] for r in results])
    cdfs = np.array([r[2] for r in results])
    metrics = [
        metric("ks_to_phi", ks_coarse[0], tol),
        metric("ks_to_phi_median", float(np.median(ks_coarse)), tol),
        metric("median_decreases_at_smaller_eps",
               float(np.median(ks_fine)), float(np.median(ks_coarse)),
               passed=bool(np.median(ks_fine) <= np.median(ks_coarse))),
    ]
    cdf_rows = np.column_stack([xs, cdfs[0], cdfs.mean(axis=0), special.ndtr(xs / scale)])
    tables = {
        "ks_by_replica.csv": [("replica", "ks_eps", "ks_eps_over_4")] + [
            (i, repr(float(a)), repr(float(b)))
            for i, (a, b, _) in enumerate(results)],
        "occupation_cdf.csv": [("x", "cdf_replica_0", "cdf_pooled", "cdf_limit")] + [
            tuple(map(repr, row)) for row in cdf_rows.tolist()],
    }
    return metrics, tables


def _check_bounded_density(config):
    kernel = kernel_by_id(config.kernel_id)
    if spectral.unbounded_at_zero(kernel, config.hurst):
        raise ConfigError("hurst", f"the spectral density of {kernel.kernel_id!r} is "
                                   f"unbounded at 0 for hurst {config.hurst:g} above "
                                   f"its critical index {kernel.critical_hurst:g}")


@experiment("spectral-tables",
            "spectral density and covariance tables with the variance identity",
            reads=("kernel_id", "hurst"), tolerances=("variance_consistency",),
            check=_check_bounded_density)
def run_spectral_tables(config):
    kernel = kernel_by_id(config.kernel_id)
    dens = spectral.spectral_density(kernel, config.hurst)
    lambdas = np.linspace(0.0, 20.0, 201)
    ts = np.linspace(0.0, 4.0, 41)
    # Only a derivative measure gives sigma_sq, a variance independent of the density.
    metrics = []
    if kernel.has_derivative_measure:
        s2 = spectral.sigma_sq(kernel, config.hurst)
        metrics.append(metric("variance_consistency", abs(dens.variance - s2),
                              config.tolerance("variance_consistency", 1e-4)))
    metrics.append(metric("sup_value", dens.sup_value, None, passed=True))
    tables = {
        "density.csv": [("lambda", "density")] + [
            (repr(float(l)), repr(dens.eval(l))) for l in lambdas],
        "covariance.csv": [("t", "covariance")] + [
            (repr(float(t)), repr(spectral.covariance_from_density(dens, t))) for t in ts],
    }
    return metrics, tables


OU_LAGS = (0.0, 1.0, 2.0)


def _check_ou_match(config):
    if config.kernel_id not in ("ou-exp", "ou-bessel"):
        raise ConfigError("kernel_id", "ou-match needs the ou-exp or ou-bessel kernel")
    if config.horizon <= max(OU_LAGS):
        raise ConfigError("horizon", "must exceed the largest checked lag, "
                                     f"{max(OU_LAGS):g}")
    if config.replicas < 2:
        raise ConfigError("replicas", "ou-match needs at least 2 replicas "
                                      "for the standard errors of its checks")


@experiment("ou-match",
            "covariance of the unit-scale process against the OU law, with kernel checks",
            reads=("kernel_id", "horizon", "replicas"), tolerances=("fourier_error",),
            check=_check_ou_match, defaults={"kernel_id": "ou-exp"})
def run_ou_match(config):
    kernel = kernel_by_id(config.kernel_id)
    checks = spectral.verify_ou_match(kernel, OU_LAGS,
                                      replicas=config.replicas,
                                      horizon=config.horizon, seed=config.seed)
    metrics = []
    for c in checks:
        metrics.append(metric(f"cov_dev_lag_{c.lag:g}", c.deviation,
                              4.0 * c.stderr))
    ft_tol = config.tolerance("fourier_error", 1e-6)
    for lam in (0.0, 1.0, 5.0):
        err = abs(abs(mollifiers.fourier(kernel, lam)) - np.sqrt(kernel.fourier_abs2(lam)))
        metrics.append(metric(f"fourier_error_{lam:g}", err, ft_tol))
    dens = spectral.spectral_density(kernel, 0.5)
    cov_err = max(abs(spectral.covariance_from_density(dens, t) - np.exp(-t)) for t in OU_LAGS)
    metrics.append(metric("spectral_cov_error", cov_err, 1e-8))
    tables = {
        "covariance_checks.csv": [("lag", "estimate", "stderr", "target")] + [
            (repr(c.lag), repr(c.estimate), repr(c.stderr), repr(c.target))
            for c in checks],
    }
    return metrics, tables


@experiment("moment-rate",
            "rate function of the time-averaged squared increment process",
            reads=("kernel_id", "hurst"), tolerances=("closed_form_error", "rate_at_variance"),
            check=_check_bounded_density)
def run_moment_rate(config):
    kernel = kernel_by_id(config.kernel_id)
    dens = spectral.spectral_density(kernel, config.hurst)
    xs = [0.5, 0.75, 1.0, 1.5, 2.0]
    curve = ldp.moment_rate(dens, xs)
    metrics = []
    # |psi_hat|^2 of these kernels is |lambda|^(2 h* - 1) times the OU shape
    # 2 / (1 + lambda^2), so their density is the OU density exactly at h*.
    if kernel.kernel_id.startswith(("ou-", "fbm-ou:")) and config.hurst == kernel.critical_hurst:
        closed = [(x + 1.0 / x - 2.0) / 4.0 for x in xs]
        err = max(abs(v - c) for v, c in zip(curve.values, closed))
        metrics.append(metric("closed_form_error", err,
                              config.tolerance("closed_form_error", 1e-6)))
    at_var = ldp.moment_rate(dens, [dens.variance]).values[0]
    metrics.append(metric("rate_at_variance", at_var,
                          config.tolerance("rate_at_variance", 1e-6)))
    second = np.diff(curve.values, 2)
    metrics.append(metric("convexity_defect",
                          float(abs(min(second.min(), 0.0))) if second.size else 0.0,
                          1e-9))
    tables = {
        "rate_curve.csv": [("x", "rate")] + [
            (repr(float(x)), repr(float(v))) for x, v in zip(curve.xs, curve.values)],
    }
    return metrics, tables


@experiment("level-process",
            "characteristic functionals and ball frequencies of the window cloud",
            reads=("epsilon", "t_count", "s_count"), tolerances=("char_functional",))
def run_level_process(config):
    eps = config.epsilon
    s_count = config.s_count

    def cloud_at(epsilon, stream):
        dt = min(epsilon / (s_count - 1), 1.0 / config.t_count)  # base times on nodes
        # Whole steps of dt that cover [0, 1 + epsilon], so the path keeps step dt.
        n = math.ceil((1.0 + epsilon) / dt - 1e-9) + 1
        src = simulate_brownian(n, (n - 1) * dt, seed_split(config.seed, stream))
        return levelproc.extract_cloud(src, epsilon, config.t_count, s_count)

    cloud = cloud_at(eps, 0)
    atom_sets = [
        [(1.0, 1.0)],
        [(0.5, 1.0)],
        [(0.5, 1.0), (1.0, 1.0)],
    ]
    tol = config.tolerance("char_functional", 0.05)
    metrics = []
    rows = [("atoms", "empirical_re", "empirical_im", "limit", "deviation")]
    report_entries = []
    for k, atoms in enumerate(atom_sets):
        emp = levelproc.char_functional(cloud, atoms)
        lim = levelproc.char_functional_limit(atoms)
        dev = abs(emp - lim)
        metrics.append(metric(f"char_dev_{k}", dev, tol))
        rows.append((json.dumps(atoms), repr(emp.real), repr(emp.imag),
                     repr(lim), repr(dev)))
        report_entries.append({
            "atoms": atoms,
            "empirical": [emp.real, emp.imag],
            "limit": lim,
            "deviation": dev,
        })
    ball_eps = 2.0 ** -8
    cloud_b = cloud_at(ball_eps, 1)
    freq = levelproc.l2_ball_frequency(cloud_b, np.zeros(s_count), 1.0)
    s = cloud_b.s_grid  # Brownian covariance min(s, t) at the nodes
    oracle, quad_error = levelproc.gaussian_ball_probability(np.minimum.outer(s, s), s[1], 1.0)
    n_eff = levelproc.effective_snapshot_count(cloud_b)
    se_cloud = np.sqrt(max(freq * (1.0 - freq), 1e-12) / n_eff)
    dev = abs(freq - oracle)
    metrics.append(metric("ball_frequency_dev", dev, 3.0 * se_cloud))
    report = {
        "epsilon": eps,
        "t_count": config.t_count,
        "char_functionals": report_entries,
        "ball": {
            "epsilon": ball_eps,
            "frequency": freq,
            "oracle_probability": oracle,
            "deviation": dev,
            "cloud_stderr": se_cloud,
            "oracle_quad_error": quad_error,
        },
    }
    tables = {"char_functional.csv": rows,
              "levelproc_report.json": report}
    return metrics, tables


def _lag_schedule(config):
    """The schedule `lag_kind` names: "overlog" or "power:gamma=<g>", 0 < g < 1."""
    kind = config.lag_kind
    try:
        if kind == "overlog":
            return dsc.over_log_schedule()
        if kind.startswith("power:gamma="):
            return dsc.power_schedule(float(kind.split("=", 1)[1]))
    except ValueError as exc:  # a malformed number, or ParameterError
        raise ConfigError("lag_kind", f"bad schedule {kind!r}: {exc}")
    raise ConfigError("lag_kind", f"unknown schedule {kind!r}")


def _check_discrete_lag(config):
    if config.replicas > 20:
        raise ConfigError("replicas", "discrete-lag runs at most 20 coupled pairs per size")
    _lag_schedule(config)


@experiment("discrete-lag",
            "sliding-window increment measures with growing lags",
            reads=("lag_kind", "n_discrete", "replicas"), tolerances=("ks_to_phi",),
            check=_check_discrete_lag)
def run_discrete_lag(config):
    from scipy import special
    schedule = _lag_schedule(config)
    n = config.n_discrete
    r = int(schedule.r(n))
    # Windows of lag r overlap, so only about n / r of them are independent.
    tol = config.tolerance("ks_to_phi", measures.ks_critical_value(n / r, alpha=0.05))
    metrics = []
    for idx, (name, gen) in enumerate((("gaussian", dsc.gaussian_innovations),
                                       ("uniform", dsc.uniform_innovations))):
        xs = gen(n + r, seed_split(config.seed, idx))
        ks = measures.ks_distance(dsc.discrete_measure(xs, r), special.ndtr)
        metrics.append(metric(f"ks_to_phi_{name}", ks, tol))
    q = schedule.sqrt_exponent
    metrics.append(metric("gaussian_coupling_regime", q, None, passed=q > 0.0))
    sizes = (n // 16, n)
    meds = []
    for nn in sizes:
        vals = [measures.w1_distance(*dsc.coupled_pair(nn, int(schedule.r(nn)),
                                                       seed_split(config.seed, 100 + i)))
                for i in range(config.replicas)]
        meds.append(float(np.median(vals)))
    # The coupling bounds the distance by 2 omega(1/n) / sqrt(eps_n), which
    # falls like r_n^(-1/2) up to a logarithm: the median must fall that fast.
    rate = float(np.sqrt(schedule.r(sizes[0]) / schedule.r(sizes[1])))
    metrics.append(metric("coupling_median_decreases", meds[1], meds[0] * rate))
    tables = {
        "coupling.csv": [("n", "median_w1")] + [
            (repr(float(nn)), repr(m)) for nn, m in zip(sizes, meds)],
    }
    return metrics, tables


@experiment("stable-marginal",
            "marginal of the stable increment process against the scaled stable law",
            reads=("kernel_id", "family", "hurst", "alpha", "epsilon", "replicas"),
            check=_derivative_kernel)
def run_stable_marginal(config):
    kernel = kernel_by_id(config.kernel_id)
    alpha = config.alpha
    eps = config.epsilon
    desc = ProcessDescriptor(config.family,
                             hurst=config.hurst if config.family == "fbm" else None,
                             alpha=alpha if config.family == "stable" else None)

    # One increment value per replica, all replicas drawn as one batch of paths.
    lo, hi = dpsi_window(kernel, eps, (0.0, eps))
    n = int(round((hi - lo) / (eps / 8.0))) + 1
    src = simulate(desc, n, hi - lo, replica_seeds(config.seed, config.replicas), t_start=lo)
    samples = normalized_increment(src, kernel, eps, window=(0.0, eps)).values[:, 0]

    rng = _rng(seed_split(config.seed, 10 ** 6))
    if config.family == "stable":
        reference = standard_stable(alpha, rng, config.replicas) * kernel.norm(alpha)
    else:
        # Gaussian families: the increment is N(0, sigma^2) exactly, whereas
        # the alpha = 2 stable law would carry variance 2 ||psi||_2^2.
        hurst = config.hurst if config.family == "fbm" else 0.5
        reference = rng.standard_normal(config.replicas) \
            * np.sqrt(spectral.sigma_sq(kernel, hurst))
    mu = measures.EmpiricalMeasure.from_samples(samples)
    nu = measures.EmpiricalMeasure.from_samples(reference)
    ks = measures.ks_two_sample(mu, nu)
    crit = measures.ks_critical_value(config.replicas, config.replicas, alpha=0.01)
    metrics = [metric("two_sample_ks", ks, crit)]
    tables = {
        "marginal_samples.csv": [("simulated", "reference")] + [
            (repr(float(a)), repr(float(b))) for a, b in zip(samples, reference)],
    }
    return metrics, tables


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def run(config, output_dir=None, strict=False):
    """Execute one experiment; write results.json and CSV tables.

    The files are written into a temporary sibling of the output directory
    and moved into place only once all of them are complete, so a run that
    fails leaves no output behind.  A new output directory is renamed into
    place whole; into an existing one each file is moved, replacing the
    file of the same name, and nothing else in it is touched.

    An output path that cannot be a directory raises ConfigError: a path
    or nearest existing ancestor that is not a directory before the
    experiment runs, and a file name of the output that is a directory in
    the existing output directory before any file is moved.

    Returns the exit status (0 ok, 2 failed metric under strict).
    """
    out = Path(output_dir or config.output_dir)
    fn, _ = EXPERIMENTS[config.experiment]
    existing = next((p for p in (out, *out.parents) if p.exists()), out)
    if not existing.is_dir():
        raise ConfigError("output_dir", f"{str(existing)!r} is not a directory")
    started = time.time()
    metrics, tables = fn(config)
    elapsed = time.time() - started
    results = {
        "experiment": config.experiment,
        "parameters": config.to_dict(),
        "metrics": metrics,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    tmp = out.parent / f".{out.name}.{uuid.uuid4().hex}.tmp"
    tmp.mkdir()
    try:
        _write_outputs(tmp, results, elapsed, tables)
        if out.exists():
            names = sorted(p.name for p in tmp.iterdir())
            for name in names:
                if (out / name).is_dir():
                    raise ConfigError("output_dir", f"{str(out / name)!r} is a directory")
            for name in names:
                os.replace(tmp / name, out / name)
            tmp.rmdir()
        else:
            os.rename(tmp, out)
    finally:
        if tmp.exists():
            shutil.rmtree(tmp)
    ok = all(m["pass"] for m in metrics)
    return 0 if (ok or not strict) else 2


def _write_outputs(out, results, elapsed, tables):
    """Write the outputs; a NaN or inf bound for a JSON file raises ValueError."""
    with open(out / "results.json", "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    with open(out / "timing.json", "w") as fh:
        json.dump({"seconds": elapsed}, fh, allow_nan=False)
        fh.write("\n")
    for name, rows in tables.items():
        if name.endswith(".json"):
            with open(out / name, "w") as fh:
                json.dump(rows, fh, indent=2, sort_keys=True, allow_nan=False)
                fh.write("\n")
            continue
        with open(out / name, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)


def list_experiments(as_json=False):
    if as_json:
        return json.dumps({name: {"description": desc,
                                  "fields": sorted(SPECS[name].reads),
                                  "tolerances": sorted(SPECS[name].tolerances)}
                           for name, (_, desc) in EXPERIMENTS.items()},
                          indent=2, sort_keys=True)
    lines = [f"{name}: {desc}" for name, (_, desc) in sorted(EXPERIMENTS.items())]
    return "\n".join(lines)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="wschebor",
        description="Numerical experiments on occupation measures of small increments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("--config", required=True, help="path to a JSON config file")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--replicas", type=int, default=None,
                       help="override the replica count")
    p_run.add_argument("--threads", type=int, default=None,
                       help="override the worker-thread count")
    p_run.add_argument("--output", default=None, help="override the output directory")
    p_run.add_argument("--strict", action="store_true",
                       help="exit nonzero when any acceptance check fails")

    p_list = sub.add_parser("list", help="list available experiments")
    p_list.add_argument("--json", action="store_true", help="machine-readable listing")
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        try:
            print(list_experiments(as_json=args.json), flush=True)
        except BrokenPipeError:  # the reader left early, as `| head -1` does
            # Point stdout at devnull so that the flush at exit cannot fail again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        return 0
    overrides = {"seed": args.seed, "replicas": args.replicas, "threads": args.threads}
    try:
        with open(args.config) as fh:
            payload = json.load(fh)
        if isinstance(payload, dict):
            payload.update((k, v) for k, v in overrides.items() if v is not None)
        config = ExperimentConfig.from_dict(payload)
    except (OSError, ValueError) as exc:  # ConfigError and JSON decoding are ValueErrors
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return run(config, output_dir=args.output, strict=args.strict)
    except ConfigError as exc:  # an output path that cannot be a directory
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except WscheborError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # exit code 3, never a traceback
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
