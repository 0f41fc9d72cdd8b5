"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s or -rA)
and asserts the criterion.  Monte Carlo criteria fix their seeds; the
underlying statements are almost-sure or in-probability limits, so a
fixed-seed run is a valid instance of each.
"""

import json
import time

import numpy as np
import pytest
from scipy import integrate, stats

from wschebor.cli import ExperimentConfig, run, seed_split
from wschebor.discrete import (
    coupled_pair,
    coupling_distance,
    discrete_measure,
    gaussian_innovations,
    over_log_schedule,
    power_schedule,
    uniform_innovations,
)
from wschebor.increments import dpsi_window, normalized_increment, unit_scale_process
from wschebor.ldp import moment_rate
from wschebor.levelproc import (
    char_functional,
    char_functional_limit,
    effective_snapshot_count,
    extract_cloud,
    gaussian_ball_probability,
    l2_ball_frequency,
)
from wschebor.measures import (
    EmpiricalMeasure,
    ks_critical_value,
    ks_distance,
    ks_two_sample,
    occupation_measure,
)
from wschebor.mollifiers import (
    bessel_k0,
    fourier,
    kernel_by_id,
    kernel_ou_bessel,
    kernel_ou_exponential,
    kernel_psi1,
    kernel_psi2,
)
from wschebor.paths import (
    fbm_covariance,
    fgn_batch,
    simulate_brownian,
    simulate_stable,
    standard_stable,
)
from wschebor.spectral import (
    covariance_from_density,
    sigma_sq,
    spectral_density,
    unbounded_at_zero,
    verify_ou_match,
)

PHI = stats.norm.cdf


def report(number, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} {label}: {detail} ... {status}")
    assert ok, f"criterion {number} ({label}): {detail}"


def _brownian_increment_ks(kernel, eps, seed, grid_n):
    lo, hi = dpsi_window(kernel, eps, (0.0, 1.0))
    n = int(round((hi - lo) * grid_n)) + 1
    src = simulate_brownian(n, hi - lo, seed, t_start=lo)
    x = normalized_increment(src, kernel, eps, window=(0.0, 1.0))
    mu = occupation_measure(x)
    scale = kernel.norm(2)
    return ks_distance(mu, lambda v: PHI(v / scale))


def test_01_small_increment_lln():
    started = time.monotonic()
    kernel = kernel_psi1()
    ks_single = _brownian_increment_ks(kernel, 2.0 ** -10, 2024, 2 ** 20)
    med_coarse = np.median([_brownian_increment_ks(kernel, 2.0 ** -10, s, 2 ** 20)
                            for s in range(20)])
    med_fine = np.median([_brownian_increment_ks(kernel, 2.0 ** -12, s, 2 ** 20)
                          for s in range(20)])
    elapsed = time.monotonic() - started
    ok = ks_single <= 0.05 and med_fine < med_coarse and elapsed <= 60.0
    report(1, "small-increment LLN",
           ok,
           f"KS={ks_single:.4f}<=0.05, medians {med_coarse:.4f}->{med_fine:.4f} "
           f"decreasing, {elapsed:.1f}s<=60s")


def test_02_mollified_lln_exponential_kernel():
    kernel = kernel_ou_exponential()
    assert abs(kernel.norm(2) - 1.0) < 1e-9
    ks = _brownian_increment_ks(kernel, 2.0 ** -10, 2024, 2 ** 20)
    report(2, "mollified LLN (exponential kernel)",
           ks <= 0.05, f"KS={ks:.4f}<=0.05 with unit L2 norm")


def test_03_slepian_covariance():
    lags = (0.0, 0.25, 0.5, 0.75, 1.0, 2.0)
    dt = 1.0 / 256
    reps = 200
    est = np.empty((reps, len(lags)))
    for rep in range(reps):
        w = simulate_brownian(int(51.0 / dt) + 1, 51.0, 5000 + rep)
        y = unit_scale_process(w, kernel_psi1(), window=(0.0, 49.0))
        v = y.values
        for j, lag in enumerate(lags):
            k = round(lag / y.dt)
            est[rep, j] = np.mean(v[:v.size - k] * v[k:])
    mean = est.mean(axis=0)
    se = est.std(axis=0, ddof=1) / np.sqrt(reps)
    target = np.array([max(0.0, 1.0 - abs(t)) for t in lags])
    devs = np.abs(mean - target)
    ok = bool(np.all(devs <= 4.0 * se))
    report(3, "Slepian covariance",
           ok, "max dev/se = {:.2f} over lags {}".format(np.max(devs / se), lags))


def test_04_ou_match():
    checks = verify_ou_match(kernel_ou_exponential(), [0.0, 1.0, 2.0],
                             replicas=200, horizon=50.0, seed=0)
    cov_ok = all(c.deviation <= 4.0 * c.stderr for c in checks)
    ft_errs = []
    kb = kernel_ou_bessel()
    for lam in (0.0, 1.0, 5.0):
        target = np.sqrt(2.0) / np.sqrt(1.0 + lam ** 2)
        ft_errs.append(abs(abs(fourier(kb, lam)) - target))
    ft_ok = max(ft_errs) <= 1e-6
    oracle, _ = integrate.quad(lambda l: 1.0 / np.sqrt(1.0 + l * l), 0.0, np.inf,
                               weight="cos", wvar=1.0, limit=800)
    k0_ok = abs(bessel_k0(1.0) - oracle) <= 1e-9 \
        and abs(bessel_k0(1.0) - 0.42102443824) <= 1e-9
    report(4, "Ornstein-Uhlenbeck match",
           cov_ok and ft_ok and k0_ok,
           f"cov within 4se={cov_ok}, max FT err={max(ft_errs):.2e}<=1e-6, "
           f"K0(1) err={abs(bessel_k0(1.0) - oracle):.2e}<=1e-9")


def test_05_moment_rate_closed_form():
    started = time.monotonic()
    dens = spectral_density(kernel_ou_exponential(), 0.5)
    xs = [0.5, 1.0, 2.0]
    curve = moment_rate(dens, xs)
    closed = [(x + 1.0 / x - 2.0) / 4.0 for x in xs]
    errs = [abs(v - c) for v, c in zip(curve.values, closed)]
    at_var = moment_rate(dens, [sigma_sq(kernel_ou_exponential(), 0.5)]).values[0]
    elapsed = time.monotonic() - started
    ok = max(errs) <= 1e-6 and at_var <= 1e-6 and elapsed <= 10.0
    report(5, "moment rate closed form",
           ok, f"max err={max(errs):.2e}<=1e-6, I(var)={at_var:.2e}, {elapsed:.1f}s<=10s")


def test_07_quadratic_form_variances():
    s1 = sigma_sq(kernel_psi1(), 0.5)
    s2 = sigma_sq(kernel_psi2(), 0.5)
    exact_ok = (s1 == 1.0) and (s2 == 0.5)
    devs = []
    for kernel, s in ((kernel_psi1(), s1), (kernel_psi2(), s2)):
        dens = spectral_density(kernel, 0.5)
        devs.append(abs(covariance_from_density(dens, 0.0) - s))
    ok = exact_ok and max(devs) <= 1e-4
    report(7, "variance identities",
           ok, f"atom sums exact ({s1}, {s2}); max |r(0)-sigma2|={max(devs):.2e}<=1e-4")


def test_08_class_membership():
    # A kernel is admissible at H when its spectral density is bounded at 0,
    # that is when H <= h*.  A zero-mean kernel (h* > 1/2) with finite
    # support is admissible at every H.
    hs = [round(0.1 * k, 1) for k in range(1, 10)]
    kernels = [kernel_by_id(kid) for kid in ("psi1", "psi2", "triangle", "ou-exp")]
    zero_mean = [k for k in kernels
                 if k.critical_hurst > 0.5 and np.all(np.isfinite(k.support))]
    implication = all(not unbounded_at_zero(k, h) for k in zero_mean for h in hs)
    psi2 = kernel_psi2()
    ok = unbounded_at_zero(kernel_psi1(), 0.7) \
        and not any(unbounded_at_zero(psi2, h) for h in hs) \
        and [k.kernel_id for k in zero_mean] == ["psi2"] and implication
    report(8, "kernel class membership",
           ok, "indicator kernel rejected at H=0.7, second-difference kernel "
               "admissible everywhere, zero-mean implication holds")


def test_09_stable_marginal():
    alpha, eps, n_samp = 1.5, 2.0 ** -10, 10_000
    kernel = kernel_psi1()
    lo, hi = dpsi_window(kernel, eps, (0.0, eps))
    dt = eps / 8.0
    n = int(round((hi - lo) / dt)) + 1
    samples = np.empty(n_samp)
    for i in range(n_samp):
        src = simulate_stable(alpha, n, hi - lo, seed_split(11, i), t_start=lo)
        samples[i] = normalized_increment(src, kernel, eps,
                                          window=(0.0, eps)).values[0]
    rng = np.random.Generator(np.random.PCG64(seed_split(11, 10 ** 7)))
    ref = standard_stable(alpha, rng, n_samp) * kernel.norm(alpha)
    d = ks_two_sample(EmpiricalMeasure.from_samples(samples),
                      EmpiricalMeasure.from_samples(ref))
    crit = ks_critical_value(n_samp, n_samp, alpha=0.01)
    report(9, "stable increment marginal",
           d < crit, f"two-sample KS={d:.4f} < {crit:.4f} (1% critical)")


def test_10_scaling_reduction():
    eps = 2.0 ** -6
    per_path = 32
    n_paths = 313
    small, large = [], []
    for i in range(n_paths):
        w = simulate_brownian(int((1 + eps) * 1024) + 1, 1.0 + eps, seed_split(21, i))
        x = normalized_increment(w, kernel_psi1(), eps)
        small.extend(x.values[:: round(2 * eps / x.dt)][:per_path])
        w2 = simulate_brownian(int(65.0 * 16) + 1, 65.0, seed_split(22, i))
        y = unit_scale_process(w2, kernel_psi1(), window=(0.0, 64.0))
        large.extend(y.values[:: round(2.0 / y.dt)][:per_path])
    d = ks_two_sample(EmpiricalMeasure.from_samples(np.array(small)),
                      EmpiricalMeasure.from_samples(np.array(large)))
    crit = ks_critical_value(len(small), len(large), alpha=0.01)
    report(10, "scaling reduction",
           d < crit,
           f"two-sample KS={d:.4f} < {crit:.4f} over {len(small)} samples each")


def test_11_level_process():
    eps = 2.0 ** -10
    s_count = 33
    dt = eps / (s_count - 1)
    src = simulate_brownian(int(round((1 + eps) / dt)) + 1, 1.0 + eps, 31415)
    cloud = extract_cloud(src, eps, 2 ** 14, s_count)
    cases = [
        ([(1.0, 1.0)], np.exp(-0.5)),
        ([(0.5, 1.0)], np.exp(-0.25)),
        ([(0.5, 1.0), (1.0, 1.0)], np.exp(-1.25)),
    ]
    devs = []
    for atoms, exact in cases:
        assert abs(char_functional_limit(atoms) - exact) < 1e-15
        devs.append(abs(char_functional(cloud, atoms) - exact))
    char_ok = max(devs) <= 0.05

    # Source step 1/t_count = 2^-14, so every ball window's times are nodes.
    ball_eps = 2.0 ** -8
    src_b = simulate_brownian(int(round((1 + ball_eps) * 2 ** 14)) + 1,
                              1.0 + ball_eps, 999)
    cloud_b = extract_cloud(src_b, ball_eps, 2 ** 14, s_count)
    freq = l2_ball_frequency(cloud_b, np.zeros(s_count), 1.0)
    s = cloud_b.s_grid
    oracle, quad_error = gaussian_ball_probability(np.minimum.outer(s, s), s[1], 1.0)
    se_cloud = np.sqrt(freq * (1 - freq) / effective_snapshot_count(cloud_b))
    ball_dev = abs(freq - oracle)
    ball_ok = ball_dev <= 3.0 * se_cloud and quad_error < 1e-7
    report(11, "level process",
           char_ok and ball_ok,
           f"char devs={[f'{d:.3f}' for d in devs]}<=0.05, "
           f"ball dev={ball_dev:.4f}<=3*{se_cloud:.4f} (exact P={oracle:.6f})")


def test_12_discrete_lag():
    n = 2 ** 18
    r = int(n ** 0.6)
    ks_vals = {}
    for name, gen in (("gaussian", gaussian_innovations),
                      ("uniform", uniform_innovations)):
        xs = gen(n + r, 0)
        ks_vals[name] = ks_distance(discrete_measure(xs, r), PHI)
    ks_ok = max(ks_vals.values()) <= 0.05

    schedules_ok = power_schedule(0.6).sqrt_exponent > 0.0 \
        and over_log_schedule().sqrt_exponent > 0.0 \
        and power_schedule(0.5).sqrt_exponent <= 0.0

    meds = []
    for nn in (2 ** 14, 2 ** 18):
        vals = []
        for i in range(20):
            m_n, mu = coupled_pair(nn, int(nn ** 0.6), seed_split(31, i), oversample=4)
            vals.append(coupling_distance(m_n, mu))
        meds.append(float(np.median(vals)))
    coupling_ok = meds[1] <= meds[0]
    report(12, "discrete lag",
           ks_ok and schedules_ok and coupling_ok,
           f"KS={ {k: round(v, 4) for k, v in ks_vals.items()} }<=0.05, "
           f"schedules ok={schedules_ok}, coupling medians {meds[0]:.2e}->{meds[1]:.2e}")


def test_13_fbm_generator():
    replicas = 10_000
    ts = np.arange(1, 9) / 8.0
    worst = 0.0
    for hurst in (0.3, 0.7):
        fgn = fgn_batch(8, hurst, np.random.Generator(np.random.PCG64(99)), replicas)
        paths = np.cumsum(fgn, axis=1) * (1.0 / 8.0) ** hurst
        emp = paths.T @ paths / replicas
        theo = fbm_covariance(ts[:, None], ts[None, :], hurst)
        se = np.sqrt((np.outer(np.diag(theo), np.diag(theo)) + theo ** 2) / replicas)
        worst = max(worst, float(np.max(np.abs(emp - theo) / se)))
    report(13, "fBm generator covariance",
           worst < 5.0, f"max |err|/se = {worst:.2f} < 5 at H in (0.3, 0.7)")


FAST_CONFIGS = {
    "wschebor-check": {"grid_n": 2 ** 13, "replicas": 2, "epsilon": 2.0 ** -7},
    "spectral-tables": {"kernel_id": "ou-exp"},
    "ou-match": {"kernel_id": "ou-exp", "replicas": 8, "horizon": 25.0},
    "moment-rate": {"kernel_id": "ou-exp"},
    "level-process": {"t_count": 2 ** 10, "epsilon": 2.0 ** -6},
    "discrete-lag": {"n_discrete": 2 ** 13, "replicas": 3},
    "stable-marginal": {"family": "stable", "alpha": 1.5, "replicas": 400},
}


def test_14_determinism(tmp_path):
    mismatches = []
    for name, overrides in sorted(FAST_CONFIGS.items()):
        blobs = []
        for tag, threads in (("a", 1), ("b", 1), ("c", 8)):
            cfg = ExperimentConfig.from_dict(
                {"experiment": name, "seed": 7, **overrides, "threads": threads})
            out = tmp_path / name / tag
            run(cfg, output_dir=out)
            payload = {}
            for p in sorted(out.iterdir()):
                if p.name == "timing.json":
                    continue
                raw = p.read_bytes()
                if p.name == "results.json":
                    body = json.loads(raw)
                    body["parameters"].pop("threads", None)
                    raw = json.dumps(body, sort_keys=True).encode()
                payload[p.name] = raw
            blobs.append(payload)
        if not (blobs[0] == blobs[1] == blobs[2]):
            mismatches.append(name)
    report(14, "determinism",
           not mismatches,
           "byte-identical outputs across reruns and thread counts "
           f"{{1, 8}} for all experiments (mismatches: {mismatches or 'none'})")
