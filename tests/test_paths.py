import numpy as np
import pytest

from wschebor.errors import ParameterError, SynthesisError
from wschebor.measures import ks_critical_value, ks_two_sample, EmpiricalMeasure
from wschebor.paths import (
    GridPath,
    ProcessDescriptor,
    fbm_covariance,
    fgn_batch,
    simulate,
    simulate_brownian,
    simulate_fbm,
    simulate_stable,
    standard_stable,
)


def fbm_batch(hurst, n, horizon, seed, replicas):
    """Stack of independent fBm paths, shape (replicas, n); one seed drives all."""
    fgn = fgn_batch(n - 1, hurst, np.random.Generator(np.random.PCG64(seed)), replicas)
    paths = np.concatenate([np.zeros((replicas, 1)), np.cumsum(fgn, axis=1)], axis=1)
    return paths * (horizon / (n - 1)) ** hurst


def test_brownian_minimal_grid():
    p = simulate_brownian(2, 1.0, 7)
    assert p.values[0] == 0.0
    assert len(p) == 2
    assert p.dt == 1.0


def test_brownian_terminal_variance_chi2_band():
    # Var of a variance estimate over R chi-square samples is 2/R.
    finals = np.array([simulate_brownian(64, 1.0, s).values[-1] for s in range(10_000)])
    assert abs(finals.var() - 1.0) <= 3.0 * np.sqrt(2.0) / 100.0


def test_brownian_determinism():
    a = simulate_brownian(4096, 1.0, 123)
    b = simulate_brownian(4096, 1.0, 123)
    assert np.array_equal(a.values, b.values)
    c = simulate_brownian(4096, 1.0, 124)
    assert not np.array_equal(a.values, c.values)


def test_brownian_rejects_bad_grid():
    with pytest.raises(ParameterError):
        simulate_brownian(1, 1.0, 0)
    with pytest.raises(ParameterError):
        simulate_brownian(16, 0.0, 0)
    with pytest.raises(ParameterError):
        simulate_brownian(16, -2.0, 0)


def test_stable_rejects_alpha_outside_domain():
    for alpha in (0.0, -1.0, 2.5):
        with pytest.raises(ParameterError):
            simulate_stable(alpha, 16, 1.0, 0)


def test_stable_alpha2_is_gaussian_variance_two():
    # Characteristic function exp(-t |theta|^2), i.e. variance 2t: the
    # library's documented stable scale convention.
    rng = np.random.default_rng(0)
    x = standard_stable(2.0, rng, 200_000)
    assert abs(x.var() - 2.0) < 0.03
    assert abs(x.mean()) < 0.02


def test_stable_characteristic_function():
    rng = np.random.default_rng(1)
    for alpha in (0.7, 1.0, 1.5):
        x = standard_stable(alpha, rng, 150_000)
        for theta in (0.5, 1.0, 2.0):
            emp = np.mean(np.cos(theta * x))
            assert abs(emp - np.exp(-theta ** alpha)) < 0.01


def test_stable_self_similarity_two_sample():
    # S(2t)/2^(1/alpha) versus S(t): exact in law; KS below the 1% critical value.
    alpha, t, n_seeds = 1.5, 0.5, 10_000
    a_samples = np.empty(n_seeds)
    b_samples = np.empty(n_seeds)
    for s in range(n_seeds):
        p = simulate_stable(alpha, 5, 2 * t, s)
        a_samples[s] = p.values[-1] / 2.0 ** (1.0 / alpha)
        b_samples[s] = p.values[2]
    # independent second batch for the plain marginal
    for s in range(n_seeds):
        p = simulate_stable(alpha, 5, t, n_seeds + s)
        b_samples[s] = p.values[-1]
    mu = EmpiricalMeasure.from_samples(a_samples)
    nu = EmpiricalMeasure.from_samples(b_samples)
    assert ks_two_sample(mu, nu) < ks_critical_value(n_seeds, n_seeds, alpha=0.01)


@pytest.mark.parametrize("family,extra", [
    ("brownian", {}),
    ("stable", {"alpha": 1.5}),
    ("fbm", {"hurst": 0.7}),
])
@pytest.mark.parametrize("a", [2.0, 4.0])
def test_self_similarity_marginals(family, extra, a):
    t = 0.25
    n_seeds = 4000
    desc = ProcessDescriptor(family, **extra)
    h = desc.self_similarity_index
    scaled_samples = np.empty(n_seeds)
    plain = np.empty(n_seeds)
    for s in range(n_seeds):
        p = simulate(desc, 5, a * t, s)
        scaled_samples[s] = p.values[-1] / a ** h
        q = simulate(desc, 5, t, 10 ** 6 + s)
        plain[s] = q.values[-1]
    d = ks_two_sample(EmpiricalMeasure.from_samples(scaled_samples),
                      EmpiricalMeasure.from_samples(plain))
    assert d < ks_critical_value(n_seeds, n_seeds, alpha=0.01)


@pytest.mark.parametrize("family,extra", [
    ("brownian", {}),
    ("stable", {"alpha": 1.5}),
    ("fbm", {"hurst": 0.3}),
])
def test_stationary_increments(family, extra):
    h_lag, n_seeds = 0.25, 4000
    desc = ProcessDescriptor(family, **extra)
    at0 = np.empty(n_seeds)
    at3 = np.empty(n_seeds)
    for s in range(n_seeds):
        p = simulate(desc, 45, 1.1, s)  # dt = 1.1/44 = 0.025
        i0 = p.node_index(0.0)
        i1 = p.node_index(h_lag)
        at0[s] = p.values[i1] - p.values[i0]
        j0 = p.node_index(0.3)
        j1 = p.node_index(0.3 + h_lag)
        at3[s] = p.values[j1] - p.values[j0]
    d = ks_two_sample(EmpiricalMeasure.from_samples(at0),
                      EmpiricalMeasure.from_samples(at3))
    assert d < ks_critical_value(n_seeds, n_seeds, alpha=0.01)


@pytest.mark.parametrize("hurst", [0.3, 0.5, 0.7])
def test_fbm_covariance_matrix(hurst):
    replicas = 10_000
    ts = np.arange(1, 9) / 8.0
    paths = fbm_batch(hurst, 9, 1.0, 99, replicas)[:, 1:]
    emp = paths.T @ paths / replicas
    theo = fbm_covariance(ts[:, None], ts[None, :], hurst)
    se = np.sqrt((np.outer(np.diag(theo), np.diag(theo)) + theo ** 2) / replicas)
    assert np.max(np.abs(emp - theo) / se) < 5.0


def test_fbm_single_matches_batch():
    single = simulate_fbm(0.7, 65, 1.0, 5)
    batch = fbm_batch(0.7, 65, 1.0, 5, 1)
    assert np.allclose(single.values, batch[0])


def test_fbm_half_is_brownian_covariance():
    replicas = 10_000
    paths = fbm_batch(0.5, 11, 1.0, 3, replicas)
    s_idx, t_idx = 3, 7  # s = 0.3, t = 0.7
    cov = np.mean(paths[:, s_idx] * paths[:, t_idx])
    assert abs(cov - 0.3) < 4.0 * np.sqrt(0.3 * 0.7 * 2.0 / replicas + 0.09 / replicas)


def test_fbm_variance_at_one():
    paths = fbm_batch(0.7, 9, 1.0, 11, 10_000)
    assert abs(paths[:, -1].var() - 1.0) <= 3.0 * np.sqrt(2.0) / 100.0


def test_fbm_midpoint_covariance_low_hurst():
    replicas = 20_000
    paths = fbm_batch(0.3, 5, 1.0, 21, replicas)
    cov = np.mean(paths[:, 1] * paths[:, 3])  # s = 0.25, t = 0.75
    target = 0.5 * (0.25 ** 0.6 + 0.75 ** 0.6 - 0.5 ** 0.6)
    assert abs(cov - target) < 0.02


def test_fbm_rejects_bad_hurst():
    for h in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ParameterError):
            simulate_fbm(h, 16, 1.0, 0)


@pytest.mark.parametrize("m, hurst", [(2 ** 18, 0.995), (2 ** 18, 0.9999), (65_537, 0.9999)])
def test_circulant_embedding_nonnegative_near_one(m, hurst):
    # Theory makes the embedding nonnegative definite for every H; these are
    # the cases where the naive autocovariance cancelled to below -1e-10.
    import wschebor.paths as paths_mod
    eig = paths_mod._circulant_eigenvalues(m, hurst)
    assert np.min(eig) / np.max(eig) >= -1e-10


def test_fgn_negative_spectrum_raises(monkeypatch):
    import wschebor.paths as paths_mod
    real = paths_mod._circulant_eigenvalues
    monkeypatch.setattr(paths_mod, "_circulant_eigenvalues",
                        lambda m, h: real(m, h) - 1e3)
    with pytest.raises(SynthesisError):
        fgn_batch(8, 0.7, np.random.default_rng(0), replicas=4)


def test_descriptor_consistency():
    assert ProcessDescriptor("brownian").self_similarity_index == 0.5
    assert ProcessDescriptor("stable", alpha=1.6).self_similarity_index == 1 / 1.6
    assert ProcessDescriptor("fbm", hurst=0.3).self_similarity_index == 0.3
    with pytest.raises(ParameterError):
        ProcessDescriptor("fbm")
    with pytest.raises(ParameterError):
        ProcessDescriptor("stable", alpha=3.0)
    with pytest.raises(ParameterError):
        ProcessDescriptor("poisson")


def test_gridpath_interpolation_and_restriction():
    p = GridPath(0.0, 0.25, np.array([0.0, 1.0, 0.0, 2.0, 4.0]))
    assert p.value_at(0.125) == 0.5
    assert p.value_at(0.75) == 2.0
    sub = p.restricted(0.25, 0.75)
    assert sub.t_start == 0.25
    assert np.array_equal(sub.values, [1.0, 0.0, 2.0])
    with pytest.raises(ParameterError):
        p.value_at(1.5)
