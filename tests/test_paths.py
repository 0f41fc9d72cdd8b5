import numpy as np
import pytest

from wschebor.errors import ParameterError, SynthesisError
from wschebor.measures import ks_critical_value, ks_two_sample, EmpiricalMeasure
from wschebor.paths import (
    GridPath,
    ProcessDescriptor,
    brownian_paths,
    fbm_covariance,
    fgn_batch,
    replica_seeds,
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


def _reference_brownian(n, horizon, seed):
    """Values of a Brownian path drawn and summed in one go."""
    dt = horizon / (n - 1)
    incs = np.random.Generator(np.random.PCG64(seed)).standard_normal(n - 1) * np.sqrt(dt)
    return np.concatenate(([0.0], np.cumsum(incs)))


@pytest.mark.parametrize("n, horizon", [(2, 1.0), (4097, 1.0), (1043, 1.043), (5001, 5.0)])
def test_brownian_matches_reference_draw(n, horizon):
    p = simulate_brownian(n, horizon, 11, t_start=-0.25)
    assert np.array_equal(p.values.view(np.int64),
                          _reference_brownian(n, horizon, 11).view(np.int64))
    assert p.t_start == -0.25 and p.dt == horizon / (n - 1)


def test_brownian_grids_match_separate_draws():
    # Grids with equal and with different steps, the longest one in the middle.
    grids = [(1001, 1.0, 0.0), (1203, 1.203, -0.102), (1026, 1.025, -0.017), (2, 0.5, 3.0)]
    paths = brownian_paths(grids, 42)
    for (n, horizon, t_start), p in zip(grids, paths):
        alone = simulate_brownian(n, horizon, 42, t_start)
        assert np.array_equal(p.values.view(np.int64), alone.values.view(np.int64))
        assert (p.t_start, p.dt) == (alone.t_start, alone.dt)
        assert p.process == alone.process


@pytest.mark.parametrize("family,extra", [
    ("brownian", {}),
    ("stable", {"alpha": 0.8}),
    ("stable", {"alpha": 1.0}),
    ("stable", {"alpha": 1.5}),
    ("stable", {"alpha": 2.0}),
    ("fbm", {"hurst": 0.3}),
    ("fbm", {"hurst": 0.5}),
    ("fbm", {"hurst": 0.7}),
])
@pytest.mark.parametrize("n", [2, 17, 65, 1025])
def test_batched_rows_match_one_seed_paths(family, extra, n):
    desc = ProcessDescriptor(family, **extra)
    seeds = replica_seeds(3, 9)
    batch = simulate(desc, n, 1.7, seeds, t_start=-0.3)
    assert batch.values.shape == (len(seeds), n) and len(batch) == n
    for k, seed in enumerate(seeds):
        alone = simulate(desc, n, 1.7, seed, t_start=-0.3)
        assert np.array_equal(batch.values[k].view(np.int64), alone.values.view(np.int64))
        assert (batch.t_start, batch.dt, batch.t_end, batch.process) \
            == (alone.t_start, alone.dt, alone.t_end, alone.process)


def test_stable_alpha_one_consumes_the_exponentials():
    # The tan branch still draws the exponentials, so the stream after a
    # draw does not depend on alpha.
    at_one, at_other = np.random.default_rng(4), np.random.default_rng(4)
    standard_stable(1.0, at_one, 16)
    standard_stable(1.5, at_other, 16)
    assert at_one.random() == at_other.random()


def test_batched_gridpath_accessors_act_on_time():
    rows = np.array([[0.0, 1.0, 0.0, 2.0, 4.0], [0.0, -1.0, 3.0, 1.0, 0.0]])
    p = GridPath(0.0, 0.25, rows)
    assert len(p) == 5 and p.t_end == 1.0
    assert np.array_equal(p.value_at(0.125), [0.5, -0.5])
    assert np.array_equal(p.value_at([0.0, 0.75]), [[0.0, 2.0], [0.0, 1.0]])
    sub = p.restricted(0.25, 0.75)
    assert sub.t_start == 0.25 and np.array_equal(sub.values, rows[:, 1:4])
    with pytest.raises(ParameterError):
        GridPath(0.0, 0.25, rows[:, :1])


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


@pytest.mark.parametrize("m, hurst", [(8, 0.7), (1000, 0.3), (4096, 0.85)])
def test_fgn_cached_spectrum_keeps_draws(m, hurst):
    # The spectrum is built once per (m, hurst); draws match a fresh build bit for bit.
    import wschebor.paths as paths_mod
    eig = np.clip(paths_mod._circulant_eigenvalues(m, hurst), 0.0, None)
    rng = np.random.Generator(np.random.PCG64(9))
    a, b = rng.standard_normal((2, 3, eig.size))
    spec = np.empty((3, eig.size), dtype=complex)
    spec[:, 0], spec[:, -1] = a[:, 0], a[:, -1]
    spec[:, 1:-1] = (a[:, 1:-1] + 1j * b[:, 1:-1]) / np.sqrt(2.0)
    mm = 2 * (m - 1)
    reference = np.fft.irfft(np.sqrt(eig) * spec, n=mm, axis=1)[:, :m] * np.sqrt(mm)
    for _ in range(2):
        draws = fgn_batch(m, hurst, np.random.Generator(np.random.PCG64(9)), replicas=3)
        assert np.array_equal(draws.view(np.int64), reference.view(np.int64))
    assert not paths_mod._circulant_sqrt_eigenvalues(m, hurst).flags.writeable


def test_fgn_negative_spectrum_raises(monkeypatch):
    import wschebor.paths as paths_mod
    real = paths_mod._circulant_eigenvalues
    monkeypatch.setattr(paths_mod, "_circulant_eigenvalues",
                        lambda m, h: real(m, h) - 1e3)
    # A spectrum cached by an earlier draw at this (m, hurst) would hide the patch.
    paths_mod._circulant_sqrt_eigenvalues.cache_clear()
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
