import warnings

import numpy as np
import pytest
from scipy import special

from wschebor.errors import ParameterError, ResolutionError
from wschebor.levelproc import (
    _quadratic_form_cdf,
    char_functional,
    char_functional_limit,
    effective_snapshot_count,
    extract_cloud,
    gaussian_ball_probability,
    l2_ball_frequency,
    trapezoid_l2_distance,
)
from wschebor.measures import EmpiricalMeasure, ks_critical_value, ks_two_sample
from wschebor.paths import fbm_covariance, simulate_brownian

S_COUNT = 33
S_GRID = np.linspace(0.0, 1.0, S_COUNT)
BROWNIAN_COV = np.minimum.outer(S_GRID, S_GRID)


def monte_carlo_ball_probability(cov, radius, n_paths, seed):
    """Independent Monte Carlo reference for P(||X||_L2 < radius) on the S_GRID nodes.

    X is centred Gaussian with covariance `cov` at the nodes, sampled through
    the Cholesky factor of its nonzero block (X(0) = 0); the squared norm is
    the trapezoid sum written out here.  Returns (estimate, binomial stderr).
    """
    factor = np.linalg.cholesky(cov[1:, 1:])
    rng = np.random.Generator(np.random.PCG64(seed))
    ds = S_GRID[1]
    hits = 0
    for start in range(0, n_paths, 50_000):  # 50 000 paths at a time bound the memory
        x = rng.standard_normal((min(50_000, n_paths - start), S_COUNT - 1)) @ factor.T
        sq = ds * (np.sum(x[:, :-1] ** 2, axis=1) + 0.5 * x[:, -1] ** 2)
        hits += int(np.count_nonzero(sq < radius * radius))
    p = hits / n_paths
    return p, float(np.sqrt(p * (1.0 - p) / n_paths))


def _cloud(eps, t_count, seed, s_count=S_COUNT):
    # The rule of cli.run_level_process: base times fall on source nodes.
    dt = min(eps / (s_count - 1), 1.0 / t_count)
    n = int(round((1.0 + eps) / dt)) + 1
    src = simulate_brownian(n, 1.0 + eps, seed)
    return extract_cloud(src, eps, t_count, s_count)


class TestExtraction:
    def test_unit_scale_first_snapshot_is_the_path(self):
        src = simulate_brownian(2 ** 10 + 1, 2.0, 7)
        cloud = extract_cloud(src, 1.0, 4, S_COUNT)
        manual = src.value_at(np.linspace(0.0, 1.0, S_COUNT))
        assert np.max(np.abs(cloud.snapshots[0] - manual)) < 1e-14
        assert np.all(cloud.snapshots[:, 0] == 0.0)

    def test_final_coordinate_variance(self):
        cloud = _cloud(2.0 ** -6, 2 ** 12, 11)
        # snapshots are eps-dependent: variance error scales with the
        # effective count, not the nominal one
        n_eff = effective_snapshot_count(cloud)
        var = cloud.snapshots[:, -1].var()
        assert abs(var - 1.0) < 4.0 * np.sqrt(2.0 / n_eff)

    def test_resolution_guard(self):
        src = simulate_brownian(2 ** 8 + 1, 1.5, 0)
        with pytest.raises(ResolutionError):
            extract_cloud(src, 2.0 ** -6, 16, S_COUNT)

    def test_snapshot_count(self):
        cloud = _cloud(2.0 ** -4, 64, 3)
        assert cloud.t_count == 64
        assert cloud.snapshots.shape == (64, S_COUNT)


class TestCharFunctional:
    def test_empty_atoms(self):
        cloud = _cloud(2.0 ** -4, 32, 5)
        assert char_functional(cloud, []) == 1.0
        assert char_functional_limit([]) == 1.0

    def test_exact_limits(self):
        assert abs(char_functional_limit([(1.0, 1.0)]) - np.exp(-0.5)) < 1e-15
        assert abs(char_functional_limit([(0.5, 1.0)]) - np.exp(-0.25)) < 1e-15
        assert abs(char_functional_limit([(0.5, 1.0), (1.0, 1.0)])
                   - np.exp(-1.25)) < 1e-15
        a = 0.7
        assert abs(char_functional_limit([(1.0, a)]) - np.exp(-a * a / 2.0)) < 1e-15

    def test_rejects_atoms_outside_window(self):
        with pytest.raises(ParameterError):
            char_functional_limit([(1.5, 1.0)])

    @pytest.mark.parametrize("atoms,limit", [
        ([(1.0, 1.0)], np.exp(-0.5)),
        ([(0.5, 1.0)], np.exp(-0.25)),
        ([(0.5, 1.0), (1.0, 1.0)], np.exp(-1.25)),
    ])
    def test_convergence_at_small_scale(self, atoms, limit):
        cloud = _cloud(2.0 ** -10, 2 ** 14, 31415)
        assert abs(char_functional(cloud, atoms) - limit) <= 0.05


class TestScalingIdentity:
    def test_rescaled_cloud_matches_unit_scale(self):
        # Coordinate marginals of windows at (eps, base times eps*t) agree in
        # law with windows at (1, base times t); one window per path so the
        # pooled samples are independent.
        eps = 2.0 ** -4
        n_rep = 3000
        coord = S_COUNT - 1
        small, unit = [], []
        for seed in range(n_rep):
            src = simulate_brownian(2 ** 11 + 1, 2.0, seed)
            c_eps = extract_cloud(src, eps, 1, S_COUNT,
                                  t_values=np.array([eps * 0.5]))
            small.append(c_eps.snapshots[0, coord])
            src2 = simulate_brownian(2 ** 11 + 1, 2.0, 10 ** 6 + seed)
            c_one = extract_cloud(src2, 1.0, 1, S_COUNT,
                                  t_values=np.array([0.5]))
            unit.append(c_one.snapshots[0, coord])
        d = ks_two_sample(EmpiricalMeasure.from_samples(np.array(small)),
                          EmpiricalMeasure.from_samples(np.array(unit)))
        assert d < ks_critical_value(n_rep, n_rep, alpha=0.01)


class TestOneDependence:
    def test_distant_snapshots_uncorrelated(self):
        n_rep = 3000
        a, b = [], []
        for seed in range(n_rep):
            src = simulate_brownian(2 ** 9 + 1, 4.0, seed)
            cloud = extract_cloud(src, 1.0, 1, S_COUNT,
                                  t_values=np.array([0.0, 2.5]))
            a.append(cloud.snapshots[0, -1])
            b.append(cloud.snapshots[1, -1])
        corr = np.corrcoef(np.array(a), np.array(b))[0, 1]
        assert abs(corr) < 4.0 / np.sqrt(n_rep)


class TestBallFrequency:
    def test_extreme_radii(self):
        cloud = _cloud(2.0 ** -4, 256, 9)
        center = np.zeros(S_COUNT)
        assert l2_ball_frequency(cloud, center, 1e9) == 1.0
        assert l2_ball_frequency(cloud, center, 1e-9) == 0.0

    def test_against_wiener_oracle(self):
        cloud = _cloud(2.0 ** -8, 2 ** 14, 999)
        freq = l2_ball_frequency(cloud, np.zeros(S_COUNT), 1.0)
        oracle, _ = gaussian_ball_probability(BROWNIAN_COV, S_GRID[1], 1.0)
        n_eff = effective_snapshot_count(cloud)
        se_cloud = np.sqrt(freq * (1.0 - freq) / n_eff)
        assert abs(freq - oracle) <= 3.0 * se_cloud

    def test_distance_shapes(self):
        cloud = _cloud(2.0 ** -4, 16, 1)
        d = trapezoid_l2_distance(cloud, np.zeros(S_COUNT))
        assert d.shape == (16,)
        with pytest.raises(ParameterError):
            trapezoid_l2_distance(cloud, np.zeros(S_COUNT + 1))

    def test_oracle_reports_error_bar(self):
        p, err = gaussian_ball_probability(BROWNIAN_COV, S_GRID[1], 1.0)
        assert 0.0 < p < 1.0
        assert 0.0 < err < 1e-7


class TestGaussianBallOracle:
    @pytest.mark.parametrize("radius", [0.1, 1.0, 3.0])
    def test_two_nodes_is_erf(self, radius):
        # One eigenvalue, 1/2: P(Z^2 / 2 < r^2) = erf(r).
        p, _ = gaussian_ball_probability([[0.0, 0.0], [0.0, 1.0]], 1.0, radius)
        assert abs(p - special.erf(radius)) < 1e-9

    def test_kac_siegert_limit(self):
        # int_0^1 W^2 = sum_k lam_k Z_k^2 with lam_k = 1/((k - 1/2)^2 pi^2)
        # (Kac-Siegert), and sum_k lam_k = 1/2.  The tail past the last
        # term is replaced by its mean, which moves the level.
        k = np.arange(1, 2001)
        lam = 1.0 / ((k - 0.5) ** 2 * np.pi ** 2)
        limit, err = _quadratic_form_cdf(lam, 1.0 - (0.5 - lam.sum()))
        assert abs(limit - 0.8638977544) < 1e-9 and err < 1e-7
        gaps = []
        for n in (9, 17, 33, 65):
            s = np.linspace(0.0, 1.0, n)
            gaps.append(limit - gaussian_ball_probability(np.minimum.outer(s, s), s[1], 1.0)[0])
        # The trapezoid rule converges like ds^2: the gap falls 4x per halving of ds.
        ratios = np.array(gaps[:-1]) / np.array(gaps[1:])
        assert np.all((ratios > 3.9) & (ratios < 4.1)), ratios

    def test_no_warning_on_the_tested_grid(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for n in (2, 3, 5, 9, 17, 33, 65, 129, 257):
                s = np.linspace(0.0, 1.0, n)
                for hurst in (0.3, 0.5, 0.7, 0.9):
                    cov = fbm_covariance(s[:, None], s[None, :], hurst)
                    for radius in (0.1, 1.0, 3.0):
                        p, err = gaussian_ball_probability(cov, s[1], radius)
                        assert 0.0 <= p <= 1.0 and err < 1e-7, (n, hurst, radius)

    @pytest.mark.parametrize("cov", [
        BROWNIAN_COV,
        fbm_covariance(S_GRID[:, None], S_GRID[None, :], 0.3),
        fbm_covariance(S_GRID[:, None], S_GRID[None, :], 0.7),
    ], ids=["brownian", "fbm-0.3", "fbm-0.7"])
    def test_against_monte_carlo(self, cov):
        exact, _ = gaussian_ball_probability(cov, S_GRID[1], 1.0)
        est, se = monte_carlo_ball_probability(cov, 1.0, 200_000, 424242)
        assert abs(est - exact) <= 4.0 * se

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ParameterError):
            gaussian_ball_probability(BROWNIAN_COV, S_GRID[1], 0.0)
