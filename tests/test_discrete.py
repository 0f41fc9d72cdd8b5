import numpy as np
import pytest
from scipy import stats

from wschebor.discrete import (
    coupled_pair,
    coupling_distance,
    discrete_measure,
    gaussian_innovations,
    over_log_schedule,
    power_schedule,
    uniform_innovations,
)
from wschebor.errors import ParameterError, SeedMismatchError
from wschebor.measures import EmpiricalMeasure, ks_distance
from wschebor.paths import simulate_brownian

PHI = stats.norm.cdf


def discrete_measure_naive(xs, r):
    """Quadratic-time reference for the sliding-window values."""
    xs = np.asarray(xs, dtype=float)
    n = xs.size - int(r)
    vals = [float(np.sum(xs[k:k + r]) / np.sqrt(r)) for k in range(1, n + 1)]
    return EmpiricalMeasure.from_samples(np.array(vals))


class TestDiscreteMeasure:
    def test_hand_example(self):
        m = discrete_measure(np.array([1.0, 1.0, 1.0, 1.0]), 2)
        assert m.points.size == 2
        assert np.allclose(m.points, np.sqrt(2.0))
        assert abs(m.total_mass - 1.0) < 1e-12

    def test_matches_naive_oracle(self):
        xs = np.random.default_rng(5).standard_normal(10_000)
        fast = discrete_measure(xs, 137)
        slow = discrete_measure_naive(xs, 137)
        assert np.max(np.abs(fast.points - slow.points)) < 1e-12

    def test_length_guard(self):
        with pytest.raises(ParameterError):
            discrete_measure(np.zeros(5), 5)
        with pytest.raises(ParameterError):
            discrete_measure(np.zeros(5), 0)

    @pytest.mark.parametrize("gen", [gaussian_innovations, uniform_innovations])
    def test_gaussian_limit_large_n(self, gen):
        n = 2 ** 18
        r = int(n ** 0.6)
        xs = gen(n + r, 0)
        m = discrete_measure(xs, r)
        assert ks_distance(m, PHI) <= 0.05

    def test_innovation_moments(self):
        for gen in (gaussian_innovations, uniform_innovations):
            xs = gen(200_000, 3)
            assert abs(xs.mean()) < 0.01
            assert abs(xs.var() - 1.0) < 0.02

    def test_mean_variance_scaling(self):
        # Var of the measure's sample mean decays linearly in eps_n = r/n.
        rng_idx = 0
        log_eps, log_var = [], []
        for k in range(4, 10):
            eps = 2.0 ** -k
            n = 2 ** 14
            r = int(eps * n)
            means = []
            for rep in range(60):
                xs = gaussian_innovations(n + r, 10_000 + rng_idx)
                rng_idx += 1
                means.append(discrete_measure(xs, r).points.mean())
            log_eps.append(np.log(eps))
            log_var.append(np.log(np.var(means)))
        slope = np.polyfit(log_eps, log_var, 1)[0]
        assert abs(slope - 1.0) <= 0.3


def _schedule(gamma):
    return over_log_schedule() if gamma is None else power_schedule(gamma)


class TestSchedules:
    def test_power_schedule_remark_examples(self):
        # Along n_k = k^5, eps_{n_k} = floor(k^3) / k^5 = k^-2: summable.
        ks = np.arange(1, 41, dtype=float)
        n_k = ks ** 5
        eps = power_schedule(0.6).r(n_k) / n_k
        assert np.all(np.diff(power_schedule(0.6).r(n_k)) > 0)
        assert np.max(np.abs(eps * ks ** 2 - 1.0)) < 0.2

    def test_overlog_schedule_remark_examples(self):
        # Along n_k = exp(k^2), eps_{n_k} = floor(n_k / k^2) / n_k = k^-2: summable.
        ks = np.arange(2, 27, dtype=float)
        n_k = np.exp(ks ** 2)
        eps = over_log_schedule().r(n_k) / n_k
        assert np.all(np.diff(over_log_schedule().r(n_k)) > 0)
        assert np.max(np.abs(eps * ks ** 2 - 1.0)) < 0.05

    def test_lags_keep_their_values(self):
        n = np.array([2.0 ** 13, 2.0 ** 14, 2.0 ** 18])
        assert power_schedule(0.6).r(n).tolist() == [222.0, 337.0, 1782.0]
        assert over_log_schedule().r(n).tolist() == [909.0, 1688.0, 21010.0]
        assert power_schedule(0.1).r(2.0).item() == 1.0

    # gamma (None: overlog) -> (q, eps_n sqrt(n) -> inf, eps_n log n -> a limit in (0, inf))
    @pytest.mark.parametrize("gamma, q, coupled, log_bracket", [
        pytest.param(0.3, -0.2, False, False, id="power-0.3"),
        pytest.param(0.45, -0.05, False, False, id="power-0.45"),
        pytest.param(0.5, 0.0, False, False, id="power-0.5"),
        pytest.param(0.52, 0.02, True, False, id="power-0.52"),
        pytest.param(0.55, 0.05, True, False, id="power-0.55"),
        pytest.param(0.6, 0.1, True, False, id="power-0.6"),
        pytest.param(0.9, 0.4, True, False, id="power-0.9"),
        pytest.param(None, 0.5, True, True, id="overlog"),
    ])
    def test_closed_form_regimes(self, gamma, q, coupled, log_bracket):
        schedule = _schedule(gamma)
        assert schedule.sqrt_exponent == pytest.approx(q, abs=1e-12)
        assert (schedule.sqrt_exponent > 0.0) == coupled
        # The closed form against the lags themselves, far out in n, where
        # eps_n sqrt(n) = n^q up to a logarithm and eps_n log n is near its limit.
        n = 2.0 ** 400
        eps = schedule.r(n) / n
        assert abs(np.log(eps * np.sqrt(n)) / np.log(n) - q) < 0.03
        assert (0.5 < eps * np.log(n) < 2.0) == log_bracket


class TestCoupling:
    def test_identical_measures(self):
        xs = gaussian_innovations(1000, 0)
        m = discrete_measure(xs, 10, meta={"seed": 0})
        assert coupling_distance(m, m) == 0.0

    def test_seed_mismatch(self):
        m_a, _ = coupled_pair(2 ** 10, 32, seed=1)
        _, mu_b = coupled_pair(2 ** 10, 32, seed=2)
        with pytest.raises(SeedMismatchError):
            coupling_distance(m_a, mu_b)

    def test_distance_decreases_with_n(self):
        meds = []
        for n in (2 ** 12, 2 ** 15):
            vals = []
            for seed in range(8):
                m_n, mu = coupled_pair(n, int(n ** 0.6), seed)
                vals.append(coupling_distance(m_n, mu))
            meds.append(np.median(vals))
        assert meds[1] < meds[0]

    def test_modulus_bound(self):
        # The coupling chain bounds the distance by twice the path modulus
        # of continuity at 1/n over sqrt(eps).
        n, seed = 2 ** 12, 4
        r = int(n ** 0.6)
        m_n, mu = coupled_pair(n, r, seed, oversample=8)
        d = coupling_distance(m_n, mu)
        eps = r / n
        dt = 1.0 / (n * 8)
        path = simulate_brownian(int(round((1 + eps) / dt)) + 1, 1.0 + eps, seed)
        lag = 8  # nodes per 1/n
        vals = path.values
        modulus = max(abs(vals[i + lag] - vals[i]) for i in range(0, len(vals) - lag))
        assert d <= 2.0 * modulus / np.sqrt(eps)
