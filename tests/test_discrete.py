import numpy as np
import pytest
from scipy import stats

from wschebor.discrete import (
    coupled_pair,
    coupling_distance,
    custom_schedule,
    discrete_measure,
    gaussian_innovations,
    over_log_schedule,
    power_schedule,
    uniform_innovations,
    validate_ldp_schedule,
    validate_lln_schedule,
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


class TestSchedules:
    def test_power_schedule_remark_examples(self):
        rep = validate_lln_schedule(power_schedule(0.6), 0.25,
                                    lambda k: int(k ** 5), 40)
        assert rep.all_pass(), [(c.name, c.verdict) for c in rep.checks]

    def test_overlog_schedule_remark_examples(self):
        rep = validate_lln_schedule(over_log_schedule(), 0.25,
                                    lambda k: int(np.exp(k ** 2)), 26)
        assert rep.all_pass(), [(c.name, c.verdict) for c in rep.checks]

    def test_constant_lag_flags_precondition(self):
        rep = validate_lln_schedule(custom_schedule(lambda n: 5.0), 0.25,
                                    lambda k: int(k ** 5), 40)
        assert not rep.check("lag-unbounded-ratio-vanishing").passed
        assert not rep.all_pass()

    def test_delta_domain(self):
        with pytest.raises(ParameterError):
            validate_lln_schedule(power_schedule(0.6), 0.7, lambda k: k ** 5, 10)

    def test_ldp_regimes(self):
        rep = validate_ldp_schedule(over_log_schedule(), 2 ** 10, 2 ** 24)
        assert rep.check("log-bracket").passed
        rep = validate_ldp_schedule(power_schedule(0.6), 2 ** 10, 2 ** 24)
        assert rep.check("sqrt-divergence").passed
        assert not rep.check("log-bracket").passed
        rep = validate_ldp_schedule(custom_schedule(lambda n: np.log(n)),
                                    2 ** 10, 2 ** 24)
        assert not rep.check("sqrt-divergence").passed
        assert not rep.check("log-bracket").passed

    def test_overlog_log_product_near_one(self):
        rep = validate_ldp_schedule(over_log_schedule(), 2 ** 16, 2 ** 24)
        detail = rep.check("log-bracket").detail
        assert 0.9 < detail["min"] <= detail["max"] < 1.1


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
