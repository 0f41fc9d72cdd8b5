import warnings

import numpy as np
import pytest

from wschebor.errors import (
    DegenerateEstimatorError,
    NormalizationError,
    ParameterError,
)
from wschebor.ldp import (
    capped_square,
    constant_fn,
    dv_rate,
    estimate_cgf,
    exponential_tilt,
    gauss_hermite_expectation,
    legendre_dual_on_grid,
    log_moment_generating,
    moment_rate,
    scaled,
    tanh_ramp,
)
from wschebor.mollifiers import kernel_ou_exponential, kernel_psi1
from wschebor.paths import ProcessDescriptor
from wschebor.spectral import spectral_density

OU = kernel_ou_exponential()
BROWNIAN = ProcessDescriptor("brownian")


def ou_quadratic_cgf(y):
    # Closed form of -(1/4pi) int log(1 - 4 pi y / (pi (1+s^2))) ds, from
    # int log((s^2 + 1 - a)/(s^2 + 1)) ds = 2 pi (sqrt(1-a) - 1).
    return (1.0 - np.sqrt(1.0 - 4.0 * y)) / 2.0


def ou_moment_rate(x):
    return (x + 1.0 / x - 2.0) / 4.0


class TestLogMomentGenerating:
    def test_matches_closed_form(self):
        d = spectral_density(OU, 0.5)
        for y in (-2.0, -0.5, 0.01, 0.1, 0.2, 0.24):
            assert abs(log_moment_generating(d, y) - ou_quadratic_cgf(y)) < 1e-8, y

    def test_small_y_slope_is_variance(self):
        d = spectral_density(OU, 0.5)
        for y in (1e-3, 1e-4):
            assert abs(log_moment_generating(d, y) / y - 1.0) < 5.0 * y

    def test_domain_boundary(self):
        d = spectral_density(OU, 0.5)
        with pytest.raises(ParameterError):
            log_moment_generating(d, 0.26)


class TestMomentRate:
    def test_ou_closed_form(self):
        d = spectral_density(OU, 0.5)
        curve = moment_rate(d, [0.5, 1.0, 2.0])
        for x, v in zip(curve.xs, curve.values):
            assert abs(v - ou_moment_rate(x)) < 1e-6, x
        assert curve.kind == "exact"

    def test_vanishes_at_variance(self):
        d = spectral_density(OU, 0.5)
        assert moment_rate(d, [d.variance]).values[0] < 1e-10

    @pytest.mark.parametrize("kid,h", [("psi1", 0.5), ("ou-exp", 0.5)])
    def test_minimizer_at_variance(self, kid, h):
        from wschebor.mollifiers import kernel_by_id
        d = spectral_density(kernel_by_id(kid), h)
        xs = np.linspace(0.6, 1.6, 11)
        curve = moment_rate(d, xs)
        assert abs(curve.minimizer - d.variance) <= (xs[1] - xs[0]) / 2 + 1e-12

    def test_convexity(self):
        d = spectral_density(OU, 0.5)
        curve = moment_rate(d, np.linspace(0.4, 3.0, 14))
        assert np.min(np.diff(curve.values, 2)) >= -1e-9

    def test_refuses_unbounded_density(self):
        # No density means no moment rate: the refusal comes before either.
        with pytest.raises(ParameterError):
            spectral_density(kernel_psi1(), 0.7)

    def test_rejects_negative_targets(self):
        d = spectral_density(OU, 0.5)
        with pytest.raises(ParameterError):
            moment_rate(d, [-1.0])


class TestDvRate:
    def test_flat_density_is_minimum(self):
        assert dv_rate(lambda x: np.ones_like(np.asarray(x, float))) == 0.0

    @pytest.mark.parametrize("theta", [1.0, 2.0])
    def test_exponential_tilts(self, theta):
        assert abs(dv_rate(exponential_tilt(theta)) - theta ** 2 / 8.0) < 1e-8

    def test_normalization_guard(self):
        with pytest.raises(NormalizationError):
            dv_rate(lambda x: 2.0 * np.ones_like(np.asarray(x, float)))

    def test_supplied_derivative(self):
        theta = 1.0
        g = exponential_tilt(theta)
        gp = lambda x: 0.5 * theta * g(x)
        assert abs(dv_rate(g, g_prime=gp) - 0.125) < 1e-12


@pytest.fixture(scope="module")
def cgf():
    fns = [constant_fn(0.0), constant_fn(0.7),
           scaled(tanh_ramp(0.0, 1.0), 0.1),
           scaled(tanh_ramp(0.0, 1.0), 0.05),
           capped_square(scale=0.05, cap=25.0)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return estimate_cgf(OU, BROWNIAN, fns, horizon=50.0,
                            replicas=400, seed=123)


@pytest.fixture(scope="module")
def dual():
    fns = [constant_fn(0.0)]
    for amp in (0.05, 0.1, 0.2):
        fns.append(scaled(tanh_ramp(0.0, 1.0), amp))
        fns.append(scaled(tanh_ramp(0.0, 1.0), -amp))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cgf_est = estimate_cgf(OU, BROWNIAN, fns, horizon=200.0,
                               replicas=1000, seed=9, bias_correction=True)
    thetas = [-1.0, -0.5, 0.0, 0.5, 1.0]
    return thetas, legendre_dual_on_grid(cgf_est, thetas)


class TestEstimateCgf:
    def test_zero_function_is_exactly_zero(self, cgf):
        assert cgf.entries[0].value == 0.0

    def test_constants_exact(self, cgf):
        assert abs(cgf.entries[1].value - 0.7) < 1e-12

    def test_quadratic_matches_closed_form(self, cgf):
        e = cgf.value("sq(0.05,cap=25)")
        assert abs(e.value - ou_quadratic_cgf(0.05)) <= 3.0 * e.stderr

    def test_convexity_along_dictionary(self):
        # Holder's inequality holds exactly on shared sample paths: the
        # estimate at the midpoint function cannot exceed the average.
        f = tanh_ramp(0.0, 1.0)
        fns = [scaled(f, 0.05), scaled(f, 0.15), scaled(f, 0.1)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cgf = estimate_cgf(OU, BROWNIAN, fns, horizon=50.0, replicas=100, seed=5)
        vals = [e.value for e in cgf.entries]
        assert vals[2] <= 0.5 * vals[0] + 0.5 * vals[1] + 1e-12

    def test_shift_identity(self):
        f = scaled(tanh_ramp(0.0, 1.0), 0.05)
        g_shift = constant_fn(0.3)
        combo = type(f)("combo", lambda x: f.fn(x) + g_shift.fn(x))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cgf = estimate_cgf(OU, BROWNIAN, [f, combo], horizon=50.0,
                               replicas=50, seed=7)
        assert abs(cgf.entries[1].value - cgf.entries[0].value - 0.3) < 1e-10

    def test_degenerate_estimator_refused(self):
        fns = [scaled(tanh_ramp(0.0, 1.0), 2.0)]
        with pytest.raises(DegenerateEstimatorError), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            estimate_cgf(OU, BROWNIAN, fns, horizon=60.0, replicas=400, seed=1)

    def test_horizon_guard(self):
        with pytest.raises(ParameterError):
            estimate_cgf(OU, BROWNIAN, [constant_fn(0.0)], horizon=5.0,
                         replicas=4, seed=0)


class TestLegendreDual:
    def test_vanishes_at_limit_measure(self, dual):
        thetas, curve = dual
        se = max(curve.stderrs) if curve.stderrs is not None else 0.0
        assert curve.values[thetas.index(0.0)] <= 3.0 * se + 1e-9

    def test_never_exceeds_true_rate(self, dual):
        # The occupation rate of the unit-correlation OU at a mean-theta
        # Gaussian is theta^2/4 (the integral of |g'|^2 without the 1/2,
        # which belongs to the half-speed normalization); lower bounds must
        # stay below it.
        thetas, curve = dual
        for theta, v, se in zip(thetas, curve.values, curve.stderrs):
            assert v <= theta ** 2 / 4.0 + 3.0 * se + 1e-9, theta

    def test_convex_and_labeled(self, dual):
        _, curve = dual
        assert curve.kind == "lower-bound"
        assert np.min(np.diff(curve.values, 2)) >= -1e-9

    def test_empty_targets(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cgf = estimate_cgf(OU, BROWNIAN, [constant_fn(0.0)], horizon=50.0,
                               replicas=10, seed=0)
        curve = legendre_dual_on_grid(cgf, [])
        assert curve.xs.size == 0


class TestGaussHermite:
    def test_moments(self):
        assert abs(gauss_hermite_expectation(lambda x: x ** 2) - 1.0) < 1e-12
        assert abs(gauss_hermite_expectation(lambda x: x ** 2, mean=2.0) - 5.0) < 1e-11
        assert abs(gauss_hermite_expectation(lambda x: x, variance=4.0)) < 1e-12

