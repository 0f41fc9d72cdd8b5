import numpy as np
import pytest

from wschebor.errors import ParameterError
from wschebor.ldp import log_moment_generating, moment_rate
from wschebor.mollifiers import kernel_ou_exponential, kernel_psi1
from wschebor.spectral import spectral_density

OU = kernel_ou_exponential()


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

    def test_vanishes_at_variance(self):
        d = spectral_density(OU, 0.5)
        assert moment_rate(d, [d.variance]).values[0] < 1e-10

    @pytest.mark.parametrize("kid,h", [("psi1", 0.5), ("ou-exp", 0.5)])
    def test_minimizer_at_variance(self, kid, h):
        from wschebor.mollifiers import kernel_by_id
        d = spectral_density(kernel_by_id(kid), h)
        xs = np.linspace(0.6, 1.6, 11)
        curve = moment_rate(d, xs)
        minimizer = curve.xs[np.argmin(curve.values)]
        assert abs(minimizer - d.variance) <= (xs[1] - xs[0]) / 2 + 1e-12

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
