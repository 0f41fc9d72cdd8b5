import dataclasses

import numpy as np
import pytest

from wschebor.errors import ParameterError
from wschebor.increments import unit_scale_process
from wschebor.mollifiers import (
    kernel_by_id,
    kernel_ou_bessel,
    kernel_ou_exponential,
    kernel_psi1,
    kernel_psi2,
)
from wschebor.paths import simulate_brownian
from wschebor.spectral import (
    covariance_from_density,
    sigma_sq,
    spectral_density,
    unbounded_at_zero,
    verify_ou_match,
)


def periodogram(values, dt, n_segments=32):
    """Averaged tapered periodogram in the variance = integral convention.

    Splits the series into segments, applies a Hann taper and averages
    |FFT|^2, normalized so the result estimates the spectral density with
    r(t) = int e^{i t lambda} l(lambda) d lambda.
    """
    values = np.asarray(values, dtype=float)
    seg_len = values.size // n_segments
    taper = np.hanning(seg_len)
    norm = np.sum(taper ** 2)
    acc = None
    for s in range(n_segments):
        seg = values[s * seg_len:(s + 1) * seg_len]
        spec = np.abs(np.fft.rfft(seg * taper)) ** 2
        acc = spec if acc is None else acc + spec
    acc /= n_segments
    # E|FFT|^2 ~ (norm / dt) * 2 pi * l(lambda) in this convention.
    freqs = 2.0 * np.pi * np.fft.rfftfreq(seg_len, d=dt)
    dens = acc * dt / (2.0 * np.pi * norm)
    return freqs, dens


class TestSpectralDensity:
    def test_ou_closed_form(self):
        d = spectral_density(kernel_ou_exponential(), 0.5)
        lam = np.array([0.0, 0.5, 1.0, 3.0])
        assert np.allclose([d.eval(l) for l in lam], 1.0 / (np.pi * (1.0 + lam ** 2)), atol=1e-12)
        assert abs(d.sup_value - 1.0 / np.pi) < 1e-10
        assert np.isfinite(d.sup_value)

    def test_forward_difference_closed_form(self):
        d = spectral_density(kernel_psi1(), 0.5)
        lam = np.array([0.5, 1.0, np.pi])
        target = (np.sin(lam / 2.0) / (lam / 2.0)) ** 2 / (2.0 * np.pi)
        assert np.allclose([d.eval(l) for l in lam], target, atol=1e-12)
        assert abs(d.eval(0.0) - 1.0 / (2.0 * np.pi)) < 1e-12

    def test_evenness_and_decay(self):
        for kid, h in (("psi1", 0.5), ("psi2", 0.7), ("ou-exp", 0.5)):
            d = spectral_density(kernel_by_id(kid), h)
            lam = np.array([0.3, 1.7, 9.0])
            assert np.allclose([d.eval(l) for l in lam], [d.eval(-l) for l in lam], atol=1e-12)
            assert d.eval(1e3) < 1e-4
            assert d.eval(1e4) < 1e-6

    def test_discontinuous_at_zero_above_half(self):
        with pytest.raises(ParameterError):
            spectral_density(kernel_psi1(), 0.7)

    def test_admissible_kernel_above_half(self):
        d = spectral_density(kernel_psi2(), 0.9)
        assert np.isfinite(d.sup_value)

    def test_eval_returns_python_float(self):
        d = spectral_density(kernel_psi1(), 0.3)
        assert type(d.eval(1.0)) is float and type(d.eval(0.0)) is float

    def test_value_at_zero_is_the_limit(self):
        # fbm-ou:H=0.4 at hurst h: l grows like lambda^{2(0.4 - h)} near 0, and is
        # 1/(pi (1 + lambda^2)) at h = 0.4.
        assert spectral_density(kernel_by_id("fbm-ou:H=0.4"), 0.3).eval(0.0) < 1e-50
        d = spectral_density(kernel_by_id("fbm-ou:H=0.4"), 0.4)
        assert abs(d.eval(0.0) - 1.0 / np.pi) < 1e-12
        assert spectral_density(kernel_psi2(), 0.7).eval(0.0) == 0.0


# The critical Hurst index h* of each named kernel: psi_hat ~ c |lambda|^{h* - 1/2}.
CRITICAL_HURST = {"psi1": 0.5, "psi2": 1.5, "triangle": 0.5, "ou-exp": 0.5,
                  "ou-bessel": 0.5, "fbm-ou:H=0.1": 0.1, "fbm-ou:H=0.4": 0.4,
                  "fbm-ou:H=0.5": 0.5}


@pytest.mark.parametrize("kid, hurst", [
    pytest.param(kid, h, id=f"{kid.replace('.', '_')}-{where}")
    for kid, h_star in CRITICAL_HURST.items()
    for where, h in (("below", h_star - 1e-3), ("at", h_star), ("above", h_star + 1e-3))
    if 0.0 < h < 1.0])
def test_unbounded_at_zero_is_exact(kid, hurst):
    kernel = kernel_by_id(kid)
    unbounded = hurst > CRITICAL_HURST[kid]
    assert unbounded_at_zero(kernel, hurst) == unbounded
    # The closed form agrees: from lambda = 1e-6 down to 1e-250 the density
    # grows by 10^(488 (hurst - h*)), about 3 at hurst = h* + 1e-3.
    expo = 1.0 - 2.0 * hurst
    growth = kernel.fourier_abs2(1e-250) * 1e-250 ** expo \
        / (kernel.fourier_abs2(1e-6) * 1e-6 ** expo)
    assert bool(growth > 2.0) == unbounded


@pytest.mark.parametrize("kid", ["psi1", "psi2", "triangle", "ou-exp", "ou-bessel",
                                 "fbm-ou:H=0.4"])
def test_quadrature_reads_plain_floats(kid):
    # The kernel callables are called tens of thousands of times per run; a
    # numpy scalar back from one means the 7-12 us 0-d array path, not the
    # sub-microsecond float arithmetic.  Unlike a timing, the types repeat.
    kernel = kernel_by_id(kid)
    returned = []

    def recorded(fn):
        def call(x):
            returned.append(type(value := fn(x)))
            return value
        return call

    fields = {name: recorded(getattr(kernel, name)) for name in ("fourier_abs2", "density")
              if getattr(kernel, name) is not None}
    kernel = dataclasses.replace(kernel, **fields)
    hurst = min(0.5, kernel.critical_hurst)
    dens = spectral_density(kernel, hurst)
    for t in (0.5, 1.0, 2.0):
        covariance_from_density(dens, t)
    if kernel.has_derivative_measure:
        sigma_sq(kernel, hurst)
    assert len(returned) > 1000
    assert set(returned) == {float}


class TestCovariance:
    def test_slepian_triangle(self):
        d = spectral_density(kernel_psi1(), 0.5)
        for t, target in ((0.25, 0.75), (0.5, 0.5), (0.75, 0.25), (1.0, 0.0), (2.0, 0.0)):
            assert abs(covariance_from_density(d, t) - target) < 1e-7, t

    def test_ou_exponential_covariance(self):
        d = spectral_density(kernel_ou_exponential(), 0.5)
        for t in (0.5, 1.0, 2.0):
            assert abs(covariance_from_density(d, t) - np.exp(-t)) < 1e-9

    def test_variance_equals_integral(self):
        d = spectral_density(kernel_ou_exponential(), 0.5)
        assert abs(covariance_from_density(d, 0.0) - 1.0) < 1e-9

    def test_refuses_unbounded_density(self):
        # Just above the critical index the density grows slowly toward 0.
        for kid, hurst in (("psi1", 0.51), ("triangle", 0.55), ("fbm-ou:H=0.4", 0.45)):
            with pytest.raises(ParameterError):
                spectral_density(kernel_by_id(kid), hurst)


class TestSigmaSq:
    def test_atom_sums_exact(self):
        assert sigma_sq(kernel_psi1(), 0.5) == 1.0
        assert sigma_sq(kernel_psi2(), 0.5) == 0.5
        assert sigma_sq(kernel_psi1(), 0.3) == 1.0

    def test_ou_exponential_unit_variance(self):
        assert abs(sigma_sq(kernel_ou_exponential(), 0.5) - 1.0) < 1e-4

    @pytest.mark.parametrize("kid,hs", [("psi1", (0.3, 0.5)), ("psi2", (0.3, 0.5, 0.7))])
    def test_consistency_with_density_integral(self, kid, hs):
        k = kernel_by_id(kid)
        for h in hs:
            d = spectral_density(k, h)
            assert abs(d.variance - sigma_sq(k, h)) < 1e-4, (kid, h)

    def test_density_with_a_jump(self):
        # The triangle's derivative density jumps at 0: int psi^2 = 1/6 at H = 1/2.
        k = kernel_by_id("triangle")
        assert abs(sigma_sq(k, 0.5) - 1.0 / 6.0) < 1e-12
        assert abs(sigma_sq(k, 0.3) - spectral_density(k, 0.3).variance) < 1e-8

    def test_rejects_kernel_without_derivative(self):
        with pytest.raises(ParameterError):
            sigma_sq(kernel_ou_bessel(), 0.5)


class TestOuMatch:
    def test_exponential_kernel(self):
        checks = verify_ou_match(kernel_ou_exponential(), [0.0, 1.0, 2.0],
                                 replicas=200, horizon=50.0, seed=0)
        assert all(c.deviation <= 4.0 * c.stderr for c in checks)
        lag0 = checks[0]
        assert abs(lag0.estimate - 1.0) <= 4.0 * lag0.stderr

    def test_bessel_kernel(self):
        checks = verify_ou_match(kernel_ou_bessel(), [0.0, 1.0],
                                 replicas=100, horizon=50.0, seed=3)
        assert all(c.deviation <= 4.0 * c.stderr for c in checks)

    def test_empty_lags(self):
        assert verify_ou_match(kernel_ou_exponential(), [], replicas=4) == []

    def test_rejects_other_kernels(self):
        with pytest.raises(ParameterError):
            verify_ou_match(kernel_psi1(), [0.0], replicas=2)


class TestPeriodogram:
    def test_matches_density(self):
        w = simulate_brownian(2 ** 19 + 1, 2 ** 13 + 2.0, 5)
        y = unit_scale_process(w, kernel_psi1(), window=(0.0, 2 ** 13))
        freqs, dens = periodogram(y.values, y.dt, n_segments=128)
        d = spectral_density(kernel_psi1(), 0.5)
        mask = (freqs > 0.05) & (freqs < 20.0)
        theo = np.array([d.eval(l) for l in freqs[mask]])
        rel_l1 = np.sum(np.abs(dens[mask] - theo)) / np.sum(theo)
        assert rel_l1 <= 0.1
