import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy import integrate

from wschebor.errors import ParameterError
from wschebor.mollifiers import (
    EXP_TAIL_CUTOFF,
    bessel_k0,
    fourier,
    hurst_normalizer_sq,
    kernel_by_id,
    kernel_fbm_ou,
    kernel_ou_bessel,
    kernel_ou_bessel_value,
    kernel_ou_exponential,
    kernel_psi1,
    kernel_psi2,
    kernel_triangle,
)

K0_AT_1 = 0.42102443824070834


def dpsi_total_mass(kernel):
    """Total mass of d psi: atoms exactly, density by quadrature."""
    total = sum(w for _, w in kernel.atoms)
    if kernel.density is not None:
        val, _ = integrate.quad(kernel.density, *kernel.support, limit=200,
                                points=list(kernel.density_breakpoints) or None)
        total += val
    return total


def dpsi_fourier(kernel, lam):
    """int e^{i lam s} d psi(s), atoms exactly and density by quadrature."""
    total = sum(w * np.exp(1j * lam * loc) for loc, w in kernel.atoms)
    if kernel.density is not None:
        a, b = kernel.support
        re, _ = integrate.quad(lambda s: kernel.density(s) * np.cos(lam * s), a, b, limit=400)
        im, _ = integrate.quad(lambda s: kernel.density(s) * np.sin(lam * s), a, b, limit=400)
        total += re + 1j * im
    return total


def quad_oracle_k0(x):
    val, _ = integrate.quad(lambda l: 1.0 / np.sqrt(1.0 + l * l), 0.0, np.inf,
                            weight="cos", wvar=x, limit=800)
    return val


class TestBesselK0:
    def test_reference_value(self):
        assert abs(bessel_k0(1.0) - K0_AT_1) < 1e-12

    def test_against_quadrature_oracle(self):
        for x in (0.5, 1.0, 2.0, 5.0):
            assert abs(bessel_k0(x) - quad_oracle_k0(x)) < 1e-8

    def test_oracle_across_former_branch_cuts(self):
        # Points straddle x = 6 and x = 15, where ascending-series and
        # asymptotic evaluations of K0 meet.
        xs = np.array([0.05, 3.0, 5.9, 6.1, 10.0, 14.9, 15.1, 30.0])
        oracle = np.array([quad_oracle_k0(x) for x in xs])
        assert np.max(np.abs(bessel_k0(xs) - oracle)) < 1e-8

    def test_import_leaves_out_mpmath(self):
        code = "import sys, wschebor; print('mpmath' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            bessel_k0(0.0)
        with pytest.raises(ParameterError):
            bessel_k0(-1.0)


class TestNamedKernels:
    def test_psi1(self):
        k = kernel_psi1()
        assert abs(k.norm(2) - 1.0) < 1e-12
        assert abs(abs(fourier(k, np.pi)) - 2.0 / np.pi) < 1e-12
        assert abs(dpsi_total_mass(k)) < 1e-10

    def test_psi2(self):
        k = kernel_psi2()
        assert abs(abs(fourier(k, np.pi)) - 2.0 / np.pi) < 1e-12
        # membership evidence decays like |lambda|^{3/2-H} near 0
        lam = 1e-6
        assert abs(fourier(k, lam)) * lam ** (0.5 - 0.9) < 1e-3
        assert abs(dpsi_total_mass(k)) < 1e-10

    def test_triangle(self):
        k = kernel_triangle()
        assert k.psi(0.0) == 0.5
        assert k.support == (-1.0, 1.0)
        assert abs(dpsi_total_mass(k)) < 1e-10

    def test_ou_exponential(self):
        k = kernel_ou_exponential()
        assert abs(abs(fourier(k, 0.0)) ** 2 - 2.0) < 1e-12
        assert abs(abs(fourier(k, 1.0)) ** 2 - 1.0) < 1e-12
        assert abs(k.norm(2) ** 2 - 1.0) < 1e-9

    def test_ou_bessel_pointwise(self):
        assert abs(kernel_ou_bessel_value(1.0) - np.sqrt(2.0) / np.pi * K0_AT_1) < 1e-14
        with pytest.raises(ParameterError):
            kernel_ou_bessel_value(0.0)

    def test_ou_bessel_numeric_fourier(self):
        k = kernel_ou_bessel()
        for lam in (0.0, 1.0, 5.0):
            target = np.sqrt(2.0) / np.sqrt(1.0 + lam ** 2)
            assert abs(abs(fourier(k, lam)) - target) < 1e-6

    def test_fbm_ou_normalizer(self):
        assert abs(hurst_normalizer_sq(0.5) - 2.0 * np.pi) < 1e-12

    def test_fbm_ou_rejects_high_hurst(self):
        with pytest.raises(ParameterError):
            kernel_fbm_ou(0.7)

    def test_fbm_ou_has_no_pointwise_values(self):
        k = kernel_by_id("fbm-ou:H=0.5")
        assert k.psi is None
        with pytest.raises(ParameterError, match="fbm-ou:H=0.5"):
            fourier(k, 1.0)
        with pytest.raises(ParameterError, match="fbm-ou:H=0.5"):
            k.norm(2)


class TestFourier:
    def test_small_lambda_limit_is_mass(self):
        k = kernel_psi1()
        assert abs(abs(fourier(k, 1e-9)) - 1.0) < 1e-6

    def test_psi2_vanishes_at_two_pi(self):
        assert abs(fourier(kernel_psi2(), 2.0 * np.pi)) < 1e-12

    def test_any_kernel_at_zero_is_integral(self):
        tri = kernel_triangle()
        val, _ = integrate.quad(tri.psi, -1, 1, points=[0.0])
        assert abs(fourier(tri, 0.0).real - val) < 1e-9

    @pytest.mark.parametrize("kid", ["psi1", "psi2", "triangle", "ou-exp"])
    @pytest.mark.parametrize("lam", [0.5, 1.0, np.pi, 10.0])
    def test_integration_by_parts(self, kid, lam):
        k = kernel_by_id(kid)
        lhs = dpsi_fourier(k, lam)
        rhs = -1j * lam * fourier(k, lam)
        assert abs(lhs - rhs) <= 1e-6

    @pytest.mark.parametrize("kid", ["psi1", "psi2", "triangle", "ou-exp", "ou-bessel"])
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, np.pi, 10.0])
    def test_quadrature_matches_closed_abs2(self, kid, lam):
        k = kernel_by_id(kid)
        assert abs(abs(fourier(k, lam)) ** 2 - k.fourier_abs2(lam)) <= 1e-12

    @pytest.mark.parametrize("kid", ["psi1", "psi2", "triangle", "ou-exp", "ou-bessel"])
    def test_high_frequency_decay(self, kid):
        k = kernel_by_id(kid)
        for lam in (1e3, 1e4):
            assert np.sqrt(k.fourier_abs2(lam)) <= 4.0 / lam


def test_kernel_registry():
    for kid in ("psi1", "psi2", "triangle", "ou-exp", "ou-bessel"):
        assert kernel_by_id(kid).kernel_id == kid
    k = kernel_by_id("fbm-ou:H=0.4")
    assert abs(k.fourier_abs2(1.0) - hurst_normalizer_sq(0.4) * 1.0 / (np.pi * 2.0)) < 1e-12
    with pytest.raises(ParameterError):
        kernel_by_id("unknown")
    with pytest.raises(ParameterError):
        kernel_by_id("fbm-ou:H=abc")


def test_exponential_truncation_is_negligible():
    assert np.exp(-EXP_TAIL_CUTOFF) < 1e-19


# The kernel callables as they were written for numpy arrays, kept verbatim
# as the reference for the float -> float ones.
def ref_psi1_abs2(lam):
    lam = np.asarray(lam, dtype=float)
    return np.sinc(lam / (2.0 * np.pi)) ** 2


def ref_psi2_abs2(lam):
    lam = np.asarray(lam, dtype=float)
    return (lam / 2.0) ** 2 * np.sinc(lam / (2.0 * np.pi)) ** 4


def ref_triangle_density(t):
    t = np.asarray(t, dtype=float)
    return np.where((t >= -1.0) & (t < 0.0), 0.5, 0.0) \
        - np.where((t >= 0.0) & (t <= 1.0), 0.5, 0.0)


def ref_triangle_abs2(lam):
    lam = np.asarray(lam, dtype=float)
    return 0.25 * np.sinc(lam / (2.0 * np.pi)) ** 4


def ref_ou_exp_density(t):
    # Right-continuous at 0: the value there is the limit from inside
    # the support, which is what piecewise quadrature needs.
    t = np.asarray(t, dtype=float)
    return np.where(t >= 0.0, -np.sqrt(2.0) * np.exp(-np.clip(t, 0.0, None)), 0.0)


def ref_ou_abs2(lam):
    lam = np.asarray(lam, dtype=float)
    return 2.0 / (1.0 + lam ** 2)


def ref_fbm_ou_abs2(hurst):
    c2 = hurst_normalizer_sq(hurst)

    def ft_abs2(lam):
        lam = np.asarray(lam, dtype=float)
        with np.errstate(divide="ignore"):
            return c2 * np.abs(lam) ** (2.0 * hurst - 1.0) / (np.pi * (1.0 + lam ** 2))

    return ft_abs2


REFERENCE_CALLABLES = {
    "psi1": (ref_psi1_abs2, None),
    "psi2": (ref_psi2_abs2, None),
    "triangle": (ref_triangle_abs2, ref_triangle_density),
    "ou-exp": (ref_ou_abs2, ref_ou_exp_density),
    "ou-bessel": (ref_ou_abs2, None),
    **{f"fbm-ou:H={h}": (ref_fbm_ou_abs2(h), None) for h in (0.1, 0.3, 0.5)},
}


def kernel_table_points(kernel):
    """10^5 random points over every scale and across the supports, plus the edge points."""
    rng = np.random.default_rng(29)
    edges = [0.0, 1e-300, 1e-250, 2.0 * np.pi, 64.0, *kernel.density_breakpoints,
             *(e for e in kernel.support if np.isfinite(e))]
    edges += [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
    return np.concatenate([edges, np.negative(edges),
                           rng.uniform(-70.0, 70.0, 40_000),
                           rng.choice([-1.0, 1.0], 40_000) * 10.0 ** rng.uniform(-300, 6, 40_000),
                           rng.uniform(-1.5, 1.5, 20_000)])


@pytest.mark.parametrize("kid", sorted(REFERENCE_CALLABLES))
def test_kernel_callables_match_array_reference_bit_for_bit(kid):
    # Quadrature calls them on one scalar at a time, so that is the reference
    # path; spectral_density's scan passes np.float64, quad passes floats.
    kernel = kernel_by_id(kid)
    points = kernel_table_points(kernel)
    assert np.signbit(points[points == 0.0]).any()
    for name, ref in zip(("fourier_abs2", "density"), REFERENCE_CALLABLES[kid]):
        fn = getattr(kernel, name)
        assert (fn is None) == (ref is None), name
        if fn is None:
            continue
        want = np.array([float(ref(x)) for x in points])
        for inputs in (points.tolist(), list(points)):
            got = [fn(x) for x in inputs]
            assert {type(v) for v in got} == {float}, (name, type(inputs[0]))
            bad = np.flatnonzero(np.array(got).view(np.int64) != want.view(np.int64))
            assert bad.size == 0, (name, points[bad[:5]])


@pytest.mark.parametrize("hurst", [0.1, 0.3, 0.5])
def test_fbm_ou_transform_at_zero(hurst):
    # Infinite below H = 1/2, with neither ZeroDivisionError nor RuntimeWarning.
    abs2 = kernel_fbm_ou(hurst).fourier_abs2
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        at_zero = [abs2(0.0), abs2(-0.0), abs2(np.float64(0.0))]
    want = np.inf if hurst < 0.5 else hurst_normalizer_sq(0.5) / np.pi
    assert at_zero == [want] * 3
