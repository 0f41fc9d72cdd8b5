import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate

from wschebor.errors import ParameterError
from wschebor.mollifiers import (
    EXP_TAIL_CUTOFF,
    bessel_k0,
    classify,
    fourier,
    hurst_normalizer_sq,
    kernel_by_id,
    kernel_fbm_ou,
    kernel_fbm_ou_value,
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
        val, _ = integrate.quad(kernel.density, *kernel.density_support, limit=200,
                                points=list(kernel.density_breakpoints) or None)
        total += val
    return total


def dpsi_fourier(kernel, lam):
    """int e^{i lam s} d psi(s), atoms exactly and density by quadrature."""
    total = sum(w * np.exp(1j * lam * loc) for loc, w in kernel.atoms)
    if kernel.density is not None:
        a, b = kernel.density_support
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

    def test_fbm_ou_reduces_to_bessel_at_half(self):
        for x in (0.5, 1.0, 2.0):
            a = kernel_fbm_ou_value(0.5, x)
            b = np.sqrt(2.0) / np.pi * bessel_k0(x)
            assert abs(a - b) < 1e-6

    def test_fbm_ou_rejects_high_hurst(self):
        with pytest.raises(ParameterError):
            kernel_fbm_ou_value(0.6, 1.0)
        with pytest.raises(ParameterError):
            kernel_fbm_ou(0.7)

    def test_fbm_ou_evaluates_below_half(self):
        v = kernel_fbm_ou_value(0.3, 1.0)
        assert np.isfinite(v) and v > 0


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
            if k.fourier_abs2 is not None:
                val = np.sqrt(k.fourier_abs2(lam))
            else:
                val = abs(fourier(k, lam))
            assert val <= 4.0 / lam


class TestClassify:
    def test_psi1_not_admissible_at_high_hurst(self):
        rep = classify(kernel_psi1(), [0.7])
        assert rep.in_G is True
        assert rep.in_G_H[0.7] is False
        assert rep.in_G0 is False

    def test_psi2_admissible_everywhere(self):
        hs = [round(0.1 * i, 1) for i in range(1, 10)]
        rep = classify(kernel_psi2(), hs)
        assert rep.in_G is True
        assert rep.in_G0 is True
        assert all(rep.in_G_H[h] is True for h in hs)

    def test_zero_integral_implies_admissible(self):
        # The zero-mean finite-first-moment class sits inside every
        # admissible class: check the implication over the whole corpus.
        hs = [round(0.1 * i, 1) for i in range(1, 10)]
        for kid in ("psi1", "psi2", "triangle", "ou-exp"):
            rep = classify(kernel_by_id(kid), hs)
            if rep.in_G0:
                assert all(rep.in_G_H[h] is True for h in hs), kid

    def test_evidence_is_reported(self):
        rep = classify(kernel_psi2(), [0.5])
        assert len(rep.evidence[0.5]) == 31


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
