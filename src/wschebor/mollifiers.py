"""Bounded-variation smoothing kernels and their signed derivative measures.

A kernel is represented by the function itself plus an explicit
decomposition of its distributional derivative into atoms (jumps) and an
absolutely continuous density.  That decomposition is what the increment
operators convolve against, so jump kernels reduce to exact finite
differences and quadrature only enters where a density is genuinely
present.

Kernels are immutable value objects with pure evaluators; the lazy norm
cache is filled idempotently, so concurrent reads are harmless.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import integrate, special

from .errors import ParameterError, QuadratureError

# Exponential-tail kernels are truncated where exp(-x) is far below any
# quadrature tolerance used in the library.
EXP_TAIL_CUTOFF = 46.0


# ---------------------------------------------------------------------------
# Modified Bessel function K0
# ---------------------------------------------------------------------------

def bessel_k0(x):
    """Modified Bessel function K0 (scipy.special.k0) for positive arguments.

    Diverges logarithmically at 0, so x must be positive.
    """
    scalar = np.isscalar(x)
    arr = np.asarray(x, dtype=float)
    if np.any(arr <= 0.0):
        raise ParameterError("K0 requires a positive argument")
    out = special.k0(arr)
    return float(out) if scalar else out


# ---------------------------------------------------------------------------
# Kernel representation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SignedKernel:
    """A kernel together with the atoms + density decomposition of its derivative.

    Fields
    ------
    kernel_id : str
        Name usable in experiment configs.
    psi : callable
        Vectorized pointwise evaluation of the kernel itself.
    support : (float, float)
        Interval outside of which psi vanishes (numerically); may use
        inf for power tails that have no usable cutoff.
    atoms : tuple of (location, weight)
        Pure jump part of the derivative measure.
    density : callable or None
        Absolutely continuous part of the derivative measure.
    density_support : (float, float) or None
        Finite interval carrying the density (exponential tails truncated
        at EXP_TAIL_CUTOFF).
    density_breakpoints : tuple
        Interior discontinuities of the density; quadrature grids never
        straddle them.
    fourier_abs2 : callable or None
        Numerically stable closed form for |psi_hat|^2, the only form in
        which the theory reads the transform; `fourier` gives psi_hat
        itself by quadrature.
    bounded_variation : bool
        Whether psi is of bounded variation (i.e. the atoms+density
        decomposition is a faithful derivative).
    integrable : bool
        Whether psi is in L1.
    """

    kernel_id: str
    psi: object
    support: tuple
    atoms: tuple = ()
    density: object = None
    density_support: tuple = None
    density_breakpoints: tuple = ()
    fourier_abs2: object = None
    bounded_variation: bool = True
    integrable: bool = True
    _norm_cache: dict = field(default_factory=dict, compare=False, repr=False)

    # -- signed measure d psi -------------------------------------------------

    @property
    def has_derivative_measure(self):
        return self.bounded_variation and (len(self.atoms) > 0 or self.density is not None)

    def dpsi_hull(self):
        """Smallest interval containing every atom and the density support."""
        los, his = [], []
        if self.atoms:
            locs = [a for a, _ in self.atoms]
            los.append(min(locs))
            his.append(max(locs))
        if self.density is not None:
            los.append(self.density_support[0])
            his.append(self.density_support[1])
        if not los:
            raise ParameterError(f"kernel {self.kernel_id!r} carries no derivative measure")
        return min(los), max(his)

    # -- norms ----------------------------------------------------------------

    def norm(self, p):
        """L^p norm of psi; cached (idempotent, safe under concurrent fill)."""
        key = float(p)
        if key not in self._norm_cache:
            a, b = self.support
            a = max(a, -1e6)
            b = min(b, 1e6)
            val, _ = integrate.quad(lambda t: np.abs(self.psi(t)) ** p, a, b,
                                    limit=400, points=self._quad_breakpoints(a, b))
            self._norm_cache[key] = val ** (1.0 / p)
        return self._norm_cache[key]

    def _quad_breakpoints(self, a, b):
        pts = [p for p in (-1.0, 0.0, 1.0) if a < p < b]
        return pts or None


def fourier(kernel, lam):
    """Transform psi_hat(lambda) = int e^{i lambda t} psi(t) dt.

    Adaptive quadrature over the support, with oscillatory weights for large
    lambda.  The theory reads psi_hat only through |psi_hat|^2, which each
    kernel carries in closed form as `fourier_abs2`.
    """
    if not kernel.integrable:
        raise ParameterError(f"kernel {kernel.kernel_id!r} is not integrable")
    a, b = kernel.support
    a = max(a, -EXP_TAIL_CUTOFF)
    b = min(b, EXP_TAIL_CUTOFF)
    # Pieces touching 0 stay with the open Gauss-Kronrod rule (psi may blow
    # up there); long outer pieces switch to cycle-by-cycle oscillatory
    # quadrature, whose Clenshaw-Curtis rule evaluates interval endpoints.
    guard = min(0.5, 0.25 * (b - a))
    cuts = sorted({a, b, *(p for p in (-guard, 0.0, guard) if a < p < b)})
    total = 0.0 + 0.0j
    err = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo <= 0:
            continue
        if abs(lam) * (hi - lo) > 8.0 * np.pi and 0.0 not in (lo, hi):
            re, e1 = integrate.quad(kernel.psi, lo, hi, weight="cos", wvar=lam, limit=800)
            im, e2 = integrate.quad(kernel.psi, lo, hi, weight="sin", wvar=lam, limit=800)
        else:
            re, e1 = integrate.quad(lambda t: kernel.psi(t) * np.cos(lam * t), lo, hi, limit=800)
            im, e2 = integrate.quad(lambda t: kernel.psi(t) * np.sin(lam * t), lo, hi, limit=800)
        total += re + 1j * im
        err += e1 + e2
    if err > max(1e-12, 1e-9 * abs(total)) * 100:
        raise QuadratureError(
            f"fourier transform of {kernel.kernel_id!r} at lambda={lam} "
            f"reached error {err:.2e}")
    return total


# ---------------------------------------------------------------------------
# Named kernels
# ---------------------------------------------------------------------------

def kernel_psi1():
    """Forward-difference kernel: the indicator of [-1, 0]."""
    def psi(t):
        t = np.asarray(t, dtype=float)
        return np.where((t >= -1.0) & (t <= 0.0), 1.0, 0.0)

    def ft_abs2(lam):
        lam = np.asarray(lam, dtype=float)
        return np.sinc(lam / (2.0 * np.pi)) ** 2

    return SignedKernel(
        kernel_id="psi1",
        psi=psi,
        support=(-1.0, 0.0),
        atoms=((-1.0, 1.0), (0.0, -1.0)),
        fourier_abs2=ft_abs2,
    )


def kernel_psi2():
    """Second-difference kernel: (1 on [-1,0], -1 on [0,1]) / 2."""
    def psi(t):
        t = np.asarray(t, dtype=float)
        return 0.5 * (np.where((t >= -1.0) & (t < 0.0), 1.0, 0.0)
                      - np.where((t >= 0.0) & (t <= 1.0), 1.0, 0.0))

    def ft_abs2(lam):
        lam = np.asarray(lam, dtype=float)
        return (lam / 2.0) ** 2 * np.sinc(lam / (2.0 * np.pi)) ** 4

    return SignedKernel(
        kernel_id="psi2",
        psi=psi,
        support=(-1.0, 1.0),
        atoms=((-1.0, 0.5), (0.0, -1.0), (1.0, 0.5)),
        fourier_abs2=ft_abs2,
    )


def kernel_triangle():
    """Triangle kernel (1 - |t|)^+ / 2; its derivative is the psi2 kernel."""
    def psi(t):
        t = np.asarray(t, dtype=float)
        return 0.5 * np.clip(1.0 - np.abs(t), 0.0, None)

    def density(t):
        t = np.asarray(t, dtype=float)
        return np.where((t >= -1.0) & (t < 0.0), 0.5, 0.0) \
            - np.where((t >= 0.0) & (t <= 1.0), 0.5, 0.0)

    def ft_abs2(lam):
        lam = np.asarray(lam, dtype=float)
        return 0.25 * np.sinc(lam / (2.0 * np.pi)) ** 4

    return SignedKernel(
        kernel_id="triangle",
        psi=psi,
        support=(-1.0, 1.0),
        density=density,
        density_support=(-1.0, 1.0),
        density_breakpoints=(0.0,),
        fourier_abs2=ft_abs2,
    )


def kernel_ou_exponential():
    """One-sided exponential kernel sqrt(2) e^{-x} on [0, inf).

    Filtering Brownian motion with it yields the stationary
    Ornstein-Uhlenbeck process: |psi_hat|^2 = 2 / (1 + lambda^2).
    """
    def psi(t):
        t = np.asarray(t, dtype=float)
        return np.where(t >= 0.0, np.sqrt(2.0) * np.exp(-np.clip(t, 0.0, None)), 0.0)

    def density(t):
        # Right-continuous at 0: the value there is the limit from inside
        # the support, which is what piecewise quadrature needs.
        t = np.asarray(t, dtype=float)
        return np.where(t >= 0.0, -np.sqrt(2.0) * np.exp(-np.clip(t, 0.0, None)), 0.0)

    def ft_abs2(lam):
        lam = np.asarray(lam, dtype=float)
        return 2.0 / (1.0 + lam ** 2)

    return SignedKernel(
        kernel_id="ou-exp",
        psi=psi,
        support=(0.0, EXP_TAIL_CUTOFF),
        atoms=((0.0, np.sqrt(2.0)),),
        density=density,
        density_support=(0.0, EXP_TAIL_CUTOFF),
        fourier_abs2=ft_abs2,
    )


def kernel_ou_bessel_value(x):
    """Pointwise value of the even OU-matching kernel sqrt(2)/pi * K0(|x|).

    Diverges logarithmically at x = 0 (still integrable); the argument must
    be nonzero.
    """
    xa = np.abs(np.asarray(x, dtype=float))
    if np.any(xa == 0.0):
        raise ParameterError("the Bessel kernel diverges at 0")
    val = np.sqrt(2.0) / np.pi * bessel_k0(xa)
    return float(val) if np.isscalar(x) else val


def kernel_ou_bessel():
    """Even OU-matching kernel with transform sqrt(2)/sqrt(1 + lambda^2).

    Unbounded at the origin, hence not of bounded variation: it carries no
    derivative measure and is used through its pointwise values and the
    closed form of |psi_hat|^2.
    """
    def ft_abs2(lam):
        lam = np.asarray(lam, dtype=float)
        return 2.0 / (1.0 + lam ** 2)

    return SignedKernel(
        kernel_id="ou-bessel",
        psi=kernel_ou_bessel_value,
        support=(-EXP_TAIL_CUTOFF, EXP_TAIL_CUTOFF),
        fourier_abs2=ft_abs2,
        bounded_variation=False,
    )


def hurst_normalizer_sq(hurst):
    """Square of the harmonizable normalization 2 pi / (Gamma(2H+1) sin(pi H))."""
    log_c2 = np.log(2.0 * np.pi) - math.lgamma(2.0 * hurst + 1.0) - np.log(np.sin(np.pi * hurst))
    return float(np.exp(log_c2))


def kernel_fbm_ou_value(hurst, x):
    """Even kernel turning fBm small increments into the OU process.

    Defined through its transform C_H |lambda|^{H-1/2} / sqrt(pi (1+lambda^2));
    evaluated by oscillatory quadrature.  Only admissible for H <= 1/2: above
    that the transform is discontinuous at 0 and no integrable kernel exists.
    """
    if not 0.0 < hurst <= 0.5:
        raise ParameterError("the OU-matching fBm kernel requires hurst in (0, 1/2]")
    c_h = np.sqrt(hurst_normalizer_sq(hurst))
    pref = c_h / (np.pi * np.sqrt(np.pi))

    def integrand(lam):
        return lam ** (hurst - 0.5) / np.sqrt(1.0 + lam ** 2)

    xa = abs(float(x))
    if xa == 0.0:
        if hurst < 0.5:
            raise ParameterError("the OU-matching fBm kernel diverges at 0 for H < 1/2")
        return float(pref * integrate.quad(integrand, 0.0, np.inf, limit=400)[0])
    # Singular head by plain adaptive quadrature, oscillatory tail cycle
    # by cycle (QAWF); the integrand decays like lambda^(H - 3/2).
    head, _ = integrate.quad(lambda l: np.cos(l * xa) * integrand(l), 0.0, 1.0,
                             limit=400, points=[0.0])
    tail, _ = integrate.quad(integrand, 1.0, np.inf, weight="cos", wvar=xa, limit=600)
    return float(pref * (head + tail))


def kernel_fbm_ou(hurst):
    """SignedKernel wrapper for the OU-matching fBm kernel at a given H."""
    if not 0.0 < hurst <= 0.5:
        raise ParameterError("the OU-matching fBm kernel requires hurst in (0, 1/2]")
    c2 = hurst_normalizer_sq(hurst)

    def psi(t):
        flat = np.atleast_1d(np.asarray(t, dtype=float))
        out = np.array([kernel_fbm_ou_value(hurst, v) for v in flat])
        return float(out[0]) if np.isscalar(t) else out

    def ft_abs2(lam):
        lam = np.asarray(lam, dtype=float)
        with np.errstate(divide="ignore"):
            return c2 * np.abs(lam) ** (2.0 * hurst - 1.0) / (np.pi * (1.0 + lam ** 2))

    return SignedKernel(
        kernel_id=f"fbm-ou:H={hurst:g}",
        psi=psi,
        support=(-np.inf, np.inf),
        fourier_abs2=ft_abs2,
        bounded_variation=False,
        integrable=(hurst == 0.5),
    )


_FACTORIES = {
    "psi1": kernel_psi1,
    "psi2": kernel_psi2,
    "triangle": kernel_triangle,
    "ou-exp": kernel_ou_exponential,
    "ou-bessel": kernel_ou_bessel,
}


def kernel_by_id(kernel_id):
    """Resolve a kernel from its config string, e.g. "psi1" or "fbm-ou:H=0.4"."""
    if kernel_id in _FACTORIES:
        return _FACTORIES[kernel_id]()
    if kernel_id.startswith("fbm-ou:H="):
        try:
            h = float(kernel_id.split("=", 1)[1])
        except ValueError:
            raise ParameterError(f"malformed kernel id {kernel_id!r}")
        return kernel_fbm_ou(h)
    raise ParameterError(f"unknown kernel id {kernel_id!r}")


# ---------------------------------------------------------------------------
# Class membership
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelClassReport:
    """Numerical class-membership evidence for a kernel.

    in_G_H maps each queried Hurst index to True / False / None, None
    meaning the low-frequency limit test was inconclusive.
    """

    kernel_id: str
    in_G: bool
    in_G_H: dict
    in_G0: bool
    evidence: dict


def _abs_fourier(kernel, lam):
    if kernel.fourier_abs2 is not None:
        return float(np.sqrt(kernel.fourier_abs2(lam)))
    return abs(fourier(kernel, lam))


def classify(kernel, hurst_list):
    """Membership in the BV+L1 class, the spectral-limit classes, and the
    zero-mean finite-first-moment class.

    The low-frequency limit of |psi_hat(lambda)| |lambda|^{1/2-H} is probed
    along lambda = 2^{-k}, k = 10..40: Cauchy within 1e-6 declares the limit
    to exist, a tenfold monotone blowup declares divergence, anything else
    is reported as inconclusive (None).
    """
    lams = 2.0 ** -np.arange(10, 41)
    abs_ft = np.array([_abs_fourier(kernel, l) for l in lams])

    in_g = bool(kernel.bounded_variation and kernel.integrable)

    in_g_h = {}
    evidence = {}
    for h in hurst_list:
        vals = abs_ft * lams ** (0.5 - h)
        evidence[h] = vals
        tail = vals[-10:]
        if np.all(np.abs(np.diff(tail)) <= 1e-6):
            in_g_h[h] = True
        elif np.all(np.diff(vals) > 0) and vals[-1] > 10.0 * max(vals[0], 1e-300):
            in_g_h[h] = False
        else:
            in_g_h[h] = None

    in_g0 = False
    if kernel.integrable:
        if _abs_fourier(kernel, 0.0) < 1e-9:
            a, b = kernel.support
            a, b = max(a, -EXP_TAIL_CUTOFF), min(b, EXP_TAIL_CUTOFF)
            moment, _ = integrate.quad(lambda t: np.abs(t * kernel.psi(t)), a, b, limit=400)
            evidence["first_abs_moment"] = moment
            in_g0 = bool(np.isfinite(moment))

    return KernelClassReport(kernel.kernel_id, in_g, in_g_h, in_g0, evidence)
