"""Second-order theory of unit-scale increment processes.

For a self-similar Gaussian source of index H filtered by a kernel psi,
the unit-scale process is stationary with spectral density

    l(lambda) = |psi_hat(lambda)|^2 |lambda|^{1-2H} / C_H^2,
    C_H^2     = 2 pi / (Gamma(2H+1) sin(pi H)),

in the convention where the covariance is r(t) = int e^{i t lambda}
l(lambda) d lambda, so the variance equals the integral of the density.
Everything here is a pure function of immutable inputs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, QuadratureError
from .increments import correlate_valid, unit_scale_process
from .mollifiers import hurst_normalizer_sq
from .paths import _rng, replica_seeds, simulate_brownian

HEAD_CUTOFF = 64.0


@dataclass(frozen=True)
class SpectralDensity:
    """Evaluatable spectral density of a unit-scale increment process.

    Beyond the head cutoff B = HEAD_CUTOFF: `tail` = int_B^inf l,
    `tail_sq` = int_B^inf l^2 and `cos_tail(t)` = int_B^inf cos(t l) l(l) dl.
    """

    eval: object
    sup_value: float
    variance: float
    tail: float
    tail_sq: float
    cos_tail: object


def _atom_cosine_decomposition(kernel):
    """|psi_hat(lam)|^2 * lam^2 = A + sum c_m cos(d_m lam) for pure-jump kernels."""
    locs = np.array([a for a, _ in kernel.atoms])
    wts = np.array([w for _, w in kernel.atoms])
    amp = float(np.sum(wts ** 2))
    comps = []
    for j in range(len(locs)):
        for k in range(j + 1, len(locs)):
            comps.append((2.0 * wts[j] * wts[k], abs(locs[j] - locs[k])))
    return amp, comps


def _power_cos_tail(t, expo):
    """int_B^inf cos(t l) l^{-expo} dl, B = HEAD_CUTOFF; analytic for t = 0, QAWF else."""
    from scipy import integrate
    if t == 0.0:
        return HEAD_CUTOFF ** (1.0 - expo) / (expo - 1.0)
    val, _ = integrate.quad(lambda l: l ** (-expo), HEAD_CUTOFF, np.inf,
                            weight="cos", wvar=t, limit=800)
    return val


def _density_fn(kernel, hurst):
    """l(lambda) of the kernel at Hurst index `hurst`, for a float lambda."""
    c2 = hurst_normalizer_sq(hurst)
    abs2 = kernel.fourier_abs2
    expo = 1.0 - 2.0 * hurst
    # Below the critical index the density vanishes at 0; at it, the
    # finite limit is read at 1e-300, since |psi_hat|^2 alone may be infinite at 0.
    at_zero = 0.0 if hurst < kernel.critical_hurst else float(abs2(1e-300) * 1e-300 ** expo / c2)

    def density(lam):
        if abs(lam) <= 1e-300:
            return at_zero
        return float(abs2(lam) * abs(lam) ** expo / c2)

    return density


def unbounded_at_zero(kernel, hurst):
    """Whether the kernel's spectral density at `hurst` is unbounded at 0.

    Near 0 the density behaves like |lambda|^{2(h* - H)}, so it is bounded
    exactly when `hurst` is at most the kernel's critical index h*.
    """
    return hurst > kernel.critical_hurst


def spectral_density(kernel, hurst):
    """Spectral density of the unit-scale increment process of the kernel.

    The supremum is located by a coarse log/linear scan refined with
    bounded scalar minimization.  A density that is unbounded at 0 is
    refused with ParameterError.
    """
    from scipy import integrate, optimize
    if not 0.0 < hurst < 1.0:
        raise ParameterError("hurst must lie in (0, 1)")
    if unbounded_at_zero(kernel, hurst):
        raise ParameterError(f"the spectral density of {kernel.kernel_id!r} is unbounded "
                             f"at 0 for hurst {hurst:g} > {kernel.critical_hurst:g}")
    c2 = hurst_normalizer_sq(hurst)
    density = _density_fn(kernel, hurst)

    scan = np.unique(np.concatenate([np.linspace(1e-9, 20.0, 4001),
                                     np.logspace(-9, 3, 500)]))
    k = int(np.argmax(np.fromiter(map(density, scan), float, scan.size)))
    lo = scan[max(k - 1, 0)]
    hi = scan[min(k + 1, scan.size - 1)]
    res = optimize.minimize_scalar(lambda l: -density(l),
                                   bounds=(lo, hi), method="bounded",
                                   options={"xatol": 1e-12})
    sup_val = density(res.x)

    # Integrals beyond the head cutoff.
    if kernel.atoms and kernel.density is None:
        amp, comps = _atom_cosine_decomposition(kernel)
        pw = 1.0 + 2.0 * hurst  # lam^{-2} * lam^{1-2H}

        def cos_tail(t):
            total = amp * _power_cos_tail(t, pw)
            for c, d in comps:
                total += 0.5 * c * (_power_cos_tail(t + d, pw) + _power_cos_tail(abs(t - d), pw))
            return total / c2

        # Square the cosine sum: products of cosines fold into sums.
        terms = [(amp ** 2 + 0.5 * sum(c * c for c, _ in comps), 0.0)]
        for c, d in comps:
            terms.append((2.0 * amp * c, d))
            terms.append((0.5 * c * c, 2.0 * d))
        for i, (ci, di) in enumerate(comps):
            for cj, dj in comps[i + 1:]:
                terms.append((ci * cj, di + dj))
                terms.append((ci * cj, abs(di - dj)))
        tail_sq = sum(c * _power_cos_tail(d, 2.0 * pw) for c, d in terms) / c2 ** 2
    else:
        def cos_tail(t):
            if t == 0.0:
                return integrate.quad(density, HEAD_CUTOFF, np.inf, limit=400)[0]
            return integrate.quad(density, HEAD_CUTOFF, np.inf, weight="cos", wvar=t,
                                  limit=800)[0]

        tail_sq, _ = integrate.quad(lambda l: density(l) ** 2, HEAD_CUTOFF, np.inf,
                                    limit=400)

    tail = cos_tail(0.0)
    head = integrate.quad(density, 0.0, HEAD_CUTOFF, limit=800, points=[0.0])[0]
    variance = float(2.0 * (head + tail))
    return SpectralDensity(eval=density, sup_value=sup_val, variance=variance,
                           tail=tail, tail_sq=tail_sq, cos_tail=cos_tail)


def covariance_from_density(density, t):
    """Covariance r(t) = 2 int_0^inf cos(t lambda) l(lambda) d lambda."""
    from scipy import integrate
    t = abs(float(t))
    if t == 0.0:
        return density.variance
    head, err = integrate.quad(density.eval, 0.0, HEAD_CUTOFF, weight="cos", wvar=t,
                               limit=1600)
    if not err <= 1e-6:
        raise QuadratureError(f"covariance head quadrature error {err:.2e}")
    return float(2.0 * (head + density.cos_tail(t)))


def sigma_sq(kernel, hurst):
    """LLN variance -1/2 intint |u-v|^{2H} dpsi(u) dpsi(v).

    The atom-atom part is an exact double sum; atom-density cross terms
    and the density-density block are adaptive quadrature.
    """
    from scipy import integrate
    if not kernel.has_derivative_measure:
        raise ParameterError(f"kernel {kernel.kernel_id!r} carries no derivative measure")
    h2 = 2.0 * hurst
    total = 0.0
    atoms = kernel.atoms
    for i, (u, wu) in enumerate(atoms):
        for v, wv in atoms:
            total += wu * wv * abs(u - v) ** h2
    if kernel.density is not None:
        c, d = kernel.support
        pts = sorted(set(kernel.density_breakpoints))
        for u, wu in atoms:
            cross, _ = integrate.quad(
                lambda v: kernel.density(v) * abs(u - v) ** h2, c, d,
                points=sorted({u, *pts} & set(np.clip([u, *pts], c, d))) or None,
                limit=400)
            total += 2.0 * wu * cross
        # Symmetric double integral over u < v, where the kink of |u - v|
        # disappears, split at the breakpoints: the triangle u < v on each
        # piece and a rectangle for each pair of distinct pieces.
        inner = lambda v, u: kernel.density(u) * kernel.density(v) * (v - u) ** h2
        edges = [c, *(p for p in pts if c < p < d), d]
        pieces = list(zip(edges[:-1], edges[1:]))
        dd = 0.0
        for i, (lo, hi) in enumerate(pieces):
            for j, (v_lo, v_hi) in enumerate(pieces[i:]):
                dd += integrate.dblquad(inner, lo, hi, v_lo if j else (lambda u: u), v_hi,
                                        epsabs=1e-10, epsrel=1e-10)[0]
        total += 2.0 * dd
    return -0.5 * total


# ---------------------------------------------------------------------------
# Monte Carlo verification against the Ornstein-Uhlenbeck law
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LagCheck:
    lag: float
    estimate: float
    stderr: float
    target: float

    @property
    def deviation(self):
        return abs(self.estimate - self.target)


def _filter_weights(kernel, dt):
    """Midpoint samples of psi for filtering white noise, built once per run.

    Valid for Brownian sources, where the Stieltjes convolution against
    dpsi coincides with filtering white noise by psi.  Sampling at
    increment-cell midpoints dodges integrable singularities at 0.
    """
    half = min(-kernel.support[0], kernel.support[1])
    k_cells = int(round(half / dt))
    m = np.arange(-k_cells + 1, k_cells + 1)
    return half, np.asarray(kernel.psi((m - 0.5) * dt), dtype=float)


def verify_ou_match(kernel, lags, replicas, horizon=50.0, seed=0):
    """Empirical covariance of the unit-scale process against e^{-|t|}.

    Simulates `replicas` independent long-horizon paths of the unit-scale
    process driven by Brownian motion and compares time-averaged
    covariances at the requested lags with the stationary OU covariance;
    returns one LagCheck per lag.  The standard errors need replicas >= 2.
    """
    if kernel.kernel_id not in ("ou-exp", "ou-bessel"):
        raise ParameterError("OU matching is defined for the ou-exp and ou-bessel kernels")
    seeds = replica_seeds(seed, replicas)
    dt = 1.0 / 256
    if kernel.has_derivative_measure:
        a, b = kernel.dpsi_hull()
        lo, hi = -b, horizon - a  # unit-scale process at t needs X on [t - b, t - a]
        src = simulate_brownian(int(round((hi - lo) / dt)) + 1, hi - lo, seeds, t_start=lo)
        y = unit_scale_process(src, kernel, window=(0.0, horizon))
        v, dt = y.values, y.dt
    else:
        half, weights = _filter_weights(kernel, dt)
        n_cells = int(round((horizon + 2 * half) / dt))
        dw = np.array([_rng(s).standard_normal(n_cells) for s in seeds]) * np.sqrt(dt)
        v = correlate_valid(dw, weights)
    checks = []
    for lag in lags:
        k = int(round(lag / dt))
        row = np.mean(v[:, :v.shape[1] - k] * v[:, k:], axis=1)  # one estimate per replica
        se = float(row.std(ddof=1) / np.sqrt(replicas))
        checks.append(LagCheck(lag=float(lag), estimate=float(row.mean()),
                               stderr=se, target=float(np.exp(-abs(lag)))))
    return checks
