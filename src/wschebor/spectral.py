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
from scipy import integrate, optimize, signal

from .errors import ParameterError, QuadratureError
from .increments import unit_scale_process
from .mollifiers import classify, hurst_normalizer_sq
from .paths import seed_split, simulate_brownian

HEAD_CUTOFF = 64.0


@dataclass(frozen=True)
class SpectralDensity:
    """Evaluatable spectral density of a unit-scale increment process."""

    eval: object
    sup_value: float
    sup_location: float
    continuous_at_zero: bool
    kernel_id: str
    hurst: float
    variance: float
    _tail: object = None        # B -> int_B^inf l
    _cos_tail: object = None    # (B, t) -> int_B^inf cos(t l) l(l) dl
    _tail_sq: object = None     # B -> int_B^inf l^2

    def tail_integral(self, cutoff):
        return self._tail(cutoff)

    def tail_square_integral(self, cutoff):
        return self._tail_sq(cutoff)


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


def _power_cos_tail(b, t, expo):
    """int_b^inf cos(t l) l^{-expo} dl, analytic for t = 0, cycle quadrature else."""
    if t == 0.0:
        return b ** (1.0 - expo) / (expo - 1.0)
    val, _ = integrate.quad(lambda l: l ** (-expo), b, np.inf,
                            weight="cos", wvar=t, limit=800)
    return val


def _density_fn(kernel, hurst):
    """l(lambda) of the kernel at Hurst index `hurst`, for a float or an array."""
    c2 = hurst_normalizer_sq(hurst)
    abs2 = kernel.fourier_abs2
    expo = 1.0 - 2.0 * hurst

    def density(lam):
        lam = np.asarray(lam, dtype=float)
        out = np.empty_like(lam)
        nz = np.abs(lam) > 1e-300
        with np.errstate(divide="ignore", invalid="ignore"):
            out[nz] = abs2(lam[nz]) * np.abs(lam[nz]) ** expo / c2
        if np.any(~nz):
            out[~nz] = _limit_at_zero()
        return out if out.ndim else float(out)

    def _limit_at_zero():
        if hurst <= 0.5 and np.isfinite(abs2(0.0)):
            return 0.0 if hurst < 0.5 else abs2(0.0) / c2
        return abs2(1e-9) * (1e-9) ** expo / c2

    return density


def unbounded_at_zero(kernel, hurst, classify_report=None):
    """Whether the kernel's spectral density at `hurst` is unbounded at 0.

    The density blows up for a kernel outside the admissible low-frequency
    class; an inconclusive classification is settled by comparing the
    density at 1e-12 with its value at 1e-6.
    """
    member = (classify_report or classify(kernel, [hurst])).in_G_H.get(hurst)
    if member is None:
        density = _density_fn(kernel, hurst)
        return bool(density(1e-12) > 10.0 * density(1e-6))
    return member is False


def spectral_density(kernel, hurst, classify_report=None):
    """Spectral density of the unit-scale increment process of the kernel.

    The supremum is located by a coarse log/linear scan refined with
    bounded scalar minimization.  When `unbounded_at_zero` holds, the sup
    is reported as +inf and the density flagged discontinuous at 0.
    """
    if not 0.0 < hurst < 1.0:
        raise ParameterError("hurst must lie in (0, 1)")
    if kernel.fourier_abs2 is None:
        raise ParameterError(f"kernel {kernel.kernel_id!r} has no |psi_hat|^2 evaluator")
    c2 = hurst_normalizer_sq(hurst)
    density = _density_fn(kernel, hurst)
    sup_inf = unbounded_at_zero(kernel, hurst, classify_report)

    scan = np.unique(np.concatenate([
        np.linspace(1e-9, 20.0, 4001),
        np.logspace(-9, 3, 500),
    ]))
    dens_scan = density(scan)
    k = int(np.argmax(dens_scan))
    lo = scan[max(k - 1, 0)]
    hi = scan[min(k + 1, scan.size - 1)]
    res = optimize.minimize_scalar(lambda l: -density(l),
                                   bounds=(lo, hi), method="bounded",
                                   options={"xatol": 1e-12})
    sup_loc = float(res.x)
    sup_val = density(sup_loc)
    if sup_inf:
        sup_val = np.inf
        sup_loc = 0.0

    # Tail integrals beyond the head cutoff.
    if kernel.atoms and kernel.density is None:
        amp, comps = _atom_cosine_decomposition(kernel)
        pw = 1.0 + 2.0 * hurst  # lam^{-2} * lam^{1-2H}

        def tail(b):
            total = amp * _power_cos_tail(b, 0.0, pw)
            for c, d in comps:
                total += c * _power_cos_tail(b, d, pw)
            return total / c2

        def cos_tail(b, t):
            total = amp * _power_cos_tail(b, t, pw)
            for c, d in comps:
                total += 0.5 * c * (_power_cos_tail(b, t + d, pw)
                                    + _power_cos_tail(b, abs(t - d), pw))
            return total / c2

        def tail_sq(b):
            # Square the cosine sum: products of cosines fold into sums.
            terms = [(amp ** 2 + 0.5 * sum(c * c for c, _ in comps), 0.0)]
            for c, d in comps:
                terms.append((2.0 * amp * c, d))
                terms.append((0.5 * c * c, 2.0 * d))
            for i, (ci, di) in enumerate(comps):
                for cj, dj in comps[i + 1:]:
                    terms.append((ci * cj, di + dj))
                    terms.append((ci * cj, abs(di - dj)))
            total = sum(c * _power_cos_tail(b, d, 2.0 * pw) for c, d in terms)
            return total / c2 ** 2
    else:
        def tail(b):
            val, _ = integrate.quad(density, b, np.inf, limit=400)
            return val

        def cos_tail(b, t):
            if t == 0.0:
                return tail(b)
            val, _ = integrate.quad(density, b, np.inf, weight="cos", wvar=t, limit=800)
            return val

        def tail_sq(b):
            val, _ = integrate.quad(lambda l: density(l) ** 2, b, np.inf, limit=400)
            return val

    head, _ = integrate.quad(density, 0.0, HEAD_CUTOFF, limit=800, points=[0.0])
    variance = float(2.0 * (head + tail(HEAD_CUTOFF))) if np.isfinite(sup_val) else np.inf

    return SpectralDensity(
        eval=density,
        sup_value=sup_val,
        sup_location=sup_loc,
        continuous_at_zero=not sup_inf,
        kernel_id=kernel.kernel_id,
        hurst=hurst,
        variance=variance,
        _tail=tail,
        _cos_tail=cos_tail,
        _tail_sq=tail_sq,
    )


def covariance_from_density(density, t):
    """Covariance r(t) = 2 int_0^inf cos(t lambda) l(lambda) d lambda."""
    if not np.isfinite(density.sup_value):
        raise ParameterError("density is unbounded; covariance undefined at this scale")
    t = abs(float(t))
    if t == 0.0:
        return density.variance
    head, err = integrate.quad(density.eval, 0.0, HEAD_CUTOFF, weight="cos", wvar=t,
                               limit=1600)
    if not err <= 1e-6:
        raise QuadratureError(f"covariance head quadrature error {err:.2e}")
    return float(2.0 * (head + density._cos_tail(HEAD_CUTOFF, t)))


def sigma_sq(kernel, hurst):
    """LLN variance -1/2 intint |u-v|^{2H} dpsi(u) dpsi(v).

    The atom-atom part is an exact double sum; atom-density cross terms
    and the density-density block are adaptive quadrature.
    """
    if not kernel.has_derivative_measure:
        raise ParameterError(f"kernel {kernel.kernel_id!r} carries no derivative measure")
    h2 = 2.0 * hurst
    total = 0.0
    atoms = kernel.atoms
    for i, (u, wu) in enumerate(atoms):
        for v, wv in atoms:
            total += wu * wv * abs(u - v) ** h2
    if kernel.density is not None:
        c, d = kernel.density_support
        pts = sorted(set(kernel.density_breakpoints))
        for u, wu in atoms:
            cross, _ = integrate.quad(
                lambda v: kernel.density(v) * abs(u - v) ** h2, c, d,
                points=sorted({u, *pts} & set(np.clip([u, *pts], c, d))) or None,
                limit=400)
            total += 2.0 * wu * cross
        # Symmetric double integral over the triangle u < v, where the
        # kink of |u - v| disappears.
        inner = lambda v, u: kernel.density(u) * kernel.density(v) * (v - u) ** h2
        dd, _ = integrate.dblquad(inner, c, d, lambda u: u, d,
                                  epsabs=1e-10, epsrel=1e-10)
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


@dataclass(frozen=True)
class OuMatchReport:
    kernel_id: str
    replicas: int
    horizon: float
    checks: list

    def within(self, n_se=4.0):
        return all(c.deviation <= n_se * c.stderr for c in self.checks)


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


def _filter_brownian_increments(half, weights, horizon, dt, seed, kernel_id):
    n_cells = int(round((horizon + 2 * half) / dt))
    rng = np.random.Generator(np.random.PCG64(seed))
    dw = rng.standard_normal(n_cells) * np.sqrt(dt)
    vals = signal.fftconvolve(dw, weights[::-1], mode="valid")
    from .paths import GridPath, ProcessDescriptor, BROWNIAN
    meta = {"descriptor": ProcessDescriptor(BROWNIAN, seed=seed),
            "kernel": kernel_id, "transform": "filter"}
    return GridPath(0.0, dt, vals, meta)


def _unit_scale_sampler(kernel, horizon, dt):
    """Closure drawing one unit-scale path per seed; kernel setup shared."""
    if kernel.has_derivative_measure:
        a, b = kernel.dpsi_hull()
        lo = -b  # unit-scale process at t needs X on [t - b, t - a]
        hi = horizon - a
        n = int(round((hi - lo) / dt)) + 1

        def draw(seed):
            src = simulate_brownian(n, hi - lo, seed, t_start=lo)
            return unit_scale_process(src, kernel, window=(0.0, horizon))
    else:
        half, weights = _filter_weights(kernel, dt)

        def draw(seed):
            return _filter_brownian_increments(half, weights, horizon, dt, seed,
                                               kernel.kernel_id)
    return draw


def verify_ou_match(kernel, lags, replicas, horizon=50.0, dt=1.0 / 256, seed=0):
    """Empirical covariance of the unit-scale process against e^{-|t|}.

    Simulates `replicas` independent long-horizon paths of the unit-scale
    process driven by Brownian motion and compares time-averaged
    covariances at the requested lags with the stationary OU covariance.
    """
    if kernel.kernel_id not in ("ou-exp", "ou-bessel"):
        raise ParameterError("OU matching is defined for the ou-exp and ou-bessel kernels")
    if not lags:
        return OuMatchReport(kernel.kernel_id, replicas, horizon, [])
    draw = _unit_scale_sampler(kernel, horizon, dt)
    estimates = np.empty((replicas, len(lags)))
    for r in range(replicas):
        y = draw(seed_split(seed, r))
        v = y.values
        for j, lag in enumerate(lags):
            k = int(round(lag / y.dt))
            estimates[r, j] = np.mean(v[:v.size - k] * v[k:]) if k < v.size else np.nan
    checks = []
    for j, lag in enumerate(lags):
        col = estimates[:, j]
        se = float(col.std(ddof=1) / np.sqrt(replicas)) if replicas > 1 else np.inf
        checks.append(LagCheck(lag=float(lag), estimate=float(col.mean()),
                               stderr=se, target=float(np.exp(-abs(lag)))))
    return OuMatchReport(kernel.kernel_id, replicas, horizon, checks)
