"""Rate-function machinery for occupation-measure large deviations.

Exact closed forms are used where the second-order theory provides them
(the quadratic-moment rate through the spectral density, and the
Donsker-Varadhan rate for the Ornstein-Uhlenbeck case); everywhere else
the scaled cumulant generating functional is estimated by exponential
Monte Carlo and dualized over an explicit dictionary, which yields
certified lower bounds.  Every curve is labeled exact or lower-bound.

Exponential estimators degrade as the horizon grows: estimates report
their effective sample size, warn below 10% and refuse below 1%.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.hermite import hermgauss
from scipy import integrate, optimize

from .errors import DegenerateEstimatorError, NormalizationError, ParameterError
from .increments import unit_scale_process
from .paths import seed_split, simulate
from .spectral import HEAD_CUTOFF

MIN_ESS_FRACTION = 0.01
WARN_ESS_FRACTION = 0.10


# ---------------------------------------------------------------------------
# Test-function dictionary
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TestFunction:
    name: str
    fn: object

    def __call__(self, x):
        return self.fn(x)


def constant_fn(c):
    return TestFunction(f"const({c:g})", lambda x: np.full_like(np.asarray(x, float), c))


def capped_square(scale=1.0, cap=25.0):
    return TestFunction(f"sq({scale:g},cap={cap:g})",
                        lambda x: scale * np.minimum(np.asarray(x, float) ** 2, cap))


def tanh_ramp(center, width):
    return TestFunction(f"tanh({center:g},{width:g})",
                        lambda x: np.tanh((np.asarray(x, float) - center) / width))


def scaled(fn, amp):
    return TestFunction(f"{amp:g}*{fn.name}", lambda x: amp * fn.fn(x))


# ---------------------------------------------------------------------------
# Scaled cumulant generating functional
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CGFEntry:
    name: str
    value: float
    stderr: float
    ess: float


@dataclass(frozen=True)
class CGFEstimate:
    """Monte Carlo estimate of the long-time cumulant functional per test function."""

    kernel_id: str
    horizon: float
    replicas: int
    entries: list
    dictionary: list = field(repr=False, default_factory=list)

    def value(self, name):
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def _effective_width(kernel):
    """Shortest interval carrying 99% of the kernel's squared mass.

    Sets the mixing scale of the unit-scale process: its correlations
    vanish (or decay) beyond lags of this order.
    """
    a, b = kernel.support
    if not (np.isfinite(a) and np.isfinite(b)):
        return 1.0
    grid = np.linspace(a, b, 4097)
    sq = np.asarray(kernel.psi(grid), dtype=float) ** 2
    cum = np.concatenate(([0.0], np.cumsum(0.5 * (sq[1:] + sq[:-1]) * np.diff(grid))))
    total = cum[-1]
    if total <= 0:
        return b - a
    lo = grid[np.searchsorted(cum, 0.01 * total)]
    hi = grid[min(np.searchsorted(cum, 0.99 * total), grid.size - 1)]
    return float(hi - lo)


def _log_mean_exp(a):
    m = np.max(a)
    return m + np.log(np.mean(np.exp(a - m)))


def _lme_entry(name, col, scale, replicas):
    """Log-mean-exp of integrated functionals with jackknife error and ESS."""
    lme = _log_mean_exp(col)
    w = np.exp(col - col.max())
    ess = float(w.sum() ** 2 / np.sum(w ** 2))
    if ess < MIN_ESS_FRACTION * replicas:
        raise DegenerateEstimatorError(
            f"effective sample size {ess:.1f} of {replicas} for {name}; "
            "a single replica dominates the exponential mean")
    if ess < WARN_ESS_FRACTION * replicas:
        warnings.warn(f"low effective sample size {ess:.1f}/{replicas} for {name}",
                      RuntimeWarning, stacklevel=3)
    # Leave-one-out jackknife of log-mean-exp.
    total = np.sum(w)
    loo = col.max() + np.log((total - w) / (replicas - 1))
    jk = (replicas - 1) / replicas * np.sum((loo - loo.mean()) ** 2)
    return CGFEntry(name=name, value=float(lme / scale),
                    stderr=float(np.sqrt(jk) / scale), ess=ess)


def estimate_cgf(kernel, source_family, dictionary, horizon, replicas, seed,
                 dt=1.0 / 64, bias_correction=False):
    """Estimate the scaled cumulant functional T^{-1} log E exp int_0^T f.

    All test functions are evaluated on the same simulated replicas of the
    unit-scale process, so the estimate is exactly convex along the
    dictionary and exactly additive for constants.  Jackknife standard
    errors; effective sample size of the exponential weights is reported
    per function.

    With `bias_correction` the additive finite-horizon constant of the
    log-moment functional is cancelled by differencing the half- and
    full-horizon estimates on the same paths; the plain scaled estimate
    is the default.
    """
    if horizon < 20.0 * _effective_width(kernel):
        raise ParameterError("horizon must be at least 20 kernel widths for mixing")
    a, b = kernel.dpsi_hull()
    lo, hi = -b, horizon - a
    n = int(round((hi - lo) / dt)) + 1
    integrals = np.empty((replicas, len(dictionary)))
    half = np.empty((replicas, len(dictionary)))
    for r in range(replicas):
        src = simulate(source_family, n, hi - lo, seed_split(seed, r), t_start=lo)
        y = unit_scale_process(src, kernel, window=(0.0, horizon)).values
        n_half = y.size // 2
        for j, f in enumerate(dictionary):
            vals = f(y)
            integrals[r, j] = np.trapezoid(vals, dx=dt)
            half[r, j] = np.trapezoid(vals[:n_half + 1], dx=dt)
    t_half = n_half * dt
    entries = []
    for j, f in enumerate(dictionary):
        full_entry = _lme_entry(f.name, integrals[:, j], horizon, replicas)
        if not bias_correction:
            entries.append(full_entry)
            continue
        half_entry = _lme_entry(f.name, half[:, j], t_half, replicas)
        span = horizon - t_half
        value = (full_entry.value * horizon - half_entry.value * t_half) / span
        stderr = np.hypot(full_entry.stderr * horizon, half_entry.stderr * t_half) / span
        entries.append(CGFEntry(name=f.name, value=float(value),
                                stderr=float(stderr),
                                ess=min(full_entry.ess, half_entry.ess)))
    return CGFEstimate(kernel_id=kernel.kernel_id, horizon=horizon,
                       replicas=replicas, entries=entries, dictionary=list(dictionary))


# ---------------------------------------------------------------------------
# Rate curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateCurve:
    """Sampled rate function; `kind` records exact versus lower-bound."""

    xs: np.ndarray
    values: np.ndarray
    minimizer: float
    kind: str = "exact"
    stderrs: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "xs", np.asarray(self.xs, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


def _lower_convex_envelope(xs, vals):
    """Greatest convex minorant of sampled points (monotone-chain hull)."""
    pts = sorted(zip(xs, vals))
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    hx = np.array([p[0] for p in hull])
    hy = np.array([p[1] for p in hull])
    return np.interp([x for x, _ in pts], hx, hy)


def gauss_hermite_expectation(fn, mean=0.0, variance=1.0, order=80):
    """E fn(Z) for Z ~ N(mean, variance) by Gauss-Hermite quadrature."""
    nodes, weights = hermgauss(order)
    z = mean + np.sqrt(2.0 * variance) * nodes
    return float(np.sum(weights * np.asarray(fn(z), dtype=float)) / np.sqrt(np.pi))


def legendre_dual_on_grid(cgf, moment_targets, target_variance=1.0):
    """Dictionary lower bound on the rate at mean-shifted Gaussian targets.

    For each target theta the candidate measure is N(theta, target_variance)
    and the bound is max_f [ int f dmu - Lambda(f) ] over the estimate's
    dictionary; a dictionary maximum can only undershoot the full Legendre
    supremum, so the result is certified as a lower bound.  The curve is
    reported as its lower convex envelope.
    """
    targets = list(moment_targets)
    if not targets:
        return RateCurve(np.array([]), np.array([]), np.nan, kind="lower-bound",
                         stderrs=np.array([]))
    values, errs = [], []
    for theta in targets:
        best, best_se = 0.0, 0.0
        for f, entry in zip(cgf.dictionary, cgf.entries):
            gap = gauss_hermite_expectation(f.fn, mean=theta, variance=target_variance) \
                - entry.value
            if gap > best:
                best, best_se = gap, entry.stderr
        values.append(best)
        errs.append(best_se)
    xs = np.asarray(targets, dtype=float)
    vals = _lower_convex_envelope(xs, np.asarray(values))
    minimizer = float(xs[int(np.argmin(vals))])
    return RateCurve(xs, vals, minimizer, kind="lower-bound",
                     stderrs=np.asarray(errs))


# ---------------------------------------------------------------------------
# Quadratic-moment rate through the spectral density
# ---------------------------------------------------------------------------

def log_moment_generating(density, y):
    """L(y) = -(1/4pi) int log(1 - 4 pi y l(s)) ds over the real line.

    Finite for y < 1 / (4 pi sup l); the tail beyond the head cutoff uses
    the first-order expansion of the logarithm, whose error is quadratic
    in the tiny tail values of the density.
    """
    m = density.sup_value
    if y >= 1.0 / (4.0 * np.pi * m):
        raise ParameterError("y outside the domain of the cumulant integral")
    if y == 0.0:
        return 0.0
    c = 4.0 * np.pi * y

    def integrand(s):
        return np.log1p(-c * density.eval(s))

    head, _ = integrate.quad(integrand, 0.0, HEAD_CUTOFF, limit=800, points=[0.0])
    # log1p(-c*l) = -c*l - (c*l)^2/2 - O((c*l)^3) on the tiny tail values.
    tail = -c * density.tail - 0.5 * c * c * density.tail_sq
    return -(head + tail) / (2.0 * np.pi)


def moment_rate(density, xs):
    """Rate function of the time-averaged squared process, by Legendre duality.

    Computes I(x) = sup_y { x y - L(y) } over y in (-Y0, 1/(4 pi M)) by
    bounded concave maximization; exact up to quadrature, labeled exact.
    """
    xs = np.asarray(list(xs), dtype=float)
    if np.any(xs < 0):
        raise ParameterError("moment targets must be nonnegative")
    m = density.sup_value
    y_max = 1.0 / (4.0 * np.pi * m)
    values = []
    for x in xs:
        y_lo = -4.0 * y_max
        while True:
            res = optimize.minimize_scalar(
                lambda y: -(x * y - log_moment_generating(density, y)),
                bounds=(y_lo, y_max * (1.0 - 1e-12)),
                method="bounded", options={"xatol": 1e-12})
            if res.x > y_lo * (1.0 - 1e-3) + 1e-15 or abs(y_lo) >= 1e6 * y_max:
                break
            y_lo *= 8.0
        values.append(max(0.0, float(-res.fun)))
    minimizer = float(xs[int(np.argmin(values))]) if xs.size else np.nan
    return RateCurve(xs, np.asarray(values), minimizer, kind="exact")


# ---------------------------------------------------------------------------
# Donsker-Varadhan rate for the Ornstein-Uhlenbeck case
# ---------------------------------------------------------------------------

def dv_rate(g, quadrature_order=96, g_prime=None, fd_step=1e-5):
    """Occupation rate (1/2) int |g'|^2 dN for a density dmu = g^2 dN.

    The square-root density must satisfy int g^2 dN = 1 to 1e-8; g' is
    taken by central differences unless supplied.
    """
    norm = gauss_hermite_expectation(lambda x: np.asarray(g(x), float) ** 2,
                                     order=quadrature_order)
    if abs(norm - 1.0) > 1e-8:
        raise NormalizationError(f"int g^2 dN = {norm!r}; the density is not normalized")
    if g_prime is None:
        def g_prime(x, h=fd_step):
            return (np.asarray(g(x + h), float) - np.asarray(g(x - h), float)) / (2.0 * h)
    val = gauss_hermite_expectation(lambda x: np.asarray(g_prime(x), float) ** 2,
                                    order=quadrature_order)
    return 0.5 * val


def exponential_tilt(theta):
    """Square-root density of the mean-theta unit-variance Gaussian tilt."""
    def g(x):
        return np.exp(0.5 * (theta * np.asarray(x, float) - theta ** 2 / 2.0))
    return g

