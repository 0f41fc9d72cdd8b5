"""Occupation measures and metrics between measures.

Occupation measures are kept as raw weighted point masses so that
Kolmogorov-Smirnov statistics are exact at sample resolution.  The
bounded-Lipschitz metric is not exactly computable, so it is reported as
a certified lower bound (a maximum over an explicit dictionary of test
functions of unit BL norm) paired with a 1-Wasserstein upper bound.  Both
come from one sort of the pooled support with signed weights: the W1
bound and every test function of the dictionary, all hats and clipped
ramps, are integrated exactly from the signed prefix sums, without
evaluating them point by point.

Measures are immutable after construction.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CoverageError, ParameterError


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted point masses on the real line, sorted by location.

    Points are sorted with numpy's default (unstable, vectorized) argsort.
    Distinct points have exactly one sorting permutation, so the result is
    the same as a stable sort's; when the sorted points hold a tie (or a
    NaN, which compares unequal to itself) the sort is redone stably, so
    tied points always keep their input order together with their weights.
    """

    points: np.ndarray
    weights: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if pts.shape != wts.shape or pts.ndim != 1:
            raise ParameterError("points and weights must be 1-d arrays of equal length")
        if np.any(wts < 0):
            raise ParameterError("weights must be nonnegative")
        order = np.argsort(pts)
        srt = pts[order]
        if srt.size and (np.any(srt[1:] == srt[:-1]) or np.isnan(srt[-1])):
            order = np.argsort(pts, kind="stable")
            srt = pts[order]
        pts = srt
        wts = wts[order]
        pts.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @classmethod
    def from_samples(cls, samples, meta=None):
        samples = np.asarray(samples, dtype=float)
        n = samples.size
        return cls(samples, np.full(n, 1.0 / n), meta or {})

    @property
    def total_mass(self):
        return float(self.weights.sum())

    def is_probability(self):
        return abs(self.total_mass - 1.0) <= 1e-6

    def cdf(self, x):
        """Right-continuous distribution function."""
        cum = np.cumsum(self.weights)
        idx = np.searchsorted(self.points, np.asarray(x, dtype=float), side="right")
        vals = np.concatenate(([0.0], cum))[idx]
        return float(vals) if np.isscalar(x) else vals


def occupation_measure(path):
    """Time-occupation measure of a path over [0, 1], total mass 1.

    Point masses sit at the sampled values with trapezoid-corrected
    weights, then are normalized exactly.
    """
    tol = 1e-9 * path.dt
    if path.t_start > tol or path.t_end < 1.0 - tol:
        raise CoverageError("path does not cover the window [0, 1]")
    sub = path.restricted(0.0, 1.0)
    weights = np.full(len(sub), sub.dt)
    weights[[0, -1]] *= 0.5
    weights /= weights.sum()
    meta = {"seed": _path_seed(path)}
    return EmpiricalMeasure(sub.values, weights, meta)


def _path_seed(path):
    desc = path.meta.get("descriptor")
    return getattr(desc, "seed", None)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def ks_distance(mu, target_cdf):
    """Exact sup distance between the measure's CDF and a target CDF.

    Valid for discontinuous targets too: left limits of the target are
    probed just below each support point.  Relies on `mu.points` being
    sorted, as every EmpiricalMeasure's are: tied points are pooled by
    summing the weights of each run of equal values.
    """
    if not mu.is_probability():
        raise ParameterError("Kolmogorov-Smirnov needs a probability measure")
    first = np.flatnonzero(np.concatenate(([True], mu.points[1:] != mu.points[:-1])))
    points = mu.points[first]
    weights = np.add.reduceat(mu.weights, first)
    cum = np.cumsum(weights)
    cum_prev = np.concatenate(([0.0], cum[:-1]))
    targets = np.asarray(target_cdf(points), dtype=float)
    targets_left = np.asarray(target_cdf(np.nextafter(points, -np.inf)), dtype=float)
    return float(np.max(np.maximum(np.abs(cum - targets),
                                   np.abs(cum_prev - targets_left))))


def ks_two_sample(mu, nu):
    """Exact sup distance between two weighted empirical CDFs."""
    grid = np.concatenate([mu.points, nu.points])
    grid.sort(kind="stable")
    return float(np.max(np.abs(mu.cdf(grid) - nu.cdf(grid))))


def ks_critical_value(n_a, n_b=None, alpha=0.01):
    """Asymptotic critical value of the (two-sample) KS statistic."""
    c = np.sqrt(-0.5 * np.log(alpha / 2.0))
    if n_b is None:
        return float(c / np.sqrt(n_a))
    return float(c * np.sqrt((n_a + n_b) / (n_a * n_b)))


def _signed_support(mu, nu):
    """Pooled support of mu and nu, sorted once, with signed weights.

    Returns (x, s): the points in stable order and their weights, positive
    for mu and negative for nu, so that cumsum(s) is the CDF difference.
    """
    x = np.concatenate([mu.points, nu.points])
    s = np.concatenate([mu.weights, -nu.weights])
    order = np.argsort(x, kind="stable")
    return x[order], s[order]


def _w1_sorted(x, c0):
    """W1 from the sorted pooled support and the running CDF difference."""
    return float(np.dot(np.abs(c0[:-1]), np.diff(x)))


@dataclass(frozen=True)
class BLBound:
    """Certified enclosure of the bounded-Lipschitz distance."""

    lower: float
    upper: float
    witness: str


def _pooled_knots(x, s):
    """Pooled quantiles of the sorted signed support and their midpoints."""
    pooled = np.abs(s)
    cum = np.cumsum(pooled / pooled.sum())
    qs = np.linspace(0.0, 1.0, 10)[1:-1]  # eight interior quantiles
    knots = np.unique(x[np.searchsorted(cum, qs * cum[-1], side="left").clip(0, x.size - 1)])
    mids = 0.5 * (knots[1:] + knots[:-1]) if knots.size > 1 else np.array([])
    return np.unique(np.concatenate([knots, mids]))


def dbl_distance(mu, nu):
    """Bounded-Lipschitz distance, reported as (lower bound, upper bound).

    The lower bound maximizes |int f dmu - int f dnu| over a dictionary of
    functions with BL norm <= 1 anchored at pooled quantiles: for every
    knot c and width w, in this order, a hat s*(w - |x - c|)_+ with
    s = 1/(1 + w) and a clipped ramp clip((x - c)/w, -1, 1)*w/(w + 1); the
    first largest gap is the witness.  Both are piecewise linear, so their
    integrals against mu - nu are exact from the signed prefix sums sum(s)
    and sum(s*x) at their breakpoints.  The upper bound is min(W1, 2).
    """
    for m in (mu, nu):
        if not m.is_probability():
            raise ParameterError("bounded-Lipschitz distance needs probability measures")
    x, s = _signed_support(mu, nu)
    # Prefix sums with a leading zero: c0[i] = sum(s[:i]), c1[i] = sum(s[:i]*x[:i]).
    c0, c1 = np.zeros(x.size + 1), np.zeros(x.size + 1)
    np.cumsum(s, out=c0[1:])
    upper = min(_w1_sorted(x, c0[1:]), 2.0)
    if upper == 0.0:
        # mu and nu agree on every interval, hence on every test function.
        return BLBound(lower=0.0, upper=0.0, witness="zero")
    np.cumsum(s * x, out=c1[1:])
    knots = _pooled_knots(x, s)
    widths = max(float(x[-1] - x[0]), 1e-12) * np.array([0.25, 0.5, 1.0, 2.0])
    c, w = knots[:, None], widths[None, :]
    g = w / (w + 1.0)
    lo, hi = np.searchsorted(x, c - w), np.searchsorted(x, c + w)
    mid = np.searchsorted(x, knots)[:, None]

    def seg(i, j, alpha, beta):
        """Exact integral of alpha + beta*x against s over x[i:j]."""
        return alpha * (c0[j] - c0[i]) + beta * (c1[j] - c1[i])

    hat = (seg(lo, mid, w - c, 1.0) + seg(mid, hi, w + c, -1.0)) / (1.0 + w)
    ramp = g * (seg(lo, hi, -c / w, 1.0 / w) - c0[lo] + (c0[-1] - c0[hi]))
    gaps = np.abs(np.stack([hat, ramp], axis=-1)).ravel()
    best = int(np.argmax(gaps))
    k, j, kind = np.unravel_index(best, (knots.size, widths.size, 2))
    witness = (f"{('hat', 'ramp')[kind]}({knots[k]:.4g},{widths[j]:.4g})"
               if gaps[best] > 0.0 else "zero")
    return BLBound(lower=min(float(gaps[best]), upper), upper=upper, witness=witness)
