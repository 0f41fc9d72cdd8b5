"""Occupation measures and metrics between measures.

Occupation measures are kept as raw weighted point masses so that
Kolmogorov-Smirnov statistics against a nondecreasing target CDF are exact
at sample resolution; the target is evaluated in blocks, and point by point
only where the sup can lie.  Two measures are compared by the exact
1-Wasserstein distance, from one sort of their pooled support.  It bounds
the bounded-Lipschitz distance from above (d_BL <= min(W1, 2), by
Kantorovich-Rubinstein duality), so a shrinking W1 shows that d_BL
shrinks, which a shrinking lower bound on d_BL could not.

Measures are immutable after construction.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CoverageError, ParameterError


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Weighted point masses on the real line, sorted by location.

    The points are sorted by value.  Distinct points have exactly one
    sorted position each, so every weight that differs from the bulk value
    (the middle input weight) is placed at its point's position by binary
    search, and the result is the same as a stable sort's.  When the sorted
    points hold a tie (or a NaN, which compares unequal to itself) they are
    sorted again by a stable argsort, so tied points keep their input order
    together with their weights.
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        if pts.shape != wts.shape or pts.ndim != 1:
            raise ParameterError("points and weights must be 1-d arrays of equal length")
        if not np.all(wts >= 0):
            raise ParameterError("weights must be nonnegative")
        srt = np.sort(pts)
        if srt.size == 0 or np.any(srt[1:] == srt[:-1]) or np.isnan(srt[-1]):
            order = np.argsort(pts, kind="stable")
            srt, wts = pts[order], wts[order]
        else:
            # Compared and copied as bit patterns, so -0.0 weights keep their sign.
            bits = wts.view(np.uint64)
            bulk = bits[bits.size // 2]
            odd = np.flatnonzero(bits != bulk)
            placed = np.full(bits.size, bulk)
            placed[np.searchsorted(srt, pts[odd])] = bits[odd]
            wts = placed.view(float)
        pts = srt
        pts.setflags(write=False)
        wts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @classmethod
    def from_samples(cls, samples):
        samples = np.asarray(samples, dtype=float)
        n = samples.size
        return cls(samples, np.full(n, 1.0 / n))

    @property
    def total_mass(self):
        return float(self.weights.sum())

    def is_probability(self):
        return abs(self.total_mass - 1.0) <= 1e-6

    @cached_property
    def cumulative_weights(self):
        """Read-only running sums 0, w_0, w_0 + w_1, ...: F just left of each point, then 1."""
        cum0 = np.zeros(self.weights.size + 1)
        np.cumsum(self.weights, out=cum0[1:])
        cum0.setflags(write=False)
        return cum0

    def cdf(self, x):
        """Right-continuous distribution function."""
        vals = self.cumulative_weights[np.searchsorted(self.points, x, side="right")]
        return float(vals) if np.isscalar(x) else vals


def occupation_measure(path):
    """Time-occupation measure of a path over [0, 1], total mass 1.

    Point masses sit at the sampled values with trapezoid-corrected
    weights, then are normalized exactly.
    """
    if path.values.ndim != 1:
        raise ParameterError("occupation_measure takes one path, not a batch of replicas")
    tol = 1e-9 * path.dt
    if path.t_start > tol or path.t_end < 1.0 - tol:
        raise CoverageError("path does not cover the window [0, 1]")
    sub = path.restricted(0.0, 1.0)
    weights = np.full(len(sub), sub.dt)
    weights[[0, -1]] *= 0.5
    weights /= weights.sum()
    return EmpiricalMeasure(sub.values, weights)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

KS_BLOCK = 64  # ks_distance evaluates the target at every KS_BLOCK-th point first
KS_SLACK = 2.0 ** -40  # above the roundoff by which a target such as ndtr can fall


def ks_distance(mu, target_cdf):
    """Exact sup distance between the measure's CDF and a target CDF.

    The sup runs over |F - target| at each support point and at its left
    limit, probed at nextafter(x, -inf), so jumps of the target count too.
    Ties are pooled per run of equal points (`mu.points` is sorted).  The
    target must be nondecreasing up to roundoff below KS_SLACK; node values
    that fall by more raise ParameterError.  It is evaluated in blocks: at
    every KS_BLOCK-th point and the last, whose values bracket every gap
    between them; then point by point only in blocks whose bracket comes
    within KS_SLACK of the largest gap, and at a left limit only where a
    bracket allows a gap that large.
    """
    if not mu.is_probability():
        raise ParameterError("Kolmogorov-Smirnov needs a probability measure")
    points, cum0 = mu.points, mu.cumulative_weights
    ties = points[1:] == points[:-1]
    if ties.any():
        first = np.flatnonzero(np.concatenate(([True], ~ties)))
        points = points[first]
        cum0 = np.concatenate(([0.0], np.cumsum(np.add.reduceat(mu.weights, first))))
    n = points.size
    # cum[i] = F(x_i) and prev[i] = F(x_i-), with F(x_0-) = 0.
    cum, prev = cum0[1:], cum0[:-1]
    vals = np.empty(n)  # the target, filled in only where it is evaluated

    def largest_gap(idx):
        vals[idx] = target_cdf(points[idx])
        return np.abs(cum[idx] - vals[idx]).max(initial=0.0)

    nodes = np.append(np.arange(0, n - 1, KS_BLOCK), n - 1)
    best = largest_gap(nodes)
    f = vals[nodes]
    if not np.all(f[1:] >= f[:-1] - KS_SLACK):
        raise ParameterError("target_cdf must be nondecreasing")
    # Bounds every gap inside a block and at its right node's left limit.
    bound = np.maximum(cum[nodes[1:]] - f[:-1], f[1:] - cum[nodes[:-1]])
    opened = np.flatnonzero(bound > best - KS_SLACK)
    inner = (nodes[opened, None] + np.arange(1, KS_BLOCK)).ravel()
    inner = inner[inner < n - 1]
    best = max(best, largest_gap(inner))
    # target(x_i-) lies between target(x_{i-1}) and target(x_i), which
    # bound the left gap; the first point has no such bracket.
    after = np.concatenate([inner, nodes[opened + 1]])
    reach = np.maximum(vals[after] - prev[after], prev[after] - vals[after - 1])
    probe = np.append(after[reach > best - KS_SLACK], 0)
    left = np.asarray(target_cdf(np.nextafter(points[probe], -np.inf)), dtype=float)
    return float(max(best, np.abs(prev[probe] - left).max()))


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


def w1_distance(mu, nu):
    """1-Wasserstein distance between two probability measures on the line.

    W1 = int |F_mu - F_nu| dx with no discretization: the pooled support
    is sorted once, stably, with weights positive for mu and negative for
    nu, so their running sum is F_mu - F_nu on each gap between
    consecutive points.  W1 bounds the bounded-Lipschitz distance,
    d_BL <= min(W1, 2).
    """
    for m in (mu, nu):
        if not m.is_probability():
            raise ParameterError("the Wasserstein distance needs probability measures")
    x = np.concatenate([mu.points, nu.points])
    order = np.argsort(x, kind="stable")
    cdf_diff = np.cumsum(np.concatenate([mu.weights, -nu.weights])[order])
    return float(np.dot(np.abs(cdf_diff[:-1]), np.diff(x[order])))
