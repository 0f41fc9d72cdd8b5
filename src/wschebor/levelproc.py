"""Process-level empirical measures of rescaled Brownian increment windows.

From a single Brownian path, the cloud of shifted-rescaled windows

    s in [0,1]  ->  (W(t + eps*s) - W(t)) / sqrt(eps),   t in [0,1],

is extracted on a common s-grid.  As eps shrinks the time-average of
these windows converges to Wiener measure; the diagnostics here check
that through characteristic functionals with exact limits and through
frequencies of L2 balls, whose reference is exact as well: on the s-grid
the squared norm is a Gaussian quadratic form with a one-integral CDF
(Imhof, 1961), the discrete analogue of the Kac-Siegert series of int W^2.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CoverageError, ParameterError, ResolutionError


@dataclass(frozen=True)
class PathSampleCloud:
    """Rescaled increment windows of one source path on a fixed s-grid."""

    epsilon: float
    s_grid: np.ndarray
    t_values: np.ndarray
    snapshots: np.ndarray  # shape (t_count, s_count)

    def __post_init__(self):
        if self.snapshots.shape != (self.t_values.size, self.s_grid.size):
            raise ParameterError("snapshot matrix shape does not match grids")

    @property
    def t_count(self):
        return self.t_values.size


def extract_cloud(source, epsilon, t_count, s_count, t_values=None):
    """Windows (W(t + eps s) - W(t))/sqrt(eps) at t = k/t_count, k = 0..t_count-1.

    The s-grid is s_count equispaced points spanning [0, 1]; every window
    starts at 0 by construction.  Off-grid times are filled by linear
    interpolation of the source, so the s-resolution may not exceed the
    source resolution (and an interpolated value has less than the process's
    variance).  Custom base times can be supplied in place of the uniform grid.
    """
    if source.process is None or source.process.family != "brownian":
        raise ParameterError("cloud extraction expects a Brownian source path")
    if source.values.ndim != 1:
        raise ParameterError("cloud extraction takes one path, not a batch of replicas")
    if t_count < 1 or s_count < 2:
        raise ParameterError("need t_count >= 1 and s_count >= 2")
    s_grid = np.linspace(0.0, 1.0, s_count)
    s_step = s_grid[1] - s_grid[0]
    if epsilon * s_step < source.dt * (1.0 - 1e-9):
        raise ResolutionError(
            f"eps*s_step = {epsilon * s_step:g} is below the source dt {source.dt:g}")
    if t_values is None:
        t_values = np.arange(t_count) / t_count
    else:
        t_values = np.asarray(t_values, dtype=float)
    if source.t_start > t_values.min() + 1e-12 \
            or source.t_end < t_values.max() + epsilon - 1e-12:
        raise CoverageError("source must cover [min t, max t + eps]")
    times = t_values[:, None] + epsilon * s_grid[None, :]
    base = source.value_at(t_values)
    snapshots = (source.value_at(times.ravel()).reshape(times.shape)
                 - base[:, None]) / np.sqrt(epsilon)
    snapshots[:, 0] = 0.0
    return PathSampleCloud(epsilon=epsilon, s_grid=s_grid,
                           t_values=t_values, snapshots=snapshots)


def _snap_atoms(cloud, atoms):
    idx, coef = [], []
    for t_k, a_k in atoms:
        if not 0.0 <= t_k <= 1.0:
            raise ParameterError("atom locations must lie in [0, 1]")
        idx.append(int(round(t_k * (cloud.s_grid.size - 1))))
        coef.append(a_k)
    return np.array(idx, dtype=int), np.array(coef, dtype=float)


def char_functional(cloud, atoms):
    """Empirical characteristic functional at a finite atomic test measure.

    Averages exp(i sum_k a_k xi_t(t_k)) over the cloud, with atom
    locations snapped to the nearest s-grid node.
    """
    idx, coef = _snap_atoms(cloud, atoms)
    phases = cloud.snapshots[:, idx] @ coef
    return complex(np.mean(np.exp(1j * phases)))


def char_functional_limit(atoms):
    """Exact Wiener-measure value exp(-1/2 int_0^1 (rho([u,1]))^2 du).

    For an atomic measure rho = sum a_k delta_{t_k} the inner function is
    a right-partial-sum step function, so the integral is a finite sum of
    squared partial sums times segment lengths.
    """
    locs = np.array([t for t, _ in atoms], dtype=float)
    if np.any((locs < 0.0) | (locs > 1.0)):
        raise ParameterError("atom locations must lie in [0, 1]")
    coefs = np.array([a for _, a in atoms], dtype=float)
    order = np.argsort(locs)
    locs, coefs = locs[order], coefs[order]
    cuts = np.concatenate(([0.0], locs, [1.0]))
    # On (cuts[j], cuts[j+1]) the partial sum includes atoms at t_k >= cuts[j+1].
    integral = 0.0
    for j in range(cuts.size - 1):
        length = cuts[j + 1] - cuts[j]
        if length <= 0.0:
            continue
        partial = float(np.sum(coefs[locs >= cuts[j + 1] - 1e-15]))
        integral += partial ** 2 * length
    return float(np.exp(-0.5 * integral))


def trapezoid_l2_distance(cloud, center):
    """Discrete L2([0,1]) distances of every snapshot to a center vector."""
    center = np.asarray(center, dtype=float)
    if center.shape != cloud.s_grid.shape:
        raise ParameterError("center must live on the cloud's s-grid")
    w = _trapezoid_weights(center.size, cloud.s_grid[1] - cloud.s_grid[0])
    return np.sqrt(((cloud.snapshots - center[None, :]) ** 2) @ w)


def _trapezoid_weights(size, ds):
    w = np.full(size, ds)
    w[[0, -1]] *= 0.5
    return w


def l2_ball_frequency(cloud, center, radius):
    """Fraction of snapshots within trapezoid-L2 distance `radius` of `center`."""
    if radius < 0:
        raise ParameterError("radius must be nonnegative")
    dist = trapezoid_l2_distance(cloud, center)
    return float(np.mean(dist < radius))


def effective_snapshot_count(cloud):
    """Snapshots farther apart than eps are independent; nearer ones are not."""
    return int(min(cloud.t_count, max(1, np.floor(1.0 / (2.0 * cloud.epsilon)))))


def gaussian_ball_probability(cov, ds, radius):
    """Exact P(||X|| < radius) and its quadrature error for a centred Gaussian X.

    `cov` is the covariance at the nodes of a grid of step ds.  The trapezoid
    squared norm is sum_j lam_j Z_j^2, lam_j the eigenvalues of W^1/2 C W^1/2.
    """
    if radius <= 0:
        raise ParameterError("radius must be positive")
    root_w = np.sqrt(_trapezoid_weights(len(cov), ds))
    lam = np.linalg.eigvalsh(root_w[:, None] * np.asarray(cov, dtype=float) * root_w)
    return _quadratic_form_cdf(lam, radius * radius)


def _quadratic_form_cdf(lam, level):
    """P(sum_j lam_j Z_j^2 < level) and its error estimate, by Imhof (1961).

    P = 1/2 - (1/pi) int_0^inf sin(a(u) - omega u) / (u rho(u)) du, with
    a = sum arctan(lam_j u)/2, rho = prod (1 + (lam_j u)^2)^(1/4), omega = level/2.
    One quad over [0, inf) warns and leaves [0, 1] for few nodes or large radii,
    so past the first period 2 pi/omega the oscillation is a QAWF Fourier weight.
    """
    from scipy import integrate
    omega = 0.5 * level

    def integrand(trig, shift=0.0):
        return lambda u: (trig(0.5 * np.sum(np.arctan(lam * u)) - shift * u)
                          * np.exp(-0.25 * np.sum(np.log1p((lam * u) ** 2))) / u)

    cut = 2.0 * np.pi / omega
    head, e_head = integrate.quad(integrand(np.sin, omega), 0.0, cut)
    tail_c, e_c = integrate.quad(integrand(np.sin), cut, np.inf, weight="cos", wvar=omega)
    tail_s, e_s = integrate.quad(integrand(np.cos), cut, np.inf, weight="sin", wvar=omega)
    p = 0.5 - (head + tail_c - tail_s) / np.pi  # roundoff may leave [0, 1] near 0 or 1
    return min(max(p, 0.0), 1.0), (e_head + e_c + e_s) / np.pi
