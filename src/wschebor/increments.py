"""Normalized small-increment processes.

The central operator is the Stieltjes convolution of a path against the
derivative measure of a kernel,

    dotX(t) = (1/eps) * int X(t - eps*u) dpsi(u),

whose atoms reduce to exact finite differences of path values while the
density part is handled by trapezoidal quadrature.  Everything is
assembled into a single discrete stencil over grid offsets, so the whole
transform is one (possibly FFT-based) convolution per path.

All operations are pure transformations of immutable inputs and can be
applied to independent replicas fully in parallel.
"""

import functools

import numpy as np
from scipy import signal

from .errors import CoverageError, ParameterError, ResolutionError
from .paths import GridPath

MIN_EPS_OVER_DT = 4.0


def dpsi_window(kernel, epsilon, window):
    """Source interval needed to evaluate the increment process on `window`."""
    a, b = kernel.dpsi_hull()
    w0, w1 = window
    return (w0 - epsilon * b, w1 - epsilon * a)


def _guard_resolution(epsilon, dt):
    if epsilon < MIN_EPS_OVER_DT * dt:
        raise ResolutionError(
            f"epsilon={epsilon:g} is below {MIN_EPS_OVER_DT:g} grid steps (dt={dt:g})")


def _output_slice(source, window, required):
    lo, hi = required
    tol = 1e-9 * source.dt
    if source.t_start > lo + tol or source.t_end < hi - tol:
        raise CoverageError(
            f"source grid [{source.t_start:g}, {source.t_end:g}] does not cover "
            f"the required interval [{lo:g}, {hi:g}]")
    w0, w1 = window
    i0 = int(np.ceil((w0 - source.t_start) / source.dt - 1e-9))
    i1 = int(np.floor((w1 - source.t_start) / source.dt + 1e-9))
    if i1 - i0 < 1:
        raise CoverageError("window contains fewer than two grid nodes")
    return i0, i1


def _trapezoid_pieces(fn, lo, hi, breakpoints, du_target):
    """Trapezoid nodes and weights for int fn(u) du, piece by piece.

    Each smooth piece between discontinuities gets its own grid, and the
    function is sampled a hair inside the piece so one-sided limits are
    picked up at jump locations.
    """
    cuts = [lo] + [p for p in sorted(breakpoints) if lo < p < hi] + [hi]
    nodes, weights = [], []
    for a, b in zip(cuts[:-1], cuts[1:]):
        m = max(2, int(round((b - a) / du_target)))
        u = np.linspace(a, b, m + 1)
        du = u[1] - u[0]
        nudge = 1e-9 * du
        u_eval = u.copy()
        u_eval[0] += nudge
        u_eval[-1] -= nudge
        w = np.asarray(fn(u_eval), dtype=float) * du
        w[0] *= 0.5
        w[-1] *= 0.5
        nodes.append(u)
        weights.append(w)
    return np.concatenate(nodes), np.concatenate(weights)


@functools.lru_cache(maxsize=8)
def _dpsi_stencil(kernel, epsilon, dt):
    """Weights of (1/eps) dpsi(u) over the integer grid offsets -eps*u/dt.

    Returns (o_min, weights, touched): `weights` covers the consecutive
    offsets o_min, o_min + 1, ... and `touched` lists the offsets any share
    lands on.  The nodes are the atoms, then the trapezoid nodes of the
    density; a node landing off-grid is split linearly between its two
    neighbouring offsets.  Brownian-type paths are Holder continuous, so the
    interpolation error stays below Monte Carlo noise at the resolutions the
    guard admits.  Both arrays are read-only, since the cache shares them.
    """
    nodes = np.array([loc for loc, _ in kernel.atoms], dtype=float)
    mass = np.array([w for _, w in kernel.atoms], dtype=float) / epsilon
    if kernel.density is not None:
        c, d = kernel.density_support
        u, w = _trapezoid_pieces(kernel.density, c, d,
                                 kernel.density_breakpoints, dt / epsilon)
        nodes = np.concatenate([nodes, u])
        mass = np.concatenate([mass, w / epsilon])
    offset = -epsilon * nodes / dt
    lo = np.floor(offset)
    frac = offset - lo
    snap_lo, snap_hi = frac < 1e-9, frac > 1.0 - 1e-9
    # Shares laid out per node as (lo, lo + 1), without the empty share of
    # a snapped node, so np.add.at sums each offset in node order.
    idx = np.stack([lo, lo + 1.0], axis=1).astype(np.int64).ravel()
    share = np.stack([np.where(snap_lo, mass, mass * (1.0 - frac)),
                      np.where(snap_hi, mass, mass * frac)], axis=1).ravel()
    keep = np.stack([~snap_hi, ~snap_lo], axis=1).ravel()
    idx, share = idx[keep], share[keep]
    touched = np.unique(idx)
    o_min = int(touched[0])
    weights = np.zeros(int(touched[-1]) - o_min + 1)
    np.add.at(weights, idx - o_min, share)
    weights.flags.writeable = False
    touched.flags.writeable = False
    return o_min, weights, touched


def _apply_stencil(stencil, values, i0, i1):
    """Evaluate sum_k w_k X[i + k] for i in [i0, i1]."""
    o_min, weights, touched = stencil
    o_max = o_min + weights.size - 1
    if i0 + o_min < 0 or i1 + o_max > values.size - 1:
        raise CoverageError("stencil reaches outside the source grid")
    n_out = i1 - i0 + 1
    if touched.size <= 8:
        out = np.zeros(n_out)
        for o in touched:
            out += weights[o - o_min] * values[i0 + o:i0 + o + n_out]
        return out
    seg = values[i0 + o_min:i1 + o_max + 1]
    return signal.fftconvolve(seg, weights[::-1], mode="valid")


def dot_increment(source, kernel, epsilon, window=(0.0, 1.0)):
    """Derivative-type increments (1/eps) int X(t - eps*u) dpsi(u) on `window`.

    For the forward-difference kernel this is exactly
    (X(t + eps) - X(t)) / eps at nodes where both times are on the grid.
    """
    _guard_resolution(epsilon, source.dt)
    if not kernel.has_derivative_measure:
        raise ParameterError(
            f"kernel {kernel.kernel_id!r} carries no derivative measure")
    i0, i1 = _output_slice(source, window, dpsi_window(kernel, epsilon, window))
    out = _apply_stencil(_dpsi_stencil(kernel, epsilon, source.dt), source.values, i0, i1)
    meta = dict(source.meta, kernel=kernel.kernel_id, epsilon=epsilon, transform="dot")
    return GridPath(source.t_start + i0 * source.dt, source.dt, out, meta)


def _hurst_index(source):
    desc = source.meta.get("descriptor")
    if desc is None:
        raise ParameterError("source path carries no process descriptor")
    return desc.self_similarity_index


def normalized_increment(source, kernel, epsilon, window=(0.0, 1.0)):
    """The scale-normalized increment process eps^(1-H) * dotX."""
    h = _hurst_index(source)
    dot = dot_increment(source, kernel, epsilon, window)
    return GridPath(dot.t_start, dot.dt, epsilon ** (1.0 - h) * dot.values, dot.meta)


def unit_scale_process(source, kernel, window=(0.0, 1.0)):
    """The stationary unit-scale process int X(s) dpsi(t - s).

    This is the epsilon = 1 increment process; with the forward-difference
    kernel and a Brownian source it is the Slepian process
    W(t + 1) - W(t).  It is stationary whenever the source has stationary
    increments.
    """
    return normalized_increment(source, kernel, 1.0, window)
