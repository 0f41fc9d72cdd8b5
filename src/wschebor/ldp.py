"""Rate function of the time-averaged squared unit-scale process.

For a stationary Gaussian process with spectral density l, the scaled
log-moment function of the time average of X^2 is the Szego-type limit
L(y) = -(1/4pi) int log(1 - 4 pi y l(s)) ds (Bryc and Dembo, 1997); its
Legendre transform is the rate, exact up to quadrature.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .spectral import HEAD_CUTOFF


@dataclass(frozen=True)
class RateCurve:
    """Rate function sampled at `xs`."""

    xs: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "xs", np.asarray(self.xs, dtype=float))
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))


def log_moment_generating(density, y):
    """L(y) = -(1/4pi) int log(1 - 4 pi y l(s)) ds over the real line.

    Finite for y < 1 / (4 pi sup l); the tail beyond the head cutoff uses
    the first-order expansion of the logarithm, whose error is quadratic
    in the tiny tail values of the density.
    """
    from scipy import integrate
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
    bounded concave maximization; exact up to quadrature.
    """
    from scipy import optimize
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
    return RateCurve(xs, np.asarray(values))
