"""Discrete increment measures with lags growing with the sample size.

Partial sums S_k of i.i.d. innovations yield the sliding-window measure

    m_n = (1/n) sum_{k=1..n} delta_{ (S_{k+r} - S_k) / sqrt(r) },

whose behaviour as r_n grows with n but eps_n = r_n/n shrinks interpolates
between classical i.i.d. empirical measures and the continuum
small-increment regime.  This module builds the measures and the two lag
schedules, whose growth conditions are decided in closed form, and couples
the Gaussian-innovation case to the continuum occupation measure built
from the same Brownian path.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SeedMismatchError
from .increments import normalized_increment
from .measures import EmpiricalMeasure, dbl_distance, occupation_measure
from .mollifiers import kernel_psi1
from .paths import simulate_brownian

@dataclass(frozen=True)
class LagSchedule:
    """The lag sequence n -> r_n, named by `label`.

    A power schedule (`gamma` in (0, 1)) has r_n = max(floor(n^gamma), 1);
    the overlog schedule (`gamma` None) has r_n = max(floor(n / log n), 1).
    """

    label: str
    gamma: float | None

    def r(self, n):
        n = np.asarray(n, dtype=float)
        r = n / np.log(n) if self.gamma is None else n ** self.gamma
        return np.maximum(np.floor(r), 1.0)

    @property
    def sqrt_exponent(self):
        """The exponent q with eps_n sqrt(n) = n^q up to logarithms.

        Power schedules have q = gamma - 1/2, overlog (eps_n = 1/log n) has
        q = 1/2.  The Gaussian-coupling regime eps_n sqrt(n) -> infinity
        holds exactly when q > 0: at gamma = 1/2, eps_n sqrt(n) stays bounded.
        """
        return 0.5 if self.gamma is None else self.gamma - 0.5


def power_schedule(gamma):
    if not 0.0 < gamma < 1.0:
        raise ParameterError("gamma must lie in (0, 1)")
    return LagSchedule(f"power:gamma={gamma:g}", gamma)


def over_log_schedule():
    return LagSchedule("overlog", None)


# ---------------------------------------------------------------------------
# The sliding-window measure
# ---------------------------------------------------------------------------

def discrete_measure(xs, r, meta=None):
    """Measure of n = len(xs) - r normalized window sums, in O(n).

    The innovation sequence is treated as padded to length n + r; window
    sums come from one cumulative sum pass.
    """
    xs = np.asarray(xs, dtype=float)
    r = int(r)
    if r < 1:
        raise ParameterError("lag must be a positive integer")
    n = xs.size - r
    if n < 1:
        raise ParameterError(f"need at least r + 1 = {r + 1} innovations, got {xs.size}")
    s = np.concatenate(([0.0], np.cumsum(xs)))
    v = (s[1 + r:] - s[1:n + 1]) / np.sqrt(r)
    m = dict(meta or {})
    m.setdefault("lag", r)
    m.setdefault("n", n)
    return EmpiricalMeasure.from_samples(v, m)


def gaussian_innovations(n_total, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    return rng.standard_normal(n_total)


def uniform_innovations(n_total, seed):
    """Centered uniform innovations scaled to unit variance."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return (rng.random(n_total) - 0.5) * np.sqrt(12.0)


# ---------------------------------------------------------------------------
# Coupling with the continuum occupation measure
# ---------------------------------------------------------------------------

def coupled_pair(n, r, seed, oversample=8):
    """Discrete measure and continuum occupation measure from one Brownian path.

    The path is sampled `oversample` times finer than the 1/n window grid;
    the discrete windows use the coarse nodes, the occupation measure all
    of them, so both objects share provenance exactly.
    """
    if n % 1 or r < 1:
        raise ParameterError("n and r must be positive integers")
    eps = r / n
    dt = 1.0 / (n * oversample)
    total = 1.0 + eps
    n_nodes = int(round(total / dt)) + 1
    path = simulate_brownian(n_nodes, total, seed)
    coarse = path.values[::oversample]
    v = (coarse[r:n + r] - coarse[:n]) / np.sqrt(eps)
    m_n = EmpiricalMeasure.from_samples(v, {"seed": seed, "lag": r, "n": n})
    cont = normalized_increment(path, kernel_psi1(), eps, window=(0.0, 1.0))
    mu = occupation_measure(cont)
    return m_n, mu


def coupling_distance(gaussian_m_n, continuum_mu):
    """Certified lower bound on the BL distance between the coupled measures.

    Both inputs must carry the same provenance seed; shrinking values as n
    grows confirm the discrete measure tracks the continuum occupation
    measure of the same path.
    """
    seed_a = gaussian_m_n.meta.get("seed")
    seed_b = continuum_mu.meta.get("seed")
    if seed_a is None or seed_b is None or seed_a != seed_b:
        raise SeedMismatchError(
            f"measures come from different paths (seeds {seed_a!r} vs {seed_b!r})")
    return dbl_distance(gaussian_m_n, continuum_mu).lower
