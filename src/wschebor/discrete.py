"""Discrete increment measures with lags growing with the sample size.

Partial sums S_k of i.i.d. innovations yield the sliding-window measure

    m_n = (1/n) sum_{k=1..n} delta_{ (S_{k+r} - S_k) / sqrt(r) },

whose behaviour as r_n grows with n but r_n/n shrinks interpolates
between classical i.i.d. empirical measures and the continuum
small-increment regime.  This module builds the measures, validates lag
schedules against the growth conditions the limit theorems require, and
couples the Gaussian-innovation case to the continuum occupation measure
built from the same Brownian path.

Asymptotic hypotheses are limits; validators work over finite ranges and
report explicit brackets with pass / fail / inconclusive verdicts.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, SeedMismatchError
from .increments import normalized_increment
from .measures import EmpiricalMeasure, dbl_distance, occupation_measure
from .mollifiers import kernel_psi1
from .paths import simulate_brownian

POWER_GAMMA = "power"
OVER_LOG = "overlog"
CUSTOM = "custom"


@dataclass(frozen=True)
class LagSchedule:
    """A lag sequence n -> r_n with its shrinking ratio eps_n = r_n / n."""

    kind: str
    params: tuple = ()
    custom_fn: object = None

    def r(self, n):
        n = np.asarray(n, dtype=float)
        if self.kind == POWER_GAMMA:
            out = np.floor(n ** self.params[0])
        elif self.kind == OVER_LOG:
            out = np.floor(n / np.log(n))
        elif self.kind == CUSTOM:
            out = np.floor(np.vectorize(self.custom_fn)(n))
        else:
            raise ParameterError(f"unknown schedule kind {self.kind!r}")
        return np.maximum(out, 1.0)

    def epsilon(self, n):
        return self.r(n) / np.asarray(n, dtype=float)

    def label(self):
        if self.kind == POWER_GAMMA:
            return f"power:gamma={self.params[0]:g}"
        return self.kind


def power_schedule(gamma):
    if not 0.0 < gamma < 1.0:
        raise ParameterError("gamma must lie in (0, 1)")
    return LagSchedule(POWER_GAMMA, (gamma,))


def over_log_schedule():
    return LagSchedule(OVER_LOG)


def custom_schedule(fn):
    return LagSchedule(CUSTOM, custom_fn=fn)


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
# Schedule validators
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionCheck:
    name: str
    verdict: str  # "pass" | "fail" | "inconclusive"
    detail: dict

    @property
    def passed(self):
        return self.verdict == "pass"


@dataclass(frozen=True)
class ScheduleReport:
    schedule: str
    checks: list

    def check(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def all_pass(self):
        return all(c.passed for c in self.checks)


def _trend(values):
    """Crude limit classification of a positive sequence over a finite range."""
    values = np.asarray(values, dtype=float)
    head = np.median(values[: max(3, values.size // 4)])
    tail = np.median(values[-max(3, values.size // 4):])
    if tail > 2.0 * head:
        return "increasing"
    if tail < 0.5 * head:
        return "decreasing"
    return "stable"


def validate_lln_schedule(schedule, delta, subsequence, k_max):
    """Check the almost-sure convergence hypotheses along a subsequence.

    Conditions: eps_n decreasing to 0 with r_n unbounded; the subsequence
    sums sum_k eps_{n_k} < infinity (dyadic tails must shrink); and the
    successive-closeness condition that (eps_{n_k} - eps_{n_{k+1}}) is
    negligible against eps_{n_{k+1}}^{1+delta}.
    """
    if not 0.0 < delta < 0.5:
        raise ParameterError("delta must lie in (0, 1/2)")
    ks = np.arange(1, k_max + 1)
    n_k = np.array([float(subsequence(int(k))) for k in ks])
    if np.any(np.diff(n_k) <= 0):
        verdict = ConditionCheck("subsequence-increasing", "fail",
                                 {"n_k": n_k[:10]})
    else:
        verdict = ConditionCheck("subsequence-increasing", "pass", {})
    checks = [verdict]

    probe = np.unique(np.floor(np.logspace(1, 6, 40))).astype(float)
    r_probe = schedule.r(probe)
    eps_probe = schedule.epsilon(probe)
    r_trend = _trend(r_probe)
    eps_trend = _trend(eps_probe)
    # Integer flooring makes eps_n locally jittery; monotonicity is judged
    # on the trend, with per-step slack of one lag unit.
    step_ok = bool(np.all(np.diff(eps_probe) <= 1.0 / probe[1:]))
    lag_ok = r_trend == "increasing" and eps_trend == "decreasing" and step_ok
    checks.append(ConditionCheck(
        "lag-unbounded-ratio-vanishing",
        "pass" if lag_ok else "fail",
        {"r_trend": r_trend, "eps_trend": eps_trend}))

    eps_k = schedule.epsilon(n_k)
    partial = np.cumsum(eps_k)
    # Dyadic tails of the partial sums must shrink toward zero.
    tails = []
    j = k_max
    while j >= 4:
        tails.append(partial[j - 1] - partial[j // 2 - 1])
        j //= 2
    tails = np.array(tails[::-1])
    summable = tails.size >= 2 and bool(np.all(np.diff(tails) < 0)) \
        and tails[-1] < 0.1 * max(partial[-1], 1e-300)
    checks.append(ConditionCheck(
        "subsequence-summable",
        "pass" if summable else ("inconclusive" if tails.size and np.all(np.diff(tails) <= 0)
                                 else "fail"),
        {"partial_sum": float(partial[-1]), "dyadic_tails": tails}))

    ratios = (eps_k[:-1] - eps_k[1:]) / eps_k[1:] ** (1.0 + delta)
    rt = _trend(np.abs(ratios) + 1e-300)
    closeness = rt == "decreasing" and abs(ratios[-1]) < 0.5 * max(abs(ratios[0]), 1e-300)
    checks.append(ConditionCheck(
        "successive-closeness",
        "pass" if closeness else ("inconclusive" if rt == "stable" else "fail"),
        {"first_ratios": ratios[:3], "last_ratios": ratios[-3:]}))
    return ScheduleReport(schedule.label(), checks)


def validate_ldp_schedule(schedule, n_lo, n_hi, points=40):
    """Bracket eps_n * log(n) and eps_n * sqrt(n) over a range of n.

    Reports which large-deviation regime the schedule supports: the
    Gaussian-coupling condition needs eps_n sqrt(n) -> infinity, the
    general-innovation condition needs eps_n log n bounded away from 0
    and infinity.
    """
    ns = np.unique(np.floor(np.logspace(np.log10(n_lo), np.log10(n_hi), points)))
    eps = schedule.epsilon(ns)
    prod_log = eps * np.log(ns)
    prod_sqrt = eps * np.sqrt(ns)
    checks = []

    t_log = _trend(prod_log)
    bounded = t_log == "stable" and prod_log.min() > 1e-3 and prod_log.max() < 1e3
    checks.append(ConditionCheck(
        "log-bracket",
        "pass" if bounded else "fail",
        {"min": float(prod_log.min()), "max": float(prod_log.max()), "trend": t_log}))

    t_sqrt = _trend(prod_sqrt)
    diverges = t_sqrt == "increasing"
    checks.append(ConditionCheck(
        "sqrt-divergence",
        "pass" if diverges else ("inconclusive" if t_sqrt == "stable" else "fail"),
        {"min": float(prod_sqrt.min()), "max": float(prod_sqrt.max()), "trend": t_sqrt}))
    return ScheduleReport(schedule.label(), checks)


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


def coupling_distance(gaussian_m_n, continuum_mu, dictionary_size=8):
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
    return dbl_distance(gaussian_m_n, continuum_mu, dictionary_size).lower
