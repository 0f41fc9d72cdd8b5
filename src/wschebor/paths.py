"""Sampled trajectories of self-similar driving processes.

Three families are provided, all started at 0 and sampled on uniform
grids: Brownian motion, the symmetric alpha-stable Levy process and
fractional Brownian motion.  Generation is a pure function of
(descriptor, grid, seed): identical inputs reproduce identical values
bit for bit, and instances are immutable, so paths can be shared and
generated in parallel without coordination.
"""

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParameterError, SynthesisError

BROWNIAN = "brownian"
STABLE = "stable"
FBM = "fbm"


@dataclass(frozen=True)
class ProcessDescriptor:
    """Which self-similar family a path was drawn from, and with what parameters."""

    family: str
    hurst: float | None = None
    alpha: float | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.family not in (BROWNIAN, STABLE, FBM):
            raise ParameterError(f"unknown process family {self.family!r}")
        if self.family == FBM and not (self.hurst is not None and 0.0 < self.hurst < 1.0):
            raise ParameterError("fbm requires hurst in (0, 1)")
        if self.family == STABLE and not (self.alpha is not None and 0.0 < self.alpha <= 2.0):
            raise ParameterError("stable requires alpha in (0, 2]")

    @property
    def self_similarity_index(self):
        """Scaling index H: 1/2 for Brownian, 1/alpha for stable, the Hurst index for fBm."""
        if self.family == BROWNIAN:
            return 0.5
        if self.family == STABLE:
            return 1.0 / self.alpha
        return self.hurst


@dataclass(frozen=True)
class GridPath:
    """A trajectory sampled at the nodes t_start + k*dt, closed at both ends."""

    t_start: float
    dt: float
    values: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.dt <= 0:
            raise ParameterError("dt must be positive")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise ParameterError("a path needs at least 2 samples")
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)

    def __len__(self):
        return self.values.size

    @property
    def t_end(self):
        return self.t_start + (self.values.size - 1) * self.dt

    def node_index(self, t):
        """Index of the grid node at time t, or None if t is off-grid."""
        k = (t - self.t_start) / self.dt
        k_round = int(round(k))
        if abs(k - k_round) <= 1e-9 and 0 <= k_round < self.values.size:
            return k_round
        return None

    def value_at(self, t):
        """Linear interpolation between grid nodes; exact at the nodes."""
        x = np.asarray(t, dtype=float)
        k = (x - self.t_start) / self.dt
        if np.any(k < -1e-9) or np.any(k > self.values.size - 1 + 1e-9):
            raise ParameterError("time outside the sampled grid")
        k = np.clip(k, 0.0, self.values.size - 1)
        lo = np.minimum(k.astype(int), self.values.size - 2)
        frac = k - lo
        out = (1.0 - frac) * self.values[lo] + frac * self.values[lo + 1]
        return float(out) if np.isscalar(t) else out

    def restricted(self, t_lo, t_hi):
        """Sub-path of the nodes inside [t_lo, t_hi]."""
        i0 = int(np.ceil((t_lo - self.t_start) / self.dt - 1e-9))
        i1 = int(np.floor((t_hi - self.t_start) / self.dt + 1e-9))
        i0 = max(i0, 0)
        i1 = min(i1, self.values.size - 1)
        return replace(self, t_start=self.t_start + i0 * self.dt,
                       values=self.values[i0:i1 + 1].copy())


def _check_grid_args(n, horizon):
    if n < 2:
        raise ParameterError("n must be at least 2")
    if horizon <= 0:
        raise ParameterError("horizon must be positive")


def seed_split(master_seed, replica_index):
    """Collision-resistant per-replica seed, stable across versions.

    SHA-256 of the decimal rendering "master:replica", truncated to
    63 bits.  Documented so results can be reproduced outside this
    package.
    """
    digest = hashlib.sha256(f"{int(master_seed)}:{int(replica_index)}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def simulate_brownian(n, horizon, seed, t_start=0.0):
    """Standard Brownian motion: n samples on [t_start, t_start + horizon], W(t_start) = 0."""
    _check_grid_args(n, horizon)
    dt = horizon / (n - 1)
    rng = _rng(seed)
    incs = rng.standard_normal(n - 1) * np.sqrt(dt)
    values = np.concatenate(([0.0], np.cumsum(incs)))
    meta = {"descriptor": ProcessDescriptor(BROWNIAN, seed=seed)}
    return GridPath(t_start, dt, values, meta)


def standard_stable(alpha, rng, size):
    """Symmetric alpha-stable variates with characteristic function exp(-|theta|^alpha).

    Chambers-Mallows-Stuck sampling.  Note that under this convention
    alpha = 2 gives a Gaussian of variance 2, not 1.
    """
    u = (rng.random(size) - 0.5) * np.pi
    w = rng.exponential(1.0, size)
    if alpha == 1.0:
        return np.tan(u)
    s = np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
    t = (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
    return s * t


def simulate_stable(alpha, n, horizon, seed, t_start=0.0):
    """Symmetric alpha-stable Levy path: independent increments dt^(1/alpha) * S(1)."""
    if not 0.0 < alpha <= 2.0:
        raise ParameterError("alpha must lie in (0, 2]")
    _check_grid_args(n, horizon)
    dt = horizon / (n - 1)
    rng = _rng(seed)
    incs = standard_stable(alpha, rng, n - 1) * dt ** (1.0 / alpha)
    values = np.concatenate(([0.0], np.cumsum(incs)))
    meta = {"descriptor": ProcessDescriptor(STABLE, alpha=alpha, seed=seed)}
    return GridPath(t_start, dt, values, meta)


def fbm_covariance(s, t, hurst):
    """Covariance of fractional Brownian motion started at 0."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    h2 = 2.0 * hurst
    return 0.5 * (np.abs(s) ** h2 + np.abs(t) ** h2 - np.abs(t - s) ** h2)


def _fgn_autocovariance(m, hurst):
    """rho(k) = (|k+1|^{2H} + |k-1|^{2H} - 2 k^{2H}) / 2 for k = 0..m-1.

    Written as k^{2H} (expm1(2H log1p(1/k)) + expm1(2H log1p(-1/k))) / 2
    for k >= 2, and as 2^{2H-1} - 1 = expm1((2H-1) log 2) at k = 1, so the
    large powers of k never cancel against each other.
    """
    h2 = 2.0 * hurst
    rho = np.empty(m)
    rho[0] = 1.0
    rho[1:2] = np.expm1((h2 - 1.0) * np.log(2.0))
    k = np.arange(2, m, dtype=float)
    rho[2:] = 0.5 * k ** h2 * (np.expm1(h2 * np.log1p(1.0 / k))
                               + np.expm1(h2 * np.log1p(-1.0 / k)))
    return rho


def _circulant_eigenvalues(m, hurst):
    rho = _fgn_autocovariance(m, hurst)
    circ = np.concatenate([rho, rho[m - 2:0:-1]])
    return np.fft.rfft(circ).real


def fgn_batch(m, hurst, rng, replicas=1):
    """Unit-grid fractional Gaussian noise, shape (replicas, m).

    Circulant embedding of the increment covariance (Davies-Harte).  The
    embedding is nonnegative definite for every H (Craigmile 2003), so
    eigenvalues down to -1e-10 of the largest are roundoff and clipped to
    0; anything more negative raises SynthesisError.
    """
    if not 0.0 < hurst < 1.0:
        raise ParameterError("hurst must lie in (0, 1)")
    if hurst == 0.5 or m == 1:
        return rng.standard_normal((replicas, m))
    eig = _circulant_eigenvalues(m, hurst)
    if np.min(eig) < -1e-10 * np.max(eig):
        raise SynthesisError(
            f"circulant embedding is not nonnegative definite: smallest/largest "
            f"eigenvalue {np.min(eig) / np.max(eig):.2e} at m={m}, hurst={hurst:g}")
    eig = np.clip(eig, 0.0, None)
    mm = 2 * (m - 1)
    # Hermitian-symmetric complex Gaussian spectrum in rfft layout;
    # endpoints are real, interior bins are complex of unit variance.
    n_freq = eig.size
    a = rng.standard_normal((replicas, n_freq))
    b = rng.standard_normal((replicas, n_freq))
    spec = np.empty((replicas, n_freq), dtype=complex)
    spec[:, 0] = a[:, 0]
    spec[:, -1] = a[:, -1]
    spec[:, 1:-1] = (a[:, 1:-1] + 1j * b[:, 1:-1]) / np.sqrt(2.0)
    out = np.fft.irfft(np.sqrt(eig) * spec, n=mm, axis=1)
    return out[:, :m] * np.sqrt(mm)


def simulate_fbm(hurst, n, horizon, seed, t_start=0.0):
    """Fractional Brownian motion on a uniform grid, exact in law."""
    if not 0.0 < hurst < 1.0:
        raise ParameterError("hurst must lie in (0, 1)")
    _check_grid_args(n, horizon)
    dt = horizon / (n - 1)
    rng = _rng(seed)
    fgn = fgn_batch(n - 1, hurst, rng, replicas=1)[0]
    values = np.concatenate(([0.0], np.cumsum(fgn))) * dt ** hurst
    meta = {"descriptor": ProcessDescriptor(FBM, hurst=hurst, seed=seed)}
    return GridPath(t_start, dt, values, meta)


def simulate(descriptor, n, horizon, seed, t_start=0.0):
    """Dispatch on the process family of a descriptor."""
    if descriptor.family == BROWNIAN:
        return simulate_brownian(n, horizon, seed, t_start)
    if descriptor.family == STABLE:
        return simulate_stable(descriptor.alpha, n, horizon, seed, t_start)
    return simulate_fbm(descriptor.hurst, n, horizon, seed, t_start)
