"""Sampled trajectories of self-similar driving processes.

Three families are provided, all started at 0 and sampled on uniform
grids: Brownian motion, the symmetric alpha-stable Levy process and
fractional Brownian motion.  Generation is a pure function of
(descriptor, grid, seed): identical inputs reproduce identical values
bit for bit, and instances are immutable, so paths can be shared and
generated in parallel without coordination.

The samplers also take a sequence of seeds, one per replica, and return
one GridPath whose values have shape (replicas, n), time on the last
axis.  Only the generator draws are made seed by seed; the family
transform, the step scaling and the cumulative sum run once over the
stacked draws, and row k equals the one-seed path of seeds[k] bit for
bit.  A single seed is the batch of one with the replica axis dropped.
"""

import functools
import hashlib
from dataclasses import dataclass, replace

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
    """A trajectory sampled at the nodes t_start + k*dt, closed at both ends.

    `values` has shape (n,), or (replicas, n) for a batch of replicas on
    one grid; time is the last axis.  `process` names the family a sampler
    drew the path from; derived paths such as increments carry None.
    """

    t_start: float
    dt: float
    values: np.ndarray
    process: ProcessDescriptor | None = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ParameterError("dt must be positive")
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim not in (1, 2) or vals.shape[-1] < 2:
            raise ParameterError("a path needs at least 2 samples")
        object.__setattr__(self, "values", vals)
        vals.setflags(write=False)

    def __len__(self):
        """Number of grid nodes."""
        return self.values.shape[-1]

    @property
    def t_end(self):
        return self.t_start + (len(self) - 1) * self.dt

    def node_index(self, t):
        """Index of the grid node at time t, or None if t is off-grid."""
        k = (t - self.t_start) / self.dt
        k_round = int(round(k))
        if abs(k - k_round) <= 1e-9 and 0 <= k_round < len(self):
            return k_round
        return None

    def value_at(self, t):
        """Linear interpolation between grid nodes; exact at the nodes."""
        x = np.asarray(t, dtype=float)
        k = (x - self.t_start) / self.dt
        if np.any(k < -1e-9) or np.any(k > len(self) - 1 + 1e-9):
            raise ParameterError("time outside the sampled grid")
        k = np.clip(k, 0.0, len(self) - 1)
        lo = np.minimum(k.astype(int), len(self) - 2)
        frac = k - lo
        out = (1.0 - frac) * self.values[..., lo] + frac * self.values[..., lo + 1]
        return out if np.ndim(out) else float(out)

    def restricted(self, t_lo, t_hi):
        """Sub-path of the nodes inside [t_lo, t_hi]."""
        i0 = int(np.ceil((t_lo - self.t_start) / self.dt - 1e-9))
        i1 = int(np.floor((t_hi - self.t_start) / self.dt + 1e-9))
        i0 = max(i0, 0)
        i1 = min(i1, len(self) - 1)
        return replace(self, t_start=self.t_start + i0 * self.dt,
                       values=self.values[..., i0:i1 + 1].copy())


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
    return _sha256_seed(master_seed, replica_index)


def replica_seeds(master_seed, replicas):
    """The seeds seed_split(master_seed, i) for i = 0..replicas-1, in order.

    Every replica loop draws its seeds from this list.
    """
    return [_sha256_seed(master_seed, i) for i in range(replicas)]


def _sha256_seed(master_seed, replica_index):
    digest = hashlib.sha256(f"{int(master_seed)}:{int(replica_index)}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def _rng(seed):
    return np.random.Generator(np.random.PCG64(seed))


def _seed_list(seed):
    """The seeds of a batch; a single seed is a batch of one."""
    return [seed] if np.ndim(seed) == 0 else list(seed)


def _path_values(increments):
    """Rows 0, cumsum(increments) along the last axis."""
    values = np.zeros(increments.shape[:-1] + (increments.shape[-1] + 1,))
    np.cumsum(increments, axis=-1, out=values[..., 1:])
    return values


def _grid_path(seed, t_start, dt, rows, process):
    """GridPath of the (replicas, n) rows; one seed gives the path of row 0."""
    return GridPath(t_start, dt, rows[0] if np.ndim(seed) == 0 else rows, process)


def simulate_brownian(n, horizon, seed, t_start=0.0):
    """Standard Brownian motion: n samples on [t_start, t_start + horizon], W(t_start) = 0."""
    return brownian_paths([(n, horizon, t_start)], seed)[0]


def brownian_paths(grids, seed):
    """Brownian paths on several grids (n, horizon, t_start) from one draw.

    Path k has the values sqrt(dt_k) * cumsum(Z[:n_k - 1]), preceded by 0,
    where Z is the seed's stream of standard normals.  numpy's Generator
    draws and cumsum are sequential, so each path equals
    simulate_brownian(n_k, horizon_k, seed, t_start_k) bit for bit, while
    the normals are drawn once, into the longest path.  For a sequence of
    seeds each path is a batch with one row per seed.
    """
    for n, horizon, _ in grids:
        _check_grid_args(n, horizon)
    seeds = _seed_list(seed)
    longest = max(range(len(grids)), key=lambda k: grids[k][0])
    draws = np.empty((len(seeds), grids[longest][0]))
    draws[:, 0] = 0.0
    for row, s in zip(draws, seeds):
        _rng(s).standard_normal(out=row[1:])
    process = ProcessDescriptor(BROWNIAN)
    paths = [None] * len(grids)
    # The longest path is scaled in place, so it goes last.
    for k in sorted(range(len(grids)), key=lambda k: k == longest):
        n, horizon, t_start = grids[k]
        dt = horizon / (n - 1)
        rows = draws if k == longest else draws[:, :n].copy()
        rows[:, 1:] *= np.sqrt(dt)
        np.cumsum(rows[:, 1:], axis=-1, out=rows[:, 1:])
        paths[k] = _grid_path(seed, t_start, dt, rows, process)
    return paths


def _cms_draws(rng, size):
    """The uniforms, then the exponentials, of `size` Chambers-Mallows-Stuck variates."""
    return rng.random(size), rng.exponential(1.0, size)


def _cms_transform(alpha, uniforms, exponentials):
    """Chambers-Mallows-Stuck: standard symmetric alpha-stable variates from the draws."""
    u = (uniforms - 0.5) * np.pi
    if alpha == 1.0:
        return np.tan(u)
    s = np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
    t = (np.cos((1.0 - alpha) * u) / exponentials) ** ((1.0 - alpha) / alpha)
    return s * t


def standard_stable(alpha, rng, size):
    """Symmetric alpha-stable variates with characteristic function exp(-|theta|^alpha).

    Chambers-Mallows-Stuck sampling.  Note that under this convention
    alpha = 2 gives a Gaussian of variance 2, not 1.
    """
    return _cms_transform(alpha, *_cms_draws(rng, size))


def simulate_stable(alpha, n, horizon, seed, t_start=0.0):
    """Symmetric alpha-stable Levy path: independent increments dt^(1/alpha) * S(1)."""
    process = ProcessDescriptor(STABLE, alpha=alpha)
    _check_grid_args(n, horizon)
    dt = horizon / (n - 1)
    seeds = _seed_list(seed)
    u, w = np.empty((2, len(seeds), n - 1))
    for k, s in enumerate(seeds):
        u[k], w[k] = _cms_draws(_rng(s), n - 1)
    rows = _path_values(_cms_transform(alpha, u, w) * dt ** (1.0 / alpha))
    return _grid_path(seed, t_start, dt, rows, process)


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


@functools.lru_cache(maxsize=8)
def _circulant_sqrt_eigenvalues(m, hurst):
    """Square roots of the circulant embedding's eigenvalues, read-only and cached.

    The embedding is nonnegative definite for every H (Craigmile 2003), so
    eigenvalues down to -1e-10 of the largest are roundoff and clipped to
    0; anything more negative raises SynthesisError.
    """
    eig = _circulant_eigenvalues(m, hurst)
    if np.min(eig) < -1e-10 * np.max(eig):
        raise SynthesisError(
            f"circulant embedding is not nonnegative definite: smallest/largest "
            f"eigenvalue {np.min(eig) / np.max(eig):.2e} at m={m}, hurst={hurst:g}")
    root = np.sqrt(np.clip(eig, 0.0, None))
    root.flags.writeable = False
    return root


def fgn_batch(m, hurst, rng, replicas=1):
    """Unit-grid fractional Gaussian noise, shape (replicas, m).

    `rng` is one generator, which draws all the rows, or an iterable of
    generators, which draw one row each (`replicas` is then their number).
    Circulant embedding of the increment covariance (Davies-Harte), with
    the embedding's spectrum built once per (m, hurst) and all rows
    transformed together.
    """
    ProcessDescriptor(FBM, hurst=hurst)  # raises ParameterError outside (0, 1)
    # White noise needs one block of normals per row; otherwise the real and
    # imaginary parts of the spectrum take one block each.
    blocks = 1 if hurst == 0.5 or m == 1 else 2
    if isinstance(rng, np.random.Generator):
        z = rng.standard_normal((blocks, replicas, m))
    else:
        z = np.stack([g.standard_normal((blocks, m)) for g in rng], axis=1)
    if blocks == 1:
        return z[0]
    root = _circulant_sqrt_eigenvalues(m, hurst)
    mm = 2 * (m - 1)
    # Hermitian-symmetric complex Gaussian spectrum in rfft layout;
    # endpoints are real, interior bins are complex of unit variance.
    a, b = z
    spec = np.empty(a.shape, dtype=complex)
    spec[:, 0] = a[:, 0]
    spec[:, -1] = a[:, -1]
    spec[:, 1:-1] = (a[:, 1:-1] + 1j * b[:, 1:-1]) / np.sqrt(2.0)
    out = np.fft.irfft(root * spec, n=mm, axis=1)
    return out[:, :m] * np.sqrt(mm)


def simulate_fbm(hurst, n, horizon, seed, t_start=0.0):
    """Fractional Brownian motion on a uniform grid, exact in law."""
    process = ProcessDescriptor(FBM, hurst=hurst)
    _check_grid_args(n, horizon)
    dt = horizon / (n - 1)
    rows = _path_values(fgn_batch(n - 1, hurst, map(_rng, _seed_list(seed)))) * dt ** hurst
    return _grid_path(seed, t_start, dt, rows, process)


def simulate(descriptor, n, horizon, seed, t_start=0.0):
    """Dispatch on the process family of a descriptor; `seed` may be a sequence."""
    if descriptor.family == BROWNIAN:
        return simulate_brownian(n, horizon, seed, t_start)
    if descriptor.family == STABLE:
        return simulate_stable(descriptor.alpha, n, horizon, seed, t_start)
    return simulate_fbm(descriptor.hurst, n, horizon, seed, t_start)
