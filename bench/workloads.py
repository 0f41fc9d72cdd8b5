"""The benchmark's workloads: fixed experiment configs, seeded by the caller.

Every size that sets a workload's cost is written out rather than taken
from the package defaults, so a change of default does not silently
change what the benchmark measures.  NOTES.md says why each workload
exists.
"""

OCCUPATION = [
    {"experiment": "wschebor-check", "kernel_id": "psi1", "epsilon": 2.0 ** -10,
     "grid_n": 2 ** 18, "replicas": 20, "threads": 1},
]

COUPLING = [
    {"experiment": "discrete-lag", "n_discrete": 2 ** 18,
     "lag_kind": "power:gamma=0.6", "replicas": 3, "threads": 2},
]

ANALYTIC = [
    {"experiment": "spectral-tables", "kernel_id": "psi1", "threads": 1},
    {"experiment": "spectral-tables", "kernel_id": "ou-exp", "threads": 1},
    {"experiment": "moment-rate", "kernel_id": "ou-exp", "threads": 1},
    {"experiment": "ou-match", "kernel_id": "ou-exp", "replicas": 20,
     "horizon": 50.0, "threads": 1},
    {"experiment": "level-process", "epsilon": 2.0 ** -10, "t_count": 2 ** 14,
     "s_count": 33, "threads": 1},
    {"experiment": "stable-marginal", "kernel_id": "psi1", "family": "stable",
     "alpha": 1.5, "replicas": 2000, "threads": 1},
    {"experiment": "stable-marginal", "kernel_id": "psi1", "family": "brownian",
     "replicas": 2000, "threads": 1},
]

WORKLOADS = {
    "occupation": OCCUPATION,
    "coupling": COUPLING,
    "analytic": ANALYTIC,
}

# Every experiment any workload runs, for the per-experiment wall metrics.
EXPERIMENTS = ("wschebor-check", "discrete-lag", "spectral-tables", "moment-rate",
               "ou-match", "level-process", "stable-marginal")


def configs(workload, seed):
    """The workload's config dicts with `seed` applied to each."""
    return [dict(cfg, seed=seed) for cfg in WORKLOADS[workload]]
