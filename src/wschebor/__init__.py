"""Numerical laboratory for occupation measures of mollified small increments.

Self-similar processes (Brownian, symmetric alpha-stable, fractional
Brownian) are filtered through bounded-variation kernels at small scales;
the package builds the resulting occupation, process-level and discrete
empirical measures, the closed-form second-order theory, and the
associated large-deviation rate functions.
"""

from .errors import (
    ConfigError,
    CoverageError,
    ParameterError,
    QuadratureError,
    ResolutionError,
    SeedMismatchError,
    SynthesisError,
    WscheborError,
)
from .paths import (
    GridPath,
    ProcessDescriptor,
    fbm_covariance,
    seed_split,
    simulate,
    simulate_brownian,
    simulate_fbm,
    simulate_stable,
)
from .mollifiers import (
    SignedKernel,
    bessel_k0,
    fourier,
    kernel_by_id,
    kernel_fbm_ou,
    kernel_ou_bessel,
    kernel_ou_bessel_value,
    kernel_ou_exponential,
    kernel_psi1,
    kernel_psi2,
    kernel_triangle,
)
from .increments import (
    dot_increment,
    dpsi_window,
    normalized_increment,
    unit_scale_process,
)
from .measures import (
    EmpiricalMeasure,
    dbl_distance,
    ks_critical_value,
    ks_distance,
    ks_two_sample,
    occupation_measure,
)
from .spectral import (
    SpectralDensity,
    covariance_from_density,
    sigma_sq,
    spectral_density,
    verify_ou_match,
)
from .ldp import (
    RateCurve,
    log_moment_generating,
    moment_rate,
)
from .levelproc import (
    PathSampleCloud,
    char_functional,
    char_functional_limit,
    extract_cloud,
    gaussian_ball_probability,
    l2_ball_frequency,
)
from .discrete import (
    LagSchedule,
    coupled_pair,
    coupling_distance,
    discrete_measure,
    over_log_schedule,
    power_schedule,
)
from .cli import ExperimentConfig, list_experiments, run

__version__ = "0.1.0"
