"""Branching-turnover particle system: simulation, stationary characteristic
functions, and exact moments of the limiting single-particle law."""

from .charfn import (
    DEFAULT_CAP,
    ResourceLimitError,
    distance_cf,
    distance_cf_limit,
    distance_pdf,
    distances_joint_cf,
    distances_joint_cf_limit,
    laplace_cdf,
    laplace_pdf,
    particle_cf,
    particle_cf_limit,
)
from .empirical import (
    EmpiricalSummary,
    accumulate_moments,
    batch_means_se,
    empirical_cf,
    kde,
    ks_laplace,
    summarize,
)
from .moments import (
    PhiTable,
    build_phi_table,
    partitions,
    phi_base,
    prune,
)
from .offsets import OffsetDistribution, gaussian, two_point, uniform
from .simulator import (
    SimConfig,
    Trajectory,
    distance_row,
    draw_moves,
    renormalise,
    run,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_CAP",
    "EmpiricalSummary",
    "OffsetDistribution",
    "PhiTable",
    "ResourceLimitError",
    "SimConfig",
    "Trajectory",
    "accumulate_moments",
    "batch_means_se",
    "build_phi_table",
    "distance_cf",
    "distance_cf_limit",
    "distance_pdf",
    "distance_row",
    "distances_joint_cf",
    "distances_joint_cf_limit",
    "draw_moves",
    "empirical_cf",
    "gaussian",
    "kde",
    "ks_laplace",
    "laplace_cdf",
    "laplace_pdf",
    "particle_cf",
    "particle_cf_limit",
    "partitions",
    "phi_base",
    "prune",
    "renormalise",
    "run",
    "summarize",
    "two_point",
    "uniform",
    "__version__",
]
