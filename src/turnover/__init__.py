"""Branching-turnover particle system: simulation, stationary characteristic
functions, and exact moments of the limiting single-particle law.

The package is lazy: ``import turnover`` loads no numpy, and each public name
imports its module on first use (PEP 562)."""

import importlib

__version__ = "0.1.0"

# defining module -> the public names it exports
_EXPORTS = {
    "charfn": (
        "DEFAULT_CAP", "ResourceLimitError", "distance_cf", "distance_cf_limit",
        "distance_pdf", "distances_joint_cf", "distances_joint_cf_limit",
        "laplace_cdf", "laplace_pdf", "particle_cf", "particle_cf_limit",
    ),
    "empirical": (
        "EmpiricalSummary", "accumulate_moments", "batch_means_se", "empirical_cf",
        "kde", "ks_laplace", "summarize",
    ),
    "moments": ("PhiTable", "build_phi_table", "partitions", "phi_base"),
    "offsets": ("OffsetDistribution", "gaussian", "two_point", "uniform"),
    "simulator": (
        "SimConfig", "Trajectory", "distance_row", "draw_moves", "renormalise", "run",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
