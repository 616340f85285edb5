"""Killed random walks in random potentials on Z^d.

Exact linear-algebra computation of travel weights/costs of the simple
random walk penalized by exp(-omega) in an i.i.d. nonnegative potential,
with independent verification oracles, directional growth-rate (Lyapunov)
estimation, concentration experiments, coarse-graining checks, and a
reproducible experiment harness.

`import rwpot` loads the solver stack: errors, lattice, rng, potential,
solver, io, stats and concentration. The experiment layer, oracle,
lyapunov, coarse and harness, loads on first use of one of its names
(rwpot.harness, rwpot.run, ...), so a library caller that samples and
solves never compiles or runs it; rwpot.cli imports harness directly.
"""

from importlib import import_module as _import_module

__version__ = "1.0.0"

from .errors import (AssumptionError, CapacityError, DegenerateWeightError,
                     DomainError, FeasibilityError, ParameterError,
                     RwpotError, SolverError)
from .lattice import (AnimalSpec, BoxRegion, canonical_form, coarse_index,
                      enumerate_animals, norms)
from .potential import (AssumptionReport, DistributionSpec, PotentialField,
                        assumption_report, load_field, sample_field,
                        save_field)
from .solver import (SolveResult, WeightedFunctionals, exit_functional,
                     exit_functionals, raise_site, travel_weight,
                     weighted_functionals)
from .concentration import (EntropyRecord, MartingaleDiagnostics,
                            PerturbationRecord, TailReport,
                            compare_restricted, entropy_suite,
                            martingale_diagnostics, pinned_return_probability,
                            psi_herbst, rank_one_verify, tail_experiment,
                            truncation_gap, variance_scaling)

# the names each module of the experiment layer exports, loaded on first use
_LAZY = {
    "oracle": ("CrossingTrace", "PathEnumResult", "enumerate_paths",
               "sample_crossings", "sample_walk_weight"),
    "lyapunov": ("AlphaEstimate", "check_norm_properties", "estimate_alpha"),
    "coarse": ("ChiEvaluation", "animal_occupancy_check", "chi_evaluate",
               "chi_upper_probe", "occupied_cost_bound_check",
               "supermartingale_step_check"),
    "harness": ("ExperimentConfig", "RunManifest", "oracle_check", "run"),
}
_LAZY_NAMES = {name: module for module, names in _LAZY.items() for name in names}

__all__ = sorted([name for name in dir() if not name.startswith("_")]
                 + [*_LAZY, *_LAZY_NAMES])


def __getattr__(name):
    """A module of the experiment layer, or a name it exports, imported on
    first use (PEP 562). The import binds the module here; a name is looked
    up in its module each time, so it is whatever the module holds now."""
    if name in _LAZY:
        return _import_module(f".{name}", __name__)
    if name in _LAZY_NAMES:
        return getattr(_import_module(f".{_LAZY_NAMES[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
