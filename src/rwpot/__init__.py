"""Killed random walks in random potentials on Z^d.

Exact linear-algebra computation of travel weights/costs of the simple
random walk penalized by exp(-omega) in an i.i.d. nonnegative potential,
with independent verification oracles, directional growth-rate (Lyapunov)
estimation, concentration experiments, coarse-graining checks, and a
reproducible experiment harness.
"""

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
from .oracle import (CrossingTrace, PathEnumResult, enumerate_paths,
                     sample_crossings, sample_walk_weight)
from .lyapunov import AlphaEstimate, check_norm_properties, estimate_alpha
from .concentration import (EntropyRecord, MartingaleDiagnostics,
                            PerturbationRecord, TailReport,
                            compare_restricted, entropy_suite,
                            martingale_diagnostics, pinned_return_probability,
                            psi_herbst, rank_one_verify, tail_experiment,
                            truncation_gap, variance_scaling)
from .coarse import (ChiEvaluation, animal_occupancy_check, chi_evaluate,
                     chi_upper_probe, occupied_cost_bound_check,
                     supermartingale_step_check)
from .harness import ExperimentConfig, RunManifest, oracle_check, run

__all__ = [name for name in dir() if not name.startswith("_")]
