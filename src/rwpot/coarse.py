"""Coarse-graining machinery as executable checks: occupied-cell animals,
the occupied-box cost bound, the chi crossing functional, and the one-step
supermartingale inequality.

chi is defined as a supremum over an infinite configuration class and is not
computable; everything here works against a *probe* (max over sampled
configurations plus canonical near-extremal candidates), and downstream
checks are explicitly relative to that probe.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ParameterError
from .io import write_csv, write_json
from .lattice import AnimalSpec, BoxRegion, enumerate_animals
from .potential import (ZERO_LAW, PotentialField, sample_field_where,
                        sample_fields, save_field, seed_stacks)
from .rng import counter_uniform, counter_uniforms, derive_seed
from .solver import exit_functional, exit_functionals
from .stats import wilson_interval

STRICTNESS_TOL = 1e-12


# ---------------------------------------------------------------------------
# Animal occupancy (coarse fields)


def animal_occupancy_check(spec, M, kappa, l_cap, samples, seed, d=2):
    """Empirical failure rate of the half-occupancy event per animal size.

    Each coarse cell is occupied independently with
    p = 1 - (1 - P(omega >= kappa))^(M^d). For each sampled coarse field and
    each size l, the event fails if any anchored l1-animal of size l through
    the origin cell has fewer than half its cells occupied. Failure rates
    should decay roughly exponentially in l when p is near 1.
    """
    if M < 1 or l_cap < 1:
        raise ParameterError("M and l_cap must be >= 1")
    p = 1.0 - (1.0 - spec.tail_prob(kappa)) ** (M ** d)
    # all cells any anchored animal of size <= l_cap can touch
    cell_box = BoxRegion.centered(l_cap, d)
    cells = cell_box.sites()
    cell_index = {tuple(int(v) for v in c): i for i, c in enumerate(cells)}
    per_l = []
    animal_cells = {}
    for l in range(1, l_cap + 1):
        animals, count = enumerate_animals(
            AnimalSpec(d, l, "L1", anchored=True), cap=l_cap)
        idx = np.asarray([[cell_index[c] for c in animal] for animal in animals])
        animal_cells[l] = (idx, count)
    # occupancy matrix: one coarse field per sample, counter-keyed per cell
    occupied = np.concatenate([counter_uniforms(seeds, cells) < p
                               for seeds in seed_stacks((seed,), samples, len(cells))])
    for l in range(1, l_cap + 1):
        idx, count = animal_cells[l]
        # counted in the least unsigned dtype that holds l: an int64 count
        # of every animal of every sample would set the run's peak memory
        occ_counts = occupied[:, idx.ravel()].reshape(samples, count, l).sum(
            axis=2, dtype=np.min_scalar_type(l))
        bad = occ_counts < l / 2.0  # occupied fraction below one half
        fails = bad.any(axis=1)
        k = int(fails.sum())
        lo, hi = wilson_interval(k, samples)
        per_l.append({
            "l": l,
            "animal_count": count,
            "failure_rate": k / samples,
            "failures": k,
            "ci": [lo, hi],
            "violation_animals_total": int(bad.sum()),
            "animal_bound_4dl": 4.0 ** (d * l),
        })
    return {
        "d": d, "M": M, "kappa": kappa, "p_occupied": p, "samples": samples,
        "per_l": per_l,
    }


def write_animal_report(report, csv_path, json_path):
    write_csv(csv_path,
              ("l", "animal_count", "failures", "failure_rate", "ci_lo", "ci_hi"),
              [(r["l"], r["animal_count"], r["failures"], r["failure_rate"],
                r["ci"][0], r["ci"][1]) for r in report["per_l"]])
    write_json(json_path, {k: v for k, v in report.items() if k != "per_l"})


# ---------------------------------------------------------------------------
# Occupied-box cost bound


def occupied_cost_bound_check(spec, M, kappa, n_trials, seed, d=2):
    """Exit functional from inside an occupied M-box against the bound
    1 - (1 - e^{-kappa}) (1/2d)^M, on boxes sampled conditioned on occupancy."""
    if M > 6:
        raise ParameterError("M <= 6 required: (1/2d)^M must stay meaningful")
    box = BoxRegion((0,) * d, (M,) * d)
    bound = 1.0 - (1.0 - math.exp(-kappa)) * (1.0 / (2 * d)) ** M
    rows = []
    violations = 0
    for trial in range(n_trials):
        sub = derive_seed(seed, trial)
        fld = sample_field_where(lambda f: f.is_occupied(kappa), spec, box,
                                 (sub,), 10_000)
        u = counter_uniform(sub, np.asarray([trial, 0x57A7], dtype=np.int64))
        start = tuple(int(v) for v in box.sites()[int(u * M ** d) % M ** d])
        value = exit_functional(fld, box, start)
        ok = value <= bound + STRICTNESS_TOL
        violations += 0 if ok else 1
        rows.append({"start": start, "value": value, "ok": ok})
    return {"M": M, "kappa": kappa, "d": d, "bound": bound,
            "n_trials": n_trials, "violations": violations, "rows": rows}


# ---------------------------------------------------------------------------
# chi functional


@dataclass(eq=False)
class ChiEvaluation:
    l: int
    start: tuple  # argmax over starts with |start|_inf <= l/2
    value: float
    lower_witness: float  # straight-path lower bound at the argmax start
    per_start_max_ok: bool


def chi_region(l, d):
    """Field region large enough that the 3l/4 crossing shell around every
    admissible start lies inside."""
    radius = int(l // 2 + math.ceil(3 * l / 4.0))
    return BoxRegion.centered(radius, d)


def in_omega_prime(field, l, kappa):
    """Whether the central open cube (-l/8, l/8)^d is occupied at level kappa."""
    d = field.dimension
    k = int(math.ceil(l / 8.0)) - 1
    lo = (-k,) * d
    hi = (k + 1,) * d
    return field.is_occupied(kappa, lo, hi)


def chi_evaluate(field, l, kappa):
    """sup over starts with |start|_inf <= l/2 of
    E^start[exp(-sum_{k < tau_1} omega)], tau_1 the first 3l/4 crossing.

    Requires the configuration to be in Omega' (central cube occupied); the
    value is then strictly inside (0, 1). The straight-path witness
    exp(-sum_{z in r} omega(z)) (1/2d)^{|r|} is checked against the result.
    """
    if l < 4 or l % 2:
        raise ParameterError("l must be even and >= 4")
    d = field.dimension
    if not in_omega_prime(field, l, kappa):
        raise DomainError("configuration not in Omega': central cube unoccupied")
    starts = [tuple(int(v) for v in z)
              for z in BoxRegion.centered(l // 2, d).sites()]
    values = exit_functionals(field, field.region, starts, ("linf", 3 * l / 4.0))
    best = int(np.argmax(values))  # the first maximum, in start order
    best_val, best_start = float(values[best]), starts[best]
    # straight +e1 path from the argmax start to the crossing shell
    steps = int(math.ceil(3 * l / 4.0))
    path_omega = sum(field.value_at(
        tuple(c + (k if i == 0 else 0) for i, c in enumerate(best_start)))
        for k in range(steps))
    witness = math.exp(-path_omega) * (1.0 / (2 * d)) ** steps
    ok = witness - STRICTNESS_TOL <= best_val <= 1.0 - STRICTNESS_TOL
    return ChiEvaluation(l, best_start, best_val, witness, ok)


def canonical_chi_configs(l, d, kappa):
    """Near-extremal candidates: a single site at level kappa placed at each
    corner (and the center) of the central cube, all other sites zero. The
    heuristic that these dominate the sup is plausible but unproven; the
    probe report flags it."""
    region = chi_region(l, d)
    k = int(math.ceil(l / 8.0)) - 1
    corners = {tuple(int(s) * k for s in signs)
               for signs in np.stack(np.meshgrid(*([[-1, 1]] * d)), axis=-1
                                     ).reshape(-1, d)}
    corners.add((0,) * d)
    configs = []
    zero = np.zeros(region.shape)
    for site in sorted(corners):
        values = zero.copy()
        values[tuple(c - lo for c, lo in zip(site, region.lo))] = kappa
        configs.append(PotentialField(region, values, ZERO_LAW, 0,
                                      (("canonical_site", site),)))
    return configs


def chi_upper_probe(spec, l, kappa, n_configs, seed, witness_path=None, d=2):
    """Probe of chi: max of chi_evaluate over sampled Omega' configurations
    and the canonical single-occupied-site candidates."""
    region = chi_region(l, d)
    evaluations = []
    best = None
    for i in range(n_configs):
        fld = sample_field_where(lambda f: in_omega_prime(f, l, kappa), spec,
                                 region, (seed, i), 100_000)
        ev = chi_evaluate(fld, l, kappa)
        evaluations.append(ev)
        if best is None or ev.value > best[0].value:
            best = (ev, fld)
    for fld in canonical_chi_configs(l, d, kappa):
        ev = chi_evaluate(fld, l, kappa)
        evaluations.append(ev)
        if best is None or ev.value > best[0].value:
            best = (ev, fld)
    if witness_path is not None:
        save_field(best[1], witness_path)
    return {
        "l": l, "kappa": kappa, "n_configs": n_configs,
        "chi_probe": best[0].value,
        "argmax_start": list(best[0].start),
        "all_strictly_inside": all(
            STRICTNESS_TOL < e.value < 1.0 - STRICTNESS_TOL for e in evaluations),
        "all_witness_ok": all(e.per_start_max_ok for e in evaluations),
        "values": [e.value for e in evaluations],
        "probe_caveat": (
            "chi is a supremum over all admissible configurations; this probe "
            "maximizes over samples plus canonical single-occupied-site "
            "candidates and may underestimate the true chi"),
    }


def supermartingale_step_check(spec, l, kappa, chi_value, n_trials, seed,
                               d=2):
    """One-step inequality behind the crossing supermartingale in Z^d: from
    an occupied cube the crossing weight is at most the probed chi (probe it
    in the same d); from an unoccupied cube it is at most 1. Validity is
    relative to the probe."""
    region = chi_region(l, d)
    origin = (0,) * d

    def row(fld):
        value = exit_functional(fld, region, origin, ("linf", 3 * l / 4.0))
        occ = in_omega_prime(fld, l, kappa)
        limit = chi_value if occ else 1.0
        return {"occupied": occ, "value": value, "limit": limit,
                "ok": value <= limit + STRICTNESS_TOL}

    rows = sample_fields(row, spec, region, (seed,), n_trials)
    return {"l": l, "kappa": kappa, "chi_value": chi_value,
            "n_trials": n_trials,
            "occupied_trials": sum(int(r["occupied"]) for r in rows),
            "violations": sum(1 for r in rows if not r["ok"]), "rows": rows,
            "relative_to_probe": True}
