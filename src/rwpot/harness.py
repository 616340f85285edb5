"""Experiment orchestration: declarative JSON configs, dispatch, manifests.

One table, _PARAMS, holds each experiment's config keys with their types,
defaults and least values or lengths. Validation refuses any other key, a
value of the wrong type or below its bound, a number that is NaN or
infinite, a target at the origin (except in solve), and a box factor that
is not positive or whose box radius is past the largest float; it then
fills in every default and coerces each number to its type, so the runners
read resolved values only.

Every run is a pure function of its config (seed included; wall-clock time
is never used for anything but the recorded runtime), writes its tabular
results as RFC-4180 CSV and summaries as sorted-key JSON via atomic
temp-then-rename, and emits a manifest with the resolved config (which, as
a config file, repeats the run), its hash and a SHA-256 inventory of every
produced file. Reruns of a config write identical bytes: every Monte Carlo
sample is a pure function of its own seed, aggregated in seed order.
"""

import json
import math
import os
import time
import warnings
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from . import __version__
from .concentration import (DEFAULT_BOX_FACTOR, compare_restricted,
                            entropy_global_probe, entropy_suite, prop_box,
                            psi_herbst, rank_one_verify, tail_experiment,
                            truncation_gap, write_perturbation_report,
                            write_tail_report)
from .coarse import (animal_occupancy_check, chi_upper_probe,
                     supermartingale_step_check, write_animal_report)
from .errors import ParameterError
from .io import sha256_of_file, sha256_of_json, write_csv, write_json
from .lattice import AnimalSpec, BoxRegion, enumerate_animals
from .lyapunov import estimate_alpha, write_alpha_report
from .oracle import enumerate_paths, sample_walk_weight
from .potential import DistributionSpec, sample_field
from .rng import derive_seed
from .solver import blas_threads, bounding_box, travel_weight

FORMAT_VERSION = 1

# A type is int, float (any finite number), str, _TARGET (a lattice point
# other than the origin), _FACTOR (a box factor: a number > 0), [type] (a
# list of that type) or {key: type} (an object with those keys).
_TARGET = "nonzero [int]"
_FACTOR = "positive number"

_X = (_TARGET, [4, 0], 1)
_BOX = (_FACTOR, DEFAULT_BOX_FACTOR, None)
_KAPPA = (float, 0.5, None)

# What each experiment reads: "section.key" -> (type, default, least value
# or length). A default of None leaves the key absent unless given; a
# callable default or least value is computed from the geometry resolved
# before it. Every experiment also reads sampling.seed (mandatory) and
# output.directory.
_PARAMS = {
    "solve": {"geometry.x": ([int], [4, 0], 1), "geometry.sites": ([[int]], None, None),
              "geometry.box_factor": _BOX, "geometry.taboo": ([[int]], [], None)},
    "lyapunov": {"geometry.direction": ([int], [1, 0], 1),
                 "geometry.box_factor": (float, DEFAULT_BOX_FACTOR, 1),
                 "sampling.n_grid": ([int], [2, 4, 8], 1), "sampling.samples": (int, 50, 1)},
    "tails": {"geometry.x": _X, "geometry.side": (str, "UpperExp", None),
              "geometry.box_factor": _BOX, "geometry.alpha_ref": (float, None, None),
              "sampling.samples": (int, 500, 1),
              "sampling.t_grid": ([float], [0.0, 0.5, 1.0, 1.5, 2.0], 1)},
    "compare": {"geometry.x": _X, "geometry.box_factor_grid": ([_FACTOR], [1.5, 3.0], 2),
                "sampling.samples": (int, 200, 1)},
    "truncate": {"geometry.x": _X, "geometry.gamma": (float, 0.5, None),
                 "sampling.samples": (int, 500, 1)},
    "perturb": {"geometry.x": (_TARGET, [2, 1, 0], 1), "geometry.box_factor": _BOX,
                "sampling.samples": (int, 50, 1)},
    "entropy": {"geometry.x": _X,
                # the target lies in the environment box
                "geometry.env_radius": (int, lambda g: max(2, sum(map(abs, g["x"]))),
                                        lambda g: max(map(abs, g["x"]))),
                "sampling.lambda_grid": ([float], [-0.1, -0.5, -1.0], 1),
                "sampling.samples": (int, 100, 1)},
    "psi": {"geometry.x": _X, "geometry.x_grid": ([_TARGET], lambda g: [g["x"]], 1),
            "geometry.box_factor": _BOX,
            "sampling.lambda_grid": ([float], [-0.5, -0.25, -0.1, 0.0], 1),
            "sampling.samples": (int, 500, 1)},
    "animals": {"geometry.d": (int, 2, 1), "geometry.l_cap": (int, 5, 1),
                "geometry.M": (int, 1, 1), "geometry.kappa": _KAPPA,
                "sampling.samples": (int, 2000, 1)},
    "chi": {"geometry.l": (int, 8, 4), "geometry.kappa": _KAPPA, "geometry.d": (int, 2, 1),
            "sampling.samples": (int, 20, 1), "sampling.trials": (int, 50, 1)},
    "oracle-check": {"sampling.battery": (
        [{"seed": int, "x": _TARGET, "radius": int, "L": int, "episodes": int}],
        [{"seed": s, "x": [2, 1], "radius": 3, "L": 24, "episodes": 20000}
         for s in (11, 23, 37, 41, 53)], None)},
}
_COMMON = {"sampling.seed": (int, None, None), "output.directory": (str, "results", None)}
EXPERIMENTS = tuple(_PARAMS)


def _coerce(v, kind):
    """The JSON value v as a value of the type kind; TypeError if it is not
    one, KeyError (with their sorted names) if an object has keys the type
    lacks, ValueError (with the value) if a number is NaN, infinite or past
    the largest float."""
    if kind == _TARGET:
        v = _coerce(v, [int])
        if any(v):
            return v
    elif kind == _FACTOR:
        v = _coerce(v, float)
        if v > 0:
            return v
    elif isinstance(kind, list) and isinstance(v, list):
        return [_coerce(u, kind[0]) for u in v]
    elif isinstance(kind, dict) and isinstance(v, dict) and set(kind) <= set(v):
        if set(v) - set(kind):
            raise KeyError(sorted(set(v) - set(kind)))
        return {k: _coerce(v[k], t) for k, t in kind.items()}
    elif kind is float and not isinstance(v, bool) and isinstance(v, (int, float)):
        try:
            v = float(v)
        except OverflowError:  # an integer past the largest float
            v = math.inf
        if math.isfinite(v):
            return v
        raise ValueError(v)
    elif kind in (int, str) and not isinstance(v, bool) and isinstance(v, kind):
        return kind(v)
    raise TypeError(kind)


def _box_reach(cfg):
    """The largest |x|_1 of a target whose box prop_box scales by the box
    factor: lyapunov's is its farthest n * direction."""
    g = cfg.geometry
    if cfg.experiment == "lyapunov":
        return max(cfg.sampling["n_grid"]) * sum(map(abs, g["direction"]))
    return max(sum(map(abs, x)) for x in g.get("x_grid", [g["x"]]))


def _spell(kind):
    names = {int: "int", float: "number", str: "string"}
    return json.dumps(kind, default=names.get).replace('"', "")


@dataclass(eq=False)
class ExperimentConfig:
    experiment: str
    spec: DistributionSpec
    geometry: dict = dc_field(default_factory=dict)
    sampling: dict = dc_field(default_factory=dict)
    output: dict = dc_field(default_factory=dict)
    override_assumptions: bool = False

    def validate(self):
        """Check every key against the experiment's table, then fill in each
        default and coerce each value to its type, in place."""
        if self.experiment not in EXPERIMENTS:
            raise ParameterError(
                f"experiment: {self.experiment!r} is not one of {EXPERIMENTS}")
        if "seed" not in self.sampling:
            raise ParameterError(
                "sampling.seed: mandatory, wall-clock seeding is not allowed")
        table = _PARAMS[self.experiment] | _COMMON
        parts = {"geometry": self.geometry, "sampling": self.sampling,
                 "output": self.output}
        unread = [f"{part}.{k}" for part, given in parts.items()
                  for k in sorted(given) if f"{part}.{k}" not in table]
        if unread:
            raise ParameterError(
                f"{', '.join(unread)}: not read by {self.experiment}")
        errors = []
        for name, (kind, default, least) in table.items():
            part, key = name.split(".")
            given = parts[part]
            if key not in given and default is not None and not errors:
                given[key] = default(self.geometry) if callable(default) else default
            if key not in given:
                continue
            try:  # a copy of the value, never the table's default itself
                given[key] = value = _coerce(given[key], kind)
            except TypeError:
                errors.append(f"{name}: must be {_spell(kind)}")
                continue
            except KeyError as unread:
                errors.append(f"{name}: {', '.join(unread.args[0])} not read by {self.experiment}")
                continue
            except ValueError as bad:
                errors.append(f"{name}: {bad.args[0]} is not a finite number")
                continue
            if callable(least):
                if errors:  # the geometry it reads may not be resolved
                    continue
                least = least(self.geometry)
            if isinstance(value, list) and least is not None and len(value) < least:
                errors.append(f"{name}: must have length >= {least}")
            elif not isinstance(value, list) and least is not None and value < least:
                errors.append(f"{name}: must be >= {least}")
        key = next((k for k in ("box_factor", "box_factor_grid") if k in self.geometry), None)
        if key is not None and not errors:
            factor = self.geometry[key]
            try:  # the box radius ceil(F |x|_1) must be a finite integer
                math.ceil((max(factor) if key == "box_factor_grid" else factor)
                          * _box_reach(self))
            except OverflowError:
                errors.append(f"geometry.{key}: the box radius F |x|_1 is past the largest float")
        if errors:
            raise ParameterError("; ".join(errors))
        return self

    @property
    def seed(self):
        return self.sampling["seed"]

    def to_json(self):
        return {**asdict(self), "spec": self.spec.to_json()}

    @classmethod
    def from_json(cls, obj):
        if not isinstance(obj, dict):
            raise ParameterError("config: must be a JSON object")
        for key in ("experiment", "spec"):
            if key not in obj:
                raise ParameterError(f"{key}: missing from config")
        unknown = sorted(set(obj) - {"experiment", "spec", "geometry",
                                     "sampling", "output",
                                     "override_assumptions"})
        if unknown:
            raise ParameterError(f"{', '.join(unknown)}: not a config section")
        wrong = [f"{part}: must be an object" for part in ("geometry", "sampling", "output")
                 if not isinstance(obj.get(part, {}), dict)]
        if not isinstance(obj.get("override_assumptions", False), bool):
            wrong.append("override_assumptions: must be true or false")
        if wrong:
            raise ParameterError("; ".join(wrong))
        return cls(
            experiment=obj["experiment"],
            spec=DistributionSpec.from_json(obj["spec"]),
            geometry=dict(obj.get("geometry", {})),
            sampling=dict(obj.get("sampling", {})),
            output=dict(obj.get("output", {})),
            override_assumptions=bool(obj.get("override_assumptions", False)),
        ).validate()


@dataclass(eq=False)
class RunManifest:
    config_hash: str
    code_version: str
    experiment: str
    seed: int
    runtime_seconds: float
    assertions: dict  # name -> bool
    files: list  # [{"name":..., "sha256":...}]
    config: dict  # the resolved config, as a config file holds it
    format_version: int = FORMAT_VERSION
    warnings: tuple = ()
    # scipy's OpenBLAS thread count (None under another BLAS): like the
    # runtime, kept out of the config hash and the CSVs
    blas_threads: int | None = None

    def all_passed(self):
        return all(self.assertions.values())

    def to_json(self):
        return {**asdict(self), "warnings": list(self.warnings)}


def _paths(out, name):
    """The CSV and the JSON file of a run's results."""
    return os.path.join(out, f"{name}.csv"), os.path.join(out, f"{name}.json")


def _run_solve(cfg, out):
    g = cfg.geometry
    x = g["x"]
    region = (np.asarray(g["sites"], dtype=np.int64)
              if "sites" in g else prop_box(x, g["box_factor"]))
    origin = (0,) * len(x)
    field = sample_field(cfg.spec, bounding_box(region), cfg.seed)
    res = travel_weight(field, region, origin, x, taboo=g["taboo"])
    rows = [tuple(int(c) for c in z) + (float(e),)
            for z, e in zip(res.siteset.sites, res.e_values)]
    csv_path, json_path = _paths(out, "solve")
    write_csv(csv_path, tuple(f"z{i+1}" for i in range(len(x))) + ("e_value",),
              rows)
    write_json(json_path, {
        "target": list(res.target),
        "taboo": [list(t) for t in sorted(res.taboo)],
        "residual": res.residual,
        "site_count": len(res.siteset),
    })
    e = res.e_values
    return {"e_values_in_unit_interval": bool(np.all((e >= 0) & (e <= 1))),
            "target_e_is_one": bool(e[res.siteset.index_one(x)] == 1.0)}, \
        [csv_path, json_path]


def _run_lyapunov(cfg, out):
    g, s = cfg.geometry, cfg.sampling
    est = estimate_alpha(cfg.spec, g["direction"], s["n_grid"], s["samples"],
                         cfg.seed, g["box_factor"])
    csv_path, json_path = _paths(out, "alpha")
    write_alpha_report(est, csv_path, json_path)
    return {"band_ok": bool(est.band_ok),
            "alpha_nonnegative": est.alpha_hat >= 0}, [csv_path, json_path]


def _run_tails(cfg, out):
    g, s = cfg.geometry, cfg.sampling
    report = tail_experiment(
        cfg.spec, g["x"], g["side"], s["samples"], s["t_grid"], cfg.seed,
        box_factor=g["box_factor"], alpha_ref=g.get("alpha_ref"),
        override=cfg.override_assumptions)
    csv_path, json_path = _paths(out, "tails")
    write_tail_report(report, csv_path, json_path)
    tails = report.tails()
    return {"tails_non_increasing": bool(np.all(np.diff(tails) <= 1e-12)),
            "tails_in_unit_interval": bool(np.all((tails >= 0) & (tails <= 1)))}, \
        [csv_path, json_path]


def _run_compare(cfg, out):
    rep = compare_restricted(cfg.spec, cfg.geometry["x"],
                             cfg.geometry["box_factor_grid"],
                             cfg.sampling["samples"], cfg.seed)
    csv_path, json_path = _paths(out, "compare")
    write_csv(csv_path, ("box_factor", "mean_cost"),
              list(zip(rep["box_factors"], rep["mean_costs"])))
    write_json(json_path, rep)
    return {"per_sample_monotone": rep["monotone_violations"] == 0,
            "log2_event_absent": rep["log2_event_count"] == 0}, \
        [csv_path, json_path]


def _run_truncate(cfg, out):
    rep = truncation_gap(cfg.spec, cfg.geometry["x"], cfg.geometry["gamma"],
                         cfg.sampling["samples"], cfg.seed,
                         override=cfg.override_assumptions)
    gaps = rep.pop("gaps")
    csv_path, json_path = _paths(out, "truncate")
    write_csv(csv_path, ("sample", "gap"), list(enumerate(gaps.tolist())))
    write_json(json_path, rep)
    return {"gap_nonnegative": rep["negative_gap_count"] == 0}, \
        [csv_path, json_path]


def _run_perturb(cfg, out):
    records = rank_one_verify(cfg.spec, cfg.geometry["x"], cfg.sampling["samples"],
                              cfg.seed, cfg.geometry["box_factor"])
    csv_path, json_path = _paths(out, "perturb")
    write_perturbation_report(records, csv_path, json_path)
    return {"sandwich_holds": not any(r.violates() for r in records)}, \
        [csv_path, json_path]


def _run_entropy(cfg, out):
    g, s = cfg.geometry, cfg.sampling
    x = g["x"]
    env_region = BoxRegion.centered(g["env_radius"], len(x))
    env = sample_field(cfg.spec, env_region, derive_seed(cfg.seed, 0xE17))
    records = entropy_suite(cfg.spec, env, x, s["lambda_grid"], cfg.seed)
    probe = entropy_global_probe(cfg.spec, x, s["lambda_grid"], s["samples"],
                                 derive_seed(cfg.seed, 0x91))
    csv_path, json_path = _paths(out, "entropy")
    write_csv(csv_path, ("lambda", "ent", "rhs", "psi"),
              [(r.lam, r.ent_value, r.rhs_bound, r.psi_value) for r in records])
    write_json(json_path, probe)
    return {
        "per_site_inequality": all(r.ent_value <= r.rhs_bound + 1e-9
                                   for r in records),
        "entropy_nonnegative": all(r.ent_value >= -1e-12 for r in records),
        "psi_nonnegative": all(r.psi_value >= -1e-12 for r in records),
    }, [csv_path, json_path]


def _run_psi(cfg, out):
    g, s = cfg.geometry, cfg.sampling
    rep = psi_herbst(cfg.spec, g["x_grid"], s["lambda_grid"], s["samples"],
                     cfg.seed, box_factor=g["box_factor"])
    csv_path, json_path = _paths(out, "psi")
    write_csv(csv_path, ("x", "lambda", "psi", "ratio"),
              [(" ".join(str(v) for v in r["x"]), r["lambda"], r["psi"],
                r["ratio"]) for r in rep["rows"]])
    write_json(json_path, {"psi_min": rep["psi_min"],
                           "ratio_max": rep["ratio_max"],
                           "samples": rep["samples"]})
    return {"psi_nonnegative": rep["psi_min"] >= -1e-9}, [csv_path, json_path]


def _run_animals(cfg, out):
    g = cfg.geometry
    d, l_cap = g["d"], g["l_cap"]
    rep = animal_occupancy_check(cfg.spec, g["M"], g["kappa"], l_cap,
                                 cfg.sampling["samples"], cfg.seed, d=d)
    csv_path, json_path = _paths(out, "animals")
    write_animal_report(rep, csv_path, json_path)
    counts_ok = True
    for l in range(1, l_cap + 1):
        fixed, n_fixed = enumerate_animals(AnimalSpec(d, l, "L1"), cap=l_cap)
        anch, n_anch = enumerate_animals(AnimalSpec(d, l, "L1", True), cap=l_cap)
        counts_ok &= (n_anch == l * n_fixed) and (n_anch < 4.0 ** (d * l))
    return {"anchored_count_is_l_times_fixed": counts_ok}, \
        [csv_path, json_path]


def _run_chi(cfg, out):
    g, s = cfg.geometry, cfg.sampling
    witness = os.path.join(out, "chi_witness.field")
    probe = chi_upper_probe(cfg.spec, g["l"], g["kappa"], s["samples"], cfg.seed,
                            witness_path=witness, d=g["d"])
    sm = supermartingale_step_check(cfg.spec, g["l"], g["kappa"], probe["chi_probe"],
                                    s["trials"], derive_seed(cfg.seed, 0x51), d=g["d"])
    csv_path, json_path = _paths(out, "chi")
    write_json(json_path, {
        "chi_probe": probe["chi_probe"],
        "all_strictly_inside": probe["all_strictly_inside"],
        "all_witness_ok": probe["all_witness_ok"],
        "probe_caveat": probe["probe_caveat"],
        "supermartingale_violations": sm["violations"],
        "occupied_trials": sm["occupied_trials"],
    })
    write_csv(csv_path, ("config", "value"),
              list(enumerate(probe["values"])))
    return {"chi_in_open_unit_interval": probe["all_strictly_inside"],
            "witness_lower_bound": probe["all_witness_ok"],
            "supermartingale_step": sm["violations"] == 0}, \
        [csv_path, json_path, witness, witness + ".json"]


def oracle_check(cfg, out=None):
    """Cross-validation battery: the linear solver against exhaustive path
    enumeration (sandwich, exact) and Monte Carlo (4 standard errors)."""
    battery = cfg.sampling["battery"]
    warn = []
    if not battery:
        warn.append("empty oracle battery: vacuous pass")
        warnings.warn(warn[-1])
    results = []
    for item in battery:
        x = item["x"]
        region = BoxRegion.centered(item["radius"], len(x))
        fld = sample_field(cfg.spec, region, item["seed"])
        origin = (0,) * len(x)
        e_solve = travel_weight(fld, region, origin, x).e_at(origin)
        enum = enumerate_paths(fld, region, x, L=item["L"])
        sandwich = (enum.partial_weight - 1e-13 <= e_solve
                    <= enum.partial_weight + enum.remainder_bound + 1e-13)
        mc = sample_walk_weight(fld, region, x, item["episodes"],
                                derive_seed(item["seed"], 0x6C))
        mc_ok = abs(mc.estimate - e_solve) <= 4 * mc.std_error
        results.append({"seed": item["seed"], "e_solve": e_solve,
                        "partial": enum.partial_weight,
                        "remainder": enum.remainder_bound,
                        "sandwich_ok": bool(sandwich),
                        "mc_estimate": mc.estimate, "mc_se": mc.std_error,
                        "mc_ok": bool(mc_ok)})
    report = {
        "battery_size": len(battery),
        "results": results,
        "all_sandwich_ok": all(r["sandwich_ok"] for r in results),
        "all_mc_ok": all(r["mc_ok"] for r in results),
    }
    files = []
    if out is not None:
        json_path = os.path.join(out, "oracle_check.json")
        write_json(json_path, report)
        files.append(json_path)
    assertions = {"all_sandwich_ok": report["all_sandwich_ok"],
                  "all_mc_ok": report["all_mc_ok"]}
    return report, assertions, files, warn


_DISPATCH = {
    "solve": _run_solve,
    "lyapunov": _run_lyapunov,
    "tails": _run_tails,
    "compare": _run_compare,
    "truncate": _run_truncate,
    "perturb": _run_perturb,
    "entropy": _run_entropy,
    "psi": _run_psi,
    "animals": _run_animals,
    "chi": _run_chi,
}


def run(config: ExperimentConfig, out_dir=None) -> RunManifest:
    config.validate()
    out = str(out_dir if out_dir is not None else config.output["directory"])
    made, head = [], os.path.abspath(out)  # the directories this run makes, deepest first
    while not os.path.isdir(head):
        made.append(head)
        head = os.path.dirname(head)
    os.makedirs(out, exist_ok=True)
    start = time.perf_counter()
    warn = ()
    try:
        if config.experiment == "oracle-check":
            _, assertions, files, warn = oracle_check(config, out)
        else:
            assertions, files = _DISPATCH[config.experiment](config, out)
    except BaseException:
        # a refused or failed run leaves no empty directory of its own behind
        for path in made:
            if os.listdir(path):
                break
            os.rmdir(path)
        raise
    runtime = time.perf_counter() - start
    resolved = config.to_json()
    manifest = RunManifest(
        config_hash=sha256_of_json(resolved),
        code_version=__version__,
        experiment=config.experiment,
        seed=config.seed,
        runtime_seconds=runtime,
        assertions=assertions,
        files=[{"name": os.path.basename(f), "sha256": sha256_of_file(f)}
               for f in files],
        config=resolved,
        warnings=tuple(warn),
        blas_threads=blas_threads(),
    )
    write_json(os.path.join(out, "manifest.json"), manifest.to_json())
    return manifest
