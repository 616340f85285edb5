"""Experiment orchestration: declarative JSON configs, dispatch, manifests.

Every run is a pure function of its config (seed included; wall-clock time
is never used for anything but the recorded runtime), writes its tabular
results as RFC-4180 CSV and summaries as sorted-key JSON via atomic
temp-then-rename, and emits a manifest with the config hash and a SHA-256
inventory of every produced file. Reruns of a config write identical bytes:
every Monte Carlo sample is a pure function of its own seed, aggregated in
seed order.
"""

import json
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
from .errors import AssumptionError, ParameterError
from .io import sha256_of_file, sha256_of_json, write_csv, write_json
from .lattice import AnimalSpec, BoxRegion, enumerate_animals, norms
from .lyapunov import estimate_alpha, write_alpha_report
from .oracle import enumerate_paths, sample_walk_weight
from .potential import DistributionSpec, sample_field
from .rng import derive_seed
from .solver import blas_threads, bounding_box, travel_weight

EXPERIMENTS = ("solve", "lyapunov", "tails", "compare", "truncate", "perturb",
               "entropy", "psi", "animals", "chi", "oracle-check")
FORMAT_VERSION = 1


@dataclass(eq=False)
class ExperimentConfig:
    experiment: str
    spec: DistributionSpec
    geometry: dict = dc_field(default_factory=dict)
    sampling: dict = dc_field(default_factory=dict)
    output: dict = dc_field(default_factory=dict)
    override_assumptions: bool = False

    def validate(self):
        if self.experiment not in EXPERIMENTS:
            raise ParameterError(
                f"experiment: {self.experiment!r} is not one of {EXPERIMENTS}")
        if "seed" not in self.sampling:
            raise ParameterError(
                "sampling.seed: mandatory, wall-clock seeding is not allowed")
        geometry, sampling = _READS[self.experiment]
        parts = (("geometry", self.geometry, geometry),
                 ("sampling", self.sampling, sampling | {"seed"}),
                 ("output", self.output, {"directory"}))
        unread = [f"{part}.{k}" for part, given, read in parts
                  for k in sorted(given) if k not in read]
        if unread:
            raise ParameterError(
                f"{', '.join(unread)}: not read by {self.experiment}")
        wrong = [f"{part}.{k}: must be {_spell(_TYPES[k])}" for part, given, _ in parts
                 for k in sorted(given) if not _fits(given[k], _TYPES[k])]
        if wrong:
            raise ParameterError("; ".join(wrong))
        vacuous = ([f"{part}.{k}: must be >= 1" for part, given, _ in parts
                    for k in sorted(given) if k in _COUNTS and given[k] < 1]
                   + [f"{part}.{k}: must have length >= {_GRIDS[k]}" for part, given, _ in parts
                      for k in sorted(given) if k in _GRIDS and len(given[k]) < _GRIDS[k]])
        if vacuous:
            raise ParameterError("; ".join(vacuous))
        return self

    @property
    def seed(self):
        return int(self.sampling["seed"])

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
    format_version: int = FORMAT_VERSION
    warnings: tuple = ()
    # scipy's OpenBLAS thread count (None under another BLAS): like the
    # runtime, kept out of the config hash and the CSVs
    blas_threads: int | None = None

    def all_passed(self):
        return all(self.assertions.values())

    def to_json(self):
        return {**asdict(self), "warnings": list(self.warnings)}


def _geometry_x(cfg, default=(4, 0)):
    return tuple(int(v) for v in cfg.geometry.get("x", list(default)))


def _box_factor(cfg):
    return float(cfg.geometry.get("box_factor", DEFAULT_BOX_FACTOR))


def _run_solve(cfg, out):
    x = _geometry_x(cfg)
    region = (np.asarray(cfg.geometry["sites"], dtype=np.int64)
              if "sites" in cfg.geometry else prop_box(x, _box_factor(cfg)))
    origin = (0,) * len(x)
    field = sample_field(cfg.spec, bounding_box(region), cfg.seed)
    res = travel_weight(field, region, origin, x,
                        taboo=[tuple(t) for t in cfg.geometry.get("taboo", [])])
    rows = [tuple(int(c) for c in z) + (float(e),)
            for z, e in zip(res.siteset.sites, res.e_values)]
    csv_path = os.path.join(out, "solve.csv")
    write_csv(csv_path, tuple(f"z{i+1}" for i in range(len(x))) + ("e_value",),
              rows)
    write_json(os.path.join(out, "solve.json"), {
        "target": list(res.target),
        "taboo": [list(t) for t in sorted(res.taboo)],
        "residual": res.residual,
        "site_count": len(res.siteset),
    })
    e = res.e_values
    return {"e_values_in_unit_interval": bool(np.all((e >= 0) & (e <= 1))),
            "target_e_is_one": bool(e[res.siteset.index_one(x)] == 1.0)}, \
        [csv_path, os.path.join(out, "solve.json")]


def _run_lyapunov(cfg, out):
    direction = tuple(int(v) for v in cfg.geometry.get("direction", [1, 0]))
    est = estimate_alpha(cfg.spec, direction,
                         cfg.sampling.get("n_grid", [2, 4, 8]),
                         cfg.sampling.get("samples", 50), cfg.seed,
                         _box_factor(cfg))
    csv_path = os.path.join(out, "alpha.csv")
    json_path = os.path.join(out, "alpha.json")
    write_alpha_report(est, csv_path, json_path)
    return {"band_ok": bool(est.band_ok),
            "alpha_nonnegative": est.alpha_hat >= 0}, [csv_path, json_path]


def _run_tails(cfg, out):
    x = _geometry_x(cfg)
    report = tail_experiment(
        cfg.spec, x, cfg.geometry.get("side", "UpperExp"),
        cfg.sampling.get("samples", 500),
        cfg.sampling.get("t_grid", [0.0, 0.5, 1.0, 1.5, 2.0]), cfg.seed,
        box_factor=_box_factor(cfg),
        alpha_ref=cfg.geometry.get("alpha_ref"),
        override=cfg.override_assumptions)
    csv_path = os.path.join(out, "tails.csv")
    json_path = os.path.join(out, "tails.json")
    write_tail_report(report, csv_path, json_path)
    tails = report.tails()
    return {"tails_non_increasing": bool(np.all(np.diff(tails) <= 1e-12)),
            "tails_in_unit_interval": bool(np.all((tails >= 0) & (tails <= 1)))}, \
        [csv_path, json_path]


def _run_compare(cfg, out):
    x = _geometry_x(cfg)
    rep = compare_restricted(cfg.spec, x,
                             cfg.geometry.get("box_factor_grid", [1.5, 3.0]),
                             cfg.sampling.get("samples", 200), cfg.seed)
    csv_path = os.path.join(out, "compare.csv")
    write_csv(csv_path, ("box_factor", "mean_cost"),
              list(zip(rep["box_factors"], rep["mean_costs"])))
    json_path = os.path.join(out, "compare.json")
    write_json(json_path, rep)
    return {"per_sample_monotone": rep["monotone_violations"] == 0,
            "log2_event_absent": rep["log2_event_count"] == 0}, \
        [csv_path, json_path]


def _run_truncate(cfg, out):
    x = _geometry_x(cfg)
    rep = truncation_gap(cfg.spec, x, float(cfg.geometry.get("gamma", 0.5)),
                         cfg.sampling.get("samples", 500), cfg.seed,
                         override=cfg.override_assumptions)
    gaps = rep.pop("gaps")
    csv_path = os.path.join(out, "truncate.csv")
    write_csv(csv_path, ("sample", "gap"), list(enumerate(gaps.tolist())))
    json_path = os.path.join(out, "truncate.json")
    write_json(json_path, rep)
    return {"gap_nonnegative": rep["negative_gap_count"] == 0}, \
        [csv_path, json_path]


def _run_perturb(cfg, out):
    x = _geometry_x(cfg, default=(2, 1, 0))
    records = rank_one_verify(cfg.spec, x, cfg.sampling.get("samples", 50),
                              cfg.seed, _box_factor(cfg))
    csv_path = os.path.join(out, "perturb.csv")
    json_path = os.path.join(out, "perturb.json")
    write_perturbation_report(records, csv_path, json_path)
    return {"sandwich_holds": not any(r.violates() for r in records)}, \
        [csv_path, json_path]


def _run_entropy(cfg, out):
    x = _geometry_x(cfg)
    if cfg.spec.finite_support() is None and not cfg.override_assumptions:
        raise AssumptionError(
            "finite-support",
            "entropy experiment requires a finite-support marginal")
    env_region = BoxRegion.centered(
        int(cfg.geometry.get("env_radius", max(2, norms(x)[0]))), len(x))
    env = sample_field(cfg.spec, env_region, derive_seed(cfg.seed, 0xE17))
    lambda_grid = cfg.sampling.get("lambda_grid", [-0.1, -0.5, -1.0])
    records = entropy_suite(cfg.spec, env, x, lambda_grid, cfg.seed)
    probe = entropy_global_probe(cfg.spec, x, lambda_grid,
                                 cfg.sampling.get("samples", 100),
                                 derive_seed(cfg.seed, 0x91))
    csv_path = os.path.join(out, "entropy.csv")
    write_csv(csv_path, ("lambda", "ent", "rhs", "psi"),
              [(r.lam, r.ent_value, r.rhs_bound, r.psi_value) for r in records])
    json_path = os.path.join(out, "entropy.json")
    write_json(json_path, probe)
    return {
        "per_site_inequality": all(r.ent_value <= r.rhs_bound + 1e-9
                                   for r in records),
        "entropy_nonnegative": all(r.ent_value >= -1e-12 for r in records),
        "psi_nonnegative": all(r.psi_value >= -1e-12 for r in records),
    }, [csv_path, json_path]


def _run_psi(cfg, out):
    x = _geometry_x(cfg)
    x_grid = [tuple(int(v) for v in xx)
              for xx in cfg.geometry.get("x_grid", [list(x)])]
    rep = psi_herbst(cfg.spec, x_grid,
                     cfg.sampling.get("lambda_grid", [-0.5, -0.25, -0.1, 0.0]),
                     cfg.sampling.get("samples", 500), cfg.seed,
                     box_factor=_box_factor(cfg))
    csv_path = os.path.join(out, "psi.csv")
    write_csv(csv_path, ("x", "lambda", "psi", "ratio"),
              [(" ".join(str(v) for v in r["x"]), r["lambda"], r["psi"],
                r["ratio"]) for r in rep["rows"]])
    json_path = os.path.join(out, "psi.json")
    write_json(json_path, {"psi_min": rep["psi_min"],
                           "ratio_max": rep["ratio_max"],
                           "samples": rep["samples"]})
    return {"psi_nonnegative": rep["psi_min"] >= -1e-9}, [csv_path, json_path]


def _run_animals(cfg, out):
    d = int(cfg.geometry.get("d", 2))
    l_cap = int(cfg.geometry.get("l_cap", 5))
    rep = animal_occupancy_check(cfg.spec, int(cfg.geometry.get("M", 1)),
                                 float(cfg.geometry.get("kappa", 0.5)), l_cap,
                                 cfg.sampling.get("samples", 2000), cfg.seed,
                                 d=d)
    csv_path = os.path.join(out, "animals.csv")
    json_path = os.path.join(out, "animals.json")
    write_animal_report(rep, csv_path, json_path)
    counts_ok = True
    for l in range(1, l_cap + 1):
        fixed, n_fixed = enumerate_animals(AnimalSpec(d, l, "L1"), cap=l_cap)
        anch, n_anch = enumerate_animals(AnimalSpec(d, l, "L1", True), cap=l_cap)
        counts_ok &= (n_anch == l * n_fixed) and (n_anch < 4.0 ** (d * l))
    return {"anchored_count_is_l_times_fixed": counts_ok}, \
        [csv_path, json_path]


def _run_chi(cfg, out):
    l = int(cfg.geometry.get("l", 8))
    kappa = float(cfg.geometry.get("kappa", 0.5))
    d = int(cfg.geometry.get("d", 2))
    witness = os.path.join(out, "chi_witness.field")
    probe = chi_upper_probe(cfg.spec, l, kappa,
                            cfg.sampling.get("samples", 20), cfg.seed,
                            witness_path=witness, d=d)
    sm = supermartingale_step_check(cfg.spec, l, kappa, probe["chi_probe"],
                                    cfg.sampling.get("trials", 50),
                                    derive_seed(cfg.seed, 0x51), d=d)
    json_path = os.path.join(out, "chi.json")
    write_json(json_path, {
        "chi_probe": probe["chi_probe"],
        "all_strictly_inside": probe["all_strictly_inside"],
        "all_witness_ok": probe["all_witness_ok"],
        "probe_caveat": probe["probe_caveat"],
        "supermartingale_violations": sm["violations"],
        "occupied_trials": sm["occupied_trials"],
    })
    csv_path = os.path.join(out, "chi.csv")
    write_csv(csv_path, ("config", "value"),
              list(enumerate(probe["values"])))
    return {"chi_in_open_unit_interval": probe["all_strictly_inside"],
            "witness_lower_bound": probe["all_witness_ok"],
            "supermartingale_step": sm["violations"] == 0}, \
        [csv_path, json_path, witness, witness + ".json"]


DEFAULT_ORACLE_BATTERY = tuple(
    {"seed": s, "x": [2, 1], "radius": 3, "L": 24, "episodes": 20000}
    for s in (11, 23, 37, 41, 53)
)


def oracle_check(cfg, out=None):
    """Cross-validation battery: the linear solver against exhaustive path
    enumeration (sandwich, exact) and Monte Carlo (4 standard errors)."""
    battery = cfg.sampling.get("battery", None)
    warn = []
    if battery is None:
        battery = [dict(b) for b in DEFAULT_ORACLE_BATTERY]
    if not battery:
        warn.append("empty oracle battery: vacuous pass")
        warnings.warn(warn[-1])
    results = []
    for item in battery:
        x = tuple(int(v) for v in item["x"])
        region = BoxRegion.centered(int(item["radius"]), len(x))
        fld = sample_field(cfg.spec, region, int(item["seed"]))
        origin = (0,) * len(x)
        e_solve = travel_weight(fld, region, origin, x).e_at(origin)
        enum = enumerate_paths(fld, region, x, L=int(item["L"]))
        sandwich = (enum.partial_weight - 1e-13 <= e_solve
                    <= enum.partial_weight + enum.remainder_bound + 1e-13)
        mc = sample_walk_weight(fld, region, x, int(item["episodes"]),
                                derive_seed(int(item["seed"]), 0x6C))
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


def _fits(v, kind):
    """Whether a JSON value has the type kind: int, float (any number), str,
    [kind] (a list of kind) or {key: kind} (an object with those keys)."""
    if isinstance(kind, list):
        return isinstance(v, list) and all(_fits(u, kind[0]) for u in v)
    if isinstance(kind, dict):
        return isinstance(v, dict) and all(k in v and _fits(v[k], t) for k, t in kind.items())
    return not isinstance(v, bool) and isinstance(
        v, (int, float) if kind is float else kind)


def _spell(kind):
    names = {int: "int", float: "number", str: "string"}
    return json.dumps(kind, default=names.get).replace('"', "")


# The type of every config value, by key: a key means the same in every
# experiment that reads it.
_TYPES = {
    "seed": int, "samples": int, "trials": int, "d": int, "l": int, "l_cap": int,
    "M": int, "env_radius": int, "box_factor": float, "alpha_ref": float,
    "gamma": float, "kappa": float, "x": [int], "direction": [int], "n_grid": [int],
    "sites": [[int]], "taboo": [[int]], "x_grid": [[int]], "box_factor_grid": [float],
    "t_grid": [float], "lambda_grid": [float], "side": str, "directory": str,
    "battery": [{"seed": int, "x": [int], "radius": int, "L": int, "episodes": int}],
}

# Counts that must be at least 1, and grids with their least length: a run
# over no samples or no grid point has nothing to report, and compare
# compares at least two boxes.
_COUNTS = {"samples", "trials"}
_GRIDS = {"n_grid": 1, "t_grid": 1, "lambda_grid": 1, "box_factor_grid": 2, "x_grid": 1}

# The geometry and sampling keys that each experiment's runner reads, beside
# sampling.seed (read by all); validate() rejects any other key.
_READS = {
    "solve": ({"x", "sites", "box_factor", "taboo"}, set()),
    "lyapunov": ({"direction", "box_factor"}, {"n_grid", "samples"}),
    "tails": ({"x", "side", "box_factor", "alpha_ref"}, {"samples", "t_grid"}),
    "compare": ({"x", "box_factor_grid"}, {"samples"}),
    "truncate": ({"x", "gamma"}, {"samples"}),
    "perturb": ({"x", "box_factor"}, {"samples"}),
    "entropy": ({"x", "env_radius"}, {"lambda_grid", "samples"}),
    "psi": ({"x", "x_grid", "box_factor"}, {"lambda_grid", "samples"}),
    "animals": ({"d", "l_cap", "M", "kappa"}, {"samples"}),
    "chi": ({"l", "kappa", "d"}, {"samples", "trials"}),
    "oracle-check": (set(), {"battery"}),
}

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
    out = str(out_dir if out_dir is not None
              else config.output.get("directory", "results"))
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
    manifest = RunManifest(
        config_hash=sha256_of_json(config.to_json()),
        code_version=__version__,
        experiment=config.experiment,
        seed=config.seed,
        runtime_seconds=runtime,
        assertions=assertions,
        files=[{"name": os.path.basename(f), "sha256": sha256_of_file(f)}
               for f in files],
        warnings=tuple(warn),
        blas_threads=blas_threads(),
    )
    write_json(os.path.join(out, "manifest.json"), manifest.to_json())
    return manifest
