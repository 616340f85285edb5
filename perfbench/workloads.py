"""The benchmark's three workloads: inputs made from a seed, one timed call,
and the check of its outputs against the reference recorded at the seed
commit (see make_reference.py).

Inputs are drawn from a fixed pool, so that every input a run can use has a
recorded reference: the seed picks the order in which a run walks the pool
(d=2 workloads) or which pool entry a run uses (cli-defaults).

Correctness tolerance: every compared number must satisfy
|got - ref| <= ATOL + RTOL * max(|got|, |ref|). A solver backend that moves
the last bits passes; a cost off by 1e-6 (costs here are 5 to 30) fails.
"""

import csv
import json
import math
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_DIR = os.path.join(HERE, "reference")

RTOL = 1e-9
ATOL = 1e-10
LAW = (0.2, 1.0, 0.5)  # TwoPoint(v_lo, v_hi, p_hi)

COST_X = (8, 0)
COST_FACTORS = (1.5, 3.0)  # nested boxes of 625 and 2401 sites
COST_BATCH = 20
RANGE_X = (12, 0)  # default box factor 2: 2401 sites
RANGE_LAMBDAS = (-0.5,)
RANGE_BATCH = 1
CLI_EXPERIMENTS = ("solve", "lyapunov", "tails", "compare", "truncate",
                   "perturb", "entropy", "psi", "animals", "chi",
                   "oracle-check")

# call seeds (d=2) and pass seeds (cli) whose outputs are in the reference
POOLS = {
    "cost-d2": tuple(10_000 + k for k in range(128)),
    "range-d2": tuple(20_000 + k for k in range(64)),
    "cli-defaults": tuple(30_000 + k for k in range(8)),
}
WARMUP_SEED = 99_999
WORKLOADS = tuple(POOLS)
# operations (field samples, or experiments) per timed call
OPS_PER_CALL = {"cost-d2": COST_BATCH, "range-d2": RANGE_BATCH,
                "cli-defaults": len(CLI_EXPERIMENTS)}


def inputs(workload, seed):
    """The call seeds of a run, in order (cli-defaults: one pass seed)."""
    pool = list(POOLS[workload])
    rng = random.Random(f"{workload}/{seed}")
    if workload == "cli-defaults":
        return [rng.choice(pool)]
    rng.shuffle(pool)
    return pool


def threads(workload):
    return len(os.sched_getaffinity(0)) if workload == "cost-d2" else 1


# ---------------------------------------------------------------------------
# One call of a d=2 workload, and the recorders of its per-sample values


def law():
    from rwpot import DistributionSpec

    return DistributionSpec.two_point(*LAW)


def call(workload, spec, call_seed, n_threads):
    """One timed call into the entry point; returns the outputs we check."""
    from rwpot import concentration

    if workload == "cost-d2":
        rep = concentration.compare_restricted(
            spec, COST_X, list(COST_FACTORS), COST_BATCH,
            call_seed, threads=n_threads)
        return {"mean_costs": rep["mean_costs"],
                "monotone_violations": rep["monotone_violations"]}
    rep = concentration.entropy_global_probe(
        spec, RANGE_X, list(RANGE_LAMBDAS), RANGE_BATCH, call_seed,
        threads=n_threads)
    return {"per_lambda": rep["per_lambda"]}


def recorders(sink):
    """Output recorders for Hooks: per field seed, the cost at the source of
    every travel_weight, and E_Q[#A] of every weighted_functionals.
    Concurrent samples use distinct field seeds, so no lock is needed."""

    def cost(args, kwargs, res):
        source = args[2] if len(args) > 2 else kwargs["source"]
        try:
            value = res.cost_at(source)
        except Exception:  # an unusable result fails the sample in check_d2
            value = math.nan
        sink["cost"].setdefault(str(args[0].seed), []).append(value)

    def expected_range(args, kwargs, res):
        sink["range"].setdefault(str(args[0].seed), []).append(
            float(res.expected_range))

    return {"solver.travel_weight": cost,
            "solver.weighted_functionals": expected_range}


def new_sink():
    return {"cost": {}, "range": {}}


# ---------------------------------------------------------------------------
# Checks


def close(got, ref):
    if isinstance(got, bool) or isinstance(ref, bool):
        return got is ref
    if not isinstance(got, (int, float)) or not isinstance(ref, (int, float)):
        return False
    if math.isnan(got) or math.isnan(ref):
        return math.isnan(got) and math.isnan(ref)
    if math.isinf(got) or math.isinf(ref):
        return got == ref
    return abs(got - ref) <= ATOL + RTOL * max(abs(got), abs(ref))


def same(got, ref):
    """Structural equality with numbers compared by `close`."""
    if isinstance(ref, dict):
        return (isinstance(got, dict) and got.keys() == ref.keys()
                and all(same(got[k], ref[k]) for k in ref))
    if isinstance(ref, list):
        return (isinstance(got, list) and len(got) == len(ref)
                and all(same(g, r) for g, r in zip(got, ref)))
    if isinstance(ref, (int, float)) and not isinstance(ref, bool):
        return close(got, ref)
    return got == ref


def load_reference(workload):
    with open(os.path.join(REFERENCE_DIR, f"{workload}.json")) as fh:
        return json.load(fh)


def check_d2(workload, record, ref):
    """Failed operations (field samples) of one d=2 call.

    A sample fails if its recorded values are missing or differ from the
    reference, or if it breaks the workload's invariant: nested-box cost
    monotonicity (cost-d2) or E_Q[#A] >= |x|_1 (range-d2). Every sample of
    a call fails if the call raised or its aggregate output disagrees with
    its own per-sample values."""
    keys = ref["calls"][str(record["seed"])]
    if record["error"] is not None:
        return len(keys)
    got = record["samples"]
    failed = 0
    values = []
    for key in keys:
        cost = got["cost"].get(key)
        ok = cost is not None and same(cost, ref["cost"][key])
        if workload == "cost-d2":
            ok = ok and all(a >= b - 1e-10 for a, b in zip(cost, cost[1:]))
            value = cost
        else:
            rng = got["range"].get(key)
            ok = (ok and rng is not None and same(rng, ref["range"][key])
                  and rng[0] >= sum(abs(v) for v in RANGE_X))
            value = (cost[0], rng[0]) if ok else None
        failed += not ok
        values.append(value)
    if failed == 0 and not same(record["out"], _aggregate(workload, values)):
        failed = len(keys)
    return failed


def _aggregate(workload, values):
    """The entry point's output, recomputed from its per-sample values."""
    n = len(values)
    if workload == "cost-d2":
        return {"mean_costs": [sum(c[j] for c in values) / n
                               for j in range(len(COST_FACTORS))],
                "monotone_violations": 0}
    out = []
    for lam in RANGE_LAMBDAS:
        ex = [math.exp(lam * a) for a, _ in values]
        mean_ex = sum(ex) / n
        ent = sum(v * math.log(v) for v in ex) / n - mean_ex * math.log(mean_ex)
        core = lam * lam * sum(e * r for e, (_, r) in zip(ex, values)) / n
        out.append({"lambda": lam, "ent": ent, "rhs_core": core,
                    "implied_c": ent / core if core > 0 else math.inf})
    return {"per_lambda": out}


# ---------------------------------------------------------------------------
# cli-defaults: one pass, and the view of its output files that is compared

# fields that name or measure the run rather than its results: timings,
# digests, the backend's name and its residual
_MANIFEST_KEYS = ("experiment", "seed", "assertions", "warnings")
_SOLVER_DETAIL = ("method", "residual")


def cli_pass(main, pass_seed, out_dir):
    """Run every subcommand once; returns (exit codes, errors, durations)."""
    from time import perf_counter

    exits, errors, durations = {}, {}, {}
    for exp in CLI_EXPERIMENTS:
        t0 = perf_counter()
        try:
            exits[exp] = main([exp, "--out", os.path.join(out_dir, exp),
                               "--seed", str(pass_seed)])
        except Exception as exc:  # counted as a failed experiment
            exits[exp] = None
            errors[exp] = repr(exc)
        durations[exp] = perf_counter() - t0
    return exits, errors, durations


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def output_view(exp_dir):
    """Every CSV/JSON file of one experiment, parsed; numbers as floats."""
    view = {}
    for name in sorted(os.listdir(exp_dir)):
        path = os.path.join(exp_dir, name)
        if name.endswith(".csv"):
            with open(path, newline="") as fh:
                view[name] = [[_cell(c) for c in row] for row in csv.reader(fh)]
        elif name.endswith(".json"):
            with open(path) as fh:
                obj = json.load(fh)
            if name == "manifest.json":
                obj = {k: obj.get(k) for k in _MANIFEST_KEYS} | {
                    "files": sorted(f["name"] for f in obj.get("files", []))}
            elif isinstance(obj, dict):
                obj = {k: v for k, v in obj.items() if k not in _SOLVER_DETAIL}
            view[name] = obj
    return view


def check_cli(exits, errors, out_dir, ref):
    """Names of the experiments of one pass that failed: they raised, exited
    differently from the reference, failed an assertion of their manifest
    (oracle-check's sandwich and Monte Carlo battery among them), or wrote
    a number or string that differs from the reference."""
    failed = []
    for exp in CLI_EXPERIMENTS:
        exp_dir = os.path.join(out_dir, exp)
        ok = (exp not in errors and exits.get(exp) == ref[exp]["exit"]
              and os.path.isdir(exp_dir))
        if ok:
            view = output_view(exp_dir)
            manifest = view.get("manifest.json") or {}
            ok = (all((manifest.get("assertions") or {"missing": False}).values())
                  and same(view, ref[exp]["files"]))
        if not ok:
            failed.append(exp)
    return failed
