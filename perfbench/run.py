"""rwpot benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cost-d2 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Prints an environment block, every metric by
name with its unit, and as the last line one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics (tracing off); --trace 1 reports the per-layer metrics of a traced
run. See perfbench/README.md for the workloads and the metric definitions.
"""

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from time import perf_counter

import hooks
import workloads
from worker import READY

WORKER = os.path.join(workloads.HERE, "worker.py")
SETUPS = 3  # set-up is timed this many times per run; the median is reported
WORKER_TIMEOUT_S = 170

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("batch_s_p50", "s"),
    ("batch_s_tail", "s"),
    ("peak_rss_mb", "MB"),
)

# counters that are summed and reported per timed call, besides calls and s
_PER_CALL_COUNTS = (
    ("potential.sample_field.sites", "count/call"),
    ("solver.travel_weight.unknowns", "count/call"),
    ("solver.travel_weight.rescaled", "count/call"),
    ("solver.travel_weight.failed", "count/call"),
    ("solver.weighted_functionals.unknowns", "count/call"),
    ("solver.weighted_functionals.failed", "count/call"),
    ("oracle.sample_walk_weight.episodes", "count/call"),
    ("io.bytes_written", "B/call"),
    ("bench.self_s", "s/call"),
    ("bench.wall_s", "s/call"),
)
_RATIOS = (
    ("solver.travel_weight.residual_max", "1"),
    ("coarse.chi_upper_probe.accept_ratio", "ratio"),
    ("io.parallel_map.utilization", "ratio"),
    ("trace_overhead_frac", "ratio"),
)


def per_layer_units():
    units = {}
    for mod, fn, _ in hooks.TARGETS:
        units[f"{mod}.{fn}.calls"] = "count/call"
        units[f"{mod}.{fn}.s"] = "s/call"
    units.update(_PER_CALL_COUNTS)
    units.update(_RATIOS)
    return units


class WorkerError(RuntimeError):
    pass


def spawn(args, mode, tmp, tag):
    """Start one worker and wait for it; returns its result with `setup_s`,
    the time from starting the process to its READY line."""
    result_path = os.path.join(tmp, f"{tag}.json")
    err_path = os.path.join(tmp, f"{tag}.stderr")
    cmd = [sys.executable, WORKER, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--tmp", os.path.join(tmp, tag),
           "--result", result_path]
    setup = None
    with open(err_path, "w") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                text=True, cwd=workloads.ROOT)
        watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if setup is None and line.strip() == READY:
                    setup = perf_counter() - t0
            rc = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    if rc != 0 or setup is None:
        with open(err_path) as fh:
            tail = fh.read()[-2000:]
        raise WorkerError(f"worker {mode} exited with {rc}:\n{tail}")
    result = {}
    if mode != "setup":
        with open(result_path) as fh:
            result = json.load(fh)
    result["setup_s"] = setup
    return result


def tail(durations):
    """(value, percentile, count): the highest percentile of call duration
    with at least ten calls beyond it. Below twenty calls that percentile
    would not exceed the median, so the maximum is reported instead."""
    d = sorted(durations)
    n = len(d)
    if n < 20:
        return d[-1], 100.0, n
    return d[n - 11], 100.0 * (n - 10) / n, n


def _setups(args, tmp, count):
    return [spawn(args, "setup", tmp, f"setup{i}")["setup_s"]
            for i in range(count)]


def run_d2(args, tmp):
    ref = workloads.load_reference(args.workload)
    setups = [] if args.trace else _setups(args, tmp, SETUPS - 1)
    res = spawn(args, "trace" if args.trace else "measure", tmp, "measure")
    setups.append(res["setup_s"])
    per_call = workloads.OPS_PER_CALL[args.workload]
    failed = sum(workloads.check_d2(args.workload, r, ref)
                 for r in res["records"])
    attempted = per_call * len(res["records"])
    out = {"attempted": attempted, "failed": failed, "absent": res["absent"],
           "threads": res["threads"]}
    if args.trace:
        plain = sum(r["s"] for r in res["records"] if not r["traced"])
        traced = sum(r["s"] for r in res["records"] if r["traced"])
        n_traced = sum(r["traced"] for r in res["records"])
        out["trace"] = (res["trace"], n_traced, traced / plain - 1.0)
        return out
    durations = [r["s"] for r in res["records"]]
    out["durations"] = durations
    out["e2e"] = {
        "setup_s": statistics.median(setups),
        "ops_per_s": (attempted - failed) / res["loop_s"],
        "batch_s_p50": statistics.median(durations),
        "batch_s_tail": tail(durations)[0],
        "peak_rss_mb": res["rss_mb"],
    }
    return out


def run_cli(args, tmp):
    ref = workloads.load_reference(args.workload)
    setups = [] if args.trace else _setups(args, tmp, SETUPS - 1)
    modes = ("pass", "pass-trace") if args.trace else ("pass",)
    passes, failed_exps = [], []
    t_loop = perf_counter()
    for k in itertools.count():
        if k and perf_counter() - t_loop >= args.seconds:
            break
        for mode in (modes if k % 2 == 0 else modes[::-1]):
            tag = f"{mode}{k}"
            res = spawn(args, mode, tmp, tag)
            failed_exps += workloads.check_cli(
                res["exits"], res["errors"], os.path.join(tmp, tag, "pass"),
                ref[str(res["pass_seed"])])
            shutil.rmtree(os.path.join(tmp, tag))
            res["mode"] = mode
            passes.append(res)
            setups.append(res["setup_s"])
    out = {"attempted": workloads.OPS_PER_CALL[args.workload] * len(passes),
           "failed": len(failed_exps), "failed_names": failed_exps,
           "absent": next((p["absent"] for p in passes if p["trace"]), []),
           "threads": 1, "per_experiment_s": passes[0]["durations"]}
    if args.trace:
        traced = [p for p in passes if p["mode"] == "pass-trace"]
        plain = sum(p["suite_s"] for p in passes if p["mode"] == "pass")
        raw = {}
        for p in traced:
            for key, value in p["trace"].items():
                raw[key] = (max(raw.get(key, 0.0), value)
                            if key.endswith("residual_max")
                            else raw.get(key, 0.0) + value)
        out["trace"] = (raw, len(traced),
                        sum(p["suite_s"] for p in traced) / plain - 1.0)
        return out
    suites = [p["suite_s"] for p in passes]
    out["durations"] = suites
    out["e2e"] = {
        "setup_s": statistics.median(setups),
        "ops_per_s": (out["attempted"] - out["failed"]) / sum(suites),
        "batch_s_p50": statistics.median(suites),
        "batch_s_tail": tail(suites)[0],
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    return out


def per_layer(raw, n_calls, overhead):
    """Per-layer metrics from summed span totals of n_calls traced calls."""
    units = per_layer_units()
    values = {}
    for name, unit in units.items():
        if unit.endswith("/call"):
            values[name] = raw.get(name, 0.0) / n_calls
    values["solver.travel_weight.residual_max"] = raw.get(
        "solver.travel_weight.residual_max", 0.0)
    attempts = raw.get("coarse.chi_upper_probe.attempts", 0.0)
    values["coarse.chi_upper_probe.accept_ratio"] = (
        raw.get("coarse.chi_upper_probe.accepted", 0.0) / attempts
        if attempts else 0.0)
    capacity = raw.get("io.parallel_map.capacity", 0.0)
    values["io.parallel_map.utilization"] = (
        raw.get("io.parallel_map.busy", 0.0) / capacity if capacity else 0.0)
    values["trace_overhead_frac"] = overhead
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def environment():
    env = {"python": platform.python_version(),
           "nproc": len(os.sched_getaffinity(0)),
           "machine": platform.machine()}
    try:
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, text=True,
            capture_output=True, timeout=10,
            env=dict(os.environ,
                     GIT_CEILING_DIRECTORIES=os.path.dirname(workloads.ROOT)))
        env["git"] = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        env["git"] = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu"] = next((line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name")), "unknown")
        with open("/proc/loadavg") as fh:
            env["loadavg"] = fh.read().split()[:3]
    except OSError:
        env.setdefault("cpu", "unknown")
        env["loadavg"] = "unknown"
    import numpy
    import scipy

    env["numpy"] = numpy.__version__
    env["scipy"] = scipy.__version__
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        env["blas"] = "unknown"
    env["blas_threads_env"] = {
        k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                   "MKL_NUM_THREADS") if k in os.environ}
    return env


def main(argv=None):
    p = argparse.ArgumentParser(description="rwpot benchmark")
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    init = os.path.join(workloads.ROOT, "src", "rwpot", "__init__.py")
    if not os.path.isfile(init):
        print(f"error: no rwpot sources at {os.path.dirname(init)}; run from "
              f"a checkout of the repository", file=sys.stderr)
        return 2

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=workloads.ROOT)
    try:
        run = run_cli if args.workload == "cli-defaults" else run_d2
        out = run(args, tmp)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed = out["attempted"], out["failed"]
    print(f"threads {out['threads']}  inputs "
          f"{workloads.inputs(args.workload, args.seed)[:4]}...")
    if out.get("failed_names"):
        print(f"failed experiments: {out['failed_names']}")
    if out["absent"]:
        print(f"absent (reported as 0): {out['absent']}")
    print(f"metric failed_frac {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} operations)")
    if args.trace:
        metrics = per_layer(*out["trace"])
        for name, m in metrics.items():
            print(f"layer {name:45s} {m['value']:14.6g} {m['unit']}")
        spans = sum(m["value"] for name, m in metrics.items()
                    if name.endswith(".s"))
        self_s = metrics["bench.self_s"]["value"]
        wall = metrics["bench.wall_s"]["value"]
        print(f"accounting per call: span self times {spans:.6f} s + "
              f"benchmark self time {self_s:.6f} s = {spans + self_s:.6f} s "
              f"of traced wall time {wall:.6f} s "
              f"(residual {wall - spans - self_s:.2e} s)")
    else:
        metrics = {name: {"value": out["e2e"][name], "unit": unit}
                   for name, unit in END_TO_END}
        value, pct, n = tail(out["durations"])
        for name, m in metrics.items():
            note = f"  (p{pct:.1f} of {n} calls)" if name == "batch_s_tail" else ""
            print(f"metric {name} {m['value']:.6g} {m['unit']}{note}")
        if args.workload == "cli-defaults":
            print("per-experiment s (first pass): " + json.dumps(
                {k: round(v, 4) for k, v in out["per_experiment_s"].items()}))
            print(f"metric suite_s {out['e2e']['batch_s_p50']:.6g} s  "
                  f"(= batch_s_p50: one pass is one call)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
