"""One workload process, started by run.py.

It imports rwpot from the checkout's src/, makes its inputs, makes one
warm-up call and prints READY; run.py times set-up up to that line. Then,
by mode:

  setup       exit
  measure     d=2 workloads: closed loop of calls for --seconds
  trace       d=2 workloads: the same loop in untraced/traced pairs on the
              same inputs, alternating which runs first
  pass        cli-defaults: one pass over the subcommands
  pass-trace  cli-defaults: one traced pass

The raw outputs (per-call durations and recorded values, exit codes, span
totals, peak RSS) go to --result as JSON; run.py checks and summarises them.
"""

import argparse
import itertools
import json
import os
import resource
import sys
from time import perf_counter

import hooks
import workloads

READY = "@@ready"


def _import_rwpot():
    src = os.path.join(workloads.ROOT, "src")
    sys.path.insert(0, src)
    import rwpot

    if not os.path.abspath(rwpot.__file__).startswith(src + os.sep):
        raise SystemExit(f"rwpot imported from {rwpot.__file__}, not {src}")
    return rwpot


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _d2(args, rwpot):
    w = args.workload
    spec = workloads.law()
    seeds = workloads.inputs(w, args.seed)
    n_threads = workloads.threads(w)
    sink = workloads.new_sink()
    plain = hooks.Hooks(workloads.recorders(sink))
    tracer = hooks.Tracer() if args.mode == "trace" else None
    traced = (hooks.Hooks(workloads.recorders(sink), tracer)
              if tracer else None)
    plain.install()
    workloads.call(w, spec, workloads.WARMUP_SEED, n_threads)
    print(READY, flush=True)
    if args.mode == "setup":
        return None

    records = []

    def one(call_seed, is_traced):
        sink.update(workloads.new_sink())
        if is_traced:
            plain.uninstall()
            traced.install()
        t0 = perf_counter()
        try:
            out, err = workloads.call(w, spec, call_seed, n_threads), None
        except Exception as exc:  # a failed call fails all its samples
            out, err = None, repr(exc)
        t1 = perf_counter()
        if is_traced:
            traced.uninstall()
            plain.install()
            tracer.window(t0, t1)
        records.append({"seed": call_seed, "traced": is_traced, "s": t1 - t0,
                        "out": out, "error": err,
                        "samples": {k: sink[k] for k in ("cost", "range")}})

    t_loop = perf_counter()
    for k, call_seed in enumerate(itertools.cycle(seeds)):
        if k and perf_counter() - t_loop >= args.seconds:
            break
        if tracer is None:
            one(call_seed, False)
        else:
            for is_traced in ((False, True) if k % 2 == 0 else (True, False)):
                one(call_seed, is_traced)
    loop_s = perf_counter() - t_loop
    plain.uninstall()
    return {"records": records, "loop_s": loop_s, "rss_mb": _peak_rss_mb(),
            "threads": n_threads,
            "trace": hooks.aggregate(tracer) if tracer else None,
            "absent": traced.absent if traced else plain.absent}


def _cli(args, rwpot):
    import rwpot.cli

    (pass_seed,) = workloads.inputs(args.workload, args.seed)
    # solve is the cheapest subcommand: per-process caches stay cold
    rwpot.cli.main(["solve", "--out", os.path.join(args.tmp, "warmup"),
                    "--seed", str(workloads.WARMUP_SEED)])
    print(READY, flush=True)
    if args.mode == "setup":
        return None
    tracer = hooks.Tracer() if args.mode == "pass-trace" else None
    traced = hooks.Hooks(tracer=tracer) if tracer else None
    if traced:
        traced.install()
    t0 = perf_counter()
    exits, errors, durations = workloads.cli_pass(
        rwpot.cli.main, pass_seed, os.path.join(args.tmp, "pass"))
    t1 = perf_counter()
    if traced:
        traced.uninstall()
        tracer.window(t0, t1)
    return {"pass_seed": pass_seed, "exits": exits, "errors": errors,
            "durations": durations, "suite_s": t1 - t0,
            "rss_mb": _peak_rss_mb(),
            "trace": hooks.aggregate(tracer) if tracer else None,
            "absent": traced.absent if traced else []}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--mode", required=True,
                   choices=("setup", "measure", "trace", "pass", "pass-trace"))
    p.add_argument("--tmp", required=True)
    p.add_argument("--result")
    args = p.parse_args(argv)
    rwpot = _import_rwpot()
    run = _cli if args.workload == "cli-defaults" else _d2
    result = run(args, rwpot)
    if result is not None:
        with open(args.result, "w") as fh:
            json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
