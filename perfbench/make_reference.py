"""Record the reference outputs that run.py checks every run against.

    python3 perfbench/make_reference.py [workload ...]

Run once, at the commit that defines the benchmark, from the root of a
checkout. It calls every input of every pool (workloads.POOLS) through the
same code the benchmark times and writes perfbench/reference/<workload>.json:
per-sample costs (and E_Q[#A] for range-d2) keyed by field seed, or, for
cli-defaults, the exit code and every parsed CSV/JSON output of each
subcommand, per pass seed. Re-recording it on a later commit would hide a
wrong answer, so a change that moves the outputs on purpose says so and
records a new reference in a change of its own.
"""

import json
import os
import shutil
import sys
import tempfile

import hooks
import workloads


def d2_reference(workload, rwpot):
    spec = workloads.law()
    n_threads = workloads.threads(workload)
    sink = workloads.new_sink()
    patches = hooks.Hooks(workloads.recorders(sink))
    patches.install()
    ref = {"calls": {}, "cost": {}, "range": {}}
    try:
        for call_seed in workloads.POOLS[workload]:
            sink.update(workloads.new_sink())
            out = workloads.call(workload, spec, call_seed, n_threads)
            ref["calls"][str(call_seed)] = list(sink["cost"])
            ref["cost"].update(sink["cost"])
            ref["range"].update(sink["range"])
            record = {"seed": call_seed, "error": None, "out": out,
                      "samples": dict(sink)}
            if workloads.check_d2(workload, record, ref):
                raise SystemExit(f"{workload} call {call_seed}: invariant or "
                                 f"aggregate check fails at this commit")
    finally:
        patches.uninstall()
    return ref


def cli_reference(rwpot):
    import rwpot.cli

    ref = {}
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=workloads.ROOT)
    try:
        for pass_seed in workloads.POOLS["cli-defaults"]:
            out_dir = os.path.join(tmp, str(pass_seed))
            exits, errors, _ = workloads.cli_pass(rwpot.cli.main, pass_seed,
                                                  out_dir)
            if errors:
                raise SystemExit(f"pass {pass_seed} raised: {errors}")
            ref[str(pass_seed)] = {
                exp: {"exit": exits[exp],
                      "files": workloads.output_view(os.path.join(out_dir, exp))}
                for exp in workloads.CLI_EXPERIMENTS}
            failed = workloads.check_cli(exits, errors, out_dir, ref[str(pass_seed)])
            if failed:
                raise SystemExit(f"pass {pass_seed}: {failed} fail at this commit")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return ref


def main(argv):
    sys.path.insert(0, os.path.join(workloads.ROOT, "src"))
    import rwpot

    os.makedirs(workloads.REFERENCE_DIR, exist_ok=True)
    for workload in argv or workloads.WORKLOADS:
        ref = (cli_reference(rwpot) if workload == "cli-defaults"
               else d2_reference(workload, rwpot))
        path = os.path.join(workloads.REFERENCE_DIR, f"{workload}.json")
        with open(path, "w") as fh:
            json.dump(ref, fh, sort_keys=True, separators=(",", ":"))
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
