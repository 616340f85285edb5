"""Self-tests of the benchmark, on tiny runs:

    python3 -m pytest perfbench -q
"""

import json
import os
import subprocess
import sys
from argparse import Namespace

import pytest

import hooks
import worker
import workloads


def _bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(workloads.HERE, "run.py"), *args],
        cwd=workloads.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def _declared():
    with open(os.path.join(workloads.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke():
    """cost-d2 for one second, on two seeds, with tracing off and on."""
    return {(seed, trace): _bench("--workload", "cost-d2", "--seed", str(seed),
                                  "--seconds", "1", "--trace", str(trace))
            for seed in (1, 2) for trace in (0, 1)}


def test_smoke_run_prints_every_metric_with_its_unit(smoke):
    declared_all = _declared()
    for (_, trace), lines in smoke.items():
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= workloads.COST_BATCH
        declared = declared_all["per_layer" if trace else "end_to_end"]
        assert {n: m["unit"] for n, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared}
        for name, m in result["metrics"].items():
            shown = any(line.split()[:2] in (["metric", name], ["layer", name])
                        and line.split()[3] == m["unit"] for line in lines)
            assert shown, name
        assert any(line.startswith("env ") for line in lines)
        assert any(line.startswith("metric failed_frac ") for line in lines)


def test_other_seed_changes_inputs_but_not_metric_names(smoke):
    for w in ("cost-d2", "range-d2"):
        assert workloads.inputs(w, 1) != workloads.inputs(w, 2)
        assert workloads.inputs(w, 1) == workloads.inputs(w, 1)
    assert len({tuple(workloads.inputs("cli-defaults", s))
                for s in range(1, 6)}) > 1
    for trace in (0, 1):
        names = [set(json.loads(smoke[(seed, trace)][-1])["metrics"])
                 for seed in (1, 2)]
        assert names[0] == names[1]


def test_wrong_cost_is_counted_as_failed(monkeypatch):
    rwpot = worker._import_rwpot()
    original = rwpot.solver.travel_weight

    def off_by_1e6(*args, **kwargs):
        res = original(*args, **kwargs)
        res.log_e = res.log_e - 1e-6  # every cost 1e-6 too high
        return res

    for module in hooks._rwpot_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, off_by_1e6)
    args = Namespace(workload="cost-d2", seed=1, seconds=0.3, mode="measure")
    res = worker._d2(args, rwpot)
    ref = workloads.load_reference("cost-d2")
    failed = sum(workloads.check_d2("cost-d2", r, ref) for r in res["records"])
    assert len(res["records"]) >= 1
    assert failed == workloads.COST_BATCH * len(res["records"])


def test_self_times_split_concurrent_leaves():
    # a parent [0, 10] with children [1, 5] (thread 1) and [3, 9] (thread 2)
    spans = {0: ("p", 0.0, 10.0, None, 0, None),
             1: ("a", 1.0, 5.0, 0, 1, None),
             2: ("b", 3.0, 9.0, 0, 2, None)}
    own, covered = hooks.self_times(spans)
    assert covered == 10.0
    assert own[0] == pytest.approx(2.0)  # [0, 1] and [9, 10]
    assert own[1] == pytest.approx(2.0 + 1.0)  # alone on [1, 3], half of [3, 5]
    assert own[2] == pytest.approx(1.0 + 4.0)  # half of [3, 5], alone on [5, 9]
    assert sum(own.values()) == pytest.approx(covered)
