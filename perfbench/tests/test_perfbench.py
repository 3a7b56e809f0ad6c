"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
from sheltersim.experiment import ReplicationStats, ResourceWindowStats  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0

    def __call__(self):
        return self.now


def test_self_time_on_nested_spans():
    # (name, own ns before children, children, own ns after children)
    tree = ("root", 7, [
        ("a", 3, [("leaf", 10, [], 0), ("leaf", 5, [], 1)], 2),
        ("b", 0, [("leaf", 4, [], 0)], 6),
    ], 1)
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)
    kept = {"root", "a"}

    def node(spec):
        name, before, children, after = spec

        def body():
            clock.now += before
            for child in children:
                node(child)()
            clock.now += after
        return tr.wrap(name, body, keep=name in kept)

    node(tree)()
    # name -> [calls, total ns, self ns]
    assert tr.stats == {
        "root": [1, 39, 8],
        "a": [1, 21, 5],
        "leaf": [3, 20, 20],
        "b": [1, 10, 6],
    }
    assert tr.stack == []
    spans = {s["name"]: s for s in tr.spans}
    assert set(spans) == kept
    assert spans["a"]["parent"] == spans["root"]["id"]
    assert spans["root"]["parent"] is None
    assert (spans["a"]["start"], spans["a"]["end"]) == (7, 28)


def test_merge_adds_worker_snapshots():
    a = {"stats": {"x": [1, 10, 5]}, "counts": {"n": 1}, "peaks": {"q": 3}, "spans": [1]}
    b = {"stats": {"x": [2, 4, 4], "y": [1, 1, 1]}, "counts": {"n": 2},
         "peaks": {"q": 2}, "spans": [2]}
    assert tracing.merge(a, b) == {
        "stats": {"x": [3, 14, 9], "y": [1, 1, 1]}, "counts": {"n": 3},
        "peaks": {"q": 3}, "spans": [1, 2]}


def test_tail_is_highest_percentile_with_ten_beyond():
    assert bench.tail(list(range(100, 0, -1))) == (90, 90.0)
    assert bench.tail(list(range(1, 12))) == (1, 100.0 / 11)
    assert bench.tail(list(range(10))) is None
    assert bench.tail([5.0] * 20) == (5.0, 50.0)  # ties are ranked, not merged


def test_import_ms_sums_outermost_entries_per_package():
    # Children are logged before their parent, two spaces deeper.
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:       400 |        500 |     numpy",
        "import time:       300 |        800 |   scipy",
        "import time:        50 |         50 |     numpy.linalg",
        "import time:        50 |        100 |   sheltersim.model",
        "import time:       100 |       1000 | sheltersim",
        "import time:        30 |         30 | numpy.extra",
        "import time:        40 |         40 | sheltersim.cli",
    ])
    assert bench.import_ms(log) == pytest.approx(
        {"scipy": 0.8, "numpy": 0.5 + 0.05 + 0.03, "sheltersim": 1.0 + 0.04})


def _stats(requests=10, served=6, reneges=3, still_queued=1, arrivals=9):
    res = ResourceWindowStats(requests, served, reneges, still_queued, None, None, None)
    return ReplicationStats(
        replication=4, resources={"crisis_beds": res}, arrivals=arrivals,
        arrivals_bed_seeking=3, arrivals_service_only=6, served_then_left=5,
        left_unserved=2, bed_renege_exit=1, bed_renege_stayed=1, still_in_system=2)


def test_conservation_errors():
    assert tracing.conservation_errors(_stats()) == []
    (resource_error,) = tracing.conservation_errors(_stats(served=7))
    assert "crisis_beds" in resource_error and "requests 10" in resource_error
    (flow_error,) = tracing.conservation_errors(_stats(arrivals=10))
    assert "arrivals 10" in flow_error


def test_csv_problems_flags_broken_flows():
    spec = bench.workloads(1)["quick_check"]
    header = "name,avg_wait_days,max_wait_days,utilization_pct,pct_reneged,ci_halfwidth_wait_days,value"
    flows = {"youth_arrivals": 10, "youth_arrivals_bed_seeking": 4,
             "youth_arrivals_service_only": 6, "youth_served_then_left": 7,
             "youth_left_unserved": 2, "bed_renege_exit": 1, "bed_renege_stayed": 0,
             "youth_still_in_system": 1}
    rows = ["crisis_beds,1.00,2.00,50.0,1.0,0.10,"]
    rows += [f"{k},,,,,,{v:.2f}" for k, v in flows.items()]
    good = "\n".join([header, *rows]) + "\n"
    assert bench.csv_problems(good, spec) == []
    bad = good.replace("youth_left_unserved,,,,,,2.00", "youth_left_unserved,,,,,,3.00")
    assert bench.csv_problems(bad, spec) == [
        "scenario 0: arrivals 10.0 != 11.0 (by outcome) or 10.0 (by kind)"]


def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in _benchmark_json()["workloads"]])
def test_smoke_run(workload, trace):
    """Shortest run of each workload, at the golden seed, in each mode."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0",
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in _benchmark_json()[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "baseline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
