"""sheltersim benchmark: end-to-end CLI runs, with a traced variant per layer.

    python3 perfbench/run.py --workload baseline --seed 20240501 --seconds 40 --trace 0

Run from the root of a sheltersim checkout; the package is imported from
``src/``. Each workload is one CLI command, run again and again as a fresh
interpreter with a single client (a closed loop: the next command starts only
after the previous one has exited) until ``--seconds`` is used up.

Workloads, all on ``configs/baseline.json``:

- ``baseline``: ``simulate``, serial. The paper's headline run; ``kernel``,
  ``model``, ``streams`` and ``distributions`` do nearly all the work.
- ``bed_sweep``: ``sweep`` over nine bed capacities on a process pool, one
  new pool per value, the same population redrawn for each value. A shared
  pool or a population tape shows here and is neutral on ``baseline``.
- ``quick_check``: ``simulate --set bed_capacity=81`` with two replications,
  a user iterating on a config. Import and ``cli`` dominate.

With ``--trace 0`` it reports the end-to-end metrics; medians over the runs:
``setup_s`` (import of ``sheltersim.cli``), ``total_s`` (that plus
``cli.main``), ``reps_per_s`` (scenario x replication pairs per second of
``cli.main``), ``peak_rss_mb`` (largest RSS of the command or its workers)
and ``ok_frac`` (share of runs that exited 0 with the expected CSV).
With ``--trace 1`` it alternates untraced and traced runs and reports the
per-layer metrics from the traced ones (see ``tracer``), plus the tracing
overhead. ``experiment.parallel_efficiency`` is the summed replication time
over ``jobs`` x the wall time of the outermost experiment span: the share of
the workers' time spent inside replications.

Each run's CSV must pass structural and conservation checks, and must match
the golden digest in ``golden.json`` at the default seed, or the first run's
digest at any other seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A results file with the
environment, every run's raw figures and the metrics is written to
``perfbench/results/``, and traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import tracer as tracing

CONFIG = "configs/baseline.json"
DEFAULT_SEED = 20240501  # master_seed of configs/baseline.json
BENCH_DIR = Path("perfbench")
GOLDEN = BENCH_DIR / "golden.json"
RESULTS = BENCH_DIR / "results"
TAIL_BEYOND = 10
HARD_STOP_S = 150.0  # no run starts later than this, so the benchmark ends within 180 s
FLOW_ROWS = 8
# Mean flows in the CSV are rounded to 2 decimals; four terms can drift 0.02.
FLOW_TOLERANCE = 0.021


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]  # CLI arguments besides --reps, --jobs, --seed and --out
    values: int            # scenarios per command
    reps: int              # replications per scenario
    jobs: int              # worker processes (1: serial)

    @property
    def pairs(self) -> int:
        return self.values * self.reps

    def cli_argv(self, seed: int, out: str) -> list[str]:
        return [*self.args, "--reps", str(self.reps), "--jobs", str(self.jobs),
                "--seed", str(seed), "--out", out]


def workloads(nproc: int) -> dict[str, Workload]:
    return {
        "baseline": Workload(("simulate", "--config", CONFIG), 1, 12, 1),
        "bed_sweep": Workload(("sweep", "--config", CONFIG, "--param", "bed_capacity",
                               "--values", "66:106:5"), 9, 2, min(2, nproc)),
        "quick_check": Workload(("simulate", "--config", CONFIG,
                                 "--set", "bed_capacity=81"), 1, 2, 1),
    }


# -- statistics -----------------------------------------------------------------


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float] | None:
    """Highest percentile with at least ``beyond`` samples above it, by rank.

    Returns ``(value, percentile)``, or None with ``beyond`` samples or fewer.
    """
    xs = sorted(samples)
    k = len(xs) - beyond - 1
    if k < 0:
        return None
    return xs[k], 100.0 * (k + 1) / len(xs)


def import_ms(importtime_log: str, roots=("scipy", "numpy", "sheltersim")) -> dict[str, float]:
    """Cumulative import time per top-level package from ``python -X importtime``.

    Adds the cumulative times of each package's outermost entries, those with
    no ancestor in the same package. Entries are logged children first.
    """
    entries = []
    for line in importtime_log.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        try:
            cumulative = int(parts[1])
        except ValueError:  # the header line
            continue
        name = parts[2][1:]
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip().split(".")[0], cumulative))
    totals = {root: 0.0 for root in roots}
    ancestors: list[str] = []
    for depth, root, cumulative in reversed(entries):  # parents first
        ancestors = ancestors[:depth]
        if root in totals and root not in ancestors:
            totals[root] += cumulative / 1000.0
        ancestors.append(root)
    return totals


# -- output checks ----------------------------------------------------------------


def csv_problems(text: str, spec: Workload) -> list[str]:
    """Structural and flow-conservation problems in one CLI result CSV."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows or len(rows) % spec.values:
        return [f"{len(rows)} rows for {spec.values} scenarios"]
    per = len(rows) // spec.values
    problems = []
    for i in range(spec.values):
        block = rows[i * per:(i + 1) * per]
        try:
            flows = {r["name"]: float(r["value"]) for r in block[-FLOW_ROWS:]}
            lhs = flows["youth_arrivals"]
            parts = (flows["youth_served_then_left"] + flows["youth_left_unserved"]
                     + flows["youth_still_in_system"])
            split = flows["youth_arrivals_bed_seeking"] + flows["youth_arrivals_service_only"]
        except (KeyError, ValueError) as exc:
            problems.append(f"scenario {i}: malformed flow rows ({exc})")
            continue
        if lhs <= 0:
            problems.append(f"scenario {i}: no arrivals")
        if abs(lhs - parts) > FLOW_TOLERANCE or abs(lhs - split) > FLOW_TOLERANCE:
            problems.append(f"scenario {i}: arrivals {lhs} != {parts} (by outcome) "
                            f"or {split} (by kind)")
    return problems


# -- running the command ------------------------------------------------------------


def run_client(cmd: list[str], timeout: float) -> tuple[int | None, str]:
    """Run one client to completion; on timeout kill its whole process group."""
    proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        _, err = proc.communicate()
        return None, err + f"\nkilled after {timeout:.0f} s"
    return proc.returncode, err


class Runner:
    """Runs one workload's command repeatedly and checks every output."""

    def __init__(self, name: str, spec: Workload, seed: int, golden: str | None,
                 work: Path, root: Path, deadline: float):
        self.name = name
        self.spec = spec
        self.seed = seed
        self.golden = golden
        self.work = work
        self.root = root
        self.deadline = deadline
        self.expected = golden
        self.runs: list[dict] = []

    def run(self, traced: bool) -> dict:
        index = len(self.runs)
        out = self.work / f"out-{index}.csv"
        report_path = self.work / f"report-{index}.json"
        cmd = [sys.executable]
        if traced:
            cmd += ["-X", "importtime"]
        cmd += [str(BENCH_DIR / "client.py"), str(report_path)]
        if traced:
            worker_dir = self.work / f"workers-{index}"
            worker_dir.mkdir()
            cmd += ["--trace", str(worker_dir)]
        cmd += ["--", *self.spec.cli_argv(self.seed, str(out))]
        timeout = max(10.0, self.deadline + 20.0 - time.monotonic())
        code, err = run_client(cmd, timeout)
        run = {"traced": traced, "problems": []}
        report = None
        if code == 0 and report_path.exists():
            report = json.loads(report_path.read_text())
        if report is None:
            run["problems"].append(f"client exited {code}: {err.strip()[-2000:]}")
        else:
            run.update({k: report[k] for k in ("setup_s", "main_s", "maxrss_kb")})
            run["problems"] += self._check(report, out)
            if traced:
                run["trace"] = report["trace"]
                run["import_ms"] = import_ms(err)
                seen = run["trace"]["stats"].get("experiment.run_replication", [0])[0]
                if seen != self.spec.pairs:
                    run["problems"].append(
                        f"tracer saw {seen} of {self.spec.pairs} replications")
        for problem in run["problems"]:
            print(f"[{self.name} run {index}] FAILED: {problem}", file=sys.stderr)
        self.runs.append(run)
        return run

    def _check(self, report: dict, out: Path) -> list[str]:
        if report["exit_code"] != 0:
            return [f"sheltersim exited {report['exit_code']}"]
        src = self.root / "src"
        if not Path(report["sheltersim_file"]).is_relative_to(src):
            return [f"imported {report['sheltersim_file']}, not the package in {src}"]
        text = out.read_text(encoding="utf-8")
        problems = csv_problems(text, self.spec)
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if self.expected is None:
            self.expected = digest
        elif digest != self.expected:
            what = "golden" if self.expected == self.golden else "first run's"
            problems.append(f"CSV sha256 {digest} != {what} {self.expected}")
        return problems


def layer_metrics(runs: list[dict], spec: Workload) -> tuple[dict, dict]:
    """Per-layer metrics from the traced runs, plus notes on how they were read."""
    traced = [r for r in runs if r["traced"] and "trace" in r]
    plain = [r for r in runs if not r["traced"] and "main_s" in r]
    snap = {"stats": {}, "counts": {}, "peaks": {}, "spans": []}
    efficiency = []
    for r in traced:
        tracing.merge(snap, r["trace"])
        spans = r["trace"]["spans"]
        rep_ns = sum(s["end"] - s["start"] for s in spans
                     if s["name"] == "experiment.run_replication")
        # The outermost experiment span: the sweep, or the only scenario.
        wall_ns = max(s["end"] - s["start"] for s in spans
                      if s["name"] in ("experiment.sweep", "experiment.run_scenario"))
        efficiency.append(rep_ns / (spec.jobs * wall_ns))
    st = snap["stats"]
    reps = st["experiment.run_replication"][0]

    def calls(name):
        return st.get(name, [0, 0, 0])[0]

    def per_rep(name):
        return calls(name) / reps

    def self_ns(name):
        c, _total, own = st.get(name, [0, 0, 0])
        return own / c if c else 0.0

    def mean_ms(name):
        c, total, _own = st.get(name, [0, 0, 0])
        return total / c / 1e6 if c else 0.0

    def self_ms_per_rep(*names):
        return sum(st.get(n, [0, 0, 0])[2] for n in names) / reps / 1e6

    rep_ms = [(s["end"] - s["start"]) / 1e6 for s in snap["spans"]
              if s["name"] == "experiment.run_replication"]
    rep_tail = tail(rep_ms)
    if rep_tail is None:
        rep_tail = (max(rep_ms), 100.0)
        tail_note = f"max of {len(rep_ms)} replications (fewer than 11, so no percentile qualifies)"
    else:
        tail_note = f"p{rep_tail[1]:g} of {len(rep_ms)} replications (10 or more beyond it)"
    imports = {root: statistics.median(r["import_ms"][root] for r in traced)
               for root in ("scipy", "numpy", "sheltersim")}
    overhead = (statistics.median(r["main_s"] for r in traced)
                / statistics.median(r["main_s"] for r in plain) - 1.0)

    values = {
        "kernel.schedule.calls_per_rep": (per_rep("kernel.schedule"), "calls/rep"),
        "kernel.schedule.self_ns": (self_ns("kernel.schedule"), "ns"),
        "kernel.cancel.calls_per_rep": (per_rep("kernel.cancel"), "calls/rep"),
        "kernel.cancel_ratio": (calls("kernel.cancel") / calls("kernel.schedule"), "ratio"),
        "kernel.calendar.self_ms_per_rep": (self_ms_per_rep("kernel.calendar"), "ms/rep"),
        "kernel.request.calls_per_rep": (per_rep("kernel.request"), "calls/rep"),
        "kernel.request.self_ns": (self_ns("kernel.request"), "ns"),
        "kernel.release.calls_per_rep": (per_rep("kernel.release"), "calls/rep"),
        "kernel.release.self_ns": (self_ns("kernel.release"), "ns"),
        "kernel.renege.calls_per_rep": (per_rep("kernel.renege"), "calls/rep"),
        "kernel.grant_ratio": (calls("model.on_grant") / calls("kernel.request"), "ratio"),
        "kernel.queue_len_max": (snap["peaks"].get("kernel.queue_len", 0), "count"),
        "model.arrivals_per_rep": (per_rep("model.admit"), "arrivals/rep"),
        "model.assign_attributes.self_ns": (self_ns("model.assign_attributes"), "ns"),
        "model.admit.self_ns": (self_ns("model.admit"), "ns"),
        "model.handlers.self_ms_per_rep": (
            self_ms_per_rep("model.event", "model.on_grant", "model.on_renege"), "ms/rep"),
        "streams.uniform.calls_per_rep": (per_rep("streams.uniform"), "calls/rep"),
        "streams.uniform.self_ns": (self_ns("streams.uniform"), "ns"),
        "streams.build_ms_per_rep": (
            st["streams.build"][1] / reps / 1e6, "ms/rep"),
        "distributions.sample.calls_per_rep": (per_rep("distributions.sample"), "calls/rep"),
        "distributions.sample.self_ns": (self_ns("distributions.sample"), "ns"),
        "experiment.replication_ms.p50": (statistics.median(rep_ms), "ms"),
        "experiment.replication_ms.tail": (rep_tail[0], "ms"),
        "experiment.summarize_ms": (mean_ms("experiment.summarize"), "ms"),
        "experiment.pool_starts": (
            snap["counts"].get("experiment.pool_starts", 0) / len(traced), "count"),
        "experiment.parallel_efficiency": (statistics.median(efficiency), "ratio"),
        "cli.resolve_config_ms": (mean_ms("cli.resolve_config"), "ms"),
        "cli.write_csv_ms": (mean_ms("cli.write_csv"), "ms"),
        "cli.write_manifest_ms": (mean_ms("cli.write_manifest"), "ms"),
        "setup.import_ms.scipy": (imports["scipy"], "ms"),
        "setup.import_ms.numpy": (imports["numpy"], "ms"),
        "setup.import_ms.sheltersim": (imports["sheltersim"], "ms"),
        "trace.overhead_frac": (overhead, "frac"),
    }
    notes = {"experiment.replication_ms.tail": tail_note,
             "replications_traced": reps,
             "traced_runs": len(traced)}
    return values, notes


def end_to_end_metrics(runs: list[dict], spec: Workload) -> dict:
    ok = [r for r in runs if not r["traced"] and not r["problems"]]
    attempted = sum(1 for r in runs if not r["traced"])
    if not ok:
        return {}
    return {
        "setup_s": (statistics.median(r["setup_s"] for r in ok), "s"),
        "total_s": (statistics.median(r["setup_s"] + r["main_s"] for r in ok), "s"),
        "reps_per_s": (statistics.median(spec.pairs / r["main_s"] for r in ok), "1/s"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in ok) / 1024.0, "MB"),
        "ok_frac": (len(ok) / attempted, "frac"),
    }


# -- environment --------------------------------------------------------------------


def environment(root: Path) -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    sha = None
    if (root / ".git").exists():  # a plain checkout has no history to name
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True)
            sha = done.stdout.strip() or None
        except OSError:
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": sha,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads(1)))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    root = Path.cwd()
    missing = [p for p in ("src/sheltersim/cli.py", CONFIG, str(BENCH_DIR / "client.py"))
               if not (root / p).is_file()]
    if missing:
        print(f"error: run from a sheltersim checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    env = environment(root)
    spec = workloads(env["nproc"])[args.workload]
    golden_data = json.loads((root / GOLDEN).read_text())
    golden = None
    if args.seed == golden_data["seed"]:
        golden = golden_data["sha256"][args.workload]
        if golden_data["numpy"] != env["numpy"]:
            print(f"warning: golden digests were taken with numpy {golden_data['numpy']}, "
                  f"this is numpy {env['numpy']}; NEP 19 does not freeze random streams "
                  f"across versions", file=sys.stderr)

    work = root / RESULTS / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    # Untimed warm-up: compile bytecode and fill the page cache for the imports.
    run_client([sys.executable, "-c", "import sys; sys.path.insert(0, 'src'); "
                "import sheltersim.cli"], timeout=60)

    runner = Runner(args.workload, spec, args.seed, golden, work, root,
                    deadline=start + HARD_STOP_S)
    measure_from = time.monotonic()
    measure_until = measure_from + args.seconds
    step_s: list[float] = []
    while True:
        step_start = time.monotonic()
        runner.run(traced=False)
        if args.trace:
            runner.run(traced=True)
        step_s.append(time.monotonic() - step_start)
        next_end = time.monotonic() + statistics.median(step_s)
        if next_end > start + HARD_STOP_S:
            break
        # A traced run needs 11 replications for a tail with 10 beyond it.
        short = args.trace and len(step_s) * spec.pairs <= TAIL_BEYOND
        if next_end > measure_until and not short:
            break
    shutil.rmtree(work, ignore_errors=True)

    runs = runner.runs
    failed = sum(1 for r in runs if r["problems"])
    correct = failed == 0
    notes = {}
    if args.trace and correct:
        metrics, notes = layer_metrics(runs, spec)
    elif args.trace:
        metrics = {}
    else:
        metrics = end_to_end_metrics(runs, spec)

    stem = f"{args.workload}_seed{args.seed}"
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cli_argv": spec.cli_argv(args.seed, "OUT.csv"),
        "closed_loop": "one client; each command starts after the previous one exits",
        "environment": env, "golden_sha256": golden, "expected_sha256": runner.expected,
        "measured_s": time.monotonic() - measure_from,
        "runs": [{k: v for k, v in r.items() if k != "trace"} for r in runs],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "notes": notes,
    }
    (root / RESULTS / f"{stem}_trace{args.trace}.json").write_text(
        json.dumps(results, indent=2) + "\n")
    if args.trace:
        with open(root / RESULTS / f"{stem}_spans.jsonl", "w", encoding="utf-8") as fh:
            for i, r in enumerate(runs):
                for s in r.get("trace", {}).get("spans", []):
                    fh.write(json.dumps({**s, "workload": args.workload, "run": i}) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>14.6g} {unit}")
    for name, note in notes.items():
        print(f"# {name}: {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
