"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the ``sheltersim`` modules from outside
the package, so nothing under ``src/`` changes. Every wrapped call is a span.
A span's self time is its duration minus the time covered by its child spans;
children of one span never overlap, because the simulation is sequential.

A replication makes on the order of 10^5 kernel, stream and sampler calls, so
those fine spans are only aggregated per name (calls, total and self time).
Coarse spans (CLI steps, scenarios, replications, calendar runs, stream set-up)
are also kept whole, with start, end and parent, for the spans file.
Self times include the tracer's own cost around each child call, so compare
them between commits measured the same way, not with untraced times.

Replications that run in forked pool workers flush their data to one file
per worker after each replication; ``collect_workers`` merges them back.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time


class ConservationError(RuntimeError):
    """A replication's counters broke a flow-conservation identity."""


class Tracer:
    """Span stack, per-name aggregates, counters and kept spans of one process."""

    def __init__(self, worker_dir: str | None = None, clock=time.perf_counter_ns):
        self.worker_dir = worker_dir
        self.clock = clock
        self.pid = os.getpid()
        # Open spans, innermost last: [ns covered by children, nearest kept id].
        self.stack: list[list] = []
        self.stats: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counts: dict[str, int] = {}
        self.peaks: dict[str, int] = {}
        self.spans: list[dict] = []
        self._ids = itertools.count()

    def wrap(self, name: str, fn, keep: bool = False):
        """Return ``fn`` timed as span ``name``; ``keep`` also records it whole."""
        clock = self.clock
        stack = self.stack
        spans = self.spans
        ids = self._ids
        stat = self.stats.setdefault(name, [0, 0, 0])

        def span(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            frame = [0, f"{os.getpid()}:{next(ids)}" if keep else parent]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                dur = end - start
                stack.pop()
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if keep:
                    spans.append({"id": frame[1], "parent": parent, "name": name,
                                  "start": start, "end": end})
        return span

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def peak(self, name: str, value: int) -> None:
        if value > self.peaks.get(name, -1):
            self.peaks[name] = value

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items() if v[0]},
                "counts": dict(self.counts), "peaks": dict(self.peaks),
                "spans": list(self.spans)}

    def reset(self) -> None:
        """Drop recorded data in place; wrappers keep their references."""
        for stat in self.stats.values():
            stat[:] = [0, 0, 0]
        self.counts.clear()
        self.peaks.clear()
        self.spans.clear()

    def flush_worker(self) -> None:
        """In a pool worker, append this process's data to its file and reset."""
        if os.getpid() == self.pid or self.worker_dir is None:
            return
        path = os.path.join(self.worker_dir, f"worker-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(self.snapshot()) + "\n")
        self.reset()


def merge(into: dict, part: dict) -> dict:
    """Add one snapshot's data to another (both in ``Tracer.snapshot`` form)."""
    for name, (calls, total, self_ns) in part["stats"].items():
        stat = into["stats"].setdefault(name, [0, 0, 0])
        stat[0] += calls
        stat[1] += total
        stat[2] += self_ns
    for name, n in part["counts"].items():
        into["counts"][name] = into["counts"].get(name, 0) + n
    for name, value in part["peaks"].items():
        into["peaks"][name] = max(value, into["peaks"].get(name, value))
    into["spans"].extend(part["spans"])
    return into


def collect_workers(worker_dir: str, snapshot: dict) -> dict:
    """Merge every worker file in ``worker_dir`` into ``snapshot``."""
    for entry in sorted(os.listdir(worker_dir)):
        with open(os.path.join(worker_dir, entry), encoding="utf-8") as fh:
            for line in fh:
                merge(snapshot, json.loads(line))
    return snapshot


def conservation_errors(stats) -> list[str]:
    """Flow-conservation violations in one ``ReplicationStats``."""
    errors = []
    for name, r in stats.resources.items():
        if r.requests != r.served + r.reneges + r.still_queued:
            errors.append(
                f"replication {stats.replication} {name}: requests {r.requests} != "
                f"served {r.served} + reneges {r.reneges} + still_queued {r.still_queued}")
    if stats.arrivals != stats.served_then_left + stats.left_unserved + stats.still_in_system:
        errors.append(
            f"replication {stats.replication}: arrivals {stats.arrivals} != "
            f"served_then_left {stats.served_then_left} + left_unserved "
            f"{stats.left_unserved} + still_in_system {stats.still_in_system}")
    return errors


SAMPLERS = ("sample_bernoulli", "sample_exponential", "sample_triangular",
            "sample_uniform_int")


def install(tracer: Tracer) -> None:
    """Patch the sheltersim modules so their public calls become spans.

    Samplers are patched under the names ``model`` looks them up by. The
    callbacks handed to ``Simulator.schedule`` and ``Resource.request``
    are wrapped too, so model work they trigger is a child span and kernel
    self time excludes it.
    """
    from sheltersim import cli, experiment, kernel, model, streams

    # A forked worker starts with a copy of the parent's data; drop it there.
    os.register_at_fork(after_in_child=tracer.reset)
    span = tracer.wrap
    Resource = kernel.Resource
    Simulator = kernel.Simulator

    timed_schedule = span("kernel.schedule", Simulator.schedule)

    def schedule(sim, time, fn, *args):
        # Resource._renege is patched below as a kernel span of its own.
        if not isinstance(getattr(fn, "__self__", None), Resource):
            fn = span("model.event", fn)
        return timed_schedule(sim, time, fn, *args)

    timed_request = span("kernel.request", Resource.request)

    def request(res, entity_id, units, patience, on_grant, on_renege):
        timed_request(res, entity_id, units, patience,
                      span("model.on_grant", on_grant),
                      span("model.on_renege", on_renege))
        tracer.peak("kernel.queue_len", len(res.queue))

    Simulator.schedule = schedule
    Simulator.run_until = span("kernel.calendar", Simulator.run_until, keep=True)
    kernel.EventHandle.cancel = span("kernel.cancel", kernel.EventHandle.cancel)
    Resource.request = request
    Resource.release = span("kernel.release", Resource.release)
    Resource._renege = span("kernel.renege", Resource._renege)

    model.ShelterModel.admit = span("model.admit", model.ShelterModel.admit)
    model.assign_attributes = span("model.assign_attributes", model.assign_attributes)
    for name in SAMPLERS:
        setattr(model, name, span("distributions.sample", getattr(model, name)))
    streams.RngStream.uniform = span("streams.uniform", streams.RngStream.uniform)
    experiment.build_streams = span("streams.build", experiment.build_streams, keep=True)

    timed_replication = span("experiment.run_replication", experiment.run_replication,
                             keep=True)

    # The pool pickles this function by name, so it must carry the original's.
    @functools.wraps(experiment.run_replication)
    def run_replication(config, replication):
        stats = timed_replication(config, replication)
        errors = conservation_errors(stats)
        if errors:
            raise ConservationError("; ".join(errors))
        tracer.flush_worker()
        return stats

    class CountedPool(experiment.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            tracer.count("experiment.pool_starts")
            super().__init__(*args, **kwargs)

    experiment.run_replication = run_replication
    experiment.ProcessPoolExecutor = CountedPool
    experiment.summarize = span("experiment.summarize", experiment.summarize, keep=True)
    experiment.run_scenario = cli.run_scenario = span(
        "experiment.run_scenario", experiment.run_scenario, keep=True)
    cli.sweep = span("experiment.sweep", cli.sweep, keep=True)

    cli.resolve_config = span("cli.resolve_config", cli.resolve_config, keep=True)
    cli.write_scenario_csv = span("cli.write_csv", cli.write_scenario_csv, keep=True)
    cli.write_sweep_csv = span("cli.write_csv", cli.write_sweep_csv, keep=True)
    cli.write_manifest = span("cli.write_manifest", cli.write_manifest, keep=True)
    cli.main = span("cli.main", cli.main, keep=True)
