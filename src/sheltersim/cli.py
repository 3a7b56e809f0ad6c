"""Command-line front end: validate configs, run scenarios and sweeps, and
emit CSV tables plus a reproducibility manifest.

Exit codes: 0 success, 2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .config import MAX_GRID_PAIRS, ConfigError, ScenarioConfig, set_field
from .experiment import ScenarioSummary, run_scenario, sweep
from .model import FLOW_LABELS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# The CSV's pool columns in order: label, the pool's metric (the field of a
# ``<pool>.<field>`` key), its statistic, decimals and scale. "mean" and
# "half_width" read the key's estimate; "max" is the largest value over the
# replications.
POOL_COLUMNS = (
    ("avg_wait_days", "avg_wait", "mean", 2, 1.0),
    ("max_wait_days", "max_wait", "max", 2, 1.0),
    ("utilization_pct", "utilization", "mean", 1, 100.0),
    ("pct_reneged", "renege_pct", "mean", 1, 1.0),
    ("ci_halfwidth_wait_days", "avg_wait", "half_width", 2, 1.0),
)
RESOURCE_COLUMNS = ("name", *(label for label, *_ in POOL_COLUMNS), "value")

# Sidecar of every ``--out``: ``write_manifest`` writes it after the CSV.
MANIFEST_SUFFIX = ".manifest.json"


def _fmt(value: float | None, decimals: int, scale: float = 1.0) -> str:
    if value is None:
        return ""
    return f"{value * scale:.{decimals}f}"


def load_config(path: str | None) -> dict:
    """Read a JSON config file into a plain dict (defaults when no path)."""
    if path is None:
        return ScenarioConfig().to_dict()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError([f"config file not found: {path}"])
    except OSError as exc:  # a directory, no permission, ...
        raise ConfigError([f"config file {path} cannot be read: {exc}"])
    except (ValueError, RecursionError) as exc:  # bad JSON, too long an int, too deep
        raise ConfigError([f"config file {path} is not valid JSON: {exc}"])
    if not isinstance(data, dict):
        raise ConfigError([f"config file {path} must contain a JSON object"])
    return data


def apply_set(data: dict, assignment: str) -> None:
    """Apply one ``--set key=value`` override to the config dict: ``key`` as
    ``set_field`` takes it, the value parsed as JSON, falling back to a
    string."""
    key, equals, raw = assignment.partition("=")
    key = key.strip()
    if not equals or not key:
        raise ConfigError([f"--set {assignment!r}: expected key=value with a non-empty key"])
    try:
        value = json.loads(raw)
    except (ValueError, RecursionError):  # RecursionError: nested too deep
        value = raw
    set_field(data, key, value)


def resolve_config(args) -> ScenarioConfig:
    data = load_config(args.config)
    for assignment in args.set or []:
        apply_set(data, assignment)
    for key, flag in (("master_seed", "seed"), ("replications", "reps")):
        if getattr(args, flag, None) is not None:
            set_field(data, key, getattr(args, flag))
    return ScenarioConfig.from_dict(data)


def parse_values(text: str) -> list[float]:
    """Parse sweep values: an integer ``start:stop:step`` range (inclusive),
    or a comma list of JSON numbers."""
    text = text.strip()
    if not text:
        raise ConfigError(["--values: must not be empty"])
    try:
        if ":" in text:
            parts = [int(p) for p in text.split(":")]
            start, stop, step = parts if len(parts) == 3 else (*parts, 1)  # too many: ValueError
            if step <= 0 or stop < start:
                raise ValueError
            values = range(start, stop + 1, step)
            count = (stop - start) // step + 1  # len() overflows past sys.maxsize
        else:
            values = [json.loads(p) for p in text.split(",")]
            if not all(type(v) in (int, float) for v in values):
                raise ValueError
            count = len(values)
    except (ValueError, RecursionError):
        raise ConfigError([f"--values {text!r}: expected an integer start:stop:step "
                           f"or a comma list of numbers"])
    if count > MAX_GRID_PAIRS:
        raise ConfigError([f"--values {text!r}: {count:,} values, above the limit of "
                           f"{MAX_GRID_PAIRS:,} (value, replication) pairs"])
    return list(values)


# -- output writing -----------------------------------------------------------


def _statistic(summary: ScenarioSummary, pool: str, metric: str, statistic: str):
    if statistic == "max":
        values = (getattr(r.resources[pool], metric) for r in summary.replications)
        return max((v for v in values if v is not None), default=None)
    mean, half_width = summary.estimates[f"{pool}.{metric}"]
    return half_width if statistic == "half_width" else mean


def _rows(summary: ScenarioSummary):
    """The CSV rows of one summary: one per resource, then one per flow mean.
    The writer leaves the columns a row does not set empty."""
    reps = summary.replications
    for pool in reps[0].resources if reps else ():
        yield {"name": pool, **{
            label: _fmt(_statistic(summary, pool, metric, statistic), decimals, scale)
            for label, metric, statistic, decimals, scale in POOL_COLUMNS}}
    for key, label in FLOW_LABELS.items():
        yield {"name": label, "value": _fmt(summary.estimates[key][0], 2)}


def write_scenario_csv(fh, summary: ScenarioSummary) -> None:
    writer = csv.DictWriter(fh, fieldnames=RESOURCE_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(_rows(summary))


def write_sweep_csv(fh, parameter: str, results: list[tuple[float, ScenarioSummary]]) -> None:
    writer = csv.DictWriter(fh, fieldnames=(parameter,) + RESOURCE_COLUMNS,
                            lineterminator="\n")
    writer.writeheader()
    for value, summary in results:
        writer.writerows({**row, parameter: value} for row in _rows(summary))


def write_manifest(args, config: ScenarioConfig, swept: dict) -> str:
    """Write the manifest of the command ``args`` beside its ``args.out``.
    ``swept`` names a sweep's parameter and values, and is empty for any
    other command."""
    out_path = args.out
    manifest_path = out_path + MANIFEST_SUFFIX
    with open(out_path, "rb") as fh:
        sha256 = hashlib.sha256(fh.read()).hexdigest()
    manifest = {
        "tool": "sheltersim",
        "version": __version__,
        "command": args.command,
        "config_digest": config.digest(),
        "master_seed": config.master_seed,
        "replications": config.replications,
        **swept,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": [os.path.abspath(out_path)],
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "output_sha256": {os.path.abspath(out_path): sha256},
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest_path


def print_summary_table(summary: ScenarioSummary, heading: str | None = None) -> None:
    """Print the CSV rows of ``summary`` (see ``_rows``) as a table."""
    if heading:
        print(heading)
    print(f"{'Resource':<24}{'Avg Wait (d)':>14}{'Max Wait (d)':>14}"
          f"{'Utilization':>14}{'Reneged':>10}")
    rows = list(_rows(summary))
    pools = len(rows) - len(FLOW_LABELS)
    for row in rows[:pools]:
        util, reneged = row["utilization_pct"], row["pct_reneged"]
        print(f"{row['name']:<24}{row['avg_wait_days']:>14}{row['max_wait_days']:>14}"
              f"{util and util + '%':>14}{reneged and reneged + '%':>10}")
    n = len(summary.replications)
    print(f"Youth flow (means over {n} replication{'s' if n != 1 else ''}):")
    for row in rows[pools:]:
        print(f"  {row['name']:<30}{row['value']:>10}")


# -- commands --------------------------------------------------------------------


def _run_to_csv(args, config: ScenarioConfig, run, write, swept: dict):
    """The output sequence of ``simulate`` and ``sweep``: open ``args.out``
    and its manifest path without truncating them (before the run, so an
    unwritable path fails at once), then ``write(fh, run())`` into
    ``args.out``, then write the manifest with ``swept`` (see
    ``write_manifest``). Returns the run's result and the manifest path. If
    any step fails, every file this call created is removed; an existing
    file is left as it was unless writing it failed."""
    created = []
    try:
        for path in (args.out, args.out + MANIFEST_SUFFIX):
            fresh = not os.path.lexists(path)
            try:
                open(path, "a").close()
            except OSError as exc:
                raise OSError(f"cannot write {path}: {exc}") from exc
            if fresh:
                created.append(path)
        result = run()
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            write(fh, result)
        return result, write_manifest(args, config, swept)
    except BaseException:
        for path in created:
            os.unlink(path)
        raise


def cmd_simulate(args) -> int:
    config = resolve_config(args)
    summary, manifest_path = _run_to_csv(
        args, config, lambda: run_scenario(config, jobs=args.jobs), write_scenario_csv, {})
    print_summary_table(summary)
    print(f"Wrote {args.out} and {manifest_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = resolve_config(args)
    values = parse_values(args.values)
    results, manifest_path = _run_to_csv(
        args, config, lambda: sweep(config, args.param, values, jobs=args.jobs),
        lambda fh, results: write_sweep_csv(fh, args.param, results),
        {"parameter": args.param, "values": values})
    for value, summary in results:
        print_summary_table(summary, heading=f"--- {args.param} = {value} ---")
    print(f"Wrote {args.out} and {manifest_path}")
    return EXIT_OK


def cmd_validate(args) -> int:
    config = resolve_config(args)
    print(json.dumps(config.to_dict(), indent=2))
    print(f"config digest: {config.digest()}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sheltersim",
        description="Simulate a youth crisis shelter and its capacity options.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_out: bool):
        p.add_argument("--config", help="path to a JSON scenario config")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config field (repeatable)")
        if with_out:
            p.add_argument("--out", default="results.csv",
                           help="output CSV path (default: %(default)s)")
            p.add_argument("--seed", type=int, help="override master seed")
            p.add_argument("--reps", type=int, help="override replication count")
            p.add_argument("--jobs", type=int, default=1,
                           help="concurrent replication workers (default: 1)")

    p_sim = sub.add_parser("simulate", help="run one scenario")
    add_common(p_sim, with_out=True)
    p_sim.set_defaults(fn=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a one-parameter sweep")
    add_common(p_sweep, with_out=True)
    p_sweep.add_argument("--param", required=True, metavar="KEY",
                         help="a --set key, e.g. bed_capacity; service:<name> "
                              "spells services.<name>.capacity_units")
    p_sweep.add_argument("--values", required=True,
                         help="integer start:stop:step (inclusive) or comma list of numbers")
    p_sweep.set_defaults(fn=cmd_sweep)

    p_val = sub.add_parser("validate", help="check a config and print it resolved")
    add_common(p_val, with_out=False)
    p_val.set_defaults(fn=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        for message in exc.errors:
            print(f"config error: {message}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())
