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
from dataclasses import fields, replace
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .experiment import (
    FLOW_LABELS,
    MAX_GRID_PAIRS,
    ConfigError,
    ResourceSummary,
    ScenarioConfig,
    ScenarioSummary,
    run_scenario,
    sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

# The ``ResourceSummary`` fields the CSV shows, in column order.
_SHOWN = tuple(f for f in fields(ResourceSummary) if f.metadata)
RESOURCE_COLUMNS = ("name", *(f.metadata["label"] for f in _SHOWN), "value")

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
    except ValueError as exc:  # JSONDecodeError, or an integer over int_max_str_digits
        raise ConfigError([f"config file {path} is not valid JSON: {exc}"])
    if not isinstance(data, dict):
        raise ConfigError([f"config file {path} must contain a JSON object"])
    return data


def apply_set(data: dict, assignment: str) -> None:
    """Apply one ``--set key=value`` override to the config dict.

    Keys are dotted paths; a path segment under ``services`` selects the
    service with that name. Values parse as JSON, falling back to strings.
    """
    if "=" not in assignment:
        raise ConfigError([f"--set {assignment!r}: expected key=value"])
    key, raw = assignment.split("=", 1)
    key = key.strip()
    if not key:
        raise ConfigError([f"--set {assignment!r}: empty key"])
    try:
        value = json.loads(raw)
    except ValueError:
        value = raw
    parts = key.split(".")
    node = data
    for part in parts[:-1]:
        if isinstance(node, dict):
            if part not in node:
                raise ConfigError([f"{key}: no such field {part!r}"])
            node = node[part]
        elif isinstance(node, list):
            match = next((item for item in node
                          if isinstance(item, dict) and item.get("name") == part), None)
            if match is None:
                raise ConfigError([f"{key}: no service named {part!r}"])
            node = match
        else:
            raise ConfigError([f"{key}: cannot descend into {part!r}"])
    leaf = parts[-1]
    if not isinstance(node, dict):
        raise ConfigError([f"{key}: cannot assign into a non-object"])
    node[leaf] = value


def resolve_config(args) -> ScenarioConfig:
    data = load_config(args.config)
    for assignment in args.set or []:
        apply_set(data, assignment)
    config = ScenarioConfig.from_dict(data)
    if getattr(args, "seed", None) is not None:
        config = replace(config, master_seed=args.seed)
    if getattr(args, "reps", None) is not None:
        config = replace(config, replications=args.reps)
    config.validate()
    return config


def parse_values(text: str) -> list[int]:
    """Parse sweep values: ``start:stop:step`` (inclusive) or a comma list."""
    text = text.strip()
    if not text:
        raise ConfigError(["--values: must not be empty"])
    try:
        if ":" in text:
            parts = [int(p) for p in text.split(":")]
            if len(parts) == 2:
                start, stop, step = parts[0], parts[1], 1
            elif len(parts) == 3:
                start, stop, step = parts
            else:
                raise ValueError
            if step <= 0 or stop < start:
                raise ValueError
            values = range(start, stop + 1, step)
            count = (stop - start) // step + 1  # len() overflows past sys.maxsize
        else:
            values = [int(p) for p in text.split(",")]
            count = len(values)
    except ValueError:
        raise ConfigError([f"--values {text!r}: expected start:stop:step or a comma list of integers"])
    if count > MAX_GRID_PAIRS:
        raise ConfigError([f"--values {text!r}: {count:,} values, above the limit of "
                           f"{MAX_GRID_PAIRS:,} (value, replication) pairs"])
    return list(values)


# -- output writing -----------------------------------------------------------


def _rows(summary: ScenarioSummary):
    """The CSV rows of one summary: one per resource, then one per flow mean.
    The writer leaves the columns a row does not set empty."""
    for name, res in summary.resources.items():
        yield {"name": name, **{
            f.metadata["label"]: _fmt(getattr(res, f.name), f.metadata["decimals"],
                                      f.metadata["scale"])
            for f in _SHOWN}}
    for key, label in FLOW_LABELS.items():
        yield {"name": label, "value": _fmt(summary.flows[key][0], 2)}


def write_scenario_csv(fh, summary: ScenarioSummary) -> None:
    writer = csv.DictWriter(fh, fieldnames=RESOURCE_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(_rows(summary))


def write_sweep_csv(fh, parameter: str, results: list[tuple[int, ScenarioSummary]]) -> None:
    writer = csv.DictWriter(fh, fieldnames=(parameter,) + RESOURCE_COLUMNS,
                            lineterminator="\n")
    writer.writeheader()
    for value, summary in results:
        writer.writerows({**row, parameter: value} for row in _rows(summary))


def _file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def write_manifest(out_path: str, command: str, config: ScenarioConfig) -> str:
    manifest_path = out_path + MANIFEST_SUFFIX
    manifest = {
        "tool": "sheltersim",
        "version": __version__,
        "command": command,
        "config_digest": config.digest(),
        "master_seed": config.master_seed,
        "replications": config.replications,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": [os.path.abspath(out_path)],
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "output_sha256": {os.path.abspath(out_path): _file_sha256(out_path)},
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
    for row in rows[:len(summary.resources)]:
        util, reneged = row["utilization_pct"], row["pct_reneged"]
        print(f"{row['name']:<24}{row['avg_wait_days']:>14}{row['max_wait_days']:>14}"
              f"{util and util + '%':>14}{reneged and reneged + '%':>10}")
    n = len(summary.replications)
    print(f"Youth flow (means over {n} replication{'s' if n != 1 else ''}):")
    for row in rows[len(summary.resources):]:
        print(f"  {row['name']:<30}{row['value']:>10}")


# -- commands --------------------------------------------------------------------


def _run_to_csv(args, config: ScenarioConfig, run, write):
    """The output sequence of ``simulate`` and ``sweep``: open ``args.out``
    and its manifest path without truncating them (before the run, so an
    unwritable path fails at once), then ``write(fh, run())`` into
    ``args.out``, then write the manifest. Returns the run's result and the
    manifest path. If any step fails, every file this call created is
    removed; an existing file is left as it was unless writing it failed."""
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
        return result, write_manifest(args.out, args.command, config)
    except BaseException:
        for path in created:
            os.unlink(path)
        raise


def cmd_simulate(args) -> int:
    config = resolve_config(args)
    summary, manifest_path = _run_to_csv(
        args, config, lambda: run_scenario(config, jobs=args.jobs), write_scenario_csv)
    print_summary_table(summary)
    print(f"Wrote {args.out} and {manifest_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = resolve_config(args)
    values = parse_values(args.values)
    results, manifest_path = _run_to_csv(
        args, config, lambda: sweep(config, args.param, values, jobs=args.jobs),
        lambda fh, results: write_sweep_csv(fh, args.param, results))
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

    p_sweep = sub.add_parser("sweep", help="run a one-parameter capacity sweep")
    add_common(p_sweep, with_out=True)
    p_sweep.add_argument("--param", required=True,
                         help="bed_capacity or service:<name>")
    p_sweep.add_argument("--values", required=True,
                         help="start:stop:step (inclusive) or comma list")
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


if __name__ == "__main__":
    entry()
