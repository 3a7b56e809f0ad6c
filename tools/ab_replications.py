"""Compare the replication speed of two sheltersim source trees in one process.

    python3 tools/ab_replications.py PARENT_TREE CHANGED_TREE [--reps 6] [--pairs 10]
    python3 tools/ab_replications.py TREE --aa

Each tree is a checkout root holding ``src/sheltersim``; both are imported
side by side under their own module names. A pair runs replications
``0 .. reps-1`` of ``configs/baseline.json`` serially with each tree, the
two in turn, alternating which tree goes first. The ratio of a pair is B's
time over A's, so a ratio below 1 means B is faster. ``--aa`` compares a
tree with a second copy of itself, which shows the noise of the machine.
Each tree runs one untimed replication first. Both trees must give equal
replication records, or the script exits 1.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import statistics
import sys
import time
from pathlib import Path


def load_tree(root: Path, name: str):
    """Import ``root/src/sheltersim`` as the package ``name`` and return its
    ``experiment`` module."""
    package_dir = root / "src" / "sheltersim"
    spec = importlib.util.spec_from_file_location(
        name, package_dir / "__init__.py", submodule_search_locations=[str(package_dir)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return importlib.import_module(f"{name}.experiment")


def time_replications(experiment, config, reps: int) -> tuple[float, list]:
    gc.collect()
    start = time.perf_counter()
    records = [experiment.run_replication(config, r) for r in range(reps)]
    return time.perf_counter() - start, records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path, nargs="?")
    parser.add_argument("--aa", action="store_true",
                        help="compare TREE_A with a second copy of itself")
    parser.add_argument("--reps", type=int, default=6,
                        help="baseline replications per tree per pair (default 6)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs to run (default 10)")
    args = parser.parse_args(argv)
    if args.aa == (args.tree_b is not None):
        parser.error("give either TREE_B or --aa")
    tree_b = args.tree_a if args.aa else args.tree_b

    trees = []
    for label, root in (("a", args.tree_a), ("b", tree_b)):
        experiment = load_tree(root.resolve(), f"sheltersim_{label}")
        data = json.loads((root / "configs" / "baseline.json").read_text(encoding="utf-8"))
        trees.append((experiment, experiment.ScenarioConfig.from_dict(data)))

    for experiment, config in trees:  # warm up: first-call costs stay out of pair 0
        experiment.run_replication(config, 0)
    ratios = []
    for pair in range(args.pairs):
        order = (0, 1) if pair % 2 == 0 else (1, 0)
        seconds, records = [0.0, 0.0], [None, None]
        for i in order:
            seconds[i], records[i] = time_replications(*trees[i], args.reps)
        if repr(records[0]) != repr(records[1]):
            print(f"pair {pair}: the trees' replication records differ", file=sys.stderr)
            return 1
        ratios.append(seconds[1] / seconds[0])
        print(f"pair {pair}: A {seconds[0]:.3f} s, B {seconds[1]:.3f} s, "
              f"ratio B/A {ratios[-1]:.3f}")
    wins = sum(ratio < 1.0 for ratio in ratios)
    print(f"median ratio B/A {statistics.median(ratios):.3f}; "
          f"B faster in {wins} of {len(ratios)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
