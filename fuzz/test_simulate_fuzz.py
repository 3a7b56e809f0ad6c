"""Run what the config fuzz accepts: every config drawn like those of
``test_from_dict_accepts_or_rejects_cleanly`` goes through ``simulate`` with
one replication, and must either write a non-empty CSV whose rows each have
a name of their own and whose pool rows hold percentages in [0, 100] and an
average wait no longer than the maximum (exit 0), or be rejected without
one (exit 2) with nothing on stderr but printable lines that each start
``config error: ``, never raise.

About six drawn configs in ten are valid, so 1000 examples run about 600
replications, each drawing its population and running the kernel on a
different mix of capacities, rates and services. Not part of tier-1, whose
testpaths is ``tests/``: an accepted config runs a whole replication, up to
a million arrivals. Run with ``PYTHONPATH=src python -m pytest fuzz``.
"""

import contextlib
import csv
import io
import json
import os
import tempfile

from hypothesis import given, settings

from sheltersim.cli import main
from sheltersim.model import FLOW_LABELS
from support import config_dicts


@given(config_dicts)
@settings(max_examples=1000, deadline=None)
def test_simulate_runs_or_rejects_every_config(data):
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        out = os.path.join(tmp, "results.csv")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["simulate", "--config", config, "--reps", "1", "--out", out])
        if code == 0:
            with open(out, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            names = [row["name"] for row in rows]
            assert names
            assert len(set(names)) == len(names), names
            for row in rows[:-len(FLOW_LABELS)]:
                cells = {key: float(value) for key, value in row.items()
                         if key != "name" and value != ""}
                for key in ("pct_reneged", "utilization_pct"):
                    assert 0 <= cells.get(key, 0) <= 100, row
                if "avg_wait_days" in cells:
                    assert cells["avg_wait_days"] <= cells["max_wait_days"], row
        else:
            assert code == 2
            assert not os.path.exists(out)
            lines = stderr.getvalue().splitlines()  # at every line break, not just "\n"
            assert lines and all(line.startswith("config error: ") and line.isprintable()
                                 for line in lines), lines
