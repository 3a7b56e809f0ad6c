"""Run what the config fuzz accepts: every config drawn like those of
``test_from_dict_accepts_or_rejects_cleanly`` goes through ``simulate`` with
one replication, and must either write a non-empty CSV (exit 0) or be
rejected without one (exit 2), never raise.

About seven drawn configs in ten are valid, so 1000 examples run about 700
replications, each drawing its population and running the kernel on a
different mix of capacities, rates and services. Not part of tier-1, whose
testpaths is ``tests/``: an accepted config runs a whole replication, up to
a million arrivals. Run with ``PYTHONPATH=src python -m pytest fuzz``.
"""

import json
import os
import tempfile

from hypothesis import given, settings

from sheltersim.cli import main
from support import config_dicts


@given(config_dicts)
@settings(max_examples=1000, deadline=None)
def test_simulate_runs_or_rejects_every_config(data):
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "config.json")
        out = os.path.join(tmp, "results.csv")
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        code = main(["simulate", "--config", config, "--reps", "1", "--out", out])
        if code == 0:
            assert os.path.getsize(out) > 0
        else:
            assert code == 2
            assert not os.path.exists(out)
