"""Golden digests: pin the bytes of a small fixed-seed simulate CSV and sweep
CSV, the full summary and printed tables behind them, the statistics and event traces of full-size replications, the drawn
populations of two replications, and the first draws of every named stream.

These back the claim that identical config and seed give identical results on
any platform. numpy does not promise that ``Generator`` streams stay the same
across its releases (NEP 19), so a mismatch after a numpy upgrade means the
streams moved, not necessarily that sheltersim did.
"""

import contextlib
import hashlib
import io
import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from sheltersim.cli import print_summary_table, write_scenario_csv, write_sweep_csv
from sheltersim.experiment import (
    STREAM_NAMES,
    ScenarioConfig,
    build_streams,
    run_replication,
    run_scenario,
    sweep,
)
from sheltersim.model import draw_population
from sheltersim.streams import RngStream
from support import mini_config

DIGESTS_NUMPY = "2.4.6"

SIMULATE_SHA256 = "9246b0ac11d13d4ac7efc58e753784f2c308825a07bfcd58cd9f5721878241b1"
SWEEP_SHA256 = "4dd7ed31db20d8481a09d150bd090744675eae924de3012651ce16c57845a554"

# Every field of the simulate summary, keyed by name, so the CSV's rounding
# and its missing columns (the utilization and renege CIs) hide nothing.
SUMMARY_SHA256 = "f32036ea504e531b3147059329c9c949b56db3bf01bebf258d68197f2a5ea19f"
# The stdout tables of that simulate and of that sweep, in that order.
TABLES_SHA256 = "ad5a76b4e03c5e2cce83da38cc20113b0f08359a84ce2d2aaf1d9424143f10cb"

# ``repr((stats, trace))`` of replications 0-3 of configs/baseline.json at
# each bed capacity, with the stay redraw off and on, fed to one hash in
# that nesting order. The traces pin every event's time, order and content.
REPLICATIONS_SHA256 = "f2a604f3419240b6413f6fb05ddb5da4a60fe986b5e690e270349be55b1dd40c"
REPLICATIONS_BEDS = (56, 66, 86)

# Every column of the populations of replications 0 and 1.
POPULATION_SHA256 = "8ccd92162804b8b6c31adceb4d669b0106e6c6be4ea7fd652025eb34123c878f"
POPULATION_COLUMNS = ("times", "bed_seeking", "age_16_20", "exits", "length_of_stay",
                      "bed_patience", "service_patience", "needs")

# First five draws of each stream for (master seed 777, replication 0).
FIRST_DRAWS = {
    "arrivals": [0.06881039915962228, 0.6470655048450261, 0.961131642764606,
                 0.37517968442063787, 0.44483043372997033],
    "attributes": [0.026457840247081865, 0.6865111614349814, 0.1437064171681064,
                   0.0037643368045224834, 0.6217242541924518],
    "needs": [0.8846280898752669, 0.522025935464025, 0.593268083757616,
              0.2131066928565094, 0.9451761427435854],
    "redraw": [0.22750900245981642, 0.964137699124992, 0.9537143706927561,
               0.2846598006129103, 0.08130626035083999],
}


def _provenance(what: str) -> str:
    return (f"{what} differs from the golden value taken with numpy "
            f"{DIGESTS_NUMPY}; this run uses numpy {np.__version__} "
            "(NEP 19 lets Generator streams change between numpy releases)")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_simulate_csv_digest():
    buf = io.StringIO()
    write_scenario_csv(buf, run_scenario(mini_config(replications=3)))
    assert _sha256(buf.getvalue()) == SIMULATE_SHA256, _provenance("simulate CSV")


def test_sweep_csv_digest():
    buf = io.StringIO()
    results = sweep(mini_config(replications=3), "bed_capacity", [6, 10])
    write_sweep_csv(buf, "bed_capacity", results)
    assert _sha256(buf.getvalue()) == SWEEP_SHA256, _provenance("sweep CSV")


def test_summary_digest():
    summary = run_scenario(mini_config(replications=3))
    text = json.dumps({"resources": {pool: asdict(res)
                                     for pool, res in summary.resources.items()},
                       "flows": summary.flows}, sort_keys=True)
    assert _sha256(text) == SUMMARY_SHA256, _provenance("summary")


def test_printed_tables_digest():
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        print_summary_table(run_scenario(mini_config(replications=3)))
        for value, summary in sweep(mini_config(replications=3), "bed_capacity", [6, 10]):
            print_summary_table(summary, heading=f"--- bed_capacity = {value} ---")
    assert _sha256(buf.getvalue()) == TABLES_SHA256, _provenance("printed tables")


def test_replication_stats_and_traces_digest():
    path = Path(__file__).resolve().parents[1] / "configs" / "baseline.json"
    config = ScenarioConfig.from_dict(json.loads(path.read_text(encoding="utf-8")))
    digest = hashlib.sha256()
    for beds in REPLICATIONS_BEDS:
        for redraw in (False, True):
            for replication in range(4):
                trace = []
                stats = run_replication(
                    replace(config, bed_capacity=beds, redraw_los_on_bed_renege=redraw),
                    replication, trace=trace)
                digest.update(repr((stats, trace)).encode("utf-8"))
    assert digest.hexdigest() == REPLICATIONS_SHA256, _provenance("replication traces")


def test_population_digest():
    cfg = mini_config()
    digest = hashlib.sha256()
    for replication in (0, 1):
        population = draw_population(
            list(cfg.services), cfg.annual_arrivals, cfg.bsy_fraction,
            cfg.age_16_20_fraction, cfg.renege_exit_prob,
            build_streams(cfg.master_seed, replication),
            cfg.warmup_days + cfg.stats_window_days)
        for name in POPULATION_COLUMNS:
            digest.update(repr(list(getattr(population, name))).encode("utf-8"))
    assert digest.hexdigest() == POPULATION_SHA256, _provenance("population")


def test_first_draws_of_every_stream():
    assert set(FIRST_DRAWS) == set(STREAM_NAMES)
    for name in STREAM_NAMES:
        stream = RngStream(777, 0, name)
        draws = [stream.uniform() for _ in range(5)]
        assert draws == FIRST_DRAWS[name], _provenance(f"stream {name!r}")
