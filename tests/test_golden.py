"""Golden digests: pin the bytes of a small fixed-seed simulate CSV and two
sweep CSVs (a capacity and a float field), the full summary and printed tables behind them, the statistics and event traces of full-size replications, the drawn
populations of two replications, and the first draws and raw bit-generator
words of every named stream.

These back the claim that identical config and seed give identical results on
any platform. numpy does not promise that ``Generator`` streams stay the same
across its releases (NEP 19), so a mismatch after a numpy upgrade means the
streams moved, not necessarily that sheltersim did.
"""

import contextlib
import hashlib
import io
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sheltersim.cli import print_summary_table, write_scenario_csv, write_sweep_csv
from sheltersim.config import ScenarioConfig
from sheltersim.experiment import STREAM_NAMES, build_streams, run_replication, run_scenario, sweep
from sheltersim.model import FLOW_LABELS, draw_population
from sheltersim.streams import RngStream, _name_key
from support import mini_config

DIGESTS_NUMPY = "2.4.6"

DEFAULT_CONFIG_SHA256 = "43395c70dda3bb9ab1c519bf78e6ab76eb3cf5568a2b692980e1cbddce2c55e1"

SIMULATE_SHA256 = "9246b0ac11d13d4ac7efc58e753784f2c308825a07bfcd58cd9f5721878241b1"
SWEEP_SHA256 = "4dd7ed31db20d8481a09d150bd090744675eae924de3012651ce16c57845a554"
# A sweep of a float field that is no capacity, so each value redraws.
FLOAT_SWEEP_SHA256 = "317e51fa0f2cf71a4b246836de9194dc176c5a2245df3f952751c0e2a56bbe3c"

# Every field of the simulate summary, keyed by name, so the CSV's rounding
# and its missing columns (the utilization and renege CIs) hide nothing.
SUMMARY_SHA256 = "f32036ea504e531b3147059329c9c949b56db3bf01bebf258d68197f2a5ea19f"
# The stdout tables of that simulate and of that sweep, in that order.
TABLES_SHA256 = "ad5a76b4e03c5e2cce83da38cc20113b0f08359a84ce2d2aaf1d9424143f10cb"
# The summary of two replications, whose every half-width uses t(0.975, df = 1).
SUMMARY_DF1_SHA256 = "d3f536cb3ace8bd95c8c832123396b42ff2620b217898e5d422a7923cb95321b"
# Every key's estimate in the df2 summary, the count columns among them.
ESTIMATES_SHA256 = "cfd20d1659dcae677761b81e518e792c2ee27aa03e1e1e1af005f24a532c7a4b"

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

# First five raw 64-bit words of each stream's PCG64 bit generator for
# (master seed 777, replication 0). A draw is its word's top 53 bits times
# 2**-53, so a moved bit stream moves these, and a moved transform only
# FIRST_DRAWS.
FIRST_WORDS = {
    "arrivals": [1269327822907352896, 11936251766801865500, 17729749435222723633,
                 6920843620162622375, 8205673167213979691],
    "attributes": [488061007781012526, 12663895698736204205, 2650915499249800415,
                   69439757640272114, 11468788201506102275],
    "needs": [16318507974343581233, 9629678831343688601, 10943864508176824556,
              3931124623518657954, 17435422409766888371],
    "redraw": [4196800342841191489, 17785201387573909950, 17592924915588233418,
               5251046489979545715, 1499835776282344044],
}


def _provenance(what: str) -> str:
    return (f"{what} differs from the golden value taken with numpy "
            f"{DIGESTS_NUMPY}; this run uses numpy {np.__version__} "
            "(NEP 19 lets Generator streams change between numpy releases)")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_default_config_digest():
    # Every manifest's ``config_digest`` of the default config.
    assert ScenarioConfig().digest() == DEFAULT_CONFIG_SHA256


def test_simulate_csv_digest():
    buf = io.StringIO()
    write_scenario_csv(buf, run_scenario(mini_config(replications=3)))
    assert _sha256(buf.getvalue()) == SIMULATE_SHA256, _provenance("simulate CSV")


def test_sweep_csv_digest():
    buf = io.StringIO()
    results = sweep(mini_config(replications=3), "bed_capacity", [6, 10])
    write_sweep_csv(buf, "bed_capacity", results)
    assert _sha256(buf.getvalue()) == SWEEP_SHA256, _provenance("sweep CSV")


def test_float_sweep_csv_digest():
    buf = io.StringIO()
    results = sweep(mini_config(replications=3), "age_16_20_fraction", [0.5, 0.85])
    write_sweep_csv(buf, "age_16_20_fraction", results)
    assert _sha256(buf.getvalue()) == FLOAT_SWEEP_SHA256, _provenance("float sweep CSV")


@pytest.mark.parametrize("replications, expected", [(3, SUMMARY_SHA256), (2, SUMMARY_DF1_SHA256)],
                         ids=["df2", "df1"])
def test_summary_digest(replications, expected):
    # The JSON these digests pin: per pool, the mean of each of three
    # metrics with its ``_ci`` half-width, and the largest ``max_wait``;
    # per flow, ``[mean, half_width]``.
    summary = run_scenario(mini_config(replications=replications))
    resources = {}
    for pool in summary.replications[0].resources:
        waits = [r.resources[pool].max_wait for r in summary.replications]
        resources[pool] = {"max_wait": max((w for w in waits if w is not None), default=None)}
        for metric in ("avg_wait", "utilization", "renege_pct"):
            resources[pool][metric], resources[pool][f"{metric}_ci"] = \
                summary.estimates[f"{pool}.{metric}"]
    flows = {name: summary.estimates[name] for name in FLOW_LABELS}
    text = json.dumps({"resources": resources, "flows": flows}, sort_keys=True)
    assert _sha256(text) == expected, _provenance("summary")


def test_estimates_digest():
    summary = run_scenario(mini_config(replications=3))
    text = json.dumps(summary.estimates, sort_keys=True)
    assert _sha256(text) == ESTIMATES_SHA256, _provenance("summary estimates")


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
    assert set(FIRST_DRAWS) == {*STREAM_NAMES, "redraw"}
    for name in FIRST_DRAWS:
        stream = RngStream(777, 0, name)
        draws = [stream.uniform() for _ in range(5)]
        assert draws == FIRST_DRAWS[name], _provenance(f"stream {name!r}")


def test_first_raw_words_of_every_stream():
    assert set(FIRST_WORDS) == set(FIRST_DRAWS)
    for name, expected in FIRST_WORDS.items():
        seq = np.random.SeedSequence([777, 0, _name_key(name)])
        words = np.random.PCG64(seq).random_raw(5).tolist()
        assert words == expected, _provenance(f"bit stream {name!r}")
        assert [(word >> 11) * 2 ** -53 for word in words] == FIRST_DRAWS[name], \
            _provenance(f"the draw transform of {name!r}")
