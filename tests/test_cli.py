"""CLI behavior: config validation with field-path diagnostics, CSV and
manifest output, overrides, sweep value parsing, and exit codes."""

import argparse
import csv
import hashlib
import json
import multiprocessing
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sheltersim.cli import load_config, main, parse_values, resolve_config
from sheltersim.config import MAX_GRID_PAIRS, ConfigError, ScenarioConfig
from support import json_values, mini_config

FAST_OVERRIDES = [
    "--set", "annual_arrivals=200",
    "--set", "warmup_days=30",
    "--set", "stats_window_days=60",
    "--set", "replications=2",
]


# The manifest keys of every command, in order; a sweep's manifest adds
# "parameter" and "values" after "replications".
MANIFEST_KEYS = ["tool", "version", "command", "config_digest", "master_seed",
                 "replications", "created_utc", "outputs", "python", "numpy",
                 "output_sha256"]


def run_cli(*argv):
    return main(list(argv))


def test_validate_defaults_ok(capsys):
    assert run_cli("validate") == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["bed_capacity"] == 66
    assert len(printed["services"]) == 5


def test_validate_shipped_config(capsys):
    assert run_cli("validate", "--config", "configs/baseline.json") == 0
    printed = json.loads(capsys.readouterr().out)
    # Round trip: the printed effective config hashes to the same digest.
    assert ScenarioConfig.from_dict(printed).digest() == ScenarioConfig().digest()
    # The README points to this file as the list of defaults.
    shipped = json.loads(Path("configs/baseline.json").read_text(encoding="utf-8"))
    assert shipped == ScenarioConfig().to_dict()


def test_validate_rejects_bad_probability(capsys):
    code = run_cli("validate", "--set", "services.psychiatric.request_prob=1.3")
    assert code == 2
    err = capsys.readouterr().err
    assert "request_prob" in err


def test_validate_rejects_appointments_beyond_capacity(tmp_path, capsys):
    code = run_cli("validate", "--set", "services.insurance_enrollment.appt_max=50")
    assert code == 2
    assert "appt_max" in capsys.readouterr().err
    # Capacities stay well inside float range: utilization divides by them.
    huge = "1" + "0" * 400
    for path in ("bed_capacity", "services.medical.capacity_units"):
        assert run_cli("validate", "--set", f"{path}={huge}") == 2
        assert "must be a number within float range" in capsys.readouterr().err
    # No appointment fits in a capacity of 0, so the range starts at 1.
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--param", "service:psychiatric", "--values", "0,56",
                   "--out", str(out)) == 2
    assert not out.exists()
    assert ("config error: service:psychiatric=0: services.psychiatric.capacity_units: "
            "must be within [1, 1,000,000,000], got 0\n") == capsys.readouterr().err


def test_missing_config_file_exits_2_without_outputs(tmp_path, capsys):
    out = tmp_path / "results.csv"
    code = run_cli("simulate", "--config", str(tmp_path / "nope.json"),
                   "--out", str(out))
    assert code == 2
    assert not out.exists()
    assert "not found" in capsys.readouterr().err


def test_unreadable_config_path_exits_2(tmp_path, capsys):
    # A directory opens with an OSError other than FileNotFoundError.
    assert run_cli("validate", "--config", str(tmp_path)) == 2
    assert f"config file {tmp_path} cannot be read: " in capsys.readouterr().err


def test_set_override_changes_config(capsys):
    assert run_cli("validate", "--set", "bed_capacity=81") == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["bed_capacity"] == 81


def test_reserved_service_name_exits_2_without_outputs(tmp_path, capsys):
    # A service renamed to the bed pool's name would fill the bed row with
    # its own numbers; renamed to a flow label, it would repeat that row.
    out = tmp_path / "results.csv"
    for name in ("crisis_beds", "youth_arrivals"):
        code = run_cli("simulate", "--out", str(out), *FAST_OVERRIDES,
                       "--set", f"services.medical.name={name}")
        assert code == 2
        assert not out.exists()
        assert (f"config error: services.{name}.name: {name!r} is reserved"
                in capsys.readouterr().err)


@pytest.mark.parametrize("assignment, message", [
    ("replications=0", "replications: must be within [1, 100,000], got 0"),
    ("services.medical.capacity_units=0",
     "services.medical.capacity_units: must be within [1, 1,000,000,000], got 0"),
])
def test_value_outside_its_range_names_the_range(assignment, message, capsys):
    assert run_cli("validate", "--set", assignment) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_a_service_whose_name_or_key_holds_equals_goes_by_its_index(tmp_path, capsys):
    # ``--set`` splits at the first ``=``, so ``services.a=b.capacity_units=1``
    # looks for a service named "a": an entry whose name or key holds ``=``
    # goes by its index, as one with a dot does.
    path = tmp_path / "scenario.json"
    for entry, message in [
            ({"name": "a=b", "capacity_units": 0},
             "services[0].capacity_units: must be within [1, 1,000,000,000], got 0"),
            ({"name": "a", "capacity_units": 1, "b=c": 1}, "services[0].b=c: unknown field")]:
        path.write_text(json.dumps({"services": [entry]}))
        assert run_cli("validate", "--config", str(path)) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
    assert run_cli("validate", "--set", "services.a=b.capacity_units=1") == 2
    assert capsys.readouterr().err == "config error: services.a: no service named 'a'\n"


def test_unknown_set_path_exits_2(capsys):
    assert run_cli("validate", "--set", "beds=81") == 2
    assert run_cli("validate", "--set", "services.yoga.capacity_units=3") == 2


def test_set_value_nested_too_deep_is_a_string(capsys):
    # Too deep for the JSON parser, so the value stays text: a config error.
    assert run_cli("validate", "--set", "bed_capacity=" + "[" * 100_000) == 2
    assert "config error: bed_capacity: must be a number" in capsys.readouterr().err


def test_config_file_nested_too_deep_exits_2(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"a": ' + "[" * 100_000 + "]" * 100_000 + "}", encoding="utf-8")
    assert run_cli("validate", "--config", str(path)) == 2
    assert (f"config error: config file {path} is not valid JSON: "
            in capsys.readouterr().err)


def test_simulate_writes_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "results.csv"
    code = run_cli("simulate", "--out", str(out), "--seed", "9", *FAST_OVERRIDES)
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    names = [row["name"] for row in rows]
    assert names[:6] == ["crisis_beds", "case_management", "drug_counseling",
                         "insurance_enrollment", "psychiatric", "medical"]
    assert "youth_arrivals" in names
    assert "bed_renege_exit" in names
    assert len(rows) == 6 + 8
    manifest = json.loads((tmp_path / "results.csv.manifest.json").read_text())
    assert list(manifest) == MANIFEST_KEYS
    assert manifest["command"] == "simulate"
    assert manifest["master_seed"] == 9
    assert manifest["outputs"] == [str(out)]
    assert manifest["python"] == platform.python_version()
    assert manifest["numpy"] == np.__version__
    assert manifest["output_sha256"] == {
        str(out): hashlib.sha256(out.read_bytes()).hexdigest()}
    table = capsys.readouterr().out
    assert "crisis_beds" in table and "Reneged" in table


def test_simulate_csv_is_deterministic(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run_cli("simulate", "--out", str(out_a), "--seed", "9", *FAST_OVERRIDES) == 0
    assert run_cli("simulate", "--out", str(out_b), "--seed", "9", *FAST_OVERRIDES) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_simulate_with_jobs_matches_serial(tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert run_cli("simulate", "--out", str(serial), "--seed", "9",
                   *FAST_OVERRIDES) == 0
    assert run_cli("simulate", "--out", str(parallel), "--seed", "9",
                   "--jobs", "2", *FAST_OVERRIDES) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_simulate_unwritable_output_exits_3(tmp_path, capsys):
    out = tmp_path / "missing_dir" / "results.csv"
    code = run_cli("simulate", "--out", str(out), *FAST_OVERRIDES)
    assert code == 3


def test_sweep_csv_blocks(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", "--param", "bed_capacity", "--values", "8,10",
                   "--out", str(out), "--seed", "9", *FAST_OVERRIDES,
                   "--set", "bed_capacity=8")
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * (6 + 8)
    assert {row["bed_capacity"] for row in rows} == {"8", "10"}
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert list(manifest) == MANIFEST_KEYS[:6] + ["parameter", "values"] + MANIFEST_KEYS[6:]
    assert manifest["command"] == "sweep"
    assert manifest["parameter"] == "bed_capacity"
    assert manifest["values"] == [8, 10]


def test_sweep_service_parameter(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", "--param", "service:psychiatric", "--values", "56,72",
                   "--out", str(out), "--seed", "9", *FAST_OVERRIDES)
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {row["service:psychiatric"] for row in rows} == {"56", "72"}
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert (manifest["parameter"], manifest["values"]) == ("service:psychiatric", [56, 72])


def test_service_alias_sweeps_the_same_rows_as_its_key(tmp_path):
    # ``service:<name>`` spells ``services.<name>.capacity_units``; the CSV's
    # first column is headed by the --param text as given.
    lines = {}
    for param in ("service:psychiatric", "services.psychiatric.capacity_units"):
        out = tmp_path / f"{param}.csv"
        assert run_cli("sweep", "--param", param, "--values", "56,72",
                       "--out", str(out), *FAST_OVERRIDES) == 0
        header, *lines[param] = out.read_text().splitlines()
        assert header.split(",", 1)[0] == param
    assert lines["service:psychiatric"] == lines["services.psychiatric.capacity_units"]


def test_float_sweep_writes_float_values(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--param", "age_16_20_fraction", "--values", "0.85,0.92",
                   "--out", str(out), *FAST_OVERRIDES) == 0
    with open(out, newline="") as fh:
        assert {row["age_16_20_fraction"] for row in csv.DictReader(fh)} == {"0.85", "0.92"}
    manifest = json.loads((tmp_path / "sweep.csv.manifest.json").read_text())
    assert (manifest["parameter"], manifest["values"]) == ("age_16_20_fraction", [0.85, 0.92])


def test_swept_value_fails_as_its_set_does(tmp_path, capsys):
    # A swept value is checked as --set checks it, behind the sweep's prefix.
    assert run_cli("validate", "--set", "age_16_20_fraction=1.5") == 2
    set_error = capsys.readouterr().err
    assert set_error.startswith("config error: ")
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--param", "age_16_20_fraction", "--values", "1.5",
                   "--out", str(out), *FAST_OVERRIDES) == 2
    assert capsys.readouterr().err == set_error.replace(
        "config error: ", "config error: age_16_20_fraction=1.5: ", 1)
    assert not out.exists()


def test_each_swept_value_is_set_on_the_config_as_given(tmp_path, capsys):
    # Value 1 fails as a name, and must not rename the service value 2 sets.
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--param", "services.case_management.name", "--values", "1,2",
                   "--out", str(out), *FAST_OVERRIDES) == 2
    assert capsys.readouterr().err == "".join(
        f"config error: services.case_management.name={value}: services[0].name: "
        "must be a string\n" for value in (1, 2))
    assert not out.exists()


def test_replications_cannot_be_swept(tmp_path, capsys):
    # Every value of a sweep runs the config's replication count.
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--param", "replications", "--values", "2,3",
                   "--out", str(out), *FAST_OVERRIDES) == 2
    assert "config error: replications: cannot be swept" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["validate", "--set", "services.psychiatric=5"],
    ["sweep", "--param", "services.psychiatric", "--values", "5", *FAST_OVERRIDES],
])
def test_a_key_naming_a_service_asks_for_one_of_its_fields(tmp_path, monkeypatch,
                                                          capsys, argv):
    monkeypatch.chdir(tmp_path)  # where the sweep's default --out would go
    assert run_cli(*argv) == 2
    assert capsys.readouterr().err == (
        "config error: services.psychiatric: names a service; set one of its fields, "
        "e.g. services.psychiatric.capacity_units\n")
    assert sorted(tmp_path.iterdir()) == []


def test_one_value_sweep_csv_is_the_simulate_csv_with_a_value_column(tmp_path):
    # Both writers take their rows from one builder, so the same scenario
    # gives the same rows, the sweep's behind the swept value.
    config = mini_config(replications=2)
    path = tmp_path / "mini.json"
    path.write_text(json.dumps(config.to_dict()))
    simulated, swept = tmp_path / "simulate.csv", tmp_path / "sweep.csv"
    assert run_cli("simulate", "--config", str(path), "--out", str(simulated)) == 0
    assert run_cli("sweep", "--config", str(path), "--param", "bed_capacity",
                   "--values", str(config.bed_capacity), "--out", str(swept)) == 0
    lines = swept.read_text().splitlines(keepends=True)
    firsts = [line.split(",", 1)[0] for line in lines]
    assert firsts == ["bed_capacity"] + [str(config.bed_capacity)] * (len(lines) - 1)
    assert "".join(line.split(",", 1)[1] for line in lines) == simulated.read_text()


def test_sweep_rejects_bad_values(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--param", "bed_capacity", "--values", "",
                   "--out", str(out)) == 2
    assert run_cli("sweep", "--param", "bed_capacity", "--values", "10:5:1",
                   "--out", str(out)) == 2
    assert run_cli("sweep", "--param", "bed_capacity", "--values", "a,b",
                   "--out", str(out)) == 2
    assert run_cli("sweep", "--param", "staff", "--values", "1,2",
                   "--out", str(out)) == 2
    assert run_cli("sweep", "--param", "bed_capacity", "--values", "0:10000000000",
                   "--out", str(out)) == 2
    assert run_cli("simulate", "--reps", str(MAX_GRID_PAIRS + 1), "--out", str(out)) == 2
    assert run_cli("simulate", "--set", "bed_capacity=1" + "0" * 400, "--out", str(out)) == 2
    assert run_cli("sweep", "--param", "bed_capacity", "--values", "66,1000000001",
                   "--out", str(out)) == 2
    assert run_cli("sweep", "--param", "service:medical", "--values", "1" + "0" * 400,
                   "--out", str(out)) == 2
    assert run_cli("sweep", "--param", "bed_capacity", "--values", "66,66",
                   "--out", str(out), *FAST_OVERRIDES) == 2
    assert run_cli("sweep", "--param", "bed_capacity", "--values", "60,66,60",
                   "--out", str(out), *FAST_OVERRIDES) == 2
    assert "config error: values: 60 is repeated" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_unknown_service_exits_2(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--param", "service:yoga", "--values", "8,10",
                   "--out", str(out), *FAST_OVERRIDES) == 2
    assert not out.exists()


def test_parse_values_forms():
    assert parse_values("66:106:5") == [66, 71, 76, 81, 86, 91, 96, 101, 106]
    assert parse_values("56:168:16") == [56, 72, 88, 104, 120, 136, 152, 168]
    assert parse_values("3:5") == [3, 4, 5]
    assert parse_values("7") == [7]
    assert parse_values("1,5,9") == [1, 5, 9]
    # A comma list holds JSON numbers, as --set reads them; a range holds integers.
    assert parse_values("0.85, 0.92,1e2") == [0.85, 0.92, 100.0]
    for text in ("[1]", "true", "x", "1,null", "0.5:2", "[" * 100_000):
        with pytest.raises(ConfigError, match="expected an integer start:stop:step"):
            parse_values(text)
    with pytest.raises(ConfigError):
        parse_values("5:1:1")
    with pytest.raises(ConfigError):
        parse_values("1:10:0")
    with pytest.raises(ConfigError):
        parse_values("1:2:3:4")
    # The value count is checked before any list is built.
    assert len(parse_values("2:200000:2")) == MAX_GRID_PAIRS
    for text in ("1:100001", "0:10000000000", f"0:{10 ** 40}"):
        with pytest.raises(ConfigError, match="above the limit of 100,000"):
            parse_values(text)


@given(st.text() | st.from_regex(r"-?\d{1,7}(:-?\d{1,7}){1,3}|-?\d{1,3}(,-?\d{1,3}){0,5}",
                                 fullmatch=True))
@settings(max_examples=300, deadline=None)
def test_parse_values_accepts_or_rejects_cleanly(text):
    try:
        values = parse_values(text)
    except ConfigError:
        return
    assert 1 <= len(values) <= MAX_GRID_PAIRS
    assert all(type(v) in (int, float) for v in values)


DEFAULTS = load_config(None)
top_keys = st.sampled_from(sorted(DEFAULTS))
service_names = st.sampled_from([s["name"] for s in DEFAULTS["services"]])
service_keys = st.sampled_from(sorted(DEFAULTS["services"][0]))
path_segments = top_keys | service_names | service_keys | st.text(max_size=6)
set_paths = (top_keys
             | st.builds("services.{}.{}".format, service_names | st.text(max_size=6),
                         service_keys | st.text(max_size=6))
             | st.lists(path_segments, min_size=1, max_size=4).map(".".join))
# Values some field accepts, then any JSON, then raw text.
set_values = (st.integers(0, 500).map(str) | st.floats(0.0, 1.0).map(repr)
              | st.sampled_from(["true", "false"])
              | json_values.map(json.dumps) | st.text(max_size=10))
assignments = st.builds("{}={}".format, set_paths, set_values)


@given(st.lists(assignments, min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_set_paths_accept_or_reject_cleanly(sets):
    # Any --set path over the default config's keys, service names and
    # arbitrary segments gives a validated config or a ConfigError. Runs no
    # replication, to keep the suite fast.
    try:
        config = resolve_config(argparse.Namespace(config=None, set=sets))
    except ConfigError:
        return
    assert config.validation_errors() == []


def test_config_file_with_set_and_flags(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"bed_capacity": 70, "replications": 3}))
    assert run_cli("validate", "--config", str(path),
                   "--set", "age_16_20_fraction=0.9") == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["bed_capacity"] == 70
    assert printed["replications"] == 3
    assert printed["age_16_20_fraction"] == 0.9
    # Unlisted fields resolve to defaults.
    assert printed["annual_arrivals"] == 1399.0


def test_invalid_json_config_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run_cli("validate", "--config", str(path)) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_nan_in_config_file_exits_2(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"annual_arrivals": NaN}')
    assert run_cli("validate", "--config", str(path)) == 2
    out = tmp_path / "results.csv"
    assert run_cli("simulate", "--config", str(path), "--out", str(out)) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert "config error: annual_arrivals: must be a finite number, got nan" in err


def test_nan_set_override_exits_2_without_outputs(tmp_path, capsys):
    out = tmp_path / "results.csv"
    code = run_cli("simulate", "--out", str(out), *FAST_OVERRIDES,
                   "--set", "warmup_days=NaN")
    assert code == 2
    assert not out.exists()
    assert not (tmp_path / "results.csv.manifest.json").exists()
    assert "config error: warmup_days: must be a finite number" in capsys.readouterr().err


def test_jobs_below_one_exits_2(tmp_path, capsys):
    out = tmp_path / "results.csv"
    assert run_cli("simulate", "--out", str(out), "--jobs", "0", *FAST_OVERRIDES) == 2
    assert run_cli("sweep", "--param", "bed_capacity", "--values", "8,10",
                   "--out", str(out), "--jobs", "-1", *FAST_OVERRIDES) == 2
    assert not out.exists()
    assert "config error: jobs: must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("sweep", "--param", "bed_capacity", "--values", "66,0"),
    ("sweep", "--param", "service:yoga", "--values", "5"),
    ("simulate", "--jobs", "0"),
])
def test_failed_command_leaves_an_existing_out_unchanged(tmp_path, argv):
    out = tmp_path / "results.csv"
    out.write_bytes(b"earlier results\n")
    assert run_cli(*argv, "--out", str(out), *FAST_OVERRIDES) == 2
    assert out.read_bytes() == b"earlier results\n"
    assert not (tmp_path / "results.csv.manifest.json").exists()


@pytest.mark.parametrize("existing", [None, b"earlier results\n"])
def test_unwritable_manifest_exits_3_and_leaves_out_as_it_was(tmp_path, existing):
    out = tmp_path / "results.csv"
    if existing is not None:
        out.write_bytes(existing)
    (tmp_path / "results.csv.manifest.json").mkdir()
    assert run_cli("simulate", "--out", str(out), *FAST_OVERRIDES) == 3
    assert (out.read_bytes() if out.exists() else None) == existing
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["results.csv.manifest.json"] if existing is None
        else ["results.csv", "results.csv.manifest.json"])


def _modules_after_serial_simulate(tmp_path) -> list[str]:
    """Modules loaded by a fresh interpreter that imports the CLI and runs a
    2-replication serial ``simulate``, so modules imported by other tests do
    not count."""
    config = tmp_path / "mini.json"
    config.write_text(json.dumps(mini_config().to_dict()))
    script = (
        "import json, sys\n"
        "import sheltersim.cli as cli\n"
        f"code = cli.main(['simulate', '--config', {str(config)!r}, "
        f"'--out', {str(tmp_path / 'out.csv')!r}, '--reps', '2'])\n"
        "assert code == 0, code\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    done = _run_python("-c", script)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def _run_python(*args, **env) -> subprocess.CompletedProcess:
    """A fresh interpreter with ``args`` and the variables ``env`` added to
    its environment, run from the checkout root with its ``src`` first on
    the import path."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=root, env=env, capture_output=True,
                          text=True, timeout=120)


@pytest.mark.parametrize("argv, code", [
    (["validate", "--config", "configs/baseline.json"], 0),
    (["validate", "--set", "bed_capacity=x"], 2),
])
def test_python_m_sheltersim_exits_with_the_cli_code(argv, code):
    done = _run_python("-m", "sheltersim", *argv)
    assert done.returncode == code, done.stderr


def test_two_worker_sweep_csv_does_not_depend_on_the_hash_seed(tmp_path):
    # Two workers pickle run_replication by name through the module entry;
    # no output byte may follow the interpreter's string hashing.
    outputs = []
    for hashseed in ("1", "2"):
        out = tmp_path / f"sweep_{hashseed}.csv"
        done = _run_python("-m", "sheltersim", "sweep", "--config", "configs/baseline.json",
                           "--param", "bed_capacity", "--values", "66,71", "--reps", "1",
                           "--jobs", "2", "--out", str(out), PYTHONHASHSEED=hashseed)
        assert done.returncode == 0, done.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") == 1 + 2 * (6 + 8)


# A fresh interpreter whose workers die on their first replication, as when
# the operating system's out-of-memory killer ends them; argv follows.
_DYING_WORKERS = """
import functools, os, sys
from sheltersim import cli, experiment

@functools.wraps(experiment.run_replication)
def dies(*args):
    os._exit(9)

experiment.run_replication = dies
experiment.available_cpus = lambda: 2
sys.exit(cli.main(sys.argv[1:]))
"""


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the workers must inherit the patched module")
def test_dead_worker_exits_3_without_a_traceback(tmp_path):
    out = tmp_path / "out.csv"
    done = _run_python("-c", _DYING_WORKERS, "simulate", "--reps", "4", "--jobs", "2",
                       "--out", str(out))
    assert done.returncode == 3, done.stderr
    assert "error: a worker process exited abruptly" in done.stderr
    assert "Traceback" not in done.stderr
    assert list(tmp_path.iterdir()) == []


def test_cli_run_never_imports_scipy(tmp_path):
    modules = _modules_after_serial_simulate(tmp_path)
    assert [m for m in modules if m.split(".")[0] == "scipy"] == []


def test_serial_run_never_imports_the_process_pool(tmp_path):
    # ``concurrent.futures.process`` pulls in ``multiprocessing``; only a run
    # with more than one worker needs it.
    modules = _modules_after_serial_simulate(tmp_path)
    assert "sheltersim.experiment" in modules
    assert "concurrent.futures.process" not in modules


@pytest.mark.parametrize("assignment, field", [
    ("annual_arrivals=true", "annual_arrivals"),
    ("bsy_fraction=false", "bsy_fraction"),
    ("services.psychiatric.request_prob=true", "services.psychiatric.request_prob"),
    ("bed_capacity=true", "bed_capacity"),
    ("annual_arrivals=1" + "0" * 400, "annual_arrivals"),
    ("annual_arrivals=" + "9" * 5000, "annual_arrivals"),
    ('annual_arrivals="1399"', "annual_arrivals"),
    ('bed_capacity="66"', "bed_capacity"),
    ("services.medical.name=5", "services[4].name"),
])
def test_boolean_in_number_field_exits_2(assignment, field, capsys):
    # A service name must be a JSON string; every other field here a number.
    kind = "string" if field.endswith(".name") else "number"
    assert run_cli("validate", "--set", assignment) == 2
    assert f"config error: {field}: must be a {kind}" in capsys.readouterr().err


def test_expected_arrivals_limit(capsys):
    # 1e6 arrivals a year over one year is exactly the limit.
    at_limit = ["--set", "annual_arrivals=1000000", "--set", "warmup_days=0",
                "--set", "stats_window_days=365.25"]
    assert run_cli("validate", *at_limit) == 0
    capsys.readouterr()
    assert run_cli("validate", *at_limit, "--set", "annual_arrivals=1000000.5") == 2
    assert "expected arrivals per replication" in capsys.readouterr().err
    assert run_cli("validate", "--set", "warmup_days=1e12") == 2
    capsys.readouterr()
    assert run_cli("validate", "--set", "annual_arrivals=0", "--set", "warmup_days=1e308",
                   "--set", "stats_window_days=1e308") == 2
    assert "warmup_days + stats_window_days: must be a finite number" in capsys.readouterr().err


def test_sweep_with_invalid_last_value_runs_nothing(tmp_path, capsys, monkeypatch):
    import sheltersim.experiment as experiment

    def must_not_run(config, replication):
        raise AssertionError("a replication ran before every value was validated")

    monkeypatch.setattr(experiment, "run_replication", must_not_run)
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--param", "bed_capacity", "--values", "10,0",
                   "--out", str(out), *FAST_OVERRIDES) == 2
    assert not out.exists()
    assert "config error: bed_capacity=0: bed_capacity: must be >= 1" in capsys.readouterr().err
