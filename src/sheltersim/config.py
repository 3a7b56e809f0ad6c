"""Scenario configuration: each field declared once with its type, default
and range; its JSON form, dotted keys and checks."""

# No ``from __future__ import annotations``: a field's ``type`` is then the type itself.
import hashlib
import json
import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import get_args, get_origin

from .model import BED_RESOURCE, DAYS_PER_YEAR, FLOW_LABELS

# Bound on every pool's capacity (bed units, monthly appointments), far above
# any shelter and well inside float range, where utilization divides by it.
MAX_CAPACITY_UNITS = 10 ** 9

# Bound on one replication's work (and its population's memory): baseline
# replications expect about 2.8k arrivals.
MAX_EXPECTED_ARRIVALS = 1e6

# Bound on the (value, replication) pairs one command runs, and so on its
# lists of pairs and of kept records (about 2.5 KB per replication).
MAX_GRID_PAIRS = 10 ** 5

# Names no service may take: the results key every pool and flow by name.
RESERVED_NAMES = (BED_RESOURCE, *FLOW_LABELS.values())


def param(default, low, high=math.inf):
    """A number field: its default and inclusive range (see ``field_errors``)."""
    return field(default=default, metadata={"range": (low, high)})


@dataclass(frozen=True)
class ServiceSpec:
    """One appointment pool: monthly capacity, demand probability, and the
    per-youth monthly appointment range conditional on requesting. A config's
    service entry takes the default of each key it leaves out."""

    name: str = ""
    capacity_units: int = param(0, 1, MAX_CAPACITY_UNITS)
    request_prob: float = param(0.0, 0, 1)
    appt_min: int = param(1, 1)
    appt_max: int = param(1, 1)


def default_services() -> list[ServiceSpec]:
    """The five support services at their estimated monthly capacities."""
    return [
        ServiceSpec("case_management", 400, 1.0, 2, 4),
        ServiceSpec("drug_counseling", 60, 0.40, 1, 4),
        ServiceSpec("insurance_enrollment", 34, 0.50, 1, 1),
        ServiceSpec("psychiatric", 56, 0.50, 1, 4),
        ServiceSpec("medical", 192, 0.90, 1, 5),
    ]


def _finite(value) -> bool:
    try:
        return math.isfinite(value)
    except OverflowError:  # an int beyond float range
        return False


def as_declared(kind, value):
    """``value`` as the number type ``kind`` where it converts (a whole float
    to an int, an int within float range to a float), else as it is."""
    if kind is int and type(value) is float and value.is_integer():
        return int(value)
    if kind is float and type(value) is int and _finite(value):
        return float(value)
    return value


def field_errors(spec, path: str = "") -> list[str]:
    """One message, prefixed with ``path``, per field of the dataclass
    ``spec`` whose value is not of its declared type (a number field takes a
    finite int or float, not a bool; an int field an int) or not in its
    declared range. Rules across fields can then trust every field."""
    errors = []
    for f in fields(spec):
        kind, value, where = f.type, getattr(spec, f.name), f"{path}{f.name}"
        if kind is int or kind is float:
            low, high = f.metadata["range"]
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                errors.append(f"{where}: must be a number")
            elif kind is int and not isinstance(value, int):
                errors.append(f"{where}: must be an integer, got {value!r}")
            elif not _finite(value):
                errors.append(f"{where}: must be a finite number, got {value}"
                              if isinstance(value, float)
                              else f"{where}: must be a number within float range")
            elif not low <= value <= high:
                errors.append(f"{where}: must be within [{low:,}, {high:,}], got {value}")
        elif kind is bool or kind is str:
            if not isinstance(value, kind):
                errors.append(f"{where}: must be a {'boolean' if kind is bool else 'string'}")
        elif not (isinstance(value, (tuple, list))
                  and all(isinstance(entry, get_args(kind)[0]) for entry in value)):
            errors.append(f"{where}: must be an array of {get_args(kind)[0].__name__}")
    return errors


def spellable(name) -> bool:
    """Whether a key segment can spell ``name``: ``set_field`` splits keys at
    dots, ``--set`` at the first ``=``, no segment is empty, and an error
    message echoes a key, so a key must be printable."""
    return (isinstance(name, str) and name != "" and name.isprintable()
            and not {".", "="} & set(name))


def shown(key) -> str:
    """``key`` as an error message echoes it: by its ``repr`` unless printable."""
    text = str(key)
    return text if text.isprintable() else repr(text)


def entry_paths(path: str, names: list) -> list[str]:
    """Each entry's prefix in error messages, given the entries' ``names``:
    ``<path>.<name>.``, the key ``set_field`` reaches it by, for the first
    entry of each ``spellable`` name, else ``<path>[<i>].``."""
    prefixes, keyed = [], set()
    for i, name in enumerate(names):
        if spellable(name) and name not in keyed:
            keyed.add(name)
            prefixes.append(f"{path}.{name}.")
        else:
            prefixes.append(f"{path}[{i}].")
    return prefixes


class ConfigError(ValueError):
    """Invalid scenario configuration; ``errors`` lists field-path messages."""

    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


@dataclass(frozen=True)
class ScenarioConfig:
    """Full parameterization of one shelter configuration.

    ``age_16_20_fraction`` is a calibrated modeling input, not an observed
    quantity: it is chosen so the baseline bed-abandonment rate lands near
    one quarter of bed seekers (see README for the calibration procedure).
    """

    bed_capacity: int = param(66, 0, MAX_CAPACITY_UNITS)
    services: tuple[ServiceSpec, ...] = field(
        default_factory=lambda: tuple(default_services()))
    annual_arrivals: float = param(1399.0, 0)
    bsy_fraction: float = param(1.0 / 3.0, 0, 1)
    age_16_20_fraction: float = param(0.92, 0, 1)
    renege_exit_prob: float = param(0.25, 0, 1)
    redraw_los_on_bed_renege: bool = False
    warmup_days: float = param(365.25, 0)
    stats_window_days: float = param(365.25, 0)
    replications: int = param(100, 1, MAX_GRID_PAIRS)
    master_seed: int = param(20240501, 0, 2 ** 64 - 1)

    def validation_errors(self) -> list[str]:
        """Every field's errors, or else those of the rules across fields: a
        service's field errors stop its rules, any field error the scenario's."""
        if errors := field_errors(self):
            return errors
        names = [s.name for s in self.services]
        paths = entry_paths("services", names)
        for spec, path in zip(self.services, paths):
            if spec_errors := field_errors(spec, path):
                errors += spec_errors
                continue
            if not spec.name:
                errors.append(f"{path}name: must be non-empty")
            if not spec.name.isprintable():  # it would split a CSV row or a table line
                errors.append(f"{path}name: must be printable "
                              "(no line breaks, tabs or other control characters)")
            if spec.appt_max < spec.appt_min:
                errors.append(f"{path}appt_max: must be >= appt_min")
            if spec.appt_max > spec.capacity_units:
                errors.append(f"{path}appt_max: {spec.appt_max} exceeds capacity_units "
                              f"{spec.capacity_units} (requests could never be satisfied)")
        if errors:
            return errors
        if self.bsy_fraction > 0 and self.bed_capacity < 1:
            errors.append("bed_capacity: must be >= 1 when bsy_fraction > 0 "
                          "(bed requests could never be satisfied)")
        if not self.services:
            errors.append("services: must list at least one service")
        if len(set(names)) != len(names):
            errors.append("services: names must be unique")
        errors.extend(f"{path}name: {name!r} is reserved for the bed pool or a youth flow"
                      for name, path in zip(names, paths) if name in RESERVED_NAMES)
        if not self.stats_window_days > 0:
            errors.append("stats_window_days: must be > 0")
        horizon = self.warmup_days + self.stats_window_days
        expected = self.annual_arrivals * horizon / DAYS_PER_YEAR
        if not math.isfinite(horizon):
            errors.append(f"warmup_days + stats_window_days: must be a finite number, "
                          f"got {horizon}")
        elif expected > MAX_EXPECTED_ARRIVALS:
            errors.append(
                f"annual_arrivals x (warmup_days + stats_window_days) / {DAYS_PER_YEAR}: "
                f"{expected:.6g} expected arrivals per replication, above the limit "
                f"of {MAX_EXPECTED_ARRIVALS:,.0f}")
        return errors

    def validate(self) -> None:
        if errors := self.validation_errors():
            raise ConfigError(errors)

    def to_dict(self) -> dict:
        """The config as JSON data: its fields in declared order, each number
        as its field's type, services as a list of objects."""
        return _to_data(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ScenarioConfig":
        """Inverse of ``to_dict``; missing keys take their defaults. Returns a
        valid config, or raises the errors found as one ``ConfigError``."""
        errors: list[str] = []
        config = _from_data(cls, data, "", errors)
        if errors := errors or config.validation_errors():
            raise ConfigError(errors)
        return config

    def digest(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def set_field(data: dict, key: str, value) -> None:
    """Set the field that the dotted ``key`` names in the config JSON
    ``data`` to ``value``; the one way a config field is addressed by name.
    A segment under ``services`` selects the service of that name, and
    ``service:<name>`` spells ``services.<name>.capacity_units``. Only the
    path is checked here; ``ScenarioConfig.from_dict`` checks the value."""
    if key.startswith("service:"):
        key = f"services.{key.removeprefix('service:')}.capacity_units"
    parts = key.split(".")
    node = data
    for depth, part in enumerate(parts, 1):
        if isinstance(node, list):
            node = next((item for item in node
                         if isinstance(item, dict) and item.get("name") == part), None)
            if node is None:
                raise ConfigError([f"{shown(key)}: no service named {part!r}"])
        elif isinstance(node, dict) and depth == len(parts):
            node[part] = value
            return
        elif isinstance(node, dict) and part in node:
            node = node[part]
        else:
            raise ConfigError([f"{shown(key)}: no such field {part!r}"])
    raise ConfigError([f"{shown(key)}: names a service; set one of its fields, "
                       f"e.g. {shown(key + '.capacity_units')}"])


def _from_data(kind, value, path: str, errors: list[str]):
    """JSON data ``value`` converted to the declared type ``kind`` where it
    converts (an object to a dataclass, an array to a tuple, a number by
    ``as_declared``), for ``field_errors`` to judge. A bad object goes to
    ``errors``, prefixed with ``path``; the result is then meaningless."""
    if get_origin(kind) is tuple and isinstance(value, list):
        # An entry with a key no key segment spells goes by its index.
        names = [entry.get("name") if isinstance(entry, dict) and all(map(spellable, entry))
                 else None for entry in value]
        return tuple(_from_data(get_args(kind)[0], entry, entry_path, errors)
                     for entry, entry_path in zip(value, entry_paths(path, names)))
    if not is_dataclass(kind):
        return as_declared(kind, value)
    if not isinstance(value, dict):
        errors.append(f"{path.rstrip('.') or 'config'}: must be an object")
        return None
    kinds = {f.name: f.type for f in fields(kind)}
    if unknown := sorted(set(value) - set(kinds), key=str):
        errors.extend(f"{path}{shown(key)}: unknown field" for key in unknown)
        return None
    return kind(**{key: _from_data(kinds[key], entry, f"{path}{key}", errors)
                   for key, entry in value.items()})


def _to_data(value, kind=None):
    """``value``, declared as ``kind``, as JSON data: ``_from_data`` inverted."""
    if is_dataclass(value):
        return {f.name: _to_data(getattr(value, f.name), f.type) for f in fields(value)}
    if isinstance(value, (tuple, list)):
        return [_to_data(entry) for entry in value]
    return as_declared(kind, value)
