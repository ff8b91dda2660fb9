"""Scenario files: YAML documents with unit-suffixed keys mirroring
LinkScenario, strict about unknown keys so typos fail loudly. One table of
file keys drives loading, saving, the key checks and the sweep's axes."""

from __future__ import annotations

import math
from decimal import Decimal
from pathlib import Path
from typing import NamedTuple

import yaml

from .errors import AxisError, ScenarioError
from .link import LinkScenario, SelfInterferencePath
from .optics import FiberParams
from .signal_core import (
    QamSignalSpec, TimeGrid, ToneSpec, dbm_to_amplitude, dbm_to_watts, watts_to_dbm, R_REF,
)


class _Row(NamedTuple):
    key: str  # dotted file key
    paths: tuple[str, ...]  # the LinkScenario fields it fills, dotted into their parts
    rule: str  # number, off/dbm (or -inf), positive, non-negative, tone (dBm <-> V), integer, word
    default: object = None  # None: required
    exp: int | None = None  # the key's unit is 10**exp SI units (ns: -9, GHz: 9)


_HEAD = (
    _Row("name", ("name",), "word"),
    _Row("description", ("description",), "word", ""),
    _Row("seed", ("seed",), "integer"),
    _Row("laser.power_dbm", ("laser_power_dbm",), "number"),
    _Row("if_signal.kind", (), "word"),
)
_TAIL = (
    _Row("lo.frequency_ghz", ("lo_signal.frequency",), "positive", exp=9),
    _Row("lo.power_dbm", ("lo_signal.amplitude",), "tone"),
    _Row("modulators.v_pi_volts", ("v_pi",), "positive"),
    _Row("downlink_fiber.length_km", ("downlink_fiber.length",), "number"),
    _Row("downlink_fiber.dispersion_ps_nm_km", ("downlink_fiber.dispersion",), "number", 17.0),
    _Row("downlink_fiber.attenuation_db_km", ("downlink_fiber.attenuation",), "number", 0.2),
    _Row("uplink_fiber.length_km", ("uplink_fiber.length",), "number"),
    _Row("uplink_fiber.dispersion_ps_nm_km", ("uplink_fiber.dispersion",), "number", 17.0),
    _Row("uplink_fiber.attenuation_db_km", ("uplink_fiber.attenuation",), "number", 0.2),
    _Row("edfa.gain_db", ("edfa_gain_db",), "number"),
    _Row("si_path.gain_db", ("si_path.gain_db",), "off"),
    _Row("si_path.delay_ns", ("si_path.delay",), "non-negative", exp=-9),
    _Row("filters.bpf_low_ghz", ("bpf.0",), "positive", exp=9),
    _Row("filters.bpf_high_ghz", ("bpf.1",), "positive", exp=9),
    _Row("filters.lpf_cutoff_ghz", ("lpf",), "positive", exp=9),
    _Row("grid.sample_rate_gsps", ("grid.sample_rate",), "positive", exp=9),
    _Row("grid.n_samples", ("grid.n_samples",), "integer"),
    _Row("responsivity_a_w", ("responsivity",), "positive", 0.8),
    _Row("rbw_mhz", ("rbw",), "positive", 1.0, exp=6),
    _Row("soi.kind", (), "word"),
)
# The sections that hold a drive spec: their `kind` names the spec class and
# the rows of the section, and a document holds the keys of its kind only. The
# SOI has no frequency key: LinkScenario places it at the SI's RF frequency.
_KINDED = {
    "if_signal": {
        "tone": (ToneSpec, (
            _Row("if_signal.frequency_ghz", ("if_signal.frequency",), "positive", exp=9),
            _Row("if_signal.power_dbm", ("if_signal.amplitude",), "tone"),
        )),
        "qam": (QamSignalSpec, (
            _Row("if_signal.frequency_ghz", ("if_signal.frequency",), "positive", exp=9),
            _Row("if_signal.power_dbm", ("if_signal.power_dbm",), "dbm"),
            _Row("if_signal.symbol_rate_mbaud", ("if_signal.symbol_rate",), "positive", exp=6),
            _Row("if_signal.rolloff", ("if_signal.rolloff",), "number", 0.35),
            _Row("if_signal.data_seed", ("if_signal.seed",), "integer", 1),
        )),
    },
    "soi": {
        "tone": (ToneSpec, (
            _Row("soi.power_dbm", ("soi.amplitude",), "tone"),
            _Row("soi.arrival_delay_ns", ("soi_delay",), "number", 0.0, exp=-9),
            _Row("soi.data_seed", (), "integer", 7),  # checked; a tone reads no data
        )),
        "qam": (QamSignalSpec, (
            _Row("soi.power_dbm", ("soi.power_dbm",), "dbm"),
            _Row("soi.arrival_delay_ns", ("soi_delay",), "number", 0.0, exp=-9),
            _Row("soi.symbol_rate_mbaud", ("soi.symbol_rate",), "number", 10.0, exp=6),
            _Row("soi.rolloff", ("soi.rolloff",), "number", 0.35),
            _Row("soi.data_seed", ("soi.seed",), "integer", 7),
        )),
    },
}


def _table(if_kind: str, soi_kind: str | None) -> tuple[_Row, ...]:
    """The rows of a document in file order, by the kinds of its IF drive and its SOI."""
    soi_rows = _KINDED["soi"][soi_kind][1] if soi_kind else ()  # None: no SOI
    return _HEAD + _KINDED["if_signal"][if_kind][1] + _TAIL + soi_rows


_PARTS = {  # LinkScenario fields that several keys fill, and what builds them from their parts
    "lo_signal": ToneSpec, "si_path": SelfInterferencePath, "grid": TimeGrid,
    **dict.fromkeys(("downlink_fiber", "uplink_fiber"), FiberParams),
    "bpf": lambda **edge: (edge["0"], edge["1"]),
}
_OPTIONAL = ("grid", "soi")  # sections a file may leave out: DEFAULT_GRID, no SOI
_KEYS = frozenset(row.key for if_kind in _KINDED["if_signal"] for soi_kind in _KINDED["soi"]
                  for row in _table(if_kind, soi_kind))
_SECTIONS = frozenset(key.partition(".")[0] for key in _KEYS if "." in key)


def _scaled(value: float, exp: int) -> float:
    """Scale by a power of ten through Decimal so that e.g. 8.55 GHz maps to
    the same float as the literal 8.55e9 (keeps scenario round-trips exact)."""
    return float(Decimal(repr(float(value))).scaleb(exp))


def _check_keys(doc: dict) -> None:
    for key, value in doc.items():
        if key in _SECTIONS:
            if not isinstance(value, dict):
                raise ScenarioError(f"key '{key}' must be a mapping")
            for sub in value:
                if f"{key}.{sub}" not in _KEYS:
                    raise ScenarioError(f"unknown key '{key}.{sub}'")
        elif key not in _KEYS:
            raise ScenarioError(f"unknown key '{key}'")
    for row in _HEAD + _TAIL:
        top = row.key.partition(".")[0]
        if row.default is None and top not in _OPTIONAL and top not in doc:
            raise ScenarioError(f"missing required key '{top}'")


def _read(row: _Row, value):
    """The field value of a file value under the rule of its row."""
    if row.rule == "word":
        return str(value)
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if row.rule == "integer":
        if isinstance(value, bool) or not (isinstance(value, int) or number.is_integer()):
            raise ScenarioError(f"key '{row.key}' must be an integer")
        return value if isinstance(value, int) else int(number)
    off = row.rule in ("off", "dbm", "tone")
    if not (math.isfinite(number) or (off and number == -math.inf)):
        raise ScenarioError(
            f"key '{row.key}' must be a finite number" + (" or -.inf" if off else ""))
    if row.rule == "positive" and number <= 0:
        raise ScenarioError(f"key '{row.key}' must be a positive number")
    if row.rule == "non-negative" and number < 0:
        raise ScenarioError(f"key '{row.key}' must be non-negative")
    if row.rule == "dbm" and not dbm_to_watts(number) < math.inf:
        raise ScenarioError(f"key '{row.key}' overflows a finite number of watts")
    if row.rule == "tone" and not math.isfinite(number := dbm_to_amplitude(number)):
        raise ScenarioError(f"key '{row.key}' overflows a finite amplitude")
    return number if row.exp is None else _scaled(number, row.exp)


def dict_to_scenario(doc: dict) -> LinkScenario:
    """Map a parsed scenario document onto a LinkScenario, which checks its own
    rules when it is built; any broken rule is raised as a ScenarioError."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a mapping")
    _check_keys(doc)
    kinds = {}
    for section, specs in _KINDED.items():  # `if_signal` is required, `soi` optional
        if section not in doc:
            continue
        if "kind" not in doc[section]:
            raise ScenarioError(f"missing required key '{section}.kind'")
        kind = kinds[section] = str(doc[section]["kind"])
        if kind not in specs:
            raise ScenarioError(f"key '{section}.kind' must be 'tone' or 'qam'")
        read = {f"{section}.kind"} | {row.key for row in specs[kind][1]}
        for key in (f"{section}.{sub}" for sub in doc[section]):
            if key not in read:
                raise ScenarioError(f"key '{key}' is not read when {section}.kind is {kind}")
    fields: dict = {}
    try:
        for row in _table(kinds["if_signal"], kinds.get("soi")):
            section, _, leaf = row.key.rpartition(".")
            node = doc.get(section) if section else doc
            if node is None:  # an optional section left out
                continue
            if leaf not in node and row.default is None:
                raise ScenarioError(f"missing required key '{row.key}'")
            value = _read(row, node.get(leaf, row.default))
            for path in row.paths:
                part, _, name = path.rpartition(".")
                (fields.setdefault(part, {}) if part else fields)[name] = value
        if "soi" in fields:  # any frequency: LinkScenario places the SOI at f_s
            fields["soi"]["frequency"] = 0.0
        parts = dict(_PARTS, **{sec: _KINDED[sec][kind][0] for sec, kind in kinds.items()})
        return LinkScenario(**{k: parts[k](**v) if k in parts else v for k, v in fields.items()})
    except (ValueError, TypeError, OverflowError) as exc:
        raise ScenarioError(str(exc)) from exc


def scenario_to_dict(s: LinkScenario) -> dict:
    """Inverse of dict_to_scenario; every LinkScenario has a document.

    Keys without a unit scale hold the exact float, so they load back exactly.
    Keys with one (GHz, MBaud, ns, MHz) are rounded to 10 decimals and
    tone amplitudes are written as dBm: exact for a scenario read from a file,
    a neighbouring float for an arbitrary value set in code.
    """
    doc: dict = {}
    for row in _table(s.if_signal.kind, None if s.soi is None else s.soi.kind):
        section, _, leaf = row.key.rpartition(".")
        if leaf == "kind" and getattr(s, section) is not None:
            value = getattr(s, section).kind
        elif not row.paths or (row.key == "description" and not s.description):
            continue  # no SOI, a key no field holds, or an empty description
        else:
            value = s
            for name in row.paths[0].split("."):
                value = value[int(name)] if name.isdigit() else getattr(value, name)
            if row.rule == "tone":  # dBm; a zero amplitude is -inf dBm, which loads back to 0 V
                value = round(float(watts_to_dbm(value**2 / (2.0 * R_REF))), 10)
            elif row.exp is not None:
                value = round(value * 10.0**-row.exp if row.exp < 0 else value / 10.0**row.exp, 10)
        (doc.setdefault(section, {}) if section else doc)[leaf] = value
    return doc


def set_axis(s: LinkScenario, axis: str, value: float) -> LinkScenario:
    """`s` with the numeric file key `axis` set to `value`, through its document."""
    doc = scenario_to_dict(s)
    row = next((r for r in _table(doc["if_signal"]["kind"], doc.get("soi", {}).get("kind"))
                if r.key == axis), None)
    section, _, leaf = axis.rpartition(".")
    if row is None or not row.paths or row.rule == "word":
        raise AxisError(f"axis '{axis}' is not a numeric key of this scenario")
    (doc[section] if section else doc)[leaf] = value
    return dict_to_scenario(doc)


def load_scenario(path: str | Path) -> LinkScenario:
    """Parse and validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"parse error in {path}: {exc}") from exc
    try:
        return dict_to_scenario(doc)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def save_scenario(s: LinkScenario, path: str | Path) -> None:
    """Write the scenario file of `s` (see scenario_to_dict for what loads back exactly)."""
    doc = scenario_to_dict(s)
    Path(path).write_text(yaml.safe_dump(doc, sort_keys=False))


def bundled_scenario_dir() -> Path:
    """Directory holding the scenarios shipped with the package."""
    return Path(__file__).parent / "scenarios"


def bundled_scenarios() -> list[Path]:
    """Sorted paths of every bundled scenario file."""
    return sorted(bundled_scenario_dir().glob("*.scenario"))
