"""Scenario files: YAML documents with unit-suffixed keys mirroring
LinkScenario, strict about unknown keys so typos fail loudly."""

from __future__ import annotations

import math
from decimal import Decimal
from pathlib import Path

import yaml

from .errors import ScenarioError
from .link import LinkScenario, SelfInterferencePath, SoiSpec
from .optics import FiberParams, ModulatorParams
from .signal_core import (
    QamSignalSpec,
    TimeGrid,
    ToneSpec,
    dbm_to_amplitude,
    watts_to_dbm,
    DEFAULT_GRID,
    R_REF,
)

# Allowed keys per section. Only `grid` and `responsivity_a_w` may be omitted
# (instrument defaults); `soi` and `description` are optional content.
_SCHEMA = {
    "name": None,
    "description": None,
    "seed": None,
    "laser": {"power_dbm", "frequency_thz"},
    "if_signal": {
        "kind",
        "frequency_ghz",
        "power_dbm",
        "symbol_rate_mbaud",
        "rolloff",
        "data_seed",
    },
    "lo": {"frequency_ghz", "power_dbm"},
    "modulators": {"v_pi_volts", "if_sideband", "lo_sideband", "uplink_sideband"},
    "downlink_fiber": {"length_km", "dispersion_ps_nm_km", "attenuation_db_km"},
    "uplink_fiber": {"length_km", "dispersion_ps_nm_km", "attenuation_db_km"},
    "edfa": {"gain_db", "position"},
    "si_path": {"gain_db", "delay_ns"},
    "soi": {"kind", "power_dbm", "arrival_delay_ns", "symbol_rate_mbaud", "rolloff", "data_seed"},
    "filters": {"bpf_low_ghz", "bpf_high_ghz", "lpf_cutoff_ghz"},
    "grid": {"sample_rate_gsps", "n_samples"},
    "responsivity_a_w": None,
    "rbw_mhz": None,
}

_OPTIONAL = {"grid", "responsivity_a_w", "rbw_mhz", "soi", "description"}


def _scaled(value: float, exp: int) -> float:
    """Scale by a power of ten through Decimal so that e.g. 8.55 GHz maps to
    the same float as the literal 8.55e9 (keeps scenario round-trips exact)."""
    return float(Decimal(repr(float(value))).scaleb(exp))


def _check_keys(doc: dict) -> None:
    for key, value in doc.items():
        if key not in _SCHEMA:
            raise ScenarioError(f"unknown key '{key}'")
        allowed = _SCHEMA[key]
        if allowed is None:
            continue
        if not isinstance(value, dict):
            raise ScenarioError(f"key '{key}' must be a mapping")
        for sub in value:
            if sub not in allowed:
                raise ScenarioError(f"unknown key '{key}.{sub}'")
    for key in _SCHEMA:
        if key not in doc and key not in _OPTIONAL:
            raise ScenarioError(f"missing required key '{key}'")


def _need(section: dict, path: str, key: str):
    if key not in section:
        raise ScenarioError(f"missing required key '{path}.{key}'")
    return section[key]


def _number(section: dict, name: str, default=None, off: bool = False) -> float:
    """The value of dotted key `name` (`default` when absent) as a finite float;
    with `off`, also -inf, which switches a source or path off."""
    key = name.rpartition(".")[2]
    value = _need(section, *name.split(".")) if default is None else section.get(key, default)
    try:
        value = float(value)
    except (TypeError, ValueError):
        value = math.nan
    if not (math.isfinite(value) or (off and value == -math.inf)):
        raise ScenarioError(f"key '{name}' must be a finite number" + (" or -.inf" if off else ""))
    return value


def _positive(section: dict, name: str, default=None) -> float:
    value = _number(section, name, default)
    if value <= 0:
        raise ScenarioError(f"key '{name}' must be a positive number")
    return value


def _tone(section: dict, path: str) -> ToneSpec:
    amplitude = dbm_to_amplitude(_number(section, f"{path}.power_dbm", off=True))
    if not math.isfinite(amplitude):
        raise ScenarioError(f"key '{path}.power_dbm' overflows a finite amplitude")
    return ToneSpec(
        amplitude=amplitude,
        frequency=_scaled(_positive(section, f"{path}.frequency_ghz"), 9),
    )


def _fiber(section: dict, path: str) -> FiberParams:
    return FiberParams(
        length=_number(section, f"{path}.length_km"),
        dispersion=_number(section, f"{path}.dispersion_ps_nm_km", 17.0),
        attenuation=_number(section, f"{path}.attenuation_db_km", 0.2),
    )


def dict_to_scenario(doc: dict) -> LinkScenario:
    """Map a parsed scenario document onto a LinkScenario, which checks its own
    rules when it is built; any broken rule is raised as a ScenarioError."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a mapping")
    _check_keys(doc)
    try:
        return _build(doc)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ScenarioError(str(exc)) from exc


def _build(doc: dict) -> LinkScenario:
    if_sec = doc["if_signal"]
    kind = _need(if_sec, "if_signal", "kind")
    if kind == "tone":
        if_signal: ToneSpec | QamSignalSpec = _tone(if_sec, "if_signal")
    elif kind == "qam":
        if_signal = QamSignalSpec(
            symbol_rate=_scaled(_positive(if_sec, "if_signal.symbol_rate_mbaud"), 6),
            center_frequency=_scaled(_positive(if_sec, "if_signal.frequency_ghz"), 9),
            power_dbm=_number(if_sec, "if_signal.power_dbm"),
            rolloff=_number(if_sec, "if_signal.rolloff", 0.35),
            seed=int(if_sec.get("data_seed", 1)),
        )
    else:
        raise ScenarioError("key 'if_signal.kind' must be 'tone' or 'qam'")

    mods = doc["modulators"]
    v_pi = _positive(mods, "modulators.v_pi_volts")

    soi = None
    if doc.get("soi") is not None:
        soi_sec = doc["soi"]
        soi = SoiSpec(
            kind=str(_need(soi_sec, "soi", "kind")),
            power_dbm=_number(soi_sec, "soi.power_dbm", off=True),
            arrival_delay=_scaled(_number(soi_sec, "soi.arrival_delay_ns", 0.0), -9),
            symbol_rate=_scaled(_number(soi_sec, "soi.symbol_rate_mbaud", 10.0), 6),
            rolloff=_number(soi_sec, "soi.rolloff", 0.35),
            seed=int(soi_sec.get("data_seed", 7)),
        )

    filters = doc["filters"]
    grid = DEFAULT_GRID
    if "grid" in doc:
        grid_sec = doc["grid"]
        grid = TimeGrid(
            sample_rate=_scaled(_positive(grid_sec, "grid.sample_rate_gsps"), 9),
            n_samples=int(_need(grid_sec, "grid", "n_samples")),
        )

    edfa = doc["edfa"]
    si_sec = doc["si_path"]
    delay_ns = _number(si_sec, "si_path.delay_ns")
    if delay_ns < 0:
        raise ScenarioError("key 'si_path.delay_ns' must be non-negative")

    laser = doc["laser"]
    return LinkScenario(
        name=str(doc["name"]),
        seed=int(doc["seed"]),
        laser_power_dbm=_number(laser, "laser.power_dbm"),
        carrier_frequency=_scaled(_positive(laser, "laser.frequency_thz"), 12),
        if_signal=if_signal,
        lo_signal=_tone(doc["lo"], "lo"),
        mod_if=ModulatorParams(v_pi=v_pi, sideband=str(_need(mods, "modulators", "if_sideband"))),
        mod_lo=ModulatorParams(v_pi=v_pi, sideband=str(_need(mods, "modulators", "lo_sideband"))),
        mod_uplink=ModulatorParams(
            v_pi=v_pi, sideband=str(_need(mods, "modulators", "uplink_sideband"))
        ),
        downlink_fiber=_fiber(doc["downlink_fiber"], "downlink_fiber"),
        uplink_fiber=_fiber(doc["uplink_fiber"], "uplink_fiber"),
        edfa_gain_db=_number(edfa, "edfa.gain_db"),
        edfa_position=str(_need(edfa, "edfa", "position")),
        si_path=SelfInterferencePath(
            gain_db=_number(si_sec, "si_path.gain_db", off=True), delay=_scaled(delay_ns, -9)
        ),
        soi=soi,
        bpf=(
            _scaled(_positive(filters, "filters.bpf_low_ghz"), 9),
            _scaled(_positive(filters, "filters.bpf_high_ghz"), 9),
        ),
        lpf=_scaled(_positive(filters, "filters.lpf_cutoff_ghz"), 9),
        grid=grid,
        responsivity=_positive(doc, "responsivity_a_w", 0.8),
        rbw=_scaled(_positive(doc, "rbw_mhz", 1.0), 6),
    )


def _amp_to_dbm(amplitude: float) -> float:
    """Tone power in dBm; a zero amplitude is -inf dBm, which loads back to 0 V."""
    return round(float(watts_to_dbm(amplitude**2 / (2.0 * R_REF))), 10)


def scenario_to_dict(s: LinkScenario) -> dict:
    """Inverse of dict_to_scenario; every LinkScenario has a document.

    Keys without a unit scale hold the exact float, so they load back exactly.
    Keys with one (THz, GHz, MBaud, ns, MHz) are rounded to 10 decimals and
    tone amplitudes are written as dBm: exact for a scenario read from a file,
    a neighbouring float for an arbitrary value set in code.
    """
    if isinstance(s.if_signal, ToneSpec):
        if_sec = {
            "kind": "tone",
            "frequency_ghz": round(s.if_signal.frequency / 1e9, 10),
            "power_dbm": _amp_to_dbm(s.if_signal.amplitude),
        }
    else:
        if_sec = {
            "kind": "qam",
            "frequency_ghz": round(s.if_signal.center_frequency / 1e9, 10),
            "power_dbm": s.if_signal.power_dbm,
            "symbol_rate_mbaud": round(s.if_signal.symbol_rate / 1e6, 10),
            "rolloff": s.if_signal.rolloff,
            "data_seed": s.if_signal.seed,
        }
    doc = {
        "name": s.name,
        "seed": s.seed,
        "laser": {
            "power_dbm": s.laser_power_dbm,
            "frequency_thz": round(s.carrier_frequency / 1e12, 10),
        },
        "if_signal": if_sec,
        "lo": {
            "frequency_ghz": round(s.lo_signal.frequency / 1e9, 10),
            "power_dbm": _amp_to_dbm(s.lo_signal.amplitude),
        },
        "modulators": {
            "v_pi_volts": s.mod_if.v_pi,
            "if_sideband": s.mod_if.sideband,
            "lo_sideband": s.mod_lo.sideband,
            "uplink_sideband": s.mod_uplink.sideband,
        },
        "downlink_fiber": {
            "length_km": s.downlink_fiber.length,
            "dispersion_ps_nm_km": s.downlink_fiber.dispersion,
            "attenuation_db_km": s.downlink_fiber.attenuation,
        },
        "uplink_fiber": {
            "length_km": s.uplink_fiber.length,
            "dispersion_ps_nm_km": s.uplink_fiber.dispersion,
            "attenuation_db_km": s.uplink_fiber.attenuation,
        },
        "edfa": {"gain_db": s.edfa_gain_db, "position": s.edfa_position},
        "si_path": {
            "gain_db": s.si_path.gain_db,
            "delay_ns": round(s.si_path.delay * 1e9, 10),
        },
        "filters": {
            "bpf_low_ghz": round(s.bpf[0] / 1e9, 10),
            "bpf_high_ghz": round(s.bpf[1] / 1e9, 10),
            "lpf_cutoff_ghz": round(s.lpf / 1e9, 10),
        },
        "grid": {
            "sample_rate_gsps": round(s.grid.sample_rate / 1e9, 10),
            "n_samples": s.grid.n_samples,
        },
        "responsivity_a_w": s.responsivity,
        "rbw_mhz": round(s.rbw / 1e6, 10),
    }
    if s.soi is not None:
        doc["soi"] = {
            "kind": s.soi.kind,
            "power_dbm": s.soi.power_dbm,
            "arrival_delay_ns": round(s.soi.arrival_delay * 1e9, 10),
            "symbol_rate_mbaud": round(s.soi.symbol_rate / 1e6, 10),
            "rolloff": s.soi.rolloff,
            "data_seed": s.soi.seed,
        }
    return doc


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
