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


def _positive(value, path: str) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0:
        raise ScenarioError(f"key '{path}' must be a positive number")
    return value


def _tone(section: dict, path: str) -> ToneSpec:
    return ToneSpec(
        amplitude=dbm_to_amplitude(float(_need(section, path, "power_dbm"))),
        frequency=_scaled(_positive(_need(section, path, "frequency_ghz"), f"{path}.frequency_ghz"), 9),
    )


def _fiber(section: dict, path: str) -> FiberParams:
    return FiberParams(
        length=float(_need(section, path, "length_km")),
        dispersion=float(section.get("dispersion_ps_nm_km", 17.0)),
        attenuation=float(section.get("attenuation_db_km", 0.2)),
    )


def dict_to_scenario(doc: dict) -> LinkScenario:
    """Build a validated LinkScenario from a parsed scenario document."""
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a mapping")
    _check_keys(doc)

    if_sec = doc["if_signal"]
    kind = _need(if_sec, "if_signal", "kind")
    f_if = _scaled(_positive(_need(if_sec, "if_signal", "frequency_ghz"), "if_signal.frequency_ghz"), 9)
    if_power = float(_need(if_sec, "if_signal", "power_dbm"))
    if kind == "tone":
        if_signal: ToneSpec | QamSignalSpec = ToneSpec(
            amplitude=dbm_to_amplitude(if_power), frequency=f_if
        )
    elif kind == "qam":
        if_signal = QamSignalSpec(
            symbol_rate=_scaled(
                _positive(
                    _need(if_sec, "if_signal", "symbol_rate_mbaud"),
                    "if_signal.symbol_rate_mbaud",
                ),
                6,
            ),
            center_frequency=f_if,
            power_dbm=if_power,
            rolloff=float(if_sec.get("rolloff", 0.35)),
            seed=int(if_sec.get("data_seed", 1)),
        )
    else:
        raise ScenarioError("key 'if_signal.kind' must be 'tone' or 'qam'")

    mods = doc["modulators"]
    v_pi = _positive(_need(mods, "modulators", "v_pi_volts"), "modulators.v_pi_volts")

    soi = None
    if doc.get("soi") is not None:
        soi_sec = doc["soi"]
        soi = SoiSpec(
            kind=str(_need(soi_sec, "soi", "kind")),
            power_dbm=float(_need(soi_sec, "soi", "power_dbm")),
            arrival_delay=_scaled(soi_sec.get("arrival_delay_ns", 0.0), -9),
            symbol_rate=_scaled(soi_sec.get("symbol_rate_mbaud", 10.0), 6),
            rolloff=float(soi_sec.get("rolloff", 0.35)),
            seed=int(soi_sec.get("data_seed", 7)),
        )

    filters = doc["filters"]
    grid = DEFAULT_GRID
    if "grid" in doc:
        grid_sec = doc["grid"]
        grid = TimeGrid(
            sample_rate=_scaled(
                _positive(_need(grid_sec, "grid", "sample_rate_gsps"), "grid.sample_rate_gsps"), 9
            ),
            n_samples=int(_need(grid_sec, "grid", "n_samples")),
        )

    edfa = doc["edfa"]
    si_sec = doc["si_path"]
    delay_ns = float(_need(si_sec, "si_path", "delay_ns"))
    if delay_ns < 0:
        raise ScenarioError("key 'si_path.delay_ns' must be non-negative")

    laser = doc["laser"]
    s = LinkScenario(
        name=str(doc["name"]),
        seed=int(doc["seed"]),
        laser_power_dbm=float(_need(laser, "laser", "power_dbm")),
        carrier_frequency=_scaled(
            _positive(_need(laser, "laser", "frequency_thz"), "laser.frequency_thz"), 12
        ),
        if_signal=if_signal,
        lo_signal=_tone(doc["lo"], "lo"),
        mod_if=ModulatorParams(v_pi=v_pi, sideband=str(_need(mods, "modulators", "if_sideband"))),
        mod_lo=ModulatorParams(v_pi=v_pi, sideband=str(_need(mods, "modulators", "lo_sideband"))),
        mod_uplink=ModulatorParams(
            v_pi=v_pi, sideband=str(_need(mods, "modulators", "uplink_sideband"))
        ),
        downlink_fiber=_fiber(doc["downlink_fiber"], "downlink_fiber"),
        uplink_fiber=_fiber(doc["uplink_fiber"], "uplink_fiber"),
        edfa_gain_db=float(_need(edfa, "edfa", "gain_db")),
        edfa_position=str(_need(edfa, "edfa", "position")),
        si_path=SelfInterferencePath(
            gain_db=float(_need(si_sec, "si_path", "gain_db")), delay=_scaled(delay_ns, -9)
        ),
        soi=soi,
        bpf=(
            _scaled(_positive(_need(filters, "filters", "bpf_low_ghz"), "filters.bpf_low_ghz"), 9),
            _scaled(_positive(_need(filters, "filters", "bpf_high_ghz"), "filters.bpf_high_ghz"), 9),
        ),
        lpf=_scaled(_positive(_need(filters, "filters", "lpf_cutoff_ghz"), "filters.lpf_cutoff_ghz"), 9),
        grid=grid,
        responsivity=float(doc.get("responsivity_a_w", 0.8)),
        rbw=_scaled(doc.get("rbw_mhz", 1.0), 6),
    )
    try:
        s.validate()
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    return s


def _amp_to_dbm(amplitude: float) -> float:
    """Tone power in dBm; a zero amplitude is -inf dBm, which loads back to 0 V."""
    return round(float(watts_to_dbm(amplitude**2 / (2.0 * R_REF))), 10)


def _check_expressible(s: LinkScenario) -> None:
    """Raise ScenarioError naming each field a scenario file cannot hold."""
    mods = ("mod_if", "mod_lo", "mod_uplink")
    lost = [f"{m}.v_pi" for m in mods if getattr(s, m).v_pi != s.mod_if.v_pi]
    lost += [f"{m}.insertion_loss" for m in mods if getattr(s, m).insertion_loss != 0.0]
    tones = ("if_signal", "lo_signal")
    lost += [f"{t}.phase" for t in tones if getattr(getattr(s, t), "phase", 0.0) != 0.0]
    if lost:
        raise ScenarioError(f"a scenario file cannot hold {', '.join(lost)}")


def scenario_to_dict(s: LinkScenario, description: str = "") -> dict:
    """Inverse of dict_to_scenario; numbers rounded so load(save(s)) == s.

    A scenario holding a value the format cannot express is rejected by name.
    """
    _check_expressible(s)
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
            "power_dbm": round(s.if_signal.power_dbm, 10),
            "symbol_rate_mbaud": round(s.if_signal.symbol_rate / 1e6, 10),
            "rolloff": s.if_signal.rolloff,
            "data_seed": s.if_signal.seed,
        }
    doc = {
        "name": s.name,
        "description": description,
        "seed": s.seed,
        "laser": {
            "power_dbm": round(s.laser_power_dbm, 10),
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
            "power_dbm": round(s.soi.power_dbm, 10),
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


def save_scenario(s: LinkScenario, path: str | Path, description: str = "") -> None:
    """Write a scenario file that loads back to an equal LinkScenario."""
    doc = scenario_to_dict(s, description=description)
    Path(path).write_text(yaml.safe_dump(doc, sort_keys=False))


def bundled_scenario_dir() -> Path:
    """Directory holding the scenarios shipped with the package."""
    return Path(__file__).parent / "scenarios"


def bundled_scenarios() -> list[Path]:
    """Sorted paths of every bundled scenario file."""
    return sorted(bundled_scenario_dir().glob("*.scenario"))
