"""Workload inputs, one timed iteration of each workload, and output checks.

Every call into the program goes through a module attribute looked up at call
time (``rofsim.tuner.auto_tune``, ``rofsim.cli.main``, ...), so the wrappers
that ``spans.Tracer`` installs see it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import yaml

import rofsim.cli
import rofsim.link
import rofsim.scenario
import rofsim.tuner

# Generated input -> bundled scenario it is derived from.
SOURCES = {
    "fig7a": "fig7a",
    "fig7c": "fig7c",
    "fig8c": "fig8c",
    "wideband": "wideband",
    "fig7c-qam-soi": "fig7c",
}
QAM_SOI = {
    "kind": "qam",
    "power_dbm": -22.0,
    "arrival_delay_ns": 0.0,
    "symbol_rate_mbaud": 10.0,
    "rolloff": 0.35,
}
INPUTS = {
    "tune": ("fig7c", "wideband"),
    "simulate": ("fig7a", "fig8c", "fig7c-qam-soi"),
    "sweep": ("fig8c",),
}
SWEEP_AXIS = "downlink_fiber.length_km"
SWEEP_VALUES = (0.0, 4.1, 10.0, 20.0)

C3_DEPTH_DB = 23.5  # 10 MBaud QAM back to back after tuning (fig7c)
C4_PENALTY_DB = 3.0  # depth 4.1 km of fibre may cost against back to back
C7_DEPTH_DB = 40.0  # wideband after tuning
# fig7c-qam-soi EVM bound. With the first version of this benchmark the EVM
# measured 0.013-0.130 % over seeds 1..10.
EVM_BOUND_PERCENT = 1.0


def make_input(name: str, seed: int, bundled_dir: Path) -> dict:
    """Scenario document for one generated input; its data seeds come from `seed`.

    `if_signal.data_seed` and `soi.data_seed` are the only scenario values
    that feed the random generators, so they are the ones drawn.
    """
    doc = yaml.safe_load((bundled_dir / f"{SOURCES[name]}.scenario").read_text())
    rng = random.Random(f"{seed}:{name}")
    doc["name"] = name
    doc["if_signal"]["data_seed"] = rng.randrange(2**31)
    if name == "fig7c-qam-soi":
        doc["soi"] = dict(QAM_SOI)
    if doc.get("soi") is not None:
        doc["soi"]["data_seed"] = rng.randrange(2**31)
    return doc


@dataclass
class Prepared:
    files: dict[str, Path]
    sha256: dict[str, str]
    scenarios: dict
    settings: dict = field(default_factory=dict)  # name -> seed SicSettings

    def outputs(self) -> dict:
        return {n: (s.alpha, s.tau2) for n, s in self.settings.items()}


def setup(workload: str, seed: int, directory: Path) -> Prepared:
    """Write the workload's inputs, load them and, for `simulate`, seed them."""
    directory.mkdir(parents=True)
    bundled = rofsim.scenario.bundled_scenario_dir()
    files, sha = {}, {}
    for name in INPUTS[workload]:
        text = yaml.safe_dump(make_input(name, seed, bundled), sort_keys=False)
        files[name] = directory / f"{name}.scenario"
        files[name].write_text(text)
        sha[name] = hashlib.sha256(text.encode()).hexdigest()
    scenarios = {n: rofsim.scenario.load_scenario(p) for n, p in files.items()}
    prep = Prepared(files, sha, scenarios)
    if workload == "simulate":
        for name, s in scenarios.items():
            rf, _ = rofsim.link.run_downlink(s)
            prep.settings[name] = rofsim.tuner.seed_settings(s, rf)
    return prep


@dataclass
class Iteration:
    seconds: float = 0.0  # time inside calls into the program
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    depths: list[float] = field(default_factory=list)
    evm: list[float] = field(default_factory=list)
    outputs: dict[str, str] = field(default_factory=dict)  # label -> repr of checked values

    def call(self, label: str, fn, *args, **kwargs):
        """Time one call into the program; a raise counts as a failed operation."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                return fn(*args, **kwargs)
        except (Exception, SystemExit) as exc:  # reported as a failure, the run goes on
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        finally:
            self.seconds += time.perf_counter() - t0

    def check(self, label: str, ok: bool, detail: str) -> None:
        if not ok:
            self.failures.append(f"{label}: {detail}")

    @contextlib.contextmanager
    def reading(self, label: str):
        """Count a missing or malformed output file as a failed check."""
        try:
            yield
        except (OSError, ValueError, KeyError) as exc:
            self.failures.append(f"{label}: unreadable output: {type(exc).__name__}: {exc}")

    @property
    def failed(self) -> int:
        """Operations with at least one failure; each label names one operation."""
        return len({f.split(": ", 1)[0] for f in self.failures})


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def _read_rows(path: Path) -> list[dict]:
    """Rows of a CSV output keyed by the column names of its last '#' line."""
    header, rows = None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header = line[1:].strip().split(",")
        elif line:
            rows.append(dict(zip(header, line.split(","))))
    return rows


def _num(row: dict, key: str) -> float:
    return float(row[key])


def _iterate_tune(prep: Prepared, out: Path, it: Iteration) -> None:
    for name, wideband in (("fig7c", False), ("wideband", True)):
        s = prep.scenarios[name]
        rep = it.call(f"{name} auto_tune", rofsim.tuner.auto_tune, s, wideband=wideband)
        if rep is None:
            it.attempted += 1
            it.failures.append(f"{name} run_full: not run, auto_tune failed")
            continue
        res = it.call(f"{name} run_full", rofsim.link.run_full, s, rep.refined)
        label = f"{name} auto_tune"
        it.check(label, _finite(rep.depth_seed_db, rep.depth_refined_db,
                                rep.refined.alpha, rep.refined.tau2), "non-finite report")
        it.check(label, rep.depth_refined_db >= rep.depth_seed_db,
                 f"refined depth {rep.depth_refined_db:.3f} dB below seed {rep.depth_seed_db:.3f} dB")
        it.depths.append(rep.depth_refined_db)
        it.outputs[label] = repr((rep.refined.alpha, rep.refined.tau2, rep.depth_seed_db,
                                  rep.depth_refined_db, rep.iterations))
        if wideband:
            pinned = rofsim.tuner.analytic_tau2(
                2 * math.pi * s.f_if, 2 * math.pi * s.f_s, s.si_path.delay, wideband=True
            )
            it.check(label, abs(rep.refined.tau2 - pinned) <= 1e-12 * pinned,
                     f"tau2 {rep.refined.tau2!r} s is not the pinned {pinned!r} s")
            it.check(label, rep.depth_refined_db >= C7_DEPTH_DB,
                     f"C7 depth {rep.depth_refined_db:.2f} dB < {C7_DEPTH_DB} dB")
        if res is None:
            continue
        m = res.metrics
        label = f"{name} run_full"
        it.check(label, _finite(m.depth_db, m.residual_si_dbm), "non-finite metrics")
        it.depths.append(m.depth_db)
        it.outputs[label] = repr((m.depth_db, m.residual_si_dbm))
        if not wideband:
            it.check(label, m.depth_db >= C3_DEPTH_DB,
                     f"C3 depth {m.depth_db:.2f} dB < {C3_DEPTH_DB} dB")


def _check_spectrum(it: Iteration, label: str, path: Path) -> None:
    values = [float(v) for line in path.read_text().splitlines()
              if line and not line.startswith("#") for v in line.split(",")]
    it.check(label, bool(values) and _finite(*values), f"empty or non-finite {path.name}")


def _check_simulate(it: Iteration, label: str, name: str, prep: Prepared, out: Path) -> None:
    (row,) = _read_rows(out / f"{name}_metrics.csv")
    depth, residual = _num(row, "depth_db"), _num(row, "residual_si_dbm")
    soi, evm = _num(row, "soi_power_dbm"), _num(row, "evm_percent")
    it.check(label, _finite(depth, residual), "non-finite depth or residual")
    it.depths.append(depth)
    it.outputs[label] = repr((depth, residual, soi, evm))
    for tag in ("with_sic", "without_sic"):
        _check_spectrum(it, label, out / f"{name}_spectrum_{tag}.csv")
    scenario = prep.scenarios[name]
    if scenario.soi is not None:
        it.check(label, _finite(soi), "non-finite SOI power")
    if name == "fig7a":
        it.check(label, soi > residual,
                 f"SOI {soi:.2f} dBm not above residual SI {residual:.2f} dBm")
    if scenario.soi is not None and scenario.soi.kind == "qam":
        it.check(label, _finite(evm) and evm < EVM_BOUND_PERCENT,
                 f"EVM {evm:.3f} % not under {EVM_BOUND_PERCENT} %")
        it.evm.append(evm)


def _iterate_simulate(prep: Prepared, out: Path, it: Iteration) -> None:
    for name, path in prep.files.items():
        sic = prep.settings[name]
        argv = ["simulate", str(path), "--alpha", repr(float(sic.alpha)),
                "--tau2-ns", repr(float(sic.tau2) * 1e9), "--out", str(out)]
        label = f"{name} simulate"
        code = it.call(label, rofsim.cli.main, argv)
        if code is None:
            continue
        if code != 0:
            it.failures.append(f"{label}: exit code {code}")
            continue
        with it.reading(label):
            _check_simulate(it, label, name, prep, out)


def _check_sweep(it: Iteration, label: str, out: Path) -> None:
    rows = _read_rows(out / f"fig8c_sweep_{SWEEP_AXIS.replace('.', '_')}.csv")
    axis = [_num(r, SWEEP_AXIS) for r in rows]
    it.check(label, axis == list(SWEEP_VALUES), f"axis rows {axis} != {list(SWEEP_VALUES)}")
    it.check(label, len({(r["alpha"], r["tau2_ns"]) for r in rows}) == 1,
             "alpha or tau2 differ between rows of a held-SIC sweep")
    depths = {v: _num(r, "depth_db") for v, r in zip(axis, rows)}
    for v, r in zip(axis, rows):
        it.check(label, _finite(depths[v], _num(r, "residual_si_dbm")),
                 f"non-finite metrics at {v} km")
    it.outputs[label] = repr([",".join(r.values()) for r in rows])
    # The settings are tuned at the base length, 4.1 km; the other rows show
    # how held settings degrade off that length and are not depth-checked.
    base = depths[4.1]
    it.depths.append(base)
    it.check(label, base >= C3_DEPTH_DB - C4_PENALTY_DB,
             f"C4: 4.1 km depth {base:.2f} dB < {C3_DEPTH_DB} - {C4_PENALTY_DB} dB")


def _iterate_sweep(prep: Prepared, out: Path, it: Iteration) -> None:
    values = ",".join(f"{v:g}" for v in SWEEP_VALUES)
    argv = ["sweep", str(prep.files["fig8c"]), "--axis", SWEEP_AXIS, "--values", values,
            "--hold-sic", "--jobs", "1", "--out", str(out)]
    label = "fig8c sweep"
    code = it.call(label, rofsim.cli.main, argv)
    if code is None:
        return
    if code != 0:
        it.failures.append(f"{label}: exit code {code}")
        return
    with it.reading(label):
        _check_sweep(it, label, out)


ITERATE = {"tune": _iterate_tune, "simulate": _iterate_simulate, "sweep": _iterate_sweep}


def iterate(workload: str, prep: Prepared, out: Path) -> Iteration:
    """One closed-loop pass of the workload: each call starts after the last returns."""
    out.mkdir(parents=True)
    it = Iteration()
    ITERATE[workload](prep, out, it)
    return it
