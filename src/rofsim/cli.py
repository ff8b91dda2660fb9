"""Command-line front end: simulate, tune, sweep and spectrum subcommands.

All outputs are comma-separated text with '#' header lines naming the
columns and units, so any plotting tool can consume them directly.
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy.signal

from . import __version__
from .errors import RofsimError, ScenarioError, AxisError, TapError, SimulationError
from .link import (
    LinkScenario,
    build_soi_waveform,
    downlink_taps,
    make_received_signal,
    remodulate,
    run_downlink,
    run_full,
)
from .scenario import dict_to_scenario, load_scenario, scenario_to_dict
from .signal_core import psd_to_dbm_per_hz, welch_segment
from .tuner import SicSettings, auto_tune

_TAPS = ("dp_bpsk_out", "polarizer_out", "ru_y_mod", "bpd_out")

_METRIC_COLS = (
    "name,seed,version,depth_db,residual_si_dbm,soi_power_dbm,evm_percent,alpha,tau2_ns"
)


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("ROFSIM_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load(args) -> LinkScenario:
    s = load_scenario(args.scenario)
    if args.seed is not None:
        s = replace(s, seed=args.seed)
    return s


def _fmt(value) -> str:
    if value is None:
        return "nan"
    return f"{value:.6f}"


def _metrics_row(s: LinkScenario, metrics, sic: SicSettings) -> str:
    return ",".join(
        [
            s.name,
            str(s.seed),
            __version__,
            _fmt(metrics.depth_db),
            _fmt(metrics.residual_si_dbm),
            _fmt(metrics.soi_power_dbm),
            _fmt(metrics.evm_percent),
            f"{sic.alpha:.8f}",
            f"{sic.tau2 * 1e9:.8f}",
        ]
    )


def _write_spectrum(path: Path, freqs, psd, label: str) -> None:
    lines = [f"# rofsim {__version__} {label}", "# frequency_hz,psd_dbm_per_hz"]
    lines += [f"{f:.6f},{p:.6f}" for f, p in zip(freqs, psd)]
    path.write_text("\n".join(lines) + "\n")


def cmd_simulate(args) -> int:
    s = _load(args)
    out = _out_dir(args)
    if args.auto_tune:
        downlink = run_downlink(s)
        sic = auto_tune(s, wideband=args.wideband, downlink=downlink).refined
    else:
        downlink = None
        sic = SicSettings(alpha=args.alpha, tau2=args.tau2_ns * 1e-9, rf_phase_comp=None)
    result = run_full(s, sic, downlink=downlink)
    row = _metrics_row(s, result.metrics, sic)
    (out / f"{s.name}_metrics.csv").write_text(f"# {_METRIC_COLS}\n{row}\n")
    for tag, est in (
        ("with_sic", result.spectrum_with_sic),
        ("without_sic", result.spectrum_without_sic),
    ):
        _write_spectrum(out / f"{s.name}_spectrum_{tag}.csv", est.freqs, est.psd, tag)
    print(row)
    if args.assert_depth is not None and not (
        result.metrics.depth_db >= args.assert_depth
    ):
        print(
            f"depth {result.metrics.depth_db:.2f} dB below required "
            f"{args.assert_depth:.2f} dB",
            file=sys.stderr,
        )
        return 4
    return 0


def cmd_tune(args) -> int:
    s = _load(args)
    out = _out_dir(args)
    report = auto_tune(s, wideband=args.wideband)
    header = (
        "# name,seed,version,alpha_seed,tau2_seed_ns,depth_seed_db,"
        "alpha,tau2_ns,depth_db,iterations"
    )
    row = ",".join(
        [
            s.name,
            str(s.seed),
            __version__,
            f"{report.seed.alpha:.8f}",
            f"{report.seed.tau2 * 1e9:.8f}",
            _fmt(report.depth_seed_db),
            f"{report.refined.alpha:.8f}",
            f"{report.refined.tau2 * 1e9:.8f}",
            _fmt(report.depth_refined_db),
            str(report.iterations),
        ]
    )
    (out / f"{s.name}_tune.csv").write_text(f"{header}\n{row}\n")
    print(row)
    return 0


def _set_axis(doc: dict, axis: str, value: float) -> dict:
    parts = axis.split(".")
    node = doc
    for p in parts[:-1]:
        if not isinstance(node, dict) or p not in node:
            raise AxisError(f"axis '{axis}' not found in scenario")
        node = node[p]
    leaf = parts[-1]
    if not isinstance(node, dict) or leaf not in node:
        raise AxisError(f"axis '{axis}' not found in scenario")
    if not isinstance(node[leaf], (int, float)) or isinstance(node[leaf], bool):
        raise AxisError(f"axis '{axis}' is not numeric")
    node[leaf] = value
    return doc


def _sweep_point(payload):
    s, hold_sic, held = payload
    if hold_sic:
        sic, downlink = held, None
    else:
        downlink = run_downlink(s)
        sic = auto_tune(s, downlink=downlink).refined
    result = run_full(s, sic, downlink=downlink)
    return _metrics_row(s, result.metrics, sic)


def cmd_sweep(args) -> int:
    s = _load(args)
    out = _out_dir(args)
    try:
        values = [float(v) for v in args.values.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise AxisError(f"values must be numeric: {exc}") from exc
    if not values:
        raise AxisError("values list is empty")
    points = []
    for v in sorted(values):
        doc = _set_axis(scenario_to_dict(s), args.axis, v)
        points.append((v, dict_to_scenario(doc)))
    held = auto_tune(s).refined if args.hold_sic else None
    payloads = [(sp, args.hold_sic, held) for _, sp in points]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_point, payloads))
    else:
        rows = [_sweep_point(p) for p in payloads]
    axis_tag = args.axis.replace(".", "_")
    header = f"# axis={args.axis}\n# {args.axis},{_METRIC_COLS}"
    body = "\n".join(f"{v:.6f},{row}" for (v, _), row in zip(points, rows))
    (out / f"{s.name}_sweep_{axis_tag}.csv").write_text(f"{header}\n{body}\n")
    print(body)
    return 0


def _optical_psd(grid, rails, rbw):
    """Two-sided Welch PSD (dBm/Hz, fftshifted) of complex optical envelopes, summed."""
    nperseg = welch_segment(grid, rbw)
    total = 0.0
    for env in rails:
        freqs, pxx = scipy.signal.welch(
            env,
            fs=grid.sample_rate,
            window="hann",
            nperseg=nperseg,
            noverlap=nperseg // 2,
            detrend=False,
            return_onesided=False,
            scaling="density",
        )
        total = total + pxx
    return np.fft.fftshift(freqs), psd_to_dbm_per_hz(np.fft.fftshift(total))


def cmd_spectrum(args) -> int:
    s = _load(args)
    out = _out_dir(args)
    if args.tap not in _TAPS:
        raise TapError(f"unknown tap '{args.tap}'; choose from {', '.join(_TAPS)}")
    if args.tap in ("dp_bpsk_out", "polarizer_out"):
        taps = downlink_taps(s)
        field = taps[args.tap]
        rails = [field.env_x, field.env_y] if args.tap == "dp_bpsk_out" else [field.env_x]
        freqs, psd = _optical_psd(field.grid, rails, s.rbw)
        label = f"{args.tap} optical envelope (Hz offset from carrier)"
    elif args.tap == "ru_y_mod":
        rf, ru = run_downlink(s)
        received = make_received_signal(rf, s.si_path, build_soi_waveform(s))
        y_mod = remodulate(ru, received, s)
        freqs, psd = _optical_psd(s.grid, [y_mod.env_y], s.rbw)
        label = "ru_y_mod optical envelope (Hz offset from carrier)"
    else:
        est = run_full(s, SicSettings()).spectrum_without_sic
        freqs, psd = est.freqs, est.psd
        label = "bpd_out electrical PSD (no cancellation)"
    _write_spectrum(out / f"{s.name}_{args.tap}.csv", freqs, psd, label)
    print(f"{s.name}_{args.tap}.csv")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rofsim",
        description="Photonic self-interference-cancellation link simulator",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("scenario", help="scenario file path")
        p.add_argument("--out", default=None, help="output directory (default $ROFSIM_OUT or .)")
        p.add_argument(
            "--seed",
            type=int,
            default=None,
            help="run label written to the CSVs (only the data_seed keys feed the RNG)",
        )

    p_sim = sub.add_parser("simulate", help="run the full link once")
    common(p_sim)
    p_sim.add_argument("--auto-tune", action="store_true", help="tune SIC settings first")
    p_sim.add_argument("--wideband", action="store_true", help="tune in wideband mode")
    p_sim.add_argument("--alpha", type=float, default=0.0, help="manual attenuation")
    p_sim.add_argument("--tau2-ns", type=float, default=0.0, help="manual delay, ns")
    p_sim.add_argument(
        "--assert-depth",
        type=float,
        default=None,
        metavar="DB",
        help="exit 4 unless depth reaches this many dB",
    )

    p_tune = sub.add_parser("tune", help="seed and refine the SIC settings")
    common(p_tune)
    p_tune.add_argument("--wideband", action="store_true", help="tune in wideband mode")

    p_sweep = sub.add_parser("sweep", help="re-run over an axis of scenario values")
    common(p_sweep)
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel workers")
    p_sweep.add_argument("--axis", required=True, help="dotted scenario key, e.g. downlink_fiber.length_km")
    p_sweep.add_argument("--values", required=True, help="comma-separated numeric values")
    p_sweep.add_argument(
        "--hold-sic",
        action="store_true",
        help="tune once on the base scenario instead of per point",
    )

    p_spec = sub.add_parser("spectrum", help="emit the PSD at a named tap")
    common(p_spec)
    p_spec.add_argument("--tap", required=True, help="|".join(_TAPS))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "tune": cmd_tune,
        "sweep": cmd_sweep,
        "spectrum": cmd_spectrum,
    }
    try:
        return handlers[args.command](args)
    except (ScenarioError, AxisError, TapError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SimulationError, RofsimError) as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
