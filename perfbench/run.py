"""rofsim benchmark: tune, simulate and sweep workloads at 64 GS/s x 2^20 samples.

    python3 perfbench/run.py --workload tune|simulate|sweep --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
`src/`. One process, one caller in a closed loop. Scenario inputs are
generated from `--seed` into a temporary directory under the checkout
(`.perfbench-tmp/`, removed on exit), and every CLI call writes there.

`--trace 0` sets up the workload several times, then repeats the workload for
about `--seconds` seconds (an iteration starts only if it is expected to end
in time; the first always runs) and reports the end-to-end metrics.
`--trace 1` runs one untraced iteration, then one traced set-up and one traced
iteration, and reports the per-layer metrics of the traced pair; the two
iterations must give identical outputs.

Earlier lines of standard output carry the environment, the input hashes and
every failure; the last line is the JSON result.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("tune", "simulate", "sweep")
SETUP_REPS = 3

# Per-layer metric -> (tracer table, key, unit). Tables: calls, seconds
# (span time), self (span self time), layer (layer self time).
PER_LAYER = {
    "tuner.auto_tune.s": ("seconds", "tuner.auto_tune", "s"),
    "tuner.auto_tune.narrowband.s": ("seconds", "tuner.auto_tune.narrowband", "s"),
    "tuner.auto_tune.wideband.s": ("seconds", "tuner.auto_tune.wideband", "s"),
    "tuner.self.s": ("layer", "tuner", "s"),
    "tuner.seed_settings.s": ("seconds", "tuner.seed_settings", "s"),
    "tuner.objective.calls": ("calls", "tuner.objective", "count"),
    "tuner.objective.s": ("seconds", "tuner.objective", "s"),
    "link.downlink.calls": ("calls", "link.downlink", "count"),
    "link.downlink.s": ("seconds", "link.downlink", "s"),
    "link.evaluator_build.calls": ("calls", "link.evaluator_build", "count"),
    "link.evaluator_build.s": ("seconds", "link.evaluator_build", "s"),
    "link.received.s": ("seconds", "link.received", "s"),
    "link.outputs.s": ("seconds", "link.outputs", "s"),
    "link.run_full.s": ("seconds", "link.run_full", "s"),
    "link.run_full.self.s": ("self", "link.run_full", "s"),
    "optics.dp_bpsk_modulate.s": ("seconds", "optics.dp_bpsk_modulate", "s"),
    "optics.dd_mzm_ssb.s": ("seconds", "optics.dd_mzm_ssb", "s"),
    "optics.fiber_propagate.calls": ("calls", "optics.fiber_propagate", "count"),
    "optics.fiber_propagate.s": ("seconds", "optics.fiber_propagate", "s"),
    "optics.photodetect.s": ("seconds", "optics.photodetect", "s"),
    "optics.polarizer.s": ("seconds", "optics.polarizer", "s"),
    "optics.pbs_pbc.s": ("seconds", "optics.pbs_pbc", "s"),
    "signal_core.synth.s": ("seconds", "signal_core.synth", "s"),
    "signal_core.filter_band.calls": ("calls", "signal_core.filter_band", "count"),
    "signal_core.filter_band.s": ("seconds", "signal_core.filter_band", "s"),
    "signal_core.fractional_delay.s": ("seconds", "signal_core.fractional_delay", "s"),
    "signal_core.phase_shift.s": ("seconds", "signal_core.phase_shift", "s"),
    "signal_core.welch_psd.calls": ("calls", "signal_core.welch_psd", "count"),
    "signal_core.welch_psd.s": ("seconds", "signal_core.welch_psd", "s"),
    "signal_core.demodulate_evm.calls": ("calls", "signal_core.demodulate_evm", "count"),
    "signal_core.demodulate_evm.s": ("seconds", "signal_core.demodulate_evm", "s"),
    "scenario.load.s": ("seconds", "scenario.load", "s"),
    "scenario.roundtrip.s": ("seconds", "scenario.roundtrip", "s"),
    "cli.main.s": ("seconds", "cli.main", "s"),
    "cli.self.s": ("layer", "cli", "s"),
    "fft.complex.calls": ("calls", "fft.complex", "count"),
    "fft.complex.s": ("seconds", "fft.complex", "s"),
    "fft.real.calls": ("calls", "fft.real", "count"),
    "fft.real.s": ("seconds", "fft.real", "s"),
}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit() -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy
    import rofsim
    import rofsim.link

    workers = getattr(rofsim.link, "_FFT_WORKERS", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "rofsim": getattr(rofsim, "__version__", "unknown"),
        "using_numba": getattr(rofsim, "USING_NUMBA", "absent"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "fft_workers_arg": workers,
        "fft_threads": os.cpu_count() if workers == -1 else workers,
        "git_commit": git_commit(),
    }


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_untraced(args, workloads, tmp: Path, import_s: float, info: dict) -> dict:
    setup_s = []
    for rep in range(SETUP_REPS):
        t0 = time.perf_counter()
        prep = workloads.setup(args.workload, args.seed, tmp / f"setup{rep}")
        setup_s.append(time.perf_counter() - t0)
    info["inputs_sha256"] = prep.sha256
    iterations = []
    t_begin = time.perf_counter()
    while True:
        iterations.append(workloads.iterate(args.workload, prep, tmp / f"out{len(iterations)}"))
        elapsed = time.perf_counter() - t_begin
        if elapsed + max(it.seconds for it in iterations) > args.seconds:
            break
    depths = [d for it in iterations for d in it.depths]
    info["setup_rep_s"] = setup_s
    info["iteration_s"] = [it.seconds for it in iterations]
    info["failures"] = [f for it in iterations for f in it.failures]
    info["outputs"] = iterations[0].outputs
    return {
        "correct": not info["failures"],
        "attempted": sum(it.attempted for it in iterations),
        "failed": sum(it.failed for it in iterations),
        "metrics": {
            "setup_s": metric(import_s + statistics.median(setup_s), "s"),
            "wall_s": metric(statistics.median(info["iteration_s"]), "s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
            ),
            "depth_db_min": metric(min(depths, default=0.0), "dB"),
        },
    }


def run_traced(args, workloads, tmp: Path, info: dict) -> dict:
    from spans import Tracer

    prep = workloads.setup(args.workload, args.seed, tmp / "setup")
    plain = workloads.iterate(args.workload, prep, tmp / "out-untraced")
    tracer = Tracer()
    tracer.install()
    try:
        prep_traced = workloads.setup(args.workload, args.seed, tmp / "setup-traced")
        traced = workloads.iterate(args.workload, prep_traced, tmp / "out-traced")
    finally:
        tracer.restore()
    info["inputs_sha256"] = prep.sha256
    info["iteration_s"] = {"untraced": plain.seconds, "traced": traced.seconds}
    info["absent"] = tracer.absent
    info["outputs"] = traced.outputs
    failures = plain.failures + traced.failures
    if prep.outputs() != prep_traced.outputs():
        failures.append("setup: traced seed settings differ from untraced")
    if plain.outputs != traced.outputs:
        failures.append("trace: traced outputs differ from untraced")
    info["failures"] = failures

    tables = {
        "calls": tracer.calls,
        "seconds": tracer.seconds,
        "self": tracer.self_seconds,
        "layer": tracer.layer_self_seconds,
    }
    metrics = {
        name: metric(tables[table].get(key, 0), unit)
        for name, (table, key, unit) in PER_LAYER.items()
    }
    calls = tracer.calls.get("tuner.objective", 0)
    metrics["tuner.objective.s_per_call"] = metric(
        tracer.seconds.get("tuner.objective", 0.0) / calls if calls else 0.0, "s"
    )
    metrics["signal_core.evm_percent"] = metric(max(traced.evm, default=0.0), "%")
    metrics["fft.bytes_computed"] = metric(tracer.fft_bytes, "B")
    metrics["trace.overhead_s"] = metric(traced.seconds - plain.seconds, "s")
    return {
        "correct": not failures,
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "rofsim" / "__init__.py").is_file():
        print(f"perfbench: no rofsim package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads  # imports numpy, scipy and rofsim

    import rofsim

    if not Path(rofsim.__file__).resolve().is_relative_to(src):
        print(f"perfbench: rofsim imported from {rofsim.__file__}, not {src}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - T_START
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": environment()}
    tmp_base = ROOT / ".perfbench-tmp"
    tmp_base.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_base))
    try:
        if args.trace:
            result = run_traced(args, workloads, tmp, info)
        else:
            result = run_untraced(args, workloads, tmp, import_s, info)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_base.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
