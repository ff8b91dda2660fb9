"""Count the transforms a cold tune and run of bundled scenarios makes.

    python tools/fft_census.py NAME...

For each named bundled scenario (`fig7a`, `fig8c`, ...), with every kept
link stage emptied first, runs `auto_tune` (wideband for `wideband`, as the
CLI set in tools/cli_outputs.py does) and then `run_full` at the tuned
settings. Each phase's `scipy.fft` calls are counted by kind (rfft, irfft,
fft, ifft) at the full length, the scenario's `n_samples`, and every
transform of another length is counted apart as short. The peak of
`tracemalloc` over both phases, above what was allocated before them, is
printed with the counts. Exits 2 on an unknown name.
"""

from __future__ import annotations

import contextlib
import sys
import tracemalloc
from collections import Counter

import scipy.fft

import rofsim.link
from rofsim.link import LinkScenario, run_full
from rofsim.scenario import bundled_scenario_dir, load_scenario
from rofsim.tuner import auto_tune

KINDS = ("rfft", "irfft", "fft", "ifft")


def transform_length(kind: str, x, n=None, axis=-1) -> int:
    """Length of the transform `kind` makes of `x`: `n` when given, else the
    input's length along `axis` (for irfft, the real output's 2*(m - 1))."""
    if n is not None:
        return n
    m = x.shape[axis]
    return 2 * (m - 1) if kind == "irfft" else m


@contextlib.contextmanager
def counting(counts: Counter, n_samples: int):
    """Wrap the transforms of `scipy.fft` so that each call adds one to
    counts[kind] at length `n_samples` and to counts["short"] otherwise."""
    originals = {kind: getattr(scipy.fft, kind) for kind in KINDS}

    def wrapped(kind, transform):
        def call(x, n=None, axis=-1, *args, **kwargs):
            full = transform_length(kind, x, n, axis) == n_samples
            counts[kind if full else "short"] += 1
            return transform(x, n, axis, *args, **kwargs)
        return call

    for kind, transform in originals.items():
        setattr(scipy.fft, kind, wrapped(kind, transform))
    try:
        yield counts
    finally:
        for kind, transform in originals.items():
            setattr(scipy.fft, kind, transform)


def census(s: LinkScenario, wideband: bool = False) -> dict:
    """{"auto_tune": Counter, "run_full": Counter, "peak_mib": float} of a
    cold `auto_tune` and then `run_full` of `s`."""
    rofsim.link._kept[:] = [None] * len(rofsim.link._kept)
    result = {"auto_tune": Counter(), "run_full": Counter()}
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        with counting(result["auto_tune"], s.grid.n_samples):
            sic = auto_tune(s, wideband=wideband).refined
        with counting(result["run_full"], s.grid.n_samples):
            run_full(s, sic)
        result["peak_mib"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        if started:
            tracemalloc.stop()
        rofsim.link._kept[:] = [None] * len(rofsim.link._kept)
    return result


def report(name: str, result: dict) -> list[str]:
    lines = []
    for phase in ("auto_tune", "run_full"):
        c = result[phase]
        cells = "  ".join(f"{c[k]:>5}" for k in (*KINDS, "short"))
        lines.append(f"{name:<10} {phase:<9}  {cells}")
    lines.append(f"{name:<10} peak       {result['peak_mib']:.1f} MiB")
    return lines


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/fft_census.py NAME...", file=sys.stderr)
        return 2
    paths = [bundled_scenario_dir() / f"{name}.scenario" for name in argv]
    missing = [p.stem for p in paths if not p.is_file()]
    if missing:
        print(f"fft_census: no bundled scenario {', '.join(missing)}", file=sys.stderr)
        return 2
    print(f"{'scenario':<10} {'phase':<9}  " + "  ".join(f"{k:>5}" for k in (*KINDS, "short")))
    for path in paths:
        result = census(load_scenario(path), wideband=path.stem == "wideband")
        print("\n".join(report(path.stem, result)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
