"""Write the set of rofsim CLI outputs on which two versions are compared.

    python tools/cli_outputs.py OUT_DIR

Runs, through `rofsim.cli.main` in one process, on the bundled scenarios of
the rofsim it imports:

- `simulate --auto-tune` of every bundled scenario (`--wideband` for
  wideband), into OUT_DIR/simulate;
- `tune` of fig8c, into OUT_DIR/tune;
- the held fig8c sweeps over downlink_fiber.length_km 0,4.1,10 and
  uplink_fiber.length_km 0,4.1, into OUT_DIR/sweep;
- the four `spectrum` taps of fig7a and fig8c, into OUT_DIR/spectrum.

One process runs them all, so later runs reuse the stages the link keeps,
as a user's session would. Compare two such directories, for example one
written with each version's `src` on PYTHONPATH, with
`python tools/compare_outputs.py A B`. Exits with the first non-zero CLI
exit code, else 0.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from rofsim.cli import _TAPS, main as cli_main
from rofsim.scenario import bundled_scenario_dir, bundled_scenarios

SWEEPS = (("downlink_fiber.length_km", "0,4.1,10"), ("uplink_fiber.length_km", "0,4.1"))
SPECTRUM_SCENARIOS = ("fig7a", "fig8c")


def cli_argvs(out: Path) -> list[list[str]]:
    """Every CLI call of the set, writing under `out`."""
    fig8c = str(bundled_scenario_dir() / "fig8c.scenario")
    argvs = [["simulate", str(path), "--auto-tune", "--out", str(out / "simulate")]
             + (["--wideband"] if path.stem == "wideband" else [])
             for path in bundled_scenarios()]
    argvs.append(["tune", fig8c, "--out", str(out / "tune")])
    argvs += [["sweep", fig8c, "--axis", axis, "--values", values, "--hold-sic",
               "--out", str(out / "sweep")] for axis, values in SWEEPS]
    argvs += [["spectrum", str(bundled_scenario_dir() / f"{name}.scenario"), "--tap", tap,
               "--out", str(out / "spectrum")] for name in SPECTRUM_SCENARIOS for tap in _TAPS]
    return argvs


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/cli_outputs.py OUT_DIR", file=sys.stderr)
        return 2
    for cli_argv in cli_argvs(Path(argv[0])):
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(cli_argv)
        print(f"{code} rofsim {' '.join(cli_argv)}")
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
