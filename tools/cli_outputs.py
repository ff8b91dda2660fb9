"""Write the set of rofsim CLI outputs on which two versions are compared.

    python tools/cli_outputs.py OUT_DIR

Runs, through `rofsim.cli.main` in one process, on the bundled scenarios of
the rofsim it imports:

- `simulate --auto-tune` of every bundled scenario (`--wideband` for
  wideband), into OUT_DIR/simulate;
- `tune` of every bundled scenario (`--wideband` for wideband), into
  OUT_DIR/tune;
- the held fig8c sweeps over downlink_fiber.length_km 0,4.1,10 and
  uplink_fiber.length_km 0,4.1, into OUT_DIR/sweep;
- the four `spectrum` taps of fig7a and fig8c, into OUT_DIR/spectrum;
- `simulate --auto-tune` of two SOI inputs it writes into OUT_DIR/inputs:
  fig7c with a 16-QAM SOI, and fig7a with its tone SOI arriving 0.1 ns late,
  into OUT_DIR/simulate.

Each input is a bundled file edited as YAML, never saved by rofsim, so both
versions run the same bytes.

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

import yaml

from rofsim.cli import _TAPS, main as cli_main
from rofsim.scenario import bundled_scenario_dir, bundled_scenarios

SWEEPS = (("downlink_fiber.length_km", "0,4.1,10"), ("uplink_fiber.length_km", "0,4.1"))
SPECTRUM_SCENARIOS = ("fig7a", "fig8c")
QAM_SOI = {"kind": "qam", "power_dbm": -22.0, "arrival_delay_ns": 0.0,
           "symbol_rate_mbaud": 10.0, "rolloff": 0.35, "data_seed": 7}


def write_soi_inputs(out: Path) -> list[Path]:
    """Write the two SOI inputs into `out`/inputs, each named after its file:
    fig7c with `QAM_SOI`, and fig7a with its tone SOI 0.1 ns late, keeping
    only the SOI keys that every version's fig7a holds."""
    def bundled(name: str) -> dict:
        return yaml.safe_load((bundled_scenario_dir() / f"{name}.scenario").read_text())

    qam, late = bundled("fig7c"), bundled("fig7a")
    qam["soi"] = dict(QAM_SOI)
    late["soi"] = {"kind": late["soi"]["kind"], "power_dbm": late["soi"]["power_dbm"],
                   "arrival_delay_ns": 0.1}
    (out / "inputs").mkdir(parents=True, exist_ok=True)
    paths = []
    for name, doc in (("fig7c-qam-soi", qam), ("fig7a-soi-delay", late)):
        doc["name"] = name
        paths.append(out / "inputs" / f"{name}.scenario")
        paths[-1].write_text(yaml.safe_dump(doc, sort_keys=False))
    return paths


def cli_argvs(out: Path) -> list[list[str]]:
    """Every CLI call of the set, writing under `out`; writes the SOI inputs."""
    fig8c = str(bundled_scenario_dir() / "fig8c.scenario")
    argvs = []
    for command, flags in (("simulate", ["--auto-tune"]), ("tune", [])):
        argvs += [[command, str(path), *flags, "--out", str(out / command)]
                  + (["--wideband"] if path.stem == "wideband" else [])
                  for path in bundled_scenarios()]
    argvs += [["sweep", fig8c, "--axis", axis, "--values", values, "--hold-sic",
               "--out", str(out / "sweep")] for axis, values in SWEEPS]
    argvs += [["spectrum", str(bundled_scenario_dir() / f"{name}.scenario"), "--tap", tap,
               "--out", str(out / "spectrum")] for name in SPECTRUM_SCENARIOS for tap in _TAPS]
    argvs += [["simulate", str(path), "--auto-tune", "--out", str(out / "simulate")]
              for path in write_soi_inputs(out)]
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
