"""tools/cli_outputs.py: every CLI call of the comparison set parses and
reads a bundled scenario file."""

import importlib.util
from pathlib import Path

from rofsim.cli import build_parser
from rofsim.scenario import bundled_scenario_dir, bundled_scenarios

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("cli_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_call_parses_and_names_a_bundled_file(tmp_path):
    argvs = load_tool().cli_argvs(tmp_path)
    parsed = [build_parser().parse_args(argv) for argv in argvs]
    for args in parsed:
        path = Path(args.scenario)
        assert path.parent == bundled_scenario_dir() and path.is_file()
        assert Path(args.out).parent == tmp_path
    commands = [args.command for args in parsed]
    n_scenarios = len(bundled_scenarios())
    assert commands == ["simulate"] * n_scenarios + ["tune"] + ["sweep"] * 2 + ["spectrum"] * 8
    simulated = {Path(args.scenario).stem: args.wideband for args in parsed[:n_scenarios]}
    assert simulated == {path.stem: path.stem == "wideband" for path in bundled_scenarios()}


def test_usage_without_an_output_directory(capsys):
    assert load_tool().main([]) == 2
    assert "usage" in capsys.readouterr().err
