"""tools/cli_outputs.py: every CLI call of the comparison set parses and
reads a bundled scenario file or one of the SOI inputs the tool writes."""

import importlib.util
from pathlib import Path

from rofsim.cli import build_parser
from rofsim.scenario import bundled_scenario_dir, bundled_scenarios, load_scenario

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cli_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("cli_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_call_parses_and_names_a_bundled_file(tmp_path):
    argvs = load_tool().cli_argvs(tmp_path)
    parsed = [build_parser().parse_args(argv) for argv in argvs]
    generated = {"fig7c-qam-soi": "qam", "fig7a-soi-delay": "tone"}
    for args in parsed:
        path = Path(args.scenario)
        home = tmp_path / "inputs" if path.stem in generated else bundled_scenario_dir()
        assert path.parent == home and path.is_file()
        assert Path(args.out).parent == tmp_path
    commands = [args.command for args in parsed]
    n_scenarios = len(bundled_scenarios())
    assert commands == (["simulate"] * n_scenarios + ["tune"] * n_scenarios + ["sweep"] * 2
                        + ["spectrum"] * 8 + ["simulate"] * 2)
    for run in (parsed[:n_scenarios], parsed[n_scenarios:2 * n_scenarios]):
        wideband = {Path(args.scenario).stem: args.wideband for args in run}
        assert wideband == {path.stem: path.stem == "wideband" for path in bundled_scenarios()}
    # the generated inputs load, each named after its file, with an SOI of its kind
    for args in parsed[-2:]:
        assert args.auto_tune
        s = load_scenario(args.scenario)
        assert s.name == Path(args.scenario).stem and s.soi.kind == generated[s.name]
    assert load_scenario(tmp_path / "inputs" / "fig7a-soi-delay.scenario").soi_delay == 0.1e-9


def test_usage_without_an_output_directory(capsys):
    assert load_tool().main([]) == 2
    assert "usage" in capsys.readouterr().err
