"""tools/compare_outputs.py: which output files match, and by how much two
spectrum CSVs differ near their peak."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def spectrum_csv(psd) -> str:
    rows = [f"{1e6 * i:.6f},{p:.6f}" for i, p in enumerate(psd)]
    return "\n".join(["# rofsim 0 with_sic", "# frequency_hz,psd_dbm_per_hz", *rows]) + "\n"


def test_reports_identical_differing_and_missing_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "x_metrics.csv").write_text("# name\nx,1\n")
    (a / "x_spectrum.csv").write_text(spectrum_csv([-80.0, -150.0, -300.0]))
    (b / "x_spectrum.csv").write_text(spectrum_csv([-80.0, -150.5, -299.0]))
    (a / "x_tune.csv").write_text("# name\nx,2\n")
    lines, same = load_tool().compare(a, b)
    assert not same
    assert lines == [
        "identical: x_metrics.csv",
        "differs: x_spectrum.csv (max |dPSD| 0.5 dB within 100 dB of the peak; "
        "1 dB over all bins, 220.0 dB below the peak)",
        f"only in {a}: x_tune.csv",
    ]


def test_identical_directories(tmp_path):
    (tmp_path / "f.csv").write_text(spectrum_csv([-90.0, -95.0]))
    assert load_tool().main([str(tmp_path), str(tmp_path)]) == 0
