"""tools/compare_outputs.py: which output files match, by how much two
spectrum CSVs differ near their peak, and by how much each numeric column of
two other CSVs differs."""

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


def test_reports_the_largest_delta_of_each_numeric_column(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    header = "# axis=x.y\n# x.y,name,version,depth_db,soi_power_dbm,tau2_ns\n"
    for d, rows in ((a, ["0.0,f,0.1.0,31.5,nan,0.123", "1.0,f,0.1.0,30.25,nan,0.125"]),
                    (b, ["0.0,f,0.1.0,31.5004,nan,0.123", "1.0,f,0.1.0,30.25,nan,0.1249"])):
        d.mkdir()
        (d / "f_sweep.csv").write_text(header + "\n".join(rows) + "\n")
        (d / "f_tune.csv").write_text("# name,depth_db\nf,1.0\nf,2.0\n")
    (b / "f_tune.csv").write_text("# name,depth_db\nf,1.0\n")
    lines, same = load_tool().compare(a, b)
    assert not same
    assert lines == [
        "differs: f_sweep.csv (max |d| x.y 0, depth_db 0.0004, soi_power_dbm 0, tau2_ns 0.0001)",
        "differs: f_tune.csv (columns or rows differ)",
    ]
