"""The program names that the benchmark in perfbench/ wraps or reads.

perfbench traces the stages by wrapping module attributes; a name that is
gone is only listed as absent there, and its per-layer metric silently reads
0. These tests turn such a rename into a failure.
"""

import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import rofsim.cli
import rofsim.link
import rofsim.signal_core
from rofsim.scenario import bundled_scenario_dir, dict_to_scenario, load_scenario, save_scenario
from rofsim.signal_core import QamSignalSpec, TimeGrid
from rofsim.tuner import TuneReport, auto_tune

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name: str):
    """perfbench/<name>.py, loaded by path; registered, so its dataclasses resolve."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_perfbench("spans")


@pytest.mark.parametrize("span, layer, module_name, attr", load_spans().SPANS)
def test_span_target_resolves(span, layer, module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(getattr(module, cls_name).__dict__.get(meth))
    else:
        assert callable(getattr(module, attr, None))


def test_every_workload_input_loads():
    # perfbench writes `soi.data_seed` into every SOI, fig7a's tone SOI
    # included, and reads `soi.kind`
    workloads = load_perfbench("workloads")
    kinds = {}
    for seed in (1, 2):
        for name in sorted({n for names in workloads.INPUTS.values() for n in names}):
            s = dict_to_scenario(workloads.make_input(name, seed, bundled_scenario_dir()))
            kinds[name] = None if s.soi is None else s.soi.kind
    assert kinds["fig7a"] == "tone" and kinds["fig7c-qam-soi"] == "qam"


def test_values_the_runner_reads():
    assert rofsim.link._FFT_WORKERS == -1
    assert "iterations" in {f.name for f in dataclasses.fields(TuneReport)}


def test_traced_simulate_reaches_every_stage(tmp_path):
    # a refactor that routes work around a wrapped name would read 0 here;
    # 2**19 samples is the shortest record holding 64 symbols at 10 MBaud
    s = dataclasses.replace(
        load_scenario(bundled_scenario_dir() / "fig7c.scenario"),
        grid=TimeGrid(sample_rate=64e9, n_samples=2**19),
        soi=QamSignalSpec(symbol_rate=10e6, power_dbm=-22.0, rolloff=0.35, seed=7),
    )
    path = tmp_path / "fig7c.scenario"
    save_scenario(s, path)
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        code = rofsim.cli.main(["simulate", str(path), "--auto-tune", "--out", str(tmp_path)])
    finally:
        tracer.restore()
    assert code == 0
    for span in (
        "link.downlink",
        "link.received",
        "link.evaluator_build",
        "link.outputs",
        "tuner.objective",
        "signal_core.demodulate_evm",
    ):
        assert tracer.calls[span] > 0, span
    # tuning and then running one link computes its downlink and builds its
    # SI-only SIC stage once
    assert tracer.calls["link.downlink"] == 1
    assert tracer.calls["link.evaluator_build"] == 1
    # full-rate: the QAM IF drive 1, the QAM SOI 1, the EVM's mix and lag search
    # 2; each chirp-z on the RRC band makes 3 short transforms: the drive's,
    # the SOI's, and the EVM's reference spectrum and symbol instants
    assert tracer.calls["fft.complex"] == (1 + 1 + 2) + 3 * 4


def test_tuning_links_that_share_the_lo_modulates_it_once(monkeypatch):
    # the `tune` workload's pair: fig7c and wideband differ in their IF drive
    # and SIC fields, and share the laser, the LO, v_pi and the domain, so the
    # LO branch is built once: one tone drive (both IFs are QAM) and five SSB
    # modulations, the LO's, each link's IF and each SIC stage's re-modulation
    grid = TimeGrid(sample_rate=64e9, n_samples=2**19)
    links = [(dataclasses.replace(load_scenario(bundled_scenario_dir() / f"{name}.scenario"),
                                  grid=grid), wideband)
             for name, wideband in (("fig7c", False), ("wideband", True))]
    tones = []
    make_tone = rofsim.signal_core.make_tone
    monkeypatch.setattr(rofsim.signal_core, "make_tone",
                        lambda *a: tones.append(a) or make_tone(*a))
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        for s, wideband in links:
            auto_tune(s, wideband=wideband)
    finally:
        tracer.restore()
    assert len(tones) == 1
    assert tracer.calls["optics.dd_mzm_ssb"] == 5
    assert tracer.calls["optics.dp_bpsk_modulate"] == 2


def traced_main(argv):
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        code = rofsim.cli.main(argv)
    finally:
        tracer.restore()
    assert code == 0
    return tracer


@pytest.fixture
def fig8c_file(tmp_path):
    # fig8c, 4.1 km each way, on the shortest record holding 64 symbols at 10 MBaud
    s = dataclasses.replace(
        load_scenario(bundled_scenario_dir() / "fig8c.scenario"),
        grid=TimeGrid(sample_rate=64e9, n_samples=2**19),
    )
    path = tmp_path / "fig8c.scenario"
    save_scenario(s, path)
    return path


def sweep_argv(path, out, axis, values, jobs=1):
    return ["sweep", str(path), "--axis", axis, "--values", values, "--hold-sic",
            "--jobs", str(jobs), "--out", str(out)]


def test_held_fiber_sweep_reuses_each_stage(tmp_path, fig8c_file):
    # the base point (4.1 km) runs first and reuses what tuning kept; the
    # other lengths reuse the modulator output and compute one downlink each
    argv = sweep_argv(fig8c_file, tmp_path / "j1", "downlink_fiber.length_km", "10,0,4.1")
    tracer = traced_main(argv)
    assert tracer.calls["optics.dp_bpsk_modulate"] == 1
    assert tracer.calls["link.downlink"] == 3
    assert tracer.calls["link.evaluator_build"] == 3
    # the QAM drive's one full-rate transform and the three short ones of its
    # chirp-z, the kept modulator spectra, then per point the polarizer
    # output, the RU Y rail, the reference arm and the signal arm's pair
    assert tracer.calls["fft.complex"] == 1 + 3 + 2 + 3 * 5
    # the link chains the optics elements: per point one downlink fiber (0 km
    # included), one polarizer and three photodiodes (the downlink's and the
    # two SIC arms'), and the RU's beam splitter once per SIC arm; the one
    # modulation adds the CO modulator's polarization beam combiner
    assert tracer.calls["optics.fiber_propagate"] == 3
    assert tracer.calls["optics.polarizer"] == 3
    assert tracer.calls["optics.pbs_pbc"] == 1 + 3 * 2
    assert tracer.calls["optics.photodetect"] == 3 * 3
    csv = "fig8c_sweep_downlink_fiber_length_km.csv"
    serial = (tmp_path / "j1" / csv).read_bytes()
    assert [line.split(b",")[0] for line in serial.splitlines()[2:]] == [
        b"0.000000", b"4.100000", b"10.000000"
    ]
    argv = sweep_argv(fig8c_file, tmp_path / "j2", "downlink_fiber.length_km", "10,0,4.1", 2)
    assert rofsim.cli.main(argv) == 0
    assert (tmp_path / "j2" / csv).read_bytes() == serial


def test_held_uplink_sweep_computes_one_downlink(tmp_path, fig8c_file):
    argv = sweep_argv(fig8c_file, tmp_path, "si_path.delay_ns", "0.5,0.6,0.7")
    tracer = traced_main(argv)
    assert tracer.calls["link.downlink"] == 1
    assert tracer.calls["optics.dp_bpsk_modulate"] == 1
    assert tracer.calls["link.evaluator_build"] == 3  # the base (0.6 ns) and two more
