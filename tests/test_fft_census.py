"""tools/fft_census.py: the transforms a cold tune and run makes, counted by
kind at the full length and apart when shorter, and the SOI configurations
that count pins."""

import dataclasses
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np
import scipy.fft

from rofsim.link import LinkScenario, SicSettings, run_full, uplink_evaluator
from rofsim.scenario import bundled_scenario_dir, load_scenario
from rofsim.signal_core import QamSignalSpec, TimeGrid, ToneSpec, dbm_to_amplitude

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fft_census.py"
GRID = TimeGrid(sample_rate=64e9, n_samples=2**19)  # 64 symbols at 10 MBaud


def load_tool():
    spec = importlib.util.spec_from_file_location("fft_census", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bundled(name: str) -> LinkScenario:
    return dataclasses.replace(load_scenario(bundled_scenario_dir() / f"{name}.scenario"), grid=GRID)


def test_counts_by_kind_and_length():
    counts = Counter()
    with load_tool().counting(counts, 64):
        x = np.ones(64)
        scipy.fft.irfft(scipy.fft.rfft(x), 64)
        scipy.fft.ifft(scipy.fft.fft(x, 32))
        scipy.fft.rfft(np.ones((3, 16)), axis=-1)
    assert counts == Counter(rfft=1, irfft=1, short=3)
    assert scipy.fft.rfft.__module__.startswith("scipy")  # the originals are back


def test_cold_fig7a_tune_and_run():
    # the 6 GHz LO branch is built on 32 samples and the 8 GHz tone SOI's
    # SOI-only pass on 32: auto_tune makes the IF branch's hybrid pair, the
    # SI-only stage's four real transforms and the BPF's rfft, plus the QAM
    # IF's complex one; run_full makes only the SI + SOI pass's three
    result = load_tool().census(bundled("fig7a"))
    tune, run = result["auto_tune"], result["run_full"]
    assert (tune["rfft"] + tune["irfft"], tune["fft"] + tune["ifft"]) == (7, 1)
    assert (run["rfft"] + run["irfft"], run["fft"] + run["ifft"]) == (3, 0)
    assert run["short"] > 0 and 0.0 < result["peak_mib"] < 100.0


def test_soi_passes_make_no_more_full_rate_transforms():
    # full-rate real transforms of run_full with the SI-only stage kept, on
    # fig8c: 4.1 km each way, whose 8.2 GHz tone SOI (41/320 of fs) repeats
    # only on the record. When the SOI was delayed in the time domain, a
    # delay added an rfft/irfft pair and the SOI-only pass took its drive
    # from the delayed samples; the counts were then, in the order below,
    # 6 8 7 9 and 7 9 8 10.
    census = load_tool()
    s = bundled("fig8c")
    sois = (ToneSpec(amplitude=dbm_to_amplitude(-22.0), frequency=0.0),
            QamSignalSpec(symbol_rate=10e6, power_dbm=-22.0, seed=7))
    counts = []
    for phi in (None, -1.0):
        uplink_evaluator(s, phi)
        for soi in sois:
            for delay in (0.0, 0.1e-9):
                c = Counter()
                link = dataclasses.replace(s, soi=soi, soi_delay=delay)
                with census.counting(c, s.grid.n_samples):
                    run_full(link, SicSettings(0.5, 0.6e-9, rf_phase_comp=phi))
                counts.append(c["rfft"] + c["irfft"])
    # tone, tone 0.1 ns late, QAM, QAM 0.1 ns late; without, then with, the
    # phase shifter
    assert counts == [6, 7, 7, 8, 7, 7, 8, 8]


def test_main_prints_each_phase_and_the_peak(capsys):
    assert load_tool().main(["fig6a"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["scenario", "phase", "rfft", "irfft", "fft", "ifft", "short"]
    assert [line.split()[:2] for line in lines[1:]] == [
        ["fig6a", "auto_tune"], ["fig6a", "run_full"], ["fig6a", "peak"]]


def test_usage_and_unknown_names(capsys):
    tool = load_tool()
    assert tool.main([]) == 2
    assert "usage" in capsys.readouterr().err
    assert tool.main(["fig6a", "nope"]) == 2
    assert "nope" in capsys.readouterr().err
