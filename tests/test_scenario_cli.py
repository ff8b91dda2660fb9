"""Scenario file round-trips and command-line interface behavior."""

import dataclasses

import numpy as np
import pytest
import scipy.signal
import yaml

import rofsim.link
from rofsim.cli import main
from rofsim.errors import ScenarioError
from rofsim.scenario import (
    bundled_scenario_dir,
    bundled_scenarios,
    load_scenario,
    save_scenario,
)
from rofsim.signal_core import TimeGrid, ToneSpec

SMALL_GRID = TimeGrid(sample_rate=64e9, n_samples=2**18)


@pytest.fixture
def small_scenario(tmp_path):
    s = load_scenario(bundled_scenario_dir() / "fig6a.scenario")
    s = dataclasses.replace(s, grid=SMALL_GRID)
    path = tmp_path / "small.scenario"
    save_scenario(s, path)
    return path


class TestScenarioFiles:
    def test_load_bundled_example(self):
        s = load_scenario(bundled_scenario_dir() / "fig6a.scenario")
        assert isinstance(s.if_signal, ToneSpec)
        assert s.f_if == pytest.approx(2e9)
        assert s.f_lo == pytest.approx(5e9)
        assert s.si_path.delay == pytest.approx(1e-9)

    def test_round_trip_every_bundled_scenario(self, tmp_path):
        for path in bundled_scenarios():
            s = load_scenario(path)
            copy = tmp_path / path.name
            save_scenario(s, copy)
            assert load_scenario(copy) == s

    def test_at_least_thirteen_bundled(self):
        assert len(bundled_scenarios()) >= 13

    def test_panel_coverage(self):
        names = {p.stem for p in bundled_scenarios()}
        expected = {
            "fig5a", "fig5b",
            "fig6a", "fig6b", "fig6c", "fig6d",
            "fig7a", "fig7b", "fig7c", "fig7d",
            "fig8a", "fig8b", "fig8c", "fig8d",
            "wideband",
        }
        assert expected <= names

    def test_unknown_key_rejected_by_name(self, tmp_path, small_scenario):
        doc = yaml.safe_load(small_scenario.read_text())
        doc["foo"] = 1
        bad = tmp_path / "bad.scenario"
        bad.write_text(yaml.safe_dump(doc))
        with pytest.raises(ScenarioError, match="foo"):
            load_scenario(bad)

    def test_unknown_nested_key_rejected(self, tmp_path, small_scenario):
        doc = yaml.safe_load(small_scenario.read_text())
        doc["lo"]["chirp"] = 0.1
        bad = tmp_path / "bad.scenario"
        bad.write_text(yaml.safe_dump(doc))
        with pytest.raises(ScenarioError, match="chirp"):
            load_scenario(bad)

    def test_negative_frequency_rejected(self, tmp_path, small_scenario):
        doc = yaml.safe_load(small_scenario.read_text())
        doc["lo"]["frequency_ghz"] = -1.0
        bad = tmp_path / "bad.scenario"
        bad.write_text(yaml.safe_dump(doc))
        with pytest.raises(Exception):
            load_scenario(bad)

    def test_missing_section_rejected(self, tmp_path, small_scenario):
        doc = yaml.safe_load(small_scenario.read_text())
        del doc["lo"]
        bad = tmp_path / "bad.scenario"
        bad.write_text(yaml.safe_dump(doc))
        with pytest.raises(ScenarioError):
            load_scenario(bad)


class TestCliSimulate:
    def test_manual_settings_outputs(self, tmp_path, small_scenario):
        out = tmp_path / "out"
        rc = main(["simulate", str(small_scenario), "--out", str(out)])
        assert rc == 0
        metrics = (out / "fig6a_metrics.csv").read_text().splitlines()
        assert metrics[0].startswith("# name,seed,version,depth_db")
        row = metrics[1].split(",")
        assert row[0] == "fig6a"
        for tag in ("with_sic", "without_sic"):
            spec = (out / f"fig6a_spectrum_{tag}.csv").read_text().splitlines()
            assert spec[0].startswith("#") and spec[1].startswith("#")
            float(spec[2].split(",")[0])  # parses as numbers

    def test_repeat_runs_byte_identical(self, tmp_path, small_scenario):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["simulate", str(small_scenario), "--out", str(out)]) == 0
            outs.append((out / "fig6a_metrics.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_auto_tune_runs_downlink_once(self, tmp_path, small_scenario, monkeypatch):
        calls = []
        taps = rofsim.link.downlink_taps

        def counting(s):
            calls.append(s.name)
            return taps(s)

        monkeypatch.setattr(rofsim.link, "downlink_taps", counting)
        rc = main(["simulate", str(small_scenario), "--auto-tune", "--out", str(tmp_path)])
        assert rc == 0
        assert calls == ["fig6a"]

    def test_spectra_reuse_run_full_welch(self, tmp_path, small_scenario, monkeypatch):
        # without an SOI, the CSV spectra are the SI-only estimates of run_full
        calls = []
        welch = scipy.signal.welch

        def counting(*args, **kwargs):
            calls.append(1)
            return welch(*args, **kwargs)

        monkeypatch.setattr(scipy.signal, "welch", counting)
        assert main(["simulate", str(small_scenario), "--out", str(tmp_path)]) == 0
        assert len(calls) == 2

    def test_jobs_rejected(self, tmp_path, small_scenario):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(small_scenario), "--out", str(tmp_path), "--jobs", "2"])
        assert exc.value.code == 2

    def test_seed_override_recorded(self, tmp_path, small_scenario):
        out = tmp_path / "out"
        main(["simulate", str(small_scenario), "--out", str(out), "--seed", "42"])
        row = (out / "fig6a_metrics.csv").read_text().splitlines()[1]
        assert row.split(",")[1] == "42"

    def test_assert_depth_failure_exit_4(self, tmp_path, small_scenario):
        rc = main(
            [
                "simulate", str(small_scenario),
                "--out", str(tmp_path),
                "--assert-depth", "40",
            ]
        )
        assert rc == 4  # alpha defaults to 0: no cancellation

    def test_assert_depth_pass_exit_0(self, tmp_path, small_scenario):
        rc = main(
            [
                "simulate", str(small_scenario),
                "--out", str(tmp_path),
                "--auto-tune",
                "--assert-depth", "40",
            ]
        )
        assert rc == 0

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.scenario"), "--out", str(tmp_path)]) == 2

    def test_env_out_dir(self, tmp_path, small_scenario, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("ROFSIM_OUT", str(target))
        assert main(["simulate", str(small_scenario)]) == 0
        assert (target / "fig6a_metrics.csv").exists()


class TestCliTune:
    def test_tune_writes_report(self, tmp_path, small_scenario):
        out = tmp_path / "out"
        rc = main(["tune", str(small_scenario), "--out", str(out)])
        assert rc == 0
        lines = (out / "fig6a_tune.csv").read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) == 2


class TestCliSweep:
    def test_axis_rows_in_value_order(self, tmp_path, small_scenario):
        out = tmp_path / "out"
        rc = main(
            [
                "sweep", str(small_scenario),
                "--out", str(out),
                "--axis", "si_path.gain_db",
                "--values", "30,26,28",
                "--hold-sic",
            ]
        )
        assert rc == 0
        lines = (out / "fig6a_sweep_si_path_gain_db.csv").read_text().splitlines()
        assert lines[0].startswith("#") and lines[1].startswith("#")
        values = [float(l.split(",")[0]) for l in lines[2:]]
        assert values == sorted(values) == [26.0, 28.0, 30.0]

    def test_parallel_matches_serial(self, tmp_path, small_scenario):
        texts = []
        for sub, jobs in (("s", "1"), ("p", "2")):
            out = tmp_path / sub
            rc = main(
                [
                    "sweep", str(small_scenario),
                    "--out", str(out),
                    "--axis", "si_path.delay_ns",
                    "--values", "0.5,1.0",
                    "--jobs", jobs,
                    "--hold-sic",
                ]
            )
            assert rc == 0
            texts.append((out / "fig6a_sweep_si_path_delay_ns.csv").read_text())
        assert texts[0] == texts[1]

    def test_unknown_axis_exit_2(self, tmp_path, small_scenario):
        rc = main(
            [
                "sweep", str(small_scenario),
                "--out", str(tmp_path),
                "--axis", "si_path.bogus",
                "--values", "1,2",
            ]
        )
        assert rc == 2


class TestCliSpectrum:
    @pytest.mark.parametrize("tap", ["dp_bpsk_out", "polarizer_out", "ru_y_mod", "bpd_out"])
    def test_named_taps(self, tmp_path, small_scenario, tap):
        out = tmp_path / "out"
        rc = main(["spectrum", str(small_scenario), "--out", str(out), "--tap", tap])
        assert rc == 0
        lines = (out / f"fig6a_{tap}.csv").read_text().splitlines()
        assert lines[0].startswith("#")
        assert len(lines) > 10

    def test_ru_y_mod_builds_no_evaluator(self, tmp_path, small_scenario, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("UplinkEvaluator built for the ru_y_mod tap")

        monkeypatch.setattr(rofsim.link.UplinkEvaluator, "__init__", refuse)
        rc = main(["spectrum", str(small_scenario), "--out", str(tmp_path), "--tap", "ru_y_mod"])
        assert rc == 0

    def test_dp_bpsk_out_is_two_sided(self, tmp_path, small_scenario):
        # X rail: IF on the lower sideband; Y rail: LO on the upper sideband
        out = tmp_path / "out"
        assert main(["spectrum", str(small_scenario), "--out", str(out), "--tap", "dp_bpsk_out"]) == 0
        freqs, psd = np.loadtxt(out / "fig6a_dp_bpsk_out.csv", delimiter=",", unpack=True)
        assert freqs[0] < 0 < freqs[-1]

        def level(f):
            return psd[np.argmin(np.abs(freqs - f))]

        f_if, f_lo = 2e9, 5e9
        assert level(-f_if) > level(f_if) + 30.0
        assert level(f_lo) > level(-f_lo) + 30.0

    def test_unknown_tap_exit_2(self, tmp_path, small_scenario):
        rc = main(
            ["spectrum", str(small_scenario), "--out", str(tmp_path), "--tap", "nope"]
        )
        assert rc == 2
