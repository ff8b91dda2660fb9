"""Scenario file round-trips and command-line interface behavior."""

import dataclasses
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import rofsim.cli
import rofsim.link
import rofsim.scenario
import rofsim.signal_core
from rofsim.cli import main
from rofsim.errors import (
    AxisError,
    DelayRangeError,
    FilterSpecError,
    GridError,
    ScenarioError,
    SimulationError,
    TapError,
)
from rofsim.link import SelfInterferencePath, build_soi_waveform, run_full
from rofsim.optics import FiberParams
from rofsim.scenario import (
    bundled_scenario_dir,
    bundled_scenarios,
    load_scenario,
    save_scenario,
)
from rofsim.signal_core import QamSignalSpec, TimeGrid, ToneSpec
from rofsim.tuner import SicSettings

SMALL_GRID = TimeGrid(sample_rate=64e9, n_samples=2**18)


def finite(lo: float, hi: float):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


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
            assert s.description  # every bundled file describes itself
            copy = tmp_path / path.name
            save_scenario(s, copy)
            assert load_scenario(copy) == s
            assert hash(load_scenario(copy)) == hash(s)
            # the description line survives, so the file saves as it ships
            assert copy.read_text() == path.read_text()
        # a scenario without a description writes no description key
        save_scenario(dataclasses.replace(s, description=""), copy)
        assert "description" not in yaml.safe_load(copy.read_text())

    @pytest.mark.parametrize(
        "field, value, lost",
        [
            ("v_pi", float("inf"), "modulators.v_pi_volts"),
            ("if_signal", ToneSpec(amplitude=0.0, frequency=2e9), None),
        ],
        ids=["v_pi", "zero_amplitude"],
    )
    def test_save_writes_the_scenario_or_names_what_it_cannot(self, tmp_path, field, value, lost):
        # a scenario a file cannot hold cannot be built, so save writes any scenario
        s = load_scenario(bundled_scenario_dir() / "fig6a.scenario")
        path = tmp_path / "s.scenario"
        if lost is None:
            s = dataclasses.replace(s, **{field: value})
            save_scenario(s, path)
            assert load_scenario(path) == s
        else:
            with pytest.raises(ValueError, match=lost):
                dataclasses.replace(s, **{field: value})

    @settings(deadline=None, max_examples=50)
    @given(
        laser=finite(-30.0, 30.0),
        if_power=finite(-40.0, 20.0),
        if_rolloff=st.floats(0.0, 1.0, exclude_min=True),
        soi_power=finite(-80.0, 0.0),
        soi_rolloff=st.floats(0.0, 1.0, exclude_min=True),
        v_pi=st.floats(0.1, 20.0),
        lengths=st.tuples(finite(0.0, 50.0), finite(0.0, 50.0)),
        dispersion=finite(-30.0, 30.0),
        attenuation=finite(0.0, 1.0),
        edfa=finite(-10.0, 40.0),
        si_gain=finite(-80.0, 40.0),
        responsivity=st.floats(0.01, 2.0),
        seeds=st.tuples(*[st.integers(0, 2**31 - 1)] * 3),
    )
    def test_unscaled_keys_round_trip_exactly(
        self, tmp_path_factory, laser, if_power, if_rolloff, soi_power, soi_rolloff, v_pi,
        lengths, dispersion, attenuation, edfa, si_gain, responsivity, seeds,
    ):
        # every key written without a unit scale loads back as the float it held
        base = load_scenario(bundled_scenario_dir() / "fig7c.scenario")
        fibers = [FiberParams(n, dispersion, attenuation) for n in lengths]
        s = dataclasses.replace(
            base,
            seed=seeds[0],
            laser_power_dbm=laser,
            if_signal=dataclasses.replace(
                base.if_signal, power_dbm=if_power, rolloff=if_rolloff, seed=seeds[1]
            ),
            v_pi=v_pi,
            downlink_fiber=fibers[0],
            uplink_fiber=fibers[1],
            edfa_gain_db=edfa,
            si_path=dataclasses.replace(base.si_path, gain_db=si_gain),
            soi=QamSignalSpec(power_dbm=soi_power, rolloff=soi_rolloff, seed=seeds[2]),
            responsivity=responsivity,
        )
        path = tmp_path_factory.mktemp("round_trip") / "s.scenario"
        save_scenario(s, path)
        assert load_scenario(path) == s

    def test_readme_lists_every_key(self):
        # the key reference in the README is kept from the scenario key table
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("\n## Scenario files\n")[1].split("\n## ")[0]
        assert [k for k in sorted(rofsim.scenario._KEYS) if f"| `{k}` |" not in section] == []

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

    @pytest.mark.parametrize(
        "leaf, value",
        [("rolloff", -1), ("symbol_rate_mbaud", 10.0), ("data_seed", 3)],
    )
    def test_qam_key_of_a_tone_drive_rejected_by_name(self, tmp_path, small_scenario, leaf, value):
        doc = yaml.safe_load(small_scenario.read_text())
        doc["if_signal"][leaf] = value
        bad = tmp_path / "bad.scenario"
        bad.write_text(yaml.safe_dump(doc))
        with pytest.raises(ScenarioError, match=f"if_signal.{leaf}"):
            load_scenario(bad)
        assert main(["tune", str(bad), "--out", str(tmp_path)]) == 2

    def test_negative_frequency_rejected(self, tmp_path, small_scenario):
        doc = yaml.safe_load(small_scenario.read_text())
        doc["lo"]["frequency_ghz"] = -1.0
        bad = tmp_path / "bad.scenario"
        bad.write_text(yaml.safe_dump(doc))
        with pytest.raises(ScenarioError, match="lo.frequency_ghz"):
            load_scenario(bad)

    def test_missing_section_rejected(self, tmp_path, small_scenario):
        doc = yaml.safe_load(small_scenario.read_text())
        del doc["lo"]
        bad = tmp_path / "bad.scenario"
        bad.write_text(yaml.safe_dump(doc))
        with pytest.raises(ScenarioError, match="'lo'"):
            load_scenario(bad)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            # rules the scenario checks when it is built
            ("soi.kind", "ofdm", "'soi.kind' must be 'tone' or 'qam'"),
            ("downlink_fiber.length_km", -1.0, "length"),
            ("grid.n_samples", 1, "n_samples"),
            ("filters.lpf_cutoff_ghz", 2.0, "filters.lpf_cutoff_ghz"),
            # frequencies above Nyquist (32 GHz), and a sum f_if + f_lo outside the BPF
            ("if_signal.frequency_ghz", 40.0, "if_signal.frequency_ghz: .*Nyquist"),
            ("lo.frequency_ghz", 40.0, "lo.frequency_ghz: .*Nyquist"),
            ("filters.lpf_cutoff_ghz", 40.0, "filters.lpf_cutoff_ghz: .*Nyquist"),
            ("filters.bpf_high_ghz", 40.0, "filters.bpf_high_ghz: .*Nyquist"),
            ("lo.frequency_ghz", 1.0, "lo.frequency_ghz.*passband"),
            ("soi.rolloff", 2.0, "rolloff"),
            # an SI delay the SIC stage and the tuner cannot reach: a quarter
            # of the 2^18-sample record is 1.024 us
            ("si_path.delay_ns", 5000.0, "si_path.delay_ns: .*quarter of the record"),
            # values that are not numbers
            ("laser.power_dbm", None, "laser.power_dbm"),
            ("si_path.gain_db", [1, 2], "si_path.gain_db"),
            # non-finite numbers: -inf alone means "off", and only where a source can be off
            ("laser.power_dbm", float("nan"), "laser.power_dbm"),
            ("laser.power_dbm", float("inf"), "laser.power_dbm"),
            ("si_path.gain_db", float("nan"), "si_path.gain_db"),
            ("edfa.gain_db", float("nan"), "edfa.gain_db"),
            ("responsivity_a_w", float("nan"), "responsivity_a_w"),
            ("if_signal.power_dbm", float("inf"), "if_signal.power_dbm"),
            # finite values whose power rounds to zero: a dark laser, a silent SI path
            ("laser.power_dbm", -5000.0, "laser power"),
            ("si_path.gain_db", -7000.0, "SI path gain"),
            # finite values whose power overflows a float
            ("laser.power_dbm", 5000.0, "laser.power_dbm"),
            ("lo.power_dbm", 5000.0, "lo.power_dbm"),
            ("soi.power_dbm", 5000.0, "soi.power_dbm"),
            # QAM rules of the record: whole samples per symbol, at least 64 symbols
            ("soi.symbol_rate_mbaud", 7.0, "soi.symbol_rate_mbaud"),
            ("soi.symbol_rate_mbaud", 10.0, "soi.symbol_rate_mbaud.*64 symbols"),
            # integer keys take whole numbers only, never truncated
            ("grid.n_samples", 262144.5, "'grid.n_samples' must be an integer"),
            ("seed", 3.7, "'seed' must be an integer"),
            ("soi.data_seed", True, "'soi.data_seed' must be an integer"),
            ("soi", {"kind": "tone", "power_dbm": -22.0, "data_seed": True},
             "'soi.data_seed' must be an integer"),
            ("grid.n_samples", float("nan"), "'grid.n_samples' must be an integer"),
            # keys of older files, which no computed value read or which the fixed
            # sideband layout replaced: rejected by name
            ("laser.frequency_thz", 191.3, "unknown key 'laser.frequency_thz'"),
            ("edfa.position", "ru", "unknown key 'edfa.position'"),
            ("modulators.if_sideband", "middle", "unknown key 'modulators.if_sideband'"),
            ("modulators.lo_sideband", "upper", "unknown key 'modulators.lo_sideband'"),
            ("modulators.uplink_sideband", "lower", "unknown key 'modulators.uplink_sideband'"),
            # QAM keys of a tone SOI, which no computed value reads: rejected by name
            ("soi", {"kind": "tone", "power_dbm": -22.0, "symbol_rate_mbaud": 10.0},
             "'soi.symbol_rate_mbaud' is not read when soi.kind is tone"),
            ("soi", {"kind": "tone", "power_dbm": -22.0, "rolloff": 0.35},
             "'soi.rolloff' is not read when soi.kind is tone"),
            # a QAM IF drive whose power overflows a float
            ("if_signal", {"kind": "qam", "frequency_ghz": 2.0, "power_dbm": 5000.0,
                           "symbol_rate_mbaud": 20.0}, "if_signal.power_dbm"),
        ],
    )
    def test_broken_value_is_a_scenario_error(self, tmp_path, small_scenario, key, value, message):
        doc = yaml.safe_load(small_scenario.read_text())
        if key.startswith("soi."):
            doc["soi"] = {"kind": "qam", "power_dbm": -22.0}
        *sections, leaf = key.split(".")
        node = doc
        for section in sections:
            node = node[section]
        node[leaf] = value
        bad = tmp_path / "bad.scenario"
        bad.write_text(yaml.safe_dump(doc))
        with pytest.raises(ScenarioError, match=message) as exc:
            load_scenario(bad)
        assert str(bad) in str(exc.value)
        assert main(["simulate", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("if_signal.symbol_rate_mbaud", 7.0, "integer multiple"),
            ("grid.n_samples", 2**18, "64 symbols"),
        ],
    )
    def test_qam_drive_rules_checked_on_load(self, tmp_path, key, value, message):
        # the record rules of the QAM drive fail the load, not the downlink
        doc = yaml.safe_load((bundled_scenario_dir() / "fig7c.scenario").read_text())
        section, leaf = key.split(".")
        doc[section][leaf] = value
        bad = tmp_path / "bad.scenario"
        bad.write_text(yaml.safe_dump(doc))
        with pytest.raises(ScenarioError, match=f"if_signal.symbol_rate_mbaud: .*{message}") as exc:
            load_scenario(bad)
        assert str(bad) in str(exc.value)
        assert main(["simulate", str(bad), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("soi", ["tone", "qam"])
    @pytest.mark.parametrize("section, value", [("if_signal", 2.1), ("lo", 5.0)])
    def test_soi_follows_a_replaced_drive_frequency(self, soi, section, value):
        # the SOI sits at the SI's RF frequency, f_if + f_lo, however the
        # drive frequencies were set
        doc = yaml.safe_load((bundled_scenario_dir() / "fig7a.scenario").read_text())
        if soi == "qam":
            doc["soi"] = {"kind": "qam", "power_dbm": -22.0, "data_seed": 5}
        s = rofsim.scenario.dict_to_scenario(doc)
        field = {"if_signal": "if_signal", "lo": "lo_signal"}[section]
        moved = dataclasses.replace(
            s, **{field: dataclasses.replace(getattr(s, field), frequency=value * 1e9)})
        doc[section]["frequency_ghz"] = value
        cold = rofsim.scenario.dict_to_scenario(doc)
        assert moved == cold and moved.soi.frequency == moved.f_s != s.f_s
        assert build_soi_waveform(moved).samples.tobytes() == build_soi_waveform(cold).samples.tobytes()

    def test_overflowing_laser_power_is_a_value_error(self):
        with pytest.raises(ValueError, match="laser.power_dbm"):
            rofsim.link.LinkScenario(laser_power_dbm=5000.0)


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
        welch = rofsim.signal_core._welch

        def counting(*args, **kwargs):
            calls.append(1)
            return welch(*args, **kwargs)

        monkeypatch.setattr(rofsim.signal_core, "_welch", counting)
        assert main(["simulate", str(small_scenario), "--out", str(tmp_path)]) == 0
        assert len(calls) == 2

    def test_jobs_rejected(self, tmp_path, small_scenario):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(small_scenario), "--out", str(tmp_path), "--jobs", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags, named", [
        (["--wideband"], "--wideband"),
        (["--wideband", "--alpha", "0.1"], "--wideband"),
        (["--auto-tune", "--alpha", "0.1"], "--alpha"),
        (["--auto-tune", "--tau2-ns", "0.2"], "--tau2-ns"),
        (["--auto-tune", "--wideband", "--alpha", "0"], "--alpha"),
    ], ids=["wideband", "wideband-manual", "tuned-alpha", "tuned-tau2", "tuned-wideband-alpha"])
    def test_ignored_flag_rejected(self, tmp_path, small_scenario, capsys, monkeypatch,
                                   flags, named):
        def no_downlink(*args, **kwargs):
            raise AssertionError("the downlink ran")

        monkeypatch.setattr(rofsim.link, "run_downlink", no_downlink)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", str(small_scenario), "--out", str(tmp_path), *flags])
        assert exc.value.code == 2
        assert named in capsys.readouterr().err

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

    @pytest.mark.parametrize("tau2_ns", ["nan", "inf"])
    def test_non_finite_delay_exit_2(self, tmp_path, small_scenario, capsys, monkeypatch, tau2_ns):
        monkeypatch.setattr(rofsim.link, "downlink_taps", None)  # rejected before the downlink
        argv = ["simulate", str(small_scenario), "--out", str(tmp_path),
                "--alpha", "0.1", "--tau2-ns", tau2_ns]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 2
        assert caught == []
        assert "tau2" in capsys.readouterr().err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["simulate", str(tmp_path / "nope.scenario"), "--out", str(tmp_path)]) == 2

    def test_env_out_dir(self, tmp_path, small_scenario, monkeypatch):
        target = tmp_path / "envout"
        monkeypatch.setenv("ROFSIM_OUT", str(target))
        assert main(["simulate", str(small_scenario)]) == 0
        assert (target / "fig6a_metrics.csv").exists()


def assert_if_drive_off_exits_3(path, tmp_path, capsys, command):
    """`command` on the scenario at `path` with its IF drive set to -inf dBm
    exits 3, naming the IF drive."""
    doc = yaml.safe_load(path.read_text())
    doc["if_signal"]["power_dbm"] = float("-inf")
    off = tmp_path / "off.scenario"
    off.write_text(yaml.safe_dump(doc))
    assert main([command[0], str(off), *command[1:], "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "IF drive" in err and "Traceback" not in err


class TestCliTune:
    @pytest.mark.parametrize(
        "command", [["tune"], ["simulate", "--auto-tune"]], ids=["tune", "simulate"]
    )
    def test_zero_if_drive_exit_3(self, tmp_path, small_scenario, capsys, command):
        # an IF drive of -inf dBm is off, and the analytic attenuation is undefined
        assert_if_drive_off_exits_3(small_scenario, tmp_path, capsys, command)

    @pytest.mark.parametrize(
        "command", [["tune"], ["simulate", "--auto-tune"]], ids=["tune", "simulate"]
    )
    def test_zero_qam_if_drive_exit_3(self, tmp_path, capsys, command):
        # the same for a QAM IF drive, on a grid that holds 64 of its symbols
        doc = yaml.safe_load((bundled_scenario_dir() / "fig7c.scenario").read_text())
        doc["grid"]["n_samples"] = 2**19
        path = tmp_path / "qam.scenario"
        path.write_text(yaml.safe_dump(doc))
        assert_if_drive_off_exits_3(path, tmp_path, capsys, command)

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

    def test_pool_is_capped_at_the_number_of_points(self, tmp_path, small_scenario, monkeypatch):
        workers = []

        class InProcess:
            """Records the pool size and maps in this process."""

            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(rofsim.cli, "ProcessPoolExecutor", InProcess)
        argv = ["sweep", str(small_scenario), "--out", str(tmp_path), "--axis",
                "si_path.delay_ns", "--values", "0.5,1.0,1.5", "--hold-sic", "--jobs"]
        assert main(argv + ["64"]) == 0
        assert workers == [3]
        for jobs in ("0", "-2"):
            with pytest.raises(SystemExit) as exc:
                main(argv + [jobs])
            assert exc.value.code == 2
        assert workers == [3]

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

    @pytest.mark.parametrize(
        "axis, values",
        [
            ("si_path.bogus", "1,2"),
            ("modulators.if_sideband", "1,2"),  # a removed key
            ("modulators.uplink_sideband", "1,2"),  # a removed key
            ("laser", "1,2"),  # a section, not a key
            ("soi.power_dbm", "-30"),  # the scenario has no SOI
            ("grid.n_samples", "262144.5"),  # not an integer
            ("laser.frequency_thz", "191.3,193.4"),  # a removed key
        ],
    )
    def test_unknown_axis_exit_2(self, tmp_path, small_scenario, capsys, axis, values):
        rc = main(
            [
                "sweep", str(small_scenario),
                "--out", str(tmp_path),
                "--axis", axis,
                "--values", values,
            ]
        )
        assert rc == 2
        assert f"'{axis}'" in capsys.readouterr().err


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

    def test_bpd_out_needs_no_reference_arm(self, tmp_path, monkeypatch):
        s = dataclasses.replace(
            load_scenario(bundled_scenario_dir() / "fig7a.scenario"),
            grid=TimeGrid(sample_rate=64e9, n_samples=2**19),
        )
        assert s.soi is not None
        path = tmp_path / "fig7a.scenario"
        save_scenario(s, path)
        est = run_full(s, SicSettings()).spectrum_without_sic
        rofsim.link._kept[rofsim.link._EVALUATOR] = None  # so building the SI-only stage is seen
        arm = rofsim.link._arm_spectrum

        def refuse(*args, **kwargs):
            raise AssertionError("reference arm detected for the bpd_out tap")

        def signal_arm_only(field, *args):
            if field.rail() != "y":
                refuse()
            return arm(field, *args)

        monkeypatch.setattr(rofsim.link.UplinkEvaluator, "__init__", refuse)
        monkeypatch.setattr(rofsim.link, "_arm_spectrum", signal_arm_only)
        rc = main(["spectrum", str(path), "--out", str(tmp_path), "--tap", "bpd_out"])
        assert rc == 0
        lines = (tmp_path / "fig7a_bpd_out.csv").read_text().splitlines()
        assert lines[2:] == [f"{f:.6f},{p:.6f}" for f, p in zip(est.freqs, est.psd)]

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


@pytest.mark.parametrize(
    "error, code",
    [
        (GridError, 3),
        (FilterSpecError, 3),
        (SimulationError, 3),
        (DelayRangeError, 3),
        (AxisError, 2),
        (TapError, 2),
        (ScenarioError, 2),
        (ValueError, 2),
    ],
)
def test_error_exit_code(monkeypatch, capsys, error, code):
    def fail(args):
        raise error("boom")

    monkeypatch.setattr(rofsim.cli, "cmd_tune", fail)
    assert main(["tune", "any.scenario"]) == code
    assert "boom" in capsys.readouterr().err


def test_tune_with_no_delay_below_the_horizon_exits_3(tmp_path, capsys):
    # fig6a needs tau2 = 0.1875 ns (mod 0.5 ns); on 32 samples at 64 GS/s the
    # tuner's horizon, a quarter of the record, is 0.125 ns, and its 1 ns SI
    # delay fails the load, so the SI path is at 0 ns, which needs the same tau2
    s = load_scenario(bundled_scenario_dir() / "fig6a.scenario")
    path = tmp_path / "short.scenario"
    save_scenario(dataclasses.replace(s, grid=TimeGrid(sample_rate=64e9, n_samples=32),
                                      si_path=SelfInterferencePath(s.si_path.gain_db, 0.0)), path)
    assert main(["tune", str(path), "--out", str(tmp_path)]) == 3
    assert "horizon" in capsys.readouterr().err
