"""SIC tuner: analytic seeds, closed-form alpha with Newton steps on tau2 to
the seed's crest, checked against SciPy's bounded search, phase constant."""

import dataclasses
import math

import numpy as np
import pytest
import yaml
from scipy.optimize import minimize_scalar
from scipy.special import j0, j1

from tuner_oracles import DegenerateScan, verify_phase_constant

from rofsim.cli import main
from rofsim.errors import AttenuatorInfeasible, DelayRangeError, ScenarioError
from rofsim.link import UplinkEvaluator, run_downlink, uplink_evaluator
from rofsim.scenario import bundled_scenario_dir, load_scenario, save_scenario
from rofsim.signal_core import TimeGrid
from rofsim.tuner import (
    PHASE_CONSTANT,
    SicSettings,
    analytic_alpha,
    analytic_tau2,
    auto_tune,
    refine,
    seed_settings,
)

GRID = TimeGrid(sample_rate=64e9, n_samples=2**18)


def tone_scenario(f_if=2e9, f_lo=5e9, tau1=1e-9, gain_db=32.0):
    s = load_scenario(bundled_scenario_dir() / "fig6a.scenario")
    return dataclasses.replace(
        s,
        grid=GRID,
        if_signal=dataclasses.replace(s.if_signal, frequency=f_if),
        lo_signal=dataclasses.replace(s.lo_signal, frequency=f_lo),
        si_path=dataclasses.replace(s.si_path, delay=tau1, gain_db=gain_db),
    )


class TestAnalyticAlpha:
    def test_equal_indices_02(self):
        assert analytic_alpha(0.2, 0.2, 0.2) == pytest.approx(0.0697, abs=2e-4)

    def test_closed_form(self):
        m1, m2, m3 = 0.3, 0.25, 0.1
        expected = math.sqrt(2) * j0(m2) * j0(m3) * j1(m2) * j1(m3) / (
            2 * j0(m1) * j1(m1)
        )
        assert analytic_alpha(m1, m2, m3) == pytest.approx(expected, rel=1e-12)

    def test_zero_secondary_index(self):
        assert analytic_alpha(0.2, 0.0, 0.2) == 0.0

    def test_small_signal_limit(self):
        m = 1e-4
        assert analytic_alpha(m, m, m) == pytest.approx(math.sqrt(2) * m / 4, rel=1e-4)

    def test_infeasible_ratio(self):
        with pytest.raises(AttenuatorInfeasible):
            analytic_alpha(0.01, 1.0, 1.0)

    def test_vanishing_denominator(self):
        with pytest.raises(AttenuatorInfeasible, match="IF drive"):
            analytic_alpha(0.0, 0.2, 0.2)


class TestAnalyticTau2:
    W_IF = 2 * np.pi * 2e9
    W_S = 2 * np.pi * 8e9

    def test_narrowband_example(self):
        tau2 = analytic_tau2(self.W_IF, self.W_S, 10e-9)
        assert tau2 * 1e9 == pytest.approx(39.6875, abs=1e-6)

    def test_zero_tau1(self):
        tau2 = analytic_tau2(self.W_IF, self.W_S, 0.0)
        assert tau2 * 1e9 == pytest.approx(0.1875, abs=1e-9)

    def test_wideband_drops_constant(self):
        tau2 = analytic_tau2(self.W_IF, self.W_S, 10e-9, wideband=True)
        assert tau2 == pytest.approx(self.W_S * 10e-9 / self.W_IF, rel=1e-12)

    def test_result_nonnegative_and_phase_consistent(self):
        for tau1 in (0.0, 0.3e-9, 5e-9, 40e-9):
            tau2 = analytic_tau2(self.W_IF, self.W_S, tau1)
            assert tau2 >= 0.0
            phase = self.W_IF * tau2 - self.W_S * tau1 - PHASE_CONSTANT
            assert phase / (2 * np.pi) == pytest.approx(round(phase / (2 * np.pi)), abs=1e-9)

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            analytic_tau2(0.0, self.W_S, 1e-9)

    def test_horizon_below_the_in_period_delay(self):
        # at tau1 = 0 the delay is 0.1875 ns modulo the 0.5 ns IF period
        assert analytic_tau2(self.W_IF, self.W_S, 0.0, horizon=0.2e-9) == pytest.approx(0.1875e-9)
        with pytest.raises(DelayRangeError, match="horizon"):
            analytic_tau2(self.W_IF, self.W_S, 0.0, horizon=0.1e-9)

    def test_negative_delay_is_rejected_before_the_fold(self):
        # a non-negative SI delay, as SelfInterferencePath requires; the upward
        # fold would take one pass per IF period, and at -1e30 ns never end
        w_if, w_s = 2 * np.pi * 2.1e9, 2 * np.pi * 8.1e9
        for tau1 in (-1e-12, -1e30 * 1e-9):
            with pytest.raises(DelayRangeError, match="non-negative"):
                analytic_tau2(w_if, w_s, tau1, horizon=4.096e-6)

    def test_delay_beyond_the_horizon_is_rejected_before_the_fold(self, tmp_path, capsys):
        # the fold steps tau2 down by one IF period per pass: 10 us needs ~8e4
        # passes, and at 1e30 ns (tau2 ~ 3.9e21 s) tau2 - period == tau2
        w_if, w_s, horizon = 2 * np.pi * 2.1e9, 2 * np.pi * 8.1e9, 4.096e-6
        with pytest.raises(DelayRangeError, match="horizon"):
            analytic_tau2(w_if, w_s, 10e-6, horizon=horizon)
        with pytest.raises(DelayRangeError, match="horizon"):
            analytic_tau2(w_if, w_s, 1e30 * 1e-9, horizon=horizon)
        # a scenario file with such a delay fails at load, naming the key
        path = tmp_path / "far.scenario"
        save_scenario(dataclasses.replace(tone_scenario(), grid=TimeGrid(64e9, 2**12)), path)
        doc = yaml.safe_load(path.read_text())
        doc["si_path"]["delay_ns"] = 1e30
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ScenarioError, match="si_path.delay_ns: .*quarter of the record"):
            load_scenario(path)
        assert main(["tune", str(path), "--out", str(tmp_path)]) == 2
        assert "si_path.delay_ns" in capsys.readouterr().err


class TestSeedSettings:
    def test_seed_depth_level(self):
        s = tone_scenario()
        rf, ru = run_downlink(s)
        seed = seed_settings(s, rf)
        assert 0.0 < seed.alpha < 1.0
        rep = refine(s, seed)
        assert rep.depth_seed_db > 30.0


class TestRefine:
    def test_tone_floor(self):
        s = tone_scenario()
        rep = auto_tune(s)
        assert rep.depth_refined_db >= 50.0

    def test_never_degrades_seed(self):
        s = tone_scenario()
        rf, ru = run_downlink(s)
        seed = seed_settings(s, rf)
        rep = refine(s, seed)
        assert rep.depth_refined_db >= rep.depth_seed_db - 0.1

    def test_fixed_point_converges_fast(self):
        s = tone_scenario()
        rep = auto_tune(s)
        again = refine(s, rep.refined)
        assert again.iterations <= 2
        assert again.depth_refined_db >= rep.depth_refined_db - 0.1
        assert again.refined.tau2 == rep.refined.tau2

    @pytest.mark.parametrize("name", ["fig6a", "fig7c", "fig8c"])
    def test_refined_point_is_an_exact_fixed_point(self, name):
        # refining the refined point moves tau2 by no bit
        s = load_scenario(bundled_scenario_dir() / f"{name}.scenario")
        rep = auto_tune(s)
        assert refine(s, rep.refined).refined.tau2 == rep.refined.tau2

    def test_seed_off_a_crest_keeps_its_tau2(self):
        # half an IF period from the tone's crest, Re C has a trough: the
        # search takes no step there
        s = tone_scenario()
        seed = seed_settings(s, run_downlink(s)[0])
        trough = dataclasses.replace(seed, tau2=seed.tau2 + 0.5 / s.f_if)
        assert uplink_evaluator(s).crest_step(trough.tau2) is None
        assert refine(s, trough).refined.tau2 == trough.tau2

    def test_recovers_from_dark_attenuator_seed(self):
        s = tone_scenario()
        rf, ru = run_downlink(s)
        seed = seed_settings(s, rf)
        rep_ref = refine(s, seed)
        rep0 = refine(s, SicSettings(alpha=0.0, tau2=seed.tau2))
        assert rep0.depth_refined_db >= min(rep_ref.depth_refined_db, 50.0) - 1.0

    def test_reseed_absorbs_si_gain_change(self):
        d32 = auto_tune(tone_scenario(gain_db=32.0))
        d38 = auto_tune(tone_scenario(gain_db=38.0))
        # reseeding doubles alpha to track the 6 dB stronger SI copy
        assert d38.refined.alpha / d32.refined.alpha == pytest.approx(2.0, rel=0.05)
        assert d38.depth_refined_db >= 50.0

    def test_depth_periodic_in_tau2(self):
        s = tone_scenario()
        rep = auto_tune(s)
        ev = UplinkEvaluator(s)
        a, t = rep.refined.alpha, rep.refined.tau2
        d1 = ev.residual_band_power_dbm(a, t)
        d2 = ev.residual_band_power_dbm(a, t + 1.0 / s.f_if)
        assert d1 == pytest.approx(d2, abs=0.2)


class TestRefineAlpha:
    def test_wideband_mode_pins_delay(self):
        s = tone_scenario()
        rep = auto_tune(s, wideband=True)
        expected_tau2 = analytic_tau2(
            2 * np.pi * s.f_if, 2 * np.pi * s.f_s, s.si_path.delay, wideband=True
        )
        assert rep.refined.tau2 == pytest.approx(expected_tau2, rel=1e-12)
        assert rep.refined.rf_phase_comp == pytest.approx(PHASE_CONSTANT)
        assert rep.depth_refined_db >= 40.0

    def test_never_degrades(self):
        s = tone_scenario()
        rf, ru = run_downlink(s)
        seed = seed_settings(s, rf, wideband=True)
        rep = refine(s, seed)
        assert rep.refined.tau2 == seed.tau2  # the RF phase shifter pins tau2
        assert rep.depth_refined_db >= rep.depth_seed_db - 0.1


class TestCrestMatchesScipy:
    """From the analytic seed, `refine` finds the minimizer of SciPy's bounded
    search over its window of one IF period either side, to 1 fs, and cancels
    as deeply. A tone link cancels to 127 dB or more, where sub-femtosecond
    differences in tau2 set the depth (fig6a: 127.02 dB against SciPy's 127.07),
    so there only that floor holds."""

    ROUND_OFF_DEPTH_DB = 120.0

    def check(self, s):
        seed = seed_settings(s, run_downlink(s)[0])
        rep = refine(s, seed)
        ev = uplink_evaluator(s)
        period = 1.0 / s.f_if
        ref = minimize_scalar(
            lambda t: ev.residual_band_power_dbm(ev.optimal_alpha(t), t),
            bounds=(max(0.0, seed.tau2 - period), seed.tau2 + period),
            method="bounded", options={"xatol": 1e-15},
        )
        assert rep.refined.tau2 == pytest.approx(ref.x, abs=1e-15)
        depth_ref = ev.residual_band_power_dbm(0.0, 0.0) - ref.fun
        assert rep.depth_refined_db >= min(depth_ref - 1e-4, self.ROUND_OFF_DEPTH_DB)

    @pytest.mark.parametrize("tau1", [1e-9, 3e-9, 7e-9])
    @pytest.mark.parametrize("f_lo", [5e9, 6e9])
    def test_tone(self, tau1, f_lo):
        self.check(tone_scenario(2e9, f_lo, tau1))

    def test_qam(self):
        s = load_scenario(bundled_scenario_dir() / "fig7c.scenario")
        self.check(dataclasses.replace(s, grid=TimeGrid(sample_rate=64e9, n_samples=2**19)))


class TestPhaseConstant:
    def test_value(self):
        assert PHASE_CONSTANT == pytest.approx(-5 * np.pi / 4)

    @pytest.mark.parametrize("tau1", [1e-9, 3e-9, 7e-9])
    @pytest.mark.parametrize("f_lo", [5e9, 6e9])
    def test_invariant_across_geometry(self, tau1, f_lo):
        c = verify_phase_constant(tone_scenario(2e9, f_lo, tau1))
        wrapped_target = (PHASE_CONSTANT + np.pi) % (2 * np.pi) - np.pi
        assert c == pytest.approx(wrapped_target, abs=0.02)

    def test_degenerate_scan_detected(self):
        s = tone_scenario(gain_db=-np.inf)
        with pytest.raises((DegenerateScan, AttenuatorInfeasible)):
            verify_phase_constant(s)


class TestSicSettingsValidation:
    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            SicSettings(alpha=1.5)
        with pytest.raises(ValueError):
            SicSettings(alpha=-0.1)

    def test_negative_delay(self):
        with pytest.raises(ValueError):
            SicSettings(tau2=-1e-12)
