"""SIC tuner: analytic seeds, closed-form alpha with a bounded tau2 search,
phase constant."""

import dataclasses
import math

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import minimize_scalar
from scipy.special import j0, j1

from tuner_oracles import DegenerateScan, verify_phase_constant

from rofsim.cli import main
from rofsim.errors import AttenuatorInfeasible, DelayRangeError, ScenarioError
from rofsim.link import UplinkEvaluator, run_downlink
from rofsim.scenario import bundled_scenario_dir, load_scenario, save_scenario
from rofsim.signal_core import TimeGrid
from rofsim.tuner import (
    _MAX_EVALS,
    _TAU_TOL,
    PHASE_CONSTANT,
    SicSettings,
    _brent_tau2,
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


def bounded_brent_runs(objective, lo, hi):
    """(x, evaluated points) of the in-package search and of SciPy's bounded
    Brent search with the tuner's tolerance."""
    runs = []
    for search in (
        lambda f: _brent_tau2(f, lo, hi),
        lambda f: minimize_scalar(
            f, bounds=(lo, hi), method="bounded", options={"xatol": _TAU_TOL}
        ).x,
    ):
        points = []
        x = search(lambda t: (points.append(t), objective(t))[1])
        runs.append((float(x), points))
    return runs


class TestBoundedBrent:
    """`_brent_tau2` is a port of SciPy's bounded Brent search: the same
    evaluated points and the same minimizer, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(
        terms=st.lists(
            st.tuples(
                st.floats(-2.0, 2.0), st.floats(0.1, 40.0), st.floats(0.0, 2.0 * np.pi)
            ),
            min_size=1,
            max_size=5,
        ),
        curvature=st.floats(0.0, 3.0),
        centre=st.floats(-2.0, 2.0),
        scale_exp=st.integers(-12, 3),
        lo=st.floats(-5.0, 5.0),
        width=st.floats(1e-3, 10.0),
    )
    @example(terms=[(1.0, 3.0, 0.5)], curvature=0.0, centre=0.0, scale_exp=-10, lo=0.0, width=1.0)
    def test_matches_scipy_on_multimodal_objectives(
        self, terms, curvature, centre, scale_exp, lo, width
    ):
        # a smooth multimodal objective on an interval of width `width *
        # scale`, with scale from 1e-12 (the tuner's delays) to 1e3
        scale = 10.0**scale_exp
        amp, freq, phase = (np.array(c) for c in zip(*terms))

        def objective(t):
            u = t / scale
            return float(np.sum(amp * np.sin(freq * u + phase)) + curvature * (u - centre) ** 2)

        (x, points), (x_ref, points_ref) = bounded_brent_runs(
            objective, lo * scale, (lo + width) * scale
        )
        assert x == x_ref
        assert points == points_ref
        assert lo * scale <= x <= (lo + width) * scale

    def test_stops_at_the_evaluation_cap(self):
        # on +-1e120 golden-section steps need more than 500 evaluations to
        # shrink the bracket to the absolute tolerance around 0
        (x, points), (x_ref, points_ref) = bounded_brent_runs(
            lambda t: abs(t) ** 0.1, -1e120, 7e119
        )
        res = minimize_scalar(
            lambda t: abs(t) ** 0.1, bounds=(-1e120, 7e119), method="bounded",
            options={"xatol": _TAU_TOL},
        )
        assert res.status == 1 and res.nfev == _MAX_EVALS  # SciPy hit its cap
        assert len(points) == _MAX_EVALS
        assert x == x_ref and points == points_ref


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
