"""End-to-end link behavior: downlink up-conversion, SI path, uplink SIC."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rofsim.link
from rofsim.errors import DelayRangeError
from rofsim.link import (
    LinkScenario,
    SelfInterferencePath,
    SoiSpec,
    UplinkEvaluator,
    build_soi_waveform,
    make_received_signal,
    run_downlink,
    run_full,
)
from rofsim.optics import attenuate, balanced_detect, delay_line, fiber_propagate, pbs
from rofsim.scenario import bundled_scenario_dir, load_scenario
from rofsim.signal_core import (
    QamSignalSpec,
    TimeGrid,
    ToneSpec,
    band_power,
    dbm_to_amplitude,
    make_tone,
    phase_shift,
    welch_psd,
)
from rofsim.tuner import SicSettings, auto_tune, seed_settings

GRID_TONE = TimeGrid(sample_rate=64e9, n_samples=2**18)
GRID_QAM = TimeGrid(sample_rate=64e9, n_samples=2**19)


def bundled(name: str, grid: TimeGrid, **overrides) -> LinkScenario:
    s = load_scenario(bundled_scenario_dir() / f"{name}.scenario")
    return dataclasses.replace(s, grid=grid, **overrides)


def tone_scenario(f_if: float = 2e9, f_lo: float = 5e9, **overrides) -> LinkScenario:
    s = bundled("fig6a", GRID_TONE, **overrides)
    return dataclasses.replace(
        s,
        if_signal=dataclasses.replace(s.if_signal, frequency=f_if),
        lo_signal=dataclasses.replace(s.lo_signal, frequency=f_lo),
    )


class TestFrequencyBookkeeping:
    @pytest.mark.parametrize("f_if", [2e9, 2.1e9, 2.2e9])
    @pytest.mark.parametrize("f_lo", [5e9, 6e9])
    def test_air_interface_frequency(self, f_if, f_lo):
        s = tone_scenario(f_if, f_lo)
        assert s.f_s == pytest.approx(f_if + f_lo)
        lo, hi = s.si_band()
        assert lo < f_if < hi

    def test_downlink_line_follows_sum_frequency(self):
        for f_if, f_lo in ((2e9, 5e9), (2.2e9, 6e9)):
            s = tone_scenario(f_if, f_lo)
            rf, _ = run_downlink(s)
            est = welch_psd(rf, s.rbw)
            peak = est.freqs[np.argmax(est.psd)]
            assert peak == pytest.approx(f_if + f_lo, abs=2 * s.rbw)


class TestRunDownlink:
    def test_single_dominant_line(self):
        s = tone_scenario(2e9, 5e9)
        rf, _ = run_downlink(s)
        est = welch_psd(rf, s.rbw)
        main = band_power(est, 7e9 - 5e6, 7e9 + 5e6)
        total = band_power(est, est.freqs[1], est.freqs[-1])
        assert total - main < 0.1  # essentially all RF power in the one line

    def test_qam_bandwidth_preserved(self):
        s = bundled("fig7b", GRID_QAM)  # 20 MBaud at 2 GHz IF, 6 GHz LO
        rf, _ = run_downlink(s)
        est = welch_psd(rf, s.rbw)
        hw = 0.5 * (1 + 0.35) * 20e6
        inside = band_power(est, 8e9 - hw, 8e9 + hw)
        nearby = band_power(est, 8e9 - 10 * hw, 8e9 + 10 * hw)
        assert nearby - inside < 0.2

    def test_zero_if_drive_kills_rf(self):
        s = tone_scenario(2e9, 5e9)
        dark = dataclasses.replace(
            s, if_signal=dataclasses.replace(s.if_signal, amplitude=0.0)
        )
        p_on = run_downlink(s)[0].mean_power()
        p_off = run_downlink(dark)[0].mean_power()
        assert 10 * np.log10(p_on / max(p_off, 1e-300)) >= 80.0


class TestMakeReceivedSignal:
    def test_unity_path_is_identity(self):
        w = make_tone(ToneSpec(amplitude=1.0, frequency=7e9), GRID_TONE)
        r = make_received_signal(w, SelfInterferencePath(gain_db=0.0, delay=0.0))
        assert np.allclose(r.samples, w.samples, atol=1e-12)

    def test_disabled_si_leaves_soi(self):
        w = make_tone(ToneSpec(amplitude=1.0, frequency=7e9), GRID_TONE)
        soi = make_tone(ToneSpec(amplitude=0.01, frequency=7.004e9), GRID_TONE)
        r = make_received_signal(w, SelfInterferencePath(gain_db=-np.inf, delay=0.0), soi)
        assert np.allclose(r.samples, soi.samples, atol=1e-15)

    def test_gain_scaling(self):
        w = make_tone(ToneSpec(amplitude=1.0, frequency=7e9), GRID_TONE)
        r = make_received_signal(w, SelfInterferencePath(gain_db=-20.0, delay=0.0))
        assert r.mean_power() == pytest.approx(w.mean_power() / 100.0, rel=1e-9)

    def test_excessive_delay_rejected(self):
        w = make_tone(ToneSpec(amplitude=1.0, frequency=7e9), GRID_TONE)
        with pytest.raises(DelayRangeError):
            make_received_signal(w, SelfInterferencePath(gain_db=0.0, delay=2e-6))


class TestBuildSoi:
    def test_tone_soi_level_and_frequency(self):
        s = tone_scenario(2e9, 5e9)
        s = dataclasses.replace(s, soi=dataclasses.replace(bundled("fig7a", GRID_TONE).soi))
        w = build_soi_waveform(s)
        assert w.mean_power() == pytest.approx(
            dbm_to_amplitude(-22.0) ** 2 / 2, rel=1e-9
        )
        est = welch_psd(w, s.rbw)
        assert est.freqs[np.argmax(est.psd)] == pytest.approx(7e9, abs=2 * s.rbw)

    def test_none_without_soi(self):
        assert build_soi_waveform(tone_scenario()) is None


class TestRunUplink:
    def test_dark_reference_arm_matches_without(self):
        # run_full's SOI-only pass relies on this alpha = 0 identity
        s = tone_scenario(2e9, 5e9)
        rf, ru = run_downlink(s)
        received = make_received_signal(rf, s.si_path)
        lp_reference = rofsim.link._lowpassed_reference(ru, s, 0.0)
        with_sic, without_sic = UplinkEvaluator(ru, received, s).outputs(0.0, lp_reference)
        assert np.allclose(with_sic.samples, without_sic.samples, atol=1e-15)

    def test_tuned_settings_cancel(self):
        s = tone_scenario(2e9, 5e9)
        rep = auto_tune(s)
        res = run_full(s, rep.refined)
        assert res.metrics.depth_db > 39.0


class TestRunFull:
    def test_tone_depth_and_residual(self):
        s = tone_scenario(2e9, 5e9)
        rep = auto_tune(s)
        res = run_full(s, rep.refined)
        m = res.metrics
        assert m.depth_db > 39.0
        without = band_power(welch_psd(res.bpd_out_without_sic, s.rbw), *s.si_band())
        assert m.residual_si_dbm == pytest.approx(without - m.depth_db, abs=0.1)

    def test_qam_20m_depth(self):
        s = bundled("fig7b", GRID_QAM)
        rep = auto_tune(s)
        assert run_full(s, rep.refined).metrics.depth_db > 20.0

    def test_depth_monotone_in_bandwidth(self):
        base = bundled("fig7a", GRID_QAM, soi=None)
        depths = {}
        for label, sig in (
            ("tone", ToneSpec(amplitude=dbm_to_amplitude(0.0), frequency=2e9)),
            ("10M", base.if_signal),
            ("20M", dataclasses.replace(base.if_signal, symbol_rate=20e6)),
        ):
            s = dataclasses.replace(base, if_signal=sig)
            depths[label] = auto_tune(s).depth_refined_db
        assert depths["tone"] >= depths["10M"] >= depths["20M"]

    def test_fiber_transport_preserves_depth(self):
        s0 = bundled("fig7a", GRID_QAM, soi=None)
        rep0 = auto_tune(s0)
        s1 = bundled("fig8a", GRID_QAM, soi=None)
        rep1 = auto_tune(s1)
        assert abs(rep1.depth_refined_db - rep0.depth_refined_db) < 3.0

    def test_soi_metrics_reported(self):
        s = bundled("fig7a", GRID_QAM)
        rep = auto_tune(s)
        m = run_full(s, rep.refined).metrics
        assert m.soi_power_dbm == pytest.approx(-57.2, abs=3.0)
        assert m.evm_percent is None  # tone SOI carries no constellation

    def test_soi_transparent_to_attenuator(self):
        s = bundled("fig7a", GRID_QAM)
        rep = auto_tune(s)
        p = []
        for a in (0.0, rep.refined.alpha):
            sic = dataclasses.replace(rep.refined, alpha=a)
            p.append(run_full(s, sic).metrics.soi_power_dbm)
        assert abs(p[1] - p[0]) < 1.0

    @pytest.mark.parametrize("soi", [False, True])
    def test_spectra_are_welch_of_outputs(self, soi):
        s = bundled("fig7a", GRID_QAM) if soi else tone_scenario(2e9, 5e9)
        assert (s.soi is not None) == soi
        res = run_full(s, seed_settings(s, run_downlink(s)[0]))
        for est, w in (
            (res.spectrum_with_sic, res.bpd_out_with_sic),
            (res.spectrum_without_sic, res.bpd_out_without_sic),
        ):
            ref = welch_psd(w, s.rbw)
            assert np.array_equal(est.freqs, ref.freqs)
            assert np.array_equal(est.psd, ref.psd)

    def test_validation_runs(self):
        s = tone_scenario(2e9, 5e9)
        bad = dataclasses.replace(s, lpf=-1.0)
        with pytest.raises(Exception):
            run_full(bad, SicSettings())


def full_fft_band_power_dbm(ev: UplinkEvaluator, alpha: float, tau2: float) -> float:
    """Reference objective: SI-band power of the full-record FFT of bpd_raw."""
    x = ev.bpd_raw(alpha, tau2)
    spec = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(x.size, ev.grid.dt)
    f_lo, f_hi = ev.scenario.si_band()
    mask = (freqs >= f_lo) & (freqs <= f_hi)
    msq = 2.0 * np.sum(np.abs(spec[mask]) ** 2) / x.size**2
    return float(10.0 * np.log10(msq / 50.0 / 1e-3))


class TestClosedFormObjective:
    @pytest.mark.parametrize("name", ["fig6a", "fig7a", "fig7c", "fig8c", "wideband"])
    def test_matches_full_fft(self, name):
        s = load_scenario(bundled_scenario_dir() / f"{name}.scenario")
        rf, ru = run_downlink(s)
        rep = auto_tune(s, wideband=name == "wideband", downlink=(rf, ru))
        received = make_received_signal(rf, s.si_path)
        if rep.seed.rf_phase_comp is not None:
            received = phase_shift(received, rep.seed.rf_phase_comp)
        ev = UplinkEvaluator(ru, received, s)
        seed, refined = rep.seed, rep.refined
        points = [
            (seed.alpha, seed.tau2),
            (0.5 * seed.alpha, seed.tau2 + 0.25 / s.f_if),
            (refined.alpha, refined.tau2),
        ]
        for alpha, tau2 in points:
            assert ev.residual_band_power_dbm(alpha, tau2) == pytest.approx(
                full_fft_band_power_dbm(ev, alpha, tau2), abs=1e-3
            )

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        tau=st.floats(-20.0, 20.0, allow_nan=False),
    )
    def test_intensity_delay_identity_below_quarter_rate(self, seed, tau):
        # envelope content strictly below fs/4: |x|^2 fits below Nyquist
        n = 256
        k = np.fft.fftfreq(n) * n
        rng = np.random.default_rng(seed)
        spec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        spec[np.abs(k) >= n // 4] = 0.0
        delayed, intensity = self._delay_pair(spec, tau)
        np.testing.assert_allclose(delayed, intensity, rtol=0, atol=1e-9 * np.abs(intensity).max())

    def test_intensity_delay_identity_breaks_near_nyquist(self):
        n = 256
        spec = np.zeros(n, dtype=complex)
        spec[[115, n - 115]] = 1.0  # +-0.45 fs: the beat at 0.9 fs aliases to 0.1 fs
        delayed, intensity = self._delay_pair(spec, 0.3)
        alias = n - 2 * 115
        assert abs(delayed[alias] - intensity[alias]) > 0.1 * abs(intensity[alias])

    @staticmethod
    def _delay_pair(spec, tau):
        """rfft of |x delayed by tau samples|^2, and rfft(|x|^2) times the delay phase."""
        n = spec.size
        x = np.fft.ifft(spec)
        x_tau = np.fft.ifft(spec * np.exp(-2j * np.pi * np.fft.fftfreq(n) * tau))
        delayed = np.fft.rfft(np.abs(x_tau) ** 2)
        intensity = np.fft.rfft(np.abs(x) ** 2) * np.exp(-2j * np.pi * np.fft.rfftfreq(n) * tau)
        return delayed, intensity


# run_full metrics at the analytic seed settings on the bundled 2^20-sample
# grids, recorded before the electrical path became real-valued and the
# reference arm was shared between passes: (depth dB, residual SI dBm,
# SOI power dBm, EVM %).
GOLDEN_RUN_FULL = {
    "fig7a": (29.2387, -67.8546, -57.2499, None),
    "fig8c": (30.1153, -73.6142, None, None),
    "fig7c": (29.7886, -68.4040, None, None),
    "fig7c-qam-soi": (29.7886, -68.4040, -57.1937, 0.0807),
}


def golden_scenario(name: str) -> LinkScenario:
    if name == "fig7c-qam-soi":
        s = load_scenario(bundled_scenario_dir() / "fig7c.scenario")
        return dataclasses.replace(
            s, soi=SoiSpec(kind="qam", power_dbm=-22.0, symbol_rate=10e6, rolloff=0.35, seed=7)
        )
    return load_scenario(bundled_scenario_dir() / f"{name}.scenario")


class TestGoldenRunFull:
    @pytest.mark.parametrize("name", sorted(GOLDEN_RUN_FULL))
    def test_metrics_at_seed_settings(self, name):
        s = golden_scenario(name)
        downlink = run_downlink(s)
        m = run_full(s, seed_settings(s, downlink[0]), downlink=downlink).metrics
        depth, residual, soi, evm = GOLDEN_RUN_FULL[name]
        assert m.depth_db == pytest.approx(depth, abs=0.05)
        assert m.residual_si_dbm == pytest.approx(residual, abs=0.05)
        if soi is None:
            assert m.soi_power_dbm is None
        else:
            assert m.soi_power_dbm == pytest.approx(soi, abs=0.05)
        if evm is None:
            assert m.evm_percent is None
        else:
            assert m.evm_percent == pytest.approx(evm, abs=0.05)

    def test_given_downlink_matches_own(self):
        s = bundled("fig7a", GRID_QAM)
        sic = seed_settings(s, run_downlink(s)[0])
        own = run_full(s, sic)
        shared = run_full(s, sic, downlink=run_downlink(s))
        assert np.array_equal(own.bpd_out_with_sic.samples, shared.bpd_out_with_sic.samples)
        assert own.metrics == shared.metrics


class TestReferenceArmOracle:
    """The SIC stage of the link is the optics attenuator, delay line and
    balanced detector composed on the X rail carried to the CO."""

    @pytest.mark.parametrize("name", ["fig6a", "fig7a", "fig8c"])
    def test_bpd_raw_matches_optics(self, name):
        s = bundled(name, GRID_QAM)
        rf, ru = run_downlink(s)
        seed = seed_settings(s, rf)
        ev = UplinkEvaluator(ru, make_received_signal(rf, s.si_path), s)
        x_co = fiber_propagate(pbs(ru)[0], s.uplink_fiber)
        y_co = fiber_propagate(ev.y_mod, s.uplink_fiber)
        points = [
            (seed.alpha, 0.0),
            (seed.alpha, seed.tau2),
            (0.3, seed.tau2 + 0.25 / s.f_if),
        ]
        for alpha, tau2 in points:
            ref = balanced_detect(
                attenuate(delay_line(x_co, tau2), alpha), y_co, s.responsivity
            ).samples
            np.testing.assert_allclose(
                ev.bpd_raw(alpha, tau2), ref, rtol=0, atol=1e-12 * np.abs(ref).max()
            )

    def test_run_full_delays_reference_once(self, monkeypatch):
        taus = []

        def counting_delay_line(field, tau):
            taus.append(tau)
            return delay_line(field, tau)

        monkeypatch.setattr(rofsim.link, "delay_line", counting_delay_line)
        s = bundled("fig7a", GRID_QAM)
        assert s.soi is not None
        downlink = run_downlink(s)
        sic = seed_settings(s, downlink[0])
        run_full(s, sic, downlink=downlink)
        assert taus == [sic.tau2]
