"""Optical components: modulators, polarization elements, fiber, detectors."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import j0, j1

from rofsim.errors import GainNotAllowed, RailConflict
from rofsim.optics import (
    FiberParams,
    ModulatorParams,
    attenuate,
    balanced_detect,
    dd_mzm_ssb,
    delay_line,
    dp_bpsk_modulate,
    fiber_propagate,
    laser_cw,
    mzm_dsb,
    pbc,
    pbs,
    photodetect,
    polarizer,
    ssb_smallsignal_coefficients,
)
from rofsim.optics import _hilbert90, _ssb_transfer
from rofsim.signal_core import TimeGrid, ToneSpec, make_tone

GRID = TimeGrid(sample_rate=64e9, n_samples=2**16)
FC = 191.3e12
MOD = ModulatorParams(v_pi=3.5, sideband="lower")


def line(env: np.ndarray, grid: TimeGrid, f_offset: float) -> complex:
    """Complex amplitude of the envelope spectral line at the given offset."""
    spec = np.fft.fft(env) / env.size
    k = int(round(f_offset / (grid.sample_rate / grid.n_samples)))
    return complex(spec[k])


def drive_for_m(m: float, f: float, v_pi: float = 3.5):
    return make_tone(ToneSpec(amplitude=m * v_pi / np.pi, frequency=f), GRID)


class TestLaserCw:
    def test_ten_dbm_x_rail(self):
        f = laser_cw(10.0, FC, "x", GRID)
        assert np.allclose(np.abs(f.env_x), np.sqrt(0.01))
        assert np.all(f.env_y == 0)

    def test_zero_dbm_amplitude(self):
        f = laser_cw(0.0, FC, "y", GRID)
        assert np.allclose(np.abs(f.env_y), 0.0316228, atol=1e-6)

    def test_dark_limit(self):
        f = laser_cw(-np.inf, FC, "x", GRID)
        assert f.total_power() == 0.0


class TestHybridCoupler:
    """The modulator's 90-degree hybrid: `_hilbert90` at full drive amplitude."""

    def test_cosine_to_quadrature(self):
        d = make_tone(ToneSpec(amplitude=1.0, frequency=2e9), GRID)
        q = _hilbert90(d.samples)
        t = GRID.times()
        s = np.sin(2 * np.pi * 2e9 * t)
        # quadrature up to a common sign convention
        err_plus = np.max(np.abs(q - s))
        err_minus = np.max(np.abs(q + s))
        assert min(err_plus, err_minus) < 1e-9

    def test_dc_second_output_zero(self):
        d = make_tone(ToneSpec(amplitude=1.0, frequency=0.0), GRID)
        q = _hilbert90(d.samples)
        assert np.max(np.abs(q)) < 1e-12

    def test_two_tone_per_bin_quadrature(self):
        d = make_tone(ToneSpec(amplitude=1.0, frequency=2e9), GRID) + make_tone(
            ToneSpec(amplitude=0.5, frequency=5e9), GRID
        )
        q = _hilbert90(d.samples)
        for f_k, amp in ((2e9, 1.0), (5e9, 0.5)):
            lq = line(q, GRID, f_k)
            ld = line(d.samples, GRID, f_k)
            assert abs(lq / ld - 1j) < 1e-9 or abs(lq / ld + 1j) < 1e-9


class TestSsbModulator:
    def test_zero_drive_carrier_only(self):
        carrier = laser_cw(0.0, FC, "x", GRID)
        zero = make_tone(ToneSpec(amplitude=0.0, frequency=2e9), GRID)
        out = dd_mzm_ssb(carrier, zero, MOD)
        # (1 + e^{-j pi/2})/2 has magnitude 1/sqrt(2): 3 dB below the carrier
        assert 10 * np.log10(carrier.total_power() / out.total_power()) == pytest.approx(
            3.01, abs=0.01
        )

    def test_insertion_loss_applied(self):
        carrier = laser_cw(0.0, FC, "x", GRID)
        zero = make_tone(ToneSpec(amplitude=0.0, frequency=2e9), GRID)
        lossy = ModulatorParams(v_pi=3.5, insertion_loss=5.0, sideband="lower")
        out = dd_mzm_ssb(carrier, zero, lossy)
        ref = dd_mzm_ssb(carrier, zero, MOD)
        assert 10 * np.log10(ref.total_power() / out.total_power()) == pytest.approx(
            5.0, abs=0.01
        )

    def test_carrier_sideband_ratio_m02(self):
        carrier = laser_cw(0.0, FC, "x", GRID)
        out = dd_mzm_ssb(carrier, drive_for_m(0.2, 2e9), MOD)
        c = line(out.env_x, GRID, 0.0)
        s = line(out.env_x, GRID, -2e9)
        ratio_db = 20 * np.log10(abs(c) / abs(s))
        expected = 20 * np.log10((np.sqrt(2) / 2) * j0(0.2) / j1(0.2))
        assert ratio_db == pytest.approx(expected, abs=0.05)
        assert expected == pytest.approx(16.9, abs=0.1)

    def test_unwanted_sideband_suppression(self):
        carrier = laser_cw(0.0, FC, "x", GRID)
        out = dd_mzm_ssb(carrier, drive_for_m(0.2, 2e9), MOD)
        wanted = line(out.env_x, GRID, -2e9)
        unwanted = line(out.env_x, GRID, 2e9)
        assert 20 * np.log10(abs(wanted) / max(abs(unwanted), 1e-300)) >= 60.0

    def test_upper_sideband_selection(self):
        carrier = laser_cw(0.0, FC, "x", GRID)
        upper = ModulatorParams(v_pi=3.5, sideband="upper")
        out = dd_mzm_ssb(carrier, drive_for_m(0.2, 2e9), upper)
        assert abs(line(out.env_x, GRID, 2e9)) > 100 * abs(line(out.env_x, GRID, -2e9))

    @settings(deadline=None, max_examples=15)
    @given(m=st.floats(0.02, 0.3), f=st.sampled_from([1e9, 2e9, 5e9, 6e9]))
    def test_smallsignal_oracle_within_2_percent(self, m, f):
        carrier = laser_cw(0.0, FC, "x", GRID)
        out = dd_mzm_ssb(carrier, drive_for_m(m, f), MOD)
        a0 = np.abs(carrier.env_x[0])
        coeffs = ssb_smallsignal_coefficients(m)
        got_c = abs(line(out.env_x, GRID, 0.0)) / a0
        got_s = abs(line(out.env_x, GRID, -f)) / a0
        assert got_c == pytest.approx(abs(coeffs["carrier"]), rel=0.02)
        assert got_s == pytest.approx(abs(coeffs["sideband"]), rel=0.02)

    @settings(deadline=None, max_examples=30)
    @given(
        seed=st.integers(0, 2**32 - 1),
        scale=st.floats(0.0, 10.0),
        v_pi=st.floats(0.5, 10.0),
        sideband=st.sampled_from(["lower", "upper"]),
        loss=st.floats(0.0, 10.0),
    )
    def test_transfer_matches_two_exponential_form(self, seed, scale, v_pi, sideband, loss):
        drive = scale * np.random.default_rng(seed).standard_normal(1024)
        params = ModulatorParams(v_pi=v_pi, insertion_loss=loss, sideband=sideband)
        q = _hilbert90(drive) if sideband == "upper" else -_hilbert90(drive)
        pa = np.pi / v_pi * drive
        pb = np.pi / v_pi * q - 0.5 * np.pi
        ref = 0.5 * (np.exp(1j * pa) + np.exp(1j * pb)) * 10.0 ** (-loss / 20.0)
        np.testing.assert_allclose(_ssb_transfer(drive, params), ref, rtol=0, atol=1e-12)


class TestSmallSignalCoefficients:
    def test_m_zero(self):
        c = ssb_smallsignal_coefficients(0.0)
        assert c["carrier"] == pytest.approx((np.sqrt(2) / 2) * np.exp(1j * np.pi / 4))
        assert c["sideband"] == 0.0

    def test_m_02(self):
        c = ssb_smallsignal_coefficients(0.2)
        assert abs(c["carrier"]) == pytest.approx(0.70002, abs=1e-4)
        assert abs(c["sideband"]) == pytest.approx(0.09950, abs=1e-4)

    def test_m_one(self):
        c = ssb_smallsignal_coefficients(1.0)
        assert abs(c["carrier"]) == pytest.approx(0.54108, abs=1e-4)
        assert abs(c["sideband"]) == pytest.approx(0.44005, abs=1e-4)


class TestDpBpskModulator:
    P_IF = ModulatorParams(v_pi=3.5, sideband="lower")
    P_LO = ModulatorParams(v_pi=3.5, sideband="upper")

    def test_rail_line_layout(self):
        carrier = laser_cw(10.0, FC, "x", GRID)
        out = dp_bpsk_modulate(
            carrier, drive_for_m(0.3, 2e9), drive_for_m(0.4, 5e9), self.P_IF, self.P_LO
        )
        # each rail carries its own drive on the selected side only, with no
        # cross-talk from the other rail's drive
        for env, keep, reject in (
            (out.env_x, -2e9, (2e9, -5e9, 5e9)),
            (out.env_y, 5e9, (-5e9, 2e9, -2e9)),
        ):
            main = abs(line(env, GRID, 0.0))
            side = abs(line(env, GRID, keep))
            assert side > 1e-3 * main
            for f_r in reject:
                assert abs(line(env, GRID, f_r)) < 1e-6 * main

    def test_zero_drives_equal_cw_rails(self):
        carrier = laser_cw(10.0, FC, "x", GRID)
        zero = make_tone(ToneSpec(amplitude=0.0, frequency=2e9), GRID)
        out = dp_bpsk_modulate(carrier, zero, zero, self.P_IF, self.P_LO)
        px = np.mean(np.abs(out.env_x) ** 2)
        py = np.mean(np.abs(out.env_y) ** 2)
        assert px == pytest.approx(py, rel=1e-12)


class TestPolarizationElements:
    def _field(self):
        carrier = laser_cw(10.0, FC, "x", GRID)
        return dp_bpsk_modulate(
            carrier,
            drive_for_m(0.3, 2e9),
            drive_for_m(0.4, 6e9),
            ModulatorParams(v_pi=3.5, sideband="lower"),
            ModulatorParams(v_pi=3.5, sideband="upper"),
        )

    def test_polarizer_aligned(self):
        f = laser_cw(0.0, FC, "x", GRID)
        g = polarizer(f, 0.0)
        assert np.allclose(g.env_x, f.env_x)

    def test_polarizer_45_half_power(self):
        f = laser_cw(0.0, FC, "x", GRID)
        g = polarizer(f, np.pi / 4)
        assert g.total_power() == pytest.approx(f.total_power() / 2, rel=1e-12)

    def test_polarizer_crossed_extinction(self):
        f = laser_cw(0.0, FC, "x", GRID)
        g = polarizer(f, np.pi / 2)
        assert g.total_power() < 1e-30

    def test_pbs_pbc_round_trip(self):
        f = self._field()
        x, y = pbs(f)
        g = pbc(x, y)
        assert np.array_equal(g.env_x, f.env_x)
        assert np.array_equal(g.env_y, f.env_y)
        assert x.total_power() + y.total_power() == pytest.approx(
            f.total_power(), rel=1e-12
        )

    def test_pbs_of_single_rail(self):
        f = laser_cw(0.0, FC, "x", GRID)
        x, y = pbs(f)
        assert np.array_equal(x.env_x, f.env_x)
        assert y.total_power() == 0.0

    def test_pbc_rail_conflict(self):
        f = laser_cw(0.0, FC, "x", GRID)
        with pytest.raises(RailConflict):
            pbc(f, f)


class TestFiber:
    def test_zero_length_identity(self):
        f = laser_cw(0.0, FC, "x", GRID)
        g = fiber_propagate(f, FiberParams(length=0.0))
        assert np.array_equal(g.env_x, f.env_x)

    def test_beta2_value(self):
        fp = FiberParams(length=1.0)
        assert fp.beta2 * 1e27 == pytest.approx(-22.15, abs=0.1)  # ps^2/km

    def test_sideband_phase_4p1_km(self):
        carrier = laser_cw(0.0, FC, "x", GRID)
        out = dd_mzm_ssb(carrier, drive_for_m(0.2, 8e9), ModulatorParams(v_pi=3.5, sideband="upper"))
        fp = FiberParams(length=4.1, attenuation=0.0)
        prop = fiber_propagate(out, fp)
        rot = (
            line(prop.env_x, GRID, 8e9) / line(out.env_x, GRID, 8e9)
        ) / (line(prop.env_x, GRID, 0.0) / line(out.env_x, GRID, 0.0))
        # (beta2 * L / 2) * dw^2 with L in meters
        expected = 0.5 * fp.beta2 * 4.1e3 * (2 * np.pi * 8e9) ** 2
        assert np.angle(rot) == pytest.approx(expected, abs=0.002)
        assert expected == pytest.approx(-0.115, abs=0.005)

    def test_cascade_equals_sum(self):
        f = self._modulated()
        a = fiber_propagate(fiber_propagate(f, FiberParams(length=1.3)), FiberParams(length=2.8))
        b = fiber_propagate(f, FiberParams(length=4.1))
        assert np.allclose(a.env_x, b.env_x, atol=1e-15)

    def _modulated(self):
        carrier = laser_cw(0.0, FC, "x", GRID)
        return dd_mzm_ssb(carrier, drive_for_m(0.3, 8e9), ModulatorParams(v_pi=3.5, sideband="upper"))

    def _rf_power_at(self, field, f_rf):
        i = photodetect(field)
        return abs(line(i.samples, GRID, f_rf))

    def test_ssb_immune_dsb_fades(self):
        carrier = laser_cw(0.0, FC, "x", GRID)
        f_rf = 12e9
        drive = drive_for_m(0.3, f_rf)
        ssb = dd_mzm_ssb(carrier, drive, ModulatorParams(v_pi=3.5, sideband="upper"))
        dsb = mzm_dsb(carrier, drive, ModulatorParams(v_pi=3.5))
        beta2 = FiberParams(length=1.0).beta2
        l_null = np.pi / (abs(beta2) * (2 * np.pi * f_rf) ** 2) / 1e3  # km
        lengths = sorted(set(np.linspace(0.0, 40.0, 21)) | {l_null})
        p_ssb = [
            self._rf_power_at(fiber_propagate(ssb, FiberParams(length=L, attenuation=0.0)), f_rf)
            for L in lengths
        ]
        p_dsb = [
            self._rf_power_at(fiber_propagate(dsb, FiberParams(length=L, attenuation=0.0)), f_rf)
            for L in lengths
        ]
        ripple = 20 * np.log10(max(p_ssb) / min(p_ssb))
        fade = 20 * np.log10(max(p_dsb) / min(p_dsb))
        assert ripple < 0.5
        assert fade > 20.0


class TestAttenuateDelay:
    def test_identity_settings(self):
        f = laser_cw(0.0, FC, "x", GRID)
        g = delay_line(attenuate(f, 1.0), 0.0)
        assert np.allclose(g.env_x, f.env_x, atol=1e-12)

    def test_quarter_power(self):
        f = laser_cw(0.0, FC, "x", GRID)
        g = attenuate(f, 0.25)
        assert 10 * np.log10(f.total_power() / g.total_power()) == pytest.approx(
            6.02, abs=0.01
        )

    def test_gain_rejected(self):
        f = laser_cw(0.0, FC, "x", GRID)
        with pytest.raises(GainNotAllowed):
            attenuate(f, 1.5)

    def test_full_carrier_period_delay(self):
        carrier = laser_cw(0.0, FC, "x", GRID)
        f = dd_mzm_ssb(carrier, drive_for_m(0.2, 2e9), MOD)
        g = delay_line(f, 1.0 / FC)
        assert np.allclose(g.env_x, f.env_x, atol=1e-6)

    def test_delay_keeps_dark_rail_dark(self):
        carrier = laser_cw(0.0, FC, "x", GRID)
        f = dd_mzm_ssb(carrier, drive_for_m(0.2, 2e9), MOD)
        g = delay_line(f, 0.37e-9)
        assert not np.any(g.env_y)
        assert np.any(g.env_x)

    def test_zero_delay_is_an_exact_copy(self):
        carrier = laser_cw(0.0, FC, "x", GRID)
        f = dd_mzm_ssb(carrier, drive_for_m(0.2, 2e9), MOD)
        g = delay_line(f, 0.0)
        assert np.array_equal(g.env_x, f.env_x)
        assert np.array_equal(g.env_y, f.env_y)
        assert g.env_x is not f.env_x


class TestDetectors:
    def test_cw_dc_current(self):
        f = laser_cw(10.0, FC, "x", GRID)
        i = photodetect(f, responsivity=0.8)
        assert np.allclose(i.samples, 0.8 * 0.01)

    def test_polarized_dp_bpsk_rf_line(self):
        carrier = laser_cw(10.0, FC, "x", GRID)
        out = dp_bpsk_modulate(
            carrier,
            drive_for_m(0.3, 2e9),
            drive_for_m(0.4, 5e9),
            ModulatorParams(v_pi=3.5, sideband="lower"),
            ModulatorParams(v_pi=3.5, sideband="upper"),
        )
        i = photodetect(polarizer(out, np.pi / 4))
        assert abs(line(i.samples, GRID, 7e9)) > 10 * abs(line(i.samples, GRID, 3e9))

    def test_rf_amplitude_tracks_bessel_product(self):
        carrier = laser_cw(10.0, FC, "x", GRID)
        amps = []
        ms = [0.05, 0.1, 0.2]
        for m in ms:
            out = dp_bpsk_modulate(
                carrier,
                drive_for_m(m, 2e9),
                drive_for_m(m, 5e9),
                ModulatorParams(v_pi=3.5, sideband="lower"),
                ModulatorParams(v_pi=3.5, sideband="upper"),
            )
            i = photodetect(polarizer(out, np.pi / 4))
            amps.append(abs(line(i.samples, GRID, 7e9)))
        preds = [j1(m) ** 2 for m in ms]
        ratios = [a / p for a, p in zip(amps, preds)]
        assert max(ratios) / min(ratios) == pytest.approx(1.0, rel=0.01)

    def test_balanced_common_mode_rejection(self):
        f = laser_cw(10.0, FC, "x", GRID)
        out = balanced_detect(f, f)
        assert np.all(out.samples == 0)

    def test_balanced_one_dark(self):
        f = laser_cw(10.0, FC, "x", GRID)
        dark = laser_cw(-np.inf, FC, "x", GRID)
        out = balanced_detect(f, dark)
        assert np.allclose(out.samples, photodetect(f).samples)
