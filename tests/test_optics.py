"""Optical components: modulators, polarization elements, fiber, detectors."""

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings, strategies as st
from scipy.special import j0, j1

import rofsim.optics
from rofsim.errors import GridError, RailConflict
from rofsim.optics import (
    FiberParams,
    ModulatorParams,
    OpticalField,
    dd_mzm_ssb,
    dp_bpsk_modulate,
    fiber_propagate,
    fiber_transfer,
    pbc,
    pbs,
    photodetect,
    polarizer,
    split_branch,
)
from rofsim.optics import _BLOCK, _hilbert90, _ssb_transfer
from rofsim.signal_core import TimeGrid, ToneSpec, make_tone

from optics_oracles import (
    GainNotAllowed,
    attenuate,
    balanced_detect,
    delay_line,
    laser_cw,
    mzm_dsb,
    ssb_smallsignal_coefficients,
    total_power,
)

GRID = TimeGrid(sample_rate=64e9, n_samples=2**16)
FC = 191.3e12  # a C-band carrier, Hz: the delay line's carrier phase reads it
MOD = ModulatorParams(v_pi=3.5, sideband="lower")


def line(env: np.ndarray, grid: TimeGrid, f_offset: float) -> complex:
    """Complex amplitude of the envelope spectral line at the given offset."""
    spec = np.fft.fft(env) / env.size
    k = int(round(f_offset / (grid.sample_rate / grid.n_samples)))
    return complex(spec[k])


def drive_for_m(m: float, f: float, v_pi: float = 3.5):
    return make_tone(ToneSpec(amplitude=m * v_pi / np.pi, frequency=f), GRID)


def co_modulate(laser_power_dbm, if_drive, lo_drive, v_pi: float = 3.5):
    """`dp_bpsk_modulate` of the laser with the LO branch built from `lo_drive`."""
    lo_branch = split_branch(laser_power_dbm, lo_drive, v_pi, "y")
    return dp_bpsk_modulate(laser_power_dbm, if_drive, lo_branch, v_pi)


class TestLaserCw:
    def test_ten_dbm_x_rail(self):
        f = laser_cw(10.0, "x", GRID)
        assert np.allclose(np.abs(f.env_x), np.sqrt(0.01))
        assert np.all(f.env_y == 0)

    def test_zero_dbm_amplitude(self):
        f = laser_cw(0.0, "y", GRID)
        assert np.allclose(np.abs(f.env_y), 0.0316228, atol=1e-6)

    def test_dark_limit(self):
        # -inf dBm is a lit rail of zeros, not a dark rail
        f = laser_cw(-np.inf, "x", GRID)
        assert total_power(f) == 0.0
        assert f.rail() == "x"
        assert np.array_equal(photodetect(f).samples, np.zeros(GRID.n_samples))


class TestDarkRails:
    """A dark rail is None in the field: it reads as zeros, and no step
    transforms it."""

    @pytest.mark.parametrize("spectral", [(False, False), (True, True)])
    def test_dark_rail_reads_as_zero_stride_zeros(self, spectral):
        f = OpticalField(GRID, np.ones(GRID.n_samples), None, spectral=spectral)
        assert f.rail() == "x"
        for rail in (f.env_y, f.spectrum_y):
            assert rail.shape == (GRID.n_samples,) and rail.strides == (0,)
            assert not rail.flags.writeable and not np.any(rail)

    @pytest.mark.parametrize("lit", [(True, False), (False, True), (True, True)])
    def test_only_lit_rails_are_transformed(self, lit, monkeypatch):
        calls = []

        def counted(transform):
            def wrapper(*args, **kwargs):
                calls.append(transform.__name__)
                return transform(*args, **kwargs)
            return wrapper

        for name in ("fft", "ifft"):
            monkeypatch.setattr(scipy.fft, name, counted(getattr(scipy.fft, name)))
        env = np.ones(GRID.n_samples)
        f = OpticalField(GRID, *(env if on else None for on in lit))
        spectra = f.held_as((True, True))
        assert calls == ["fft"] * sum(lit)
        assert spectra.rail() == f.rail()
        calls.clear()
        f.filtered(np.ones(GRID.n_samples))
        assert calls == ["fft", "ifft"] * sum(lit)


class TestSingleRailRules:
    # dd_mzm_ssb is the one modulator that takes a carrier field: the CO
    # modulator takes the laser power
    @pytest.mark.parametrize("element", ["dd_mzm_ssb"])
    def test_modulators_reject_a_two_rail_carrier(self, element):
        both = pbc(laser_cw(0.0, "x", GRID), laser_cw(0.0, "y", GRID))
        with pytest.raises(ValueError, match=f"^{element} carrier must occupy a single rail$"):
            dd_mzm_ssb(both, drive_for_m(0.3, 2e9), MOD)

    @pytest.mark.parametrize("x_in, y_in", [
        pytest.param("both", "y", id="x-input-spare-lit-both"),
        pytest.param("y", "y", id="x-input-on-y"),
        pytest.param("x", "both", id="y-input-spare-lit-both"),
    ])
    def test_pbc_rejects_a_lit_spare_rail(self, x_in, y_in):
        fields = {p: laser_cw(0.0, p, GRID) for p in ("x", "y")}
        fields["both"] = pbc(fields["x"], fields["y"])
        with pytest.raises(RailConflict):
            pbc(fields[x_in], fields[y_in])


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
        carrier = laser_cw(0.0, "x", GRID)
        zero = make_tone(ToneSpec(amplitude=0.0, frequency=2e9), GRID)
        out = dd_mzm_ssb(carrier, zero, MOD)
        # (1 + e^{-j pi/2})/2 has magnitude 1/sqrt(2): 3 dB below the carrier
        assert 10 * np.log10(total_power(carrier) / total_power(out)) == pytest.approx(
            3.01, abs=0.01
        )

    def test_carrier_sideband_ratio_m02(self):
        carrier = laser_cw(0.0, "x", GRID)
        out = dd_mzm_ssb(carrier, drive_for_m(0.2, 2e9), MOD)
        c = line(out.env_x, GRID, 0.0)
        s = line(out.env_x, GRID, -2e9)
        ratio_db = 20 * np.log10(abs(c) / abs(s))
        expected = 20 * np.log10((np.sqrt(2) / 2) * j0(0.2) / j1(0.2))
        assert ratio_db == pytest.approx(expected, abs=0.05)
        assert expected == pytest.approx(16.9, abs=0.1)

    def test_unwanted_sideband_suppression(self):
        carrier = laser_cw(0.0, "x", GRID)
        out = dd_mzm_ssb(carrier, drive_for_m(0.2, 2e9), MOD)
        wanted = line(out.env_x, GRID, -2e9)
        unwanted = line(out.env_x, GRID, 2e9)
        assert 20 * np.log10(abs(wanted) / max(abs(unwanted), 1e-300)) >= 60.0

    def test_upper_sideband_selection(self):
        carrier = laser_cw(0.0, "x", GRID)
        upper = ModulatorParams(v_pi=3.5, sideband="upper")
        out = dd_mzm_ssb(carrier, drive_for_m(0.2, 2e9), upper)
        assert abs(line(out.env_x, GRID, 2e9)) > 100 * abs(line(out.env_x, GRID, -2e9))

    @pytest.mark.parametrize("v_pi", [0.0, -3.5, np.inf, np.nan])
    def test_v_pi_must_be_finite_and_positive(self, v_pi):
        # pi / v_pi would modulate with a phase of 0 (inf) or NaN
        with pytest.raises(ValueError, match="^v_pi must be a finite, positive voltage$"):
            ModulatorParams(v_pi=v_pi)

    @settings(deadline=None, max_examples=15)
    @given(m=st.floats(0.02, 0.3), f=st.sampled_from([1e9, 2e9, 5e9, 6e9]))
    def test_smallsignal_oracle_within_2_percent(self, m, f):
        carrier = laser_cw(0.0, "x", GRID)
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
        n=st.sampled_from([1024, 2 * _BLOCK + 77]),  # one block, and a ragged last one
    )
    def test_transfer_matches_two_exponential_form(self, seed, scale, v_pi, sideband, n):
        drive = scale * np.random.default_rng(seed).standard_normal(n)
        params = ModulatorParams(v_pi=v_pi, sideband=sideband)
        q = _hilbert90(drive) if sideband == "upper" else -_hilbert90(drive)
        pa = np.pi / v_pi * drive
        pb = np.pi / v_pi * q - 0.5 * np.pi
        ref = 0.5 * (np.exp(1j * pa) + np.exp(1j * pb))
        got = _ssb_transfer(drive, _hilbert90(drive), params)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12)

    def test_blocks_are_the_whole_record(self, monkeypatch):
        # the transfer is pointwise, so its blocks give the one-block result bit for bit
        drive = 3.0 * np.random.default_rng(5).standard_normal(2 * _BLOCK + 77)
        q = _hilbert90(drive)
        blocked = _ssb_transfer(drive, q, MOD)
        monkeypatch.setattr(rofsim.optics, "_BLOCK", drive.size)
        assert np.array_equal(blocked, _ssb_transfer(drive, q, MOD))


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
    def test_rail_line_layout(self):
        out = co_modulate(10.0, drive_for_m(0.3, 2e9), drive_for_m(0.4, 5e9))
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
        zero = make_tone(ToneSpec(amplitude=0.0, frequency=2e9), GRID)
        out = co_modulate(10.0, zero, zero)
        px = np.mean(np.abs(out.env_x) ** 2)
        py = np.mean(np.abs(out.env_y) ** 2)
        assert px == pytest.approx(py, rel=1e-12)

    @pytest.mark.parametrize("off_grid", ["if", "lo"])
    def test_drive_on_another_grid(self, off_grid):
        other = TimeGrid(sample_rate=GRID.sample_rate, n_samples=GRID.n_samples // 2)
        drives = {"if": drive_for_m(0.3, 2e9), "lo": drive_for_m(0.4, 5e9)}
        drives[off_grid] = make_tone(ToneSpec(amplitude=1.0, frequency=2e9), other)
        # each branch is built on its drive's grid, so `pbc` sees the mismatch
        with pytest.raises(GridError):
            co_modulate(10.0, drives["if"], drives["lo"])

    def test_split_laser_is_the_laser_over_root_two(self):
        # the branch's carrier is the split CW laser, bit for bit, so a
        # zero drive leaves it on its rail
        zero = make_tone(ToneSpec(amplitude=0.0, frequency=2e9), GRID)
        want = laser_cw(10.0, "x", GRID).env_x / np.sqrt(2.0)
        branch = split_branch(10.0, zero, 3.5, "x")
        assert branch.rail() == "x"
        transfer = _ssb_transfer(zero.samples, _hilbert90(zero.samples), MOD)
        assert np.array_equal(branch.env_x, want * transfer)


class TestSplitBranch:
    """`dp_bpsk_modulate` recombines a built LO branch as is; the rail layout of
    both branches is `TestDpBpskModulator.test_rail_line_layout`."""

    def test_unknown_rail(self):
        with pytest.raises(ValueError, match="rail must be 'x' or 'y'"):
            split_branch(10.0, drive_for_m(0.3, 2e9), 3.5, "z")

    @pytest.mark.parametrize("spectral", [False, True])
    def test_output_y_rail_is_the_lo_branch_rail(self, spectral):
        lo = split_branch(10.0, drive_for_m(0.4, 5e9), 3.5, "y").held_as((False, spectral))
        out = dp_bpsk_modulate(10.0, drive_for_m(0.3, 2e9), lo, 3.5)
        assert out.spectral == (False, spectral)
        assert out._held[1] is lo._held[1]  # shared, not copied

    def test_lo_branch_on_the_x_rail_is_rejected(self):
        wrong = split_branch(10.0, drive_for_m(0.4, 5e9), 3.5, "x")
        with pytest.raises(RailConflict):
            dp_bpsk_modulate(10.0, drive_for_m(0.3, 2e9), wrong, 3.5)


class TestPolarizationElements:
    def _field(self):
        return co_modulate(10.0, drive_for_m(0.3, 2e9), drive_for_m(0.4, 6e9))

    def test_polarizer_aligned(self):
        f = laser_cw(0.0, "x", GRID)
        g = polarizer(f, 0.0)
        assert np.allclose(g.env_x, f.env_x)

    def test_polarizer_45_half_power(self):
        f = laser_cw(0.0, "x", GRID)
        g = polarizer(f, np.pi / 4)
        assert total_power(g) == pytest.approx(total_power(f) / 2, rel=1e-12)

    def test_polarizer_crossed_extinction(self):
        f = laser_cw(0.0, "x", GRID)
        g = polarizer(f, np.pi / 2)
        assert total_power(g) < 1e-30

    def test_pbs_pbc_round_trip(self):
        f = self._field()
        x, y = pbs(f)
        g = pbc(x, y)
        assert np.array_equal(g.env_x, f.env_x)
        assert np.array_equal(g.env_y, f.env_y)
        assert total_power(x) + total_power(y) == pytest.approx(
            total_power(f), rel=1e-12
        )

    @settings(deadline=None, max_examples=50)
    @given(
        seed=st.integers(0, 2**32 - 1),
        y_scale=st.floats(0.0, 10.0),
        theta=st.floats(0.0, 2.0 * np.pi),
    )
    def test_polarization_elements_conserve_energy(self, seed, y_scale, theta):
        grid = TimeGrid(sample_rate=64e9, n_samples=256)
        rng = np.random.default_rng(seed)
        env_x, env_y = rng.standard_normal((2, grid.n_samples)) + 1j * rng.standard_normal(
            (2, grid.n_samples)
        )
        f = OpticalField(grid, env_x, y_scale * env_y)
        p = total_power(f)
        x, y = pbs(f)
        assert total_power(x) + total_power(y) == pytest.approx(p, rel=1e-12)
        g = pbc(*pbs(f))
        assert np.array_equal(g.env_x, f.env_x) and np.array_equal(g.env_y, f.env_y)
        split = total_power(polarizer(f, theta)) + total_power(polarizer(f, theta + np.pi / 2))
        assert split == pytest.approx(p, rel=1e-12)
        single = OpticalField(grid, env_x, np.zeros(grid.n_samples))
        assert total_power(polarizer(single, np.pi / 4)) == pytest.approx(
            total_power(single) / 2, rel=1e-12
        )

    def test_pbs_of_single_rail(self):
        f = laser_cw(0.0, "x", GRID)
        x, y = pbs(f)
        assert np.array_equal(x.env_x, f.env_x)
        assert total_power(y) == 0.0

    def test_pbc_rail_conflict(self):
        f = laser_cw(0.0, "x", GRID)
        with pytest.raises(RailConflict):
            pbc(f, f)


class TestFiber:
    def test_zero_length_identity(self):
        f = laser_cw(0.0, "x", GRID)
        g = fiber_propagate(f, FiberParams(length=0.0))
        assert np.array_equal(g.env_x, f.env_x)
        assert g is f

    def test_beta2_value(self):
        fp = FiberParams(length=1.0)
        assert fp.beta2 * 1e27 == pytest.approx(-22.15, abs=0.1)  # ps^2/km

    def test_sideband_phase_4p1_km(self):
        carrier = laser_cw(0.0, "x", GRID)
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

    @pytest.mark.parametrize("n", [2**20, 4097, 1000, 2])
    @pytest.mark.parametrize("length", [0.3, 4.1, 20.0])
    def test_transfer_is_the_full_grid_formula(self, n, length):
        # w^2 is even, so mirroring the non-negative bins is exact
        fp = FiberParams(length=length)
        grid = TimeGrid(sample_rate=64e9, n_samples=n)
        dw = 2.0 * np.pi * grid.freqs()
        loss = 10.0 ** (-fp.attenuation * fp.length / 20.0)
        full = loss * np.exp(0.5j * fp.beta2 * (fp.length * 1e3) * dw**2)
        assert np.array_equal(fiber_transfer(fp, grid), full)

    def test_spectral_rails_read_as_samples(self):
        f = self._modulated()
        spectrum_x = f.spectrum_x
        held = OpticalField(GRID, spectrum_x, None, spectral=(True, True))
        assert held.rail() == f.rail() == "x"
        assert held.spectrum_x is spectrum_x
        np.testing.assert_allclose(held.env_x, f.env_x, rtol=0, atol=1e-15)
        for rail in (held.env_x, held.spectrum_x, f.spectrum_x):
            with pytest.raises(ValueError):
                rail[0] = 0.0

    def test_cascade_equals_sum(self):
        f = self._modulated()
        a = fiber_propagate(fiber_propagate(f, FiberParams(length=1.3)), FiberParams(length=2.8))
        b = fiber_propagate(f, FiberParams(length=4.1))
        assert np.allclose(a.env_x, b.env_x, atol=1e-15)

    def _modulated(self):
        carrier = laser_cw(0.0, "x", GRID)
        return dd_mzm_ssb(carrier, drive_for_m(0.3, 8e9), ModulatorParams(v_pi=3.5, sideband="upper"))

    def _rf_power_at(self, field, f_rf):
        i = photodetect(field)
        return abs(line(i.samples, GRID, f_rf))

    def test_ssb_immune_dsb_fades(self):
        carrier = laser_cw(0.0, "x", GRID)
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
        f = laser_cw(0.0, "x", GRID)
        g = delay_line(attenuate(f, 1.0), 0.0)
        assert np.allclose(g.env_x, f.env_x, atol=1e-12)

    def test_quarter_power(self):
        f = laser_cw(0.0, "x", GRID)
        g = attenuate(f, 0.25)
        assert 10 * np.log10(total_power(f) / total_power(g)) == pytest.approx(
            6.02, abs=0.01
        )

    def test_gain_rejected(self):
        f = laser_cw(0.0, "x", GRID)
        with pytest.raises(GainNotAllowed):
            attenuate(f, 1.5)

    def test_full_carrier_period_delay(self):
        carrier = laser_cw(0.0, "x", GRID)
        f = dd_mzm_ssb(carrier, drive_for_m(0.2, 2e9), MOD)
        g = delay_line(f, 1.0 / FC, FC)
        assert np.allclose(g.env_x, f.env_x, atol=1e-6)

    def test_delay_keeps_dark_rail_dark(self):
        carrier = laser_cw(0.0, "x", GRID)
        f = dd_mzm_ssb(carrier, drive_for_m(0.2, 2e9), MOD)
        g = delay_line(f, 0.37e-9)
        assert not np.any(g.env_y)
        assert np.any(g.env_x)

    def test_zero_delay_is_an_exact_copy(self):
        carrier = laser_cw(0.0, "x", GRID)
        f = dd_mzm_ssb(carrier, drive_for_m(0.2, 2e9), MOD)
        g = delay_line(f, 0.0)
        assert np.array_equal(g.env_x, f.env_x)
        assert np.array_equal(g.env_y, f.env_y)
        assert g is f


class TestDetectors:
    def test_cw_dc_current(self):
        f = laser_cw(10.0, "x", GRID)
        i = photodetect(f, responsivity=0.8)
        assert np.allclose(i.samples, 0.8 * 0.01)

    def test_polarized_dp_bpsk_rf_line(self):
        out = co_modulate(10.0, drive_for_m(0.3, 2e9), drive_for_m(0.4, 5e9))
        i = photodetect(polarizer(out, np.pi / 4))
        assert abs(line(i.samples, GRID, 7e9)) > 10 * abs(line(i.samples, GRID, 3e9))

    def test_rf_amplitude_tracks_bessel_product(self):
        amps = []
        ms = [0.05, 0.1, 0.2]
        for m in ms:
            out = co_modulate(10.0, drive_for_m(m, 2e9), drive_for_m(m, 5e9))
            i = photodetect(polarizer(out, np.pi / 4))
            amps.append(abs(line(i.samples, GRID, 7e9)))
        preds = [j1(m) ** 2 for m in ms]
        ratios = [a / p for a, p in zip(amps, preds)]
        assert max(ratios) / min(ratios) == pytest.approx(1.0, rel=0.01)

    def test_balanced_common_mode_rejection(self):
        f = laser_cw(10.0, "x", GRID)
        out = balanced_detect(f, f)
        assert np.all(out.samples == 0)

    def test_balanced_one_dark(self):
        f = laser_cw(10.0, "x", GRID)
        dark = laser_cw(-np.inf, "x", GRID)
        out = balanced_detect(f, dark)
        assert np.allclose(out.samples, photodetect(f).samples)
