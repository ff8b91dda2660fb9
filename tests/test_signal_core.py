"""Waveform, spectrum and metric primitives."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.fft as sfft
import scipy.signal
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import rofsim
from rofsim.errors import AliasError, LockError, RangeError, ResolutionError
from rofsim.signal_core import (
    QamSignalSpec,
    SampledWaveform,
    TimeGrid,
    ToneSpec,
    band_power,
    dbm_to_amplitude,
    demodulate_evm,
    filter_band,
    fractional_delay,
    make_qam,
    make_tone,
    phase_shift,
    welch_psd,
    welch_segment,
)
from rofsim.signal_core import _chirp_z, _edge_mask, _qam_support, _rrc_response, _welch

from optics_oracles import cancellation_depth, mean_power
from qam_oracles import dense_demodulate_evm, dense_make_qam, qam_impulses

GRID = TimeGrid(sample_rate=64e9, n_samples=2**16)
GRID_LONG = TimeGrid(sample_rate=64e9, n_samples=2**18)


class TestTimeGrid:
    def test_basic_properties(self):
        assert GRID.dt == pytest.approx(1.0 / 64e9)
        assert GRID.nyquist == pytest.approx(32e9)
        assert GRID.duration == pytest.approx(2**16 / 64e9)
        assert GRID.times().shape == (2**16,)

    def test_invalid_grid_rejected(self):
        with pytest.raises(Exception):
            TimeGrid(sample_rate=-1.0, n_samples=16)


class TestMakeTone:
    def test_zero_frequency_is_constant(self):
        w = make_tone(ToneSpec(amplitude=1.0, frequency=0.0), GRID)
        assert np.allclose(w.samples, 1.0)

    def test_cosine_definition_and_power(self):
        spec = ToneSpec(amplitude=1.0, frequency=2e9)
        w = make_tone(spec, GRID)
        expected = np.cos(2 * np.pi * 2e9 * GRID.times())
        assert np.allclose(w.samples, expected)
        assert mean_power(w) == pytest.approx(0.5, rel=1e-9)

    def test_nyquist_rejected(self):
        with pytest.raises(AliasError):
            make_tone(ToneSpec(amplitude=1.0, frequency=32e9), GRID)

    @settings(deadline=None, max_examples=25)
    @given(
        amp=st.floats(1e-3, 10.0),
        c=st.floats(0.1, 5.0),
        f=st.sampled_from([1e9, 2e9, 2.1e9, 6e9]),
    )
    def test_linearity(self, amp, c, f):
        a = make_tone(ToneSpec(amplitude=amp, frequency=f), GRID).scaled(c)
        b = make_tone(ToneSpec(amplitude=c * amp, frequency=f), GRID)
        assert np.allclose(a.samples, b.samples, rtol=1e-12, atol=1e-15)


class TestPeriod:
    """A drive's period on a grid: the shortest P dividing the record with
    f/fs = k/P exactly, else the record."""

    @pytest.mark.parametrize("spec, n, period", [
        pytest.param(ToneSpec(1.0, 6e9), 2**20, 32, id="6GHz"),
        pytest.param(ToneSpec(1.0, 5e9), 2**20, 64, id="5GHz"),
        pytest.param(ToneSpec(1.0, 2.1e9), 2**20, 2**20, id="2.1GHz"),  # 21/640
        pytest.param(ToneSpec(1.0, 2.1e9), 640 * 4, 640, id="2.1GHz-on-640s"),
        pytest.param(ToneSpec(1.0, 6.06e9), 2**20, 2**20, id="6.06GHz"),  # 303/3200
        pytest.param(ToneSpec(1.0, 64e9 / 3), 2**20, 2**20, id="fs/3"),  # not 1/3 as floats
        pytest.param(QamSignalSpec(), 2**20, 2**20, id="qam"),
    ])
    def test_period(self, spec, n, period):
        grid = TimeGrid(sample_rate=64e9, n_samples=n)
        assert spec.period(grid) == period
        if spec.kind == "tone" and period < n:  # the first period repeats
            w = spec.waveform(grid).samples
            np.testing.assert_allclose(w, np.tile(w[:period], n // period), rtol=0, atol=1e-9)


class TestMakeQam:
    SPEC = QamSignalSpec(symbol_rate=20e6, frequency=2e9, power_dbm=0.0, seed=3)

    def test_occupied_bandwidth(self):
        w = make_qam(self.SPEC, GRID_LONG)
        est = welch_psd(w, rbw=1e6)
        total = band_power(est, 1e9, 3e9)
        hw = self.SPEC.occupied_halfwidth
        inside = band_power(est, 2e9 - hw, 2e9 + hw)
        assert inside > total - 0.1  # >= 97.7% of the power inside (1+r)*Rs

    def test_power_normalization(self):
        w = make_qam(self.SPEC, GRID_LONG)
        p_dbm = 10 * np.log10(mean_power(w) / 50.0 / 1e-3)
        assert p_dbm == pytest.approx(0.0, abs=1e-9)

    def test_deterministic(self):
        a = make_qam(self.SPEC, GRID_LONG)
        b = make_qam(self.SPEC, GRID_LONG)
        assert np.array_equal(a.samples, b.samples)

    def test_loopback_evm_below_one_percent(self):
        w = make_qam(self.SPEC, GRID_LONG)
        assert demodulate_evm(w, self.SPEC) < 1.0

    def test_too_few_symbols_rejected(self):
        with pytest.raises(ValueError):
            make_qam(QamSignalSpec(symbol_rate=1e6, frequency=2e9), GRID)

    def test_non_integer_sps_rejected(self):
        with pytest.raises(ValueError):
            make_qam(QamSignalSpec(symbol_rate=30e6, frequency=2e9), GRID_LONG)


class TestWelchPsd:
    def test_tone_parseval(self):
        w = make_tone(ToneSpec(amplitude=dbm_to_amplitude(0.0), frequency=2e9), GRID_LONG)
        est = welch_psd(w, rbw=1e6)
        assert band_power(est, 2e9 - 3e6, 2e9 + 3e6) == pytest.approx(0.0, abs=0.2)

    def test_zero_waveform_floor(self):
        w = SampledWaveform(GRID_LONG, np.zeros(GRID_LONG.n_samples, dtype=np.complex128))
        est = welch_psd(w, rbw=1e6)
        assert np.all(est.psd <= -300.0)

    def test_equal_tones_equal_peaks(self):
        w = make_tone(ToneSpec(amplitude=1.0, frequency=2e9), GRID_LONG) + make_tone(
            ToneSpec(amplitude=1.0, frequency=2.1e9), GRID_LONG
        )
        est = welch_psd(w, rbw=1e6)
        pk1 = est.psd[np.argmin(np.abs(est.freqs - 2e9))]
        pk2 = est.psd[np.argmin(np.abs(est.freqs - 2.1e9))]
        assert pk1 == pytest.approx(pk2, abs=0.1)

    def test_parseval_full_band(self):
        rng = np.random.default_rng(0)
        w = SampledWaveform(GRID_LONG, rng.standard_normal(GRID_LONG.n_samples))
        est = welch_psd(w, rbw=10e6)
        total = band_power(est, est.freqs[0], est.freqs[-1])
        direct = 10 * np.log10(mean_power(w) / 50.0 / 1e-3)
        assert total == pytest.approx(direct, abs=0.2)

    def test_unachievable_rbw_rejected(self):
        w = make_tone(ToneSpec(amplitude=1.0, frequency=2e9), GRID)
        with pytest.raises(ResolutionError):
            welch_psd(w, rbw=100.0)
        # the 8-sample minimum segment is longer than this record
        short = SampledWaveform(TimeGrid(1e9, 4), np.zeros(4))
        with pytest.raises(ResolutionError):
            welch_psd(short, rbw=1e9)

    @settings(deadline=None, max_examples=25)
    @pytest.mark.parametrize("onesided", [True, False])
    @pytest.mark.parametrize("odd", [False, True])
    @pytest.mark.parametrize("tiled", [True, False])
    @given(data=st.data())
    def test_matches_scipy_welch(self, onesided, odd, tiled, data):
        nperseg = 2 * data.draw(st.integers(4, 100)) + odd
        hop = nperseg - nperseg // 2
        tail = 0 if tiled else data.draw(st.integers(1, hop - 1))
        n = nperseg + data.draw(st.integers(0, 6)) * hop + tail
        fs = 1e9
        grid = TimeGrid(fs, n)
        rbw = 1.5 * fs / nperseg
        assert welch_segment(grid, rbw) == nperseg
        parts = data.draw(
            arrays(np.float64, (1 if onesided else 2, n), elements=st.floats(-1e3, 1e3))
        )
        x = parts[0] if onesided else parts[0] + 1j * parts[1]

        freqs, pxx, _ = _welch(x, grid, rbw, onesided)
        ref_freqs, ref = scipy.signal.welch(
            x, fs, window="hann", nperseg=nperseg, noverlap=nperseg // 2,
            detrend=False, return_onesided=onesided, scaling="density",
        )
        assert np.array_equal(freqs, ref_freqs)
        # bins far below the peak are compared against it, not against themselves
        np.testing.assert_allclose(pxx, ref, rtol=1e-12, atol=1e-12 * ref.max())


def test_import_loads_no_scipy_signal():
    # the Welch estimator runs on scipy.fft and the tuner's tau2 search is
    # Newton steps on a closed form, so importing rofsim must not pay for
    # scipy.signal, the scipy.stats it pulls in, or scipy.optimize
    code = (
        "import sys, rofsim, rofsim.cli; print(sorted(m for m in "
        "('scipy.signal', 'scipy.stats', 'scipy.optimize') if m in sys.modules))"
    )
    src = str(Path(rofsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


class TestBandPower:
    def test_full_tone_power(self):
        w = make_tone(ToneSpec(amplitude=dbm_to_amplitude(0.0), frequency=2e9), GRID_LONG)
        est = welch_psd(w, rbw=1e6)
        assert band_power(est, 1e9, 3e9) == pytest.approx(0.0, abs=0.2)

    def test_empty_band_is_floor(self):
        w = make_tone(ToneSpec(amplitude=1.0, frequency=2e9), GRID_LONG)
        est = welch_psd(w, rbw=1e6)
        assert band_power(est, 10e9, 11e9) <= -100.0

    def test_flat_noise_half_bands(self):
        rng = np.random.default_rng(1)
        w = SampledWaveform(GRID_LONG, rng.standard_normal(GRID_LONG.n_samples))
        est = welch_psd(w, rbw=10e6)
        total = band_power(est, 1e9, 31e9)
        lo = band_power(est, 1e9, 16e9)
        hi = band_power(est, 16e9, 31e9)
        assert lo == pytest.approx(total - 3.01, abs=0.15)
        assert hi == pytest.approx(total - 3.01, abs=0.15)

    def test_invalid_range_rejected(self):
        w = make_tone(ToneSpec(amplitude=1.0, frequency=2e9), GRID_LONG)
        est = welch_psd(w, rbw=1e6)
        with pytest.raises(RangeError):
            band_power(est, 3e9, 2e9)
        with pytest.raises(RangeError):
            band_power(est, 1e9, 50e9)

    def test_band_between_bins_rejected(self):
        w = make_tone(ToneSpec(amplitude=1.0, frequency=2e9), GRID_LONG)
        est = welch_psd(w, rbw=1e6)
        f0, df = est.freqs[100], est.freqs[1] - est.freqs[0]
        with pytest.raises(RangeError):
            band_power(est, f0 + 0.25 * df, f0 + 0.75 * df)


class TestCancellationDepth:
    def test_definition_40_db(self):
        w = make_tone(ToneSpec(amplitude=dbm_to_amplitude(-20.0), frequency=2e9), GRID_LONG)
        v = make_tone(ToneSpec(amplitude=dbm_to_amplitude(-60.0), frequency=2e9), GRID_LONG)
        band = (2e9 - 3e6, 2e9 + 3e6)
        assert cancellation_depth(welch_psd(w, 1e6), welch_psd(v, 1e6), band) == pytest.approx(
            40.0, abs=0.1
        )

    def test_identical_inputs_zero(self):
        w = make_tone(ToneSpec(amplitude=1.0, frequency=2e9), GRID_LONG)
        band = (2e9 - 3e6, 2e9 + 3e6)
        est = welch_psd(w, 1e6)
        assert cancellation_depth(est, est, band) == 0.0

    def test_antisymmetric(self):
        a = make_tone(ToneSpec(amplitude=1.0, frequency=2e9), GRID_LONG)
        b = make_tone(ToneSpec(amplitude=0.1, frequency=2e9), GRID_LONG)
        band = (2e9 - 3e6, 2e9 + 3e6)
        a, b = welch_psd(a, 1e6), welch_psd(b, 1e6)
        assert cancellation_depth(a, b, band) == pytest.approx(
            -cancellation_depth(b, a, band), abs=1e-9
        )


class TestFilterBand:
    def test_lowpass_passes_in_band(self):
        w = make_tone(ToneSpec(amplitude=1.0, frequency=2e9), GRID_LONG)
        y = filter_band(w, "lowpass", 3e9)
        change = 10 * np.log10(mean_power(y) / mean_power(w))
        assert abs(change) < 0.1

    def test_lowpass_stopband(self):
        w = make_tone(ToneSpec(amplitude=1.0, frequency=7e9), GRID_LONG)
        y = filter_band(w, "lowpass", 3e9)
        assert 10 * np.log10(mean_power(w) / mean_power(y)) >= 80.0

    def test_bandpass_passes_center(self):
        w = make_tone(ToneSpec(amplitude=1.0, frequency=7.1e9), GRID_LONG)
        y = filter_band(w, "bandpass", 6.45e9, 8.55e9)
        change = 10 * np.log10(mean_power(y) / mean_power(w))
        assert abs(change) < 0.1


class TestDemodulateEvm:
    SPEC = QamSignalSpec(symbol_rate=20e6, frequency=2e9, power_dbm=0.0, seed=5)

    def test_interferer_20db_below(self):
        w = make_qam(self.SPEC, GRID_LONG)
        rms = np.sqrt(mean_power(w))
        tone = make_tone(
            ToneSpec(amplitude=np.sqrt(2) * rms / 10.0, frequency=2.004e9), GRID_LONG
        )
        evm = demodulate_evm(w + tone, self.SPEC)
        assert evm == pytest.approx(10.0, abs=2.0)

    def test_gain_invariance(self):
        w = make_qam(self.SPEC, GRID_LONG)
        assert demodulate_evm(w.scaled(2.0), self.SPEC) == pytest.approx(
            demodulate_evm(w, self.SPEC), abs=0.05
        )

    def test_lock_failure_on_noise(self):
        rng = np.random.default_rng(2)
        w = SampledWaveform(GRID_LONG, rng.standard_normal(GRID_LONG.n_samples))
        with pytest.raises(LockError):
            demodulate_evm(w, self.SPEC)


@st.composite
def qam_cases(draw):
    """A grid of 2^16-2^20 samples and a 16-QAM spec on it whose symbol rate
    divides 64 GS/s: from 16384 samples per symbol (3.9 MBaud) up to 44
    (1.45 GBaud), with at least 64 symbols; the band fits below Nyquist."""
    grid = TimeGrid(sample_rate=64e9, n_samples=2 ** draw(st.integers(16, 20)))
    sps = draw(st.integers(44, min(16384, grid.n_samples // 64)))
    rolloff = draw(st.floats(0.0, 1.0, exclude_min=True))
    hw = 0.5 * (1.0 + rolloff) * grid.sample_rate / sps
    center = hw + draw(st.floats(0.01, 0.99)) * (grid.nyquist - 2.0 * hw)
    spec = QamSignalSpec(symbol_rate=grid.sample_rate / sps, frequency=center,
                         power_dbm=draw(st.floats(-30.0, 10.0)), rolloff=rolloff,
                         seed=draw(st.integers(0, 2**31)))
    return spec, grid


def traced_peak(fn, *args) -> int:
    """Peak bytes that `tracemalloc` traces during fn(*args)."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestQamSupport:
    """make_qam and demodulate_evm work on the bins of the RRC band, against the
    dense oracle that filters the whole impulse train."""

    @settings(deadline=None, max_examples=25)
    @given(n=st.integers(2, 300), step=st.integers(1, 50), p0=st.integers(-300, 300),
           q0=st.integers(-300, 300), n_in=st.integers(1, 300), n_out=st.integers(1, 300),
           seed=st.integers(0, 2**31))
    def test_chirp_z_is_the_dft(self, n, step, p0, q0, n_in, n_out, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(n_in) + 1j * rng.standard_normal(n_in)
        p = p0 + np.arange(x.size)
        q = q0 + np.arange(n_out)
        direct = np.exp(-2j * np.pi * (step * np.outer(q, p) % n) / n) @ x
        np.testing.assert_allclose(_chirp_z(x, n, step, p0, q0, n_out), direct,
                                   rtol=0, atol=1e-12 * np.abs(x).sum())

    @settings(deadline=None, max_examples=12)
    @given(case=qam_cases())
    def test_support_spectrum_is_the_dense_fft(self, case):
        spec, grid = case
        _, _, bins, spectrum, h = _qam_support(spec, grid)
        dense = sfft.fft(qam_impulses(spec, grid)[0])
        h_dense = _rrc_response(grid.freqs(), spec.symbol_rate, spec.rolloff)
        assert np.array_equal(h, h_dense[bins])
        assert np.count_nonzero(h) == np.count_nonzero(h_dense)  # no bin of the band is lost
        assert np.max(np.abs(spectrum - dense[bins])) <= 1e-13 * np.max(np.abs(dense))

    @settings(deadline=None, max_examples=12)
    @given(case=qam_cases())
    def test_make_qam_is_the_dense_synthesis(self, case):
        spec, grid = case
        dense = dense_make_qam(spec, grid).samples
        err = np.max(np.abs(make_qam(spec, grid).samples - dense))
        assert err <= 1e-12 * np.max(np.abs(dense))

    @settings(deadline=None, max_examples=12)
    @given(case=qam_cases(), delay=st.floats(0.0, 62.5e-12))
    def test_evm_is_the_dense_evm(self, case, delay):
        spec, grid = case
        w = fractional_delay(make_qam(spec, grid), delay)  # as an SOI arrives
        assert demodulate_evm(w, spec) == pytest.approx(dense_demodulate_evm(w, spec),
                                                        rel=0, abs=1e-9)

    @pytest.mark.parametrize("sps", [6400, 44])
    def test_peak_memory_at_full_rate(self, sps):
        # 2^20 samples; a complex record is 16 MiB. make_qam holds at most three,
        # demodulate_evm less, and the highest accepted symbol rate (44 samples
        # per symbol, 23831 symbols) does not fall back to a quadratic DFT
        grid = TimeGrid(sample_rate=64e9, n_samples=2**20)
        spec = QamSignalSpec(symbol_rate=grid.sample_rate / sps, frequency=8e9,
                             rolloff=0.35, seed=1)
        assert traced_peak(make_qam, spec, grid) <= 48 * 2**20
        w = make_qam(spec, grid)
        assert traced_peak(demodulate_evm, w, spec) <= 40 * 2**20


class TestDelayAndPhase:
    def test_integer_cycle_delay_is_identity(self):
        w = make_tone(ToneSpec(amplitude=1.0, frequency=2e9), GRID)
        y = fractional_delay(w, 10 / 2e9)
        assert np.allclose(y.samples, w.samples, atol=1e-9)

    @settings(deadline=None, max_examples=20)
    @given(tau=st.floats(0.0, 5e-9))
    def test_delay_then_advance_is_identity(self, tau):
        w = make_tone(ToneSpec(amplitude=1.0, frequency=2.1e9), GRID)
        y = fractional_delay(fractional_delay(w, tau), -tau)
        ref = fractional_delay(w, 0.0)  # Nyquist-bin content dropped by design
        assert np.allclose(y.samples, ref.samples, atol=1e-9)

    def test_phase_shift_quarter_cycle(self):
        w = make_tone(ToneSpec(amplitude=1.0, frequency=2e9), GRID)
        y = phase_shift(w, -np.pi / 2)
        expected = np.cos(2 * np.pi * 2e9 * GRID.times() - np.pi / 2)
        assert np.allclose(y.samples, expected, atol=1e-9)

    def test_phase_shift_preserves_real_power(self):
        w = make_tone(ToneSpec(amplitude=1.0, frequency=2e9), GRID)
        y = phase_shift(w, 1.234)
        assert mean_power(y) == pytest.approx(mean_power(w), rel=1e-9)


def complex_filter_reference(x: np.ndarray, grid: TimeGrid, kind: str, *edges) -> np.ndarray:
    """filter_band through a full complex FFT on the two-sided axis."""
    af = np.abs(np.fft.fftfreq(grid.n_samples, grid.dt))
    if kind == "lowpass":
        h = _edge_mask(af, edges[0], rising=False)
    else:
        h = _edge_mask(af, edges[0], rising=True) * _edge_mask(af, edges[1], rising=False)
    return np.fft.ifft(np.fft.fft(x) * h).real


def complex_phase_reference(x: np.ndarray, grid: TimeGrid, phi: float) -> np.ndarray:
    """phase_shift through a full complex FFT: +phi on f > 0, -phi on f < 0."""
    spec = np.fft.fft(x)
    f = np.fft.fftfreq(grid.n_samples, grid.dt)
    spec[f > 0] *= np.exp(1j * phi)
    spec[f < 0] *= np.exp(-1j * phi)
    return np.fft.ifft(spec).real


real_waveforms = st.builds(
    lambda n, seed: SampledWaveform(
        TimeGrid(sample_rate=64e9, n_samples=n),
        np.random.default_rng(seed).standard_normal(n),
    ),
    n=st.sampled_from([256, 257, 1024, 1025]),
    seed=st.integers(0, 2**32 - 1),
)


class TestRealPath:
    def test_stores_float64(self):
        w = SampledWaveform(GRID, np.arange(GRID.n_samples))
        assert w.samples.dtype == np.float64
        z = SampledWaveform(GRID, np.ones(GRID.n_samples, dtype=np.complex128))
        assert z.samples.dtype == np.float64
        assert np.all(z.samples == 1.0)

    def test_rejects_imaginary_part(self):
        x = np.zeros(GRID.n_samples, dtype=np.complex128)
        x[3] = 1e-20j
        with pytest.raises(ValueError, match="real"):
            SampledWaveform(GRID, x)

    def test_rejects_non_finite(self):
        x = np.zeros(GRID.n_samples)
        x[0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            SampledWaveform(GRID, x)

    @settings(deadline=None, max_examples=40)
    @given(
        w=real_waveforms,
        kind=st.sampled_from(["lowpass", "bandpass"]),
        edge=st.floats(1e9, 20e9),
    )
    def test_filter_band_matches_complex_fft(self, w, kind, edge):
        edges = (edge,) if kind == "lowpass" else (edge, edge + 5e9)
        y = filter_band(w, kind, *edges)
        ref = complex_filter_reference(w.samples, w.grid, kind, *edges)
        np.testing.assert_allclose(y.samples, ref, rtol=0, atol=1e-12 * np.abs(w.samples).max())

    @settings(deadline=None, max_examples=40)
    @given(w=real_waveforms, phi=st.floats(-2 * np.pi, 2 * np.pi))
    def test_phase_shift_matches_complex_fft(self, w, phi):
        y = phase_shift(w, phi)
        ref = complex_phase_reference(w.samples, w.grid, phi)
        np.testing.assert_allclose(y.samples, ref, rtol=0, atol=1e-12 * np.abs(w.samples).max())

    @settings(deadline=None, max_examples=40)
    @given(w=real_waveforms, tau=st.floats(-2e-9, 2e-9))
    def test_delay_then_advance_is_identity(self, w, tau):
        y = fractional_delay(fractional_delay(w, tau), -tau)
        ref = fractional_delay(w, 0.0)  # the Nyquist bin is dropped by design
        np.testing.assert_allclose(y.samples, ref.samples, rtol=0, atol=1e-12 * np.abs(w.samples).max())
