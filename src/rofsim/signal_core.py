"""Time-grid waveforms, tone/QAM generation, spectral estimation and metrics.

All electrical powers are referenced to 50 ohm: P_dBm = 10*log10(Vrms^2/50/1mW).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import scipy.fft as sfft

from .errors import (
    AliasError,
    FilterSpecError,
    GridError,
    LockError,
    RangeError,
    ResolutionError,
)

R_REF = 50.0  # reference impedance for dBm conversions
_FFT_WORKERS = -1


def dbm_to_watts(p_dbm: float) -> float:
    """Power in watts; inf when it overflows a float."""
    try:
        return 1e-3 * math.pow(10.0, p_dbm / 10.0)
    except OverflowError:
        return math.inf


def watts_to_dbm(p_watts: float) -> float:
    if p_watts <= 0.0:
        return -np.inf
    return 10.0 * np.log10(p_watts / 1e-3)


def dbm_to_amplitude(p_dbm: float) -> float:
    """Peak amplitude in volts of a sine with the given power into 50 ohm."""
    return np.sqrt(2.0 * dbm_to_watts(p_dbm) * R_REF)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid shared by every waveform in one experiment."""

    sample_rate: float
    n_samples: int

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.n_samples < 2:
            raise ValueError("n_samples must be at least 2")

    @property
    def dt(self) -> float:
        return 1.0 / self.sample_rate

    @property
    def duration(self) -> float:
        return self.n_samples * self.dt

    @property
    def nyquist(self) -> float:
        return 0.5 * self.sample_rate

    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) * self.dt

    def freqs(self) -> np.ndarray:
        """Two-sided FFT frequency axis (unshifted)."""
        return sfft.fftfreq(self.n_samples, self.dt)

    def rfreqs(self) -> np.ndarray:
        """One-sided frequency axis of a real waveform's rfft, DC to Nyquist."""
        return sfft.rfftfreq(self.n_samples, self.dt)


DEFAULT_GRID = TimeGrid(sample_rate=64e9, n_samples=2**20)


@dataclass
class SampledWaveform:
    """Real electrical samples (volts) on a time grid, stored as read-only float64."""

    grid: TimeGrid
    samples: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.samples)
        if np.iscomplexobj(x):
            if np.any(x.imag):
                raise ValueError("electrical waveform must be real")
            x = x.real
        self.samples = np.ascontiguousarray(x, dtype=np.float64)
        if self.samples.shape != (self.grid.n_samples,):
            raise ValueError("samples length must match grid")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform contains non-finite samples")
        self.samples.flags.writeable = False

    def __add__(self, other: "SampledWaveform") -> "SampledWaveform":
        require_same_grid(self, other)
        return SampledWaveform(self.grid, self.samples + other.samples)

    def scaled(self, c: float) -> "SampledWaveform":
        return SampledWaveform(self.grid, self.samples * c)


@dataclass
class SpectralWaveform:
    """A real electrical waveform held as its one-sided spectrum: the
    unnormalised `scipy.fft.rfft` of its samples, on `grid.rfreqs()`, stored
    as read-only complex128. `samples`, `waveform()` and `quadrature()`
    transform it on demand and the result is not kept, as `OpticalField`
    does for a rail held in the other domain."""

    grid: TimeGrid
    bins: np.ndarray

    def __post_init__(self):
        self.bins = np.ascontiguousarray(self.bins, dtype=np.complex128)
        if self.bins.shape != (self.grid.n_samples // 2 + 1,):
            raise ValueError("bins must be the grid's n_samples // 2 + 1 rfft bins")
        if not np.all(np.isfinite(self.bins)):
            raise ValueError("spectrum contains non-finite bins")
        self.bins.flags.writeable = False

    @classmethod
    def of(cls, w: SampledWaveform) -> "SpectralWaveform":
        return cls(w.grid, sfft.rfft(w.samples, workers=_FFT_WORKERS))

    @property
    def samples(self) -> np.ndarray:
        samples = sfft.irfft(self.bins, self.grid.n_samples, workers=_FFT_WORKERS)
        samples.flags.writeable = False
        return samples

    def waveform(self) -> SampledWaveform:
        return SampledWaveform(self.grid, self.samples)

    def quadrature(self) -> SampledWaveform:
        """The waveform with every positive-frequency component shifted by
        +90 deg; DC and an even-length Nyquist bin map to zero."""
        return SampledWaveform(self.grid, _quadrature(self.bins, self.grid.n_samples))


def _quadrature(spectrum: np.ndarray, n: int) -> np.ndarray:
    """Samples of `SpectralWaveform.quadrature` of the n-sample record whose
    rfft is `spectrum`: one inverse transform of spectrum * 1j with DC and
    an even-length Nyquist bin zeroed."""
    xf = spectrum * 1j
    xf[0] = 0.0
    if n % 2 == 0:
        xf[-1] = 0.0
    return sfft.irfft(xf, n, workers=_FFT_WORKERS, overwrite_x=True)


def require_same_grid(*items) -> None:
    g0 = items[0].grid
    for it in items[1:]:
        if it.grid != g0:
            raise GridError("operands do not share a time grid")


@dataclass(frozen=True)
class ToneSpec:
    """A tone drive. A drive spec gives its `kind`, its waveform on a grid and
    the half-width of the band it is measured in."""

    amplitude: float  # volts, peak
    frequency: float  # Hz
    kind: ClassVar[str] = "tone"

    def __post_init__(self):
        if not 0.0 <= self.amplitude < np.inf:
            raise ValueError("amplitude must be finite and non-negative")

    def waveform(self, grid: TimeGrid) -> SampledWaveform:
        return make_tone(self, grid)

    def band_halfwidth(self, rbw: float) -> float:
        return 3.0 * rbw  # either side of the line


@dataclass(frozen=True)
class QamSignalSpec:
    """Root-raised-cosine 16-QAM drive around `frequency`."""

    symbol_rate: float = 10e6
    frequency: float = 2e9
    power_dbm: float = 0.0
    rolloff: float = 0.35
    seed: int = 0
    kind: ClassVar[str] = "qam"

    def __post_init__(self):
        if self.symbol_rate <= 0:
            raise ValueError("symbol_rate must be positive")
        if not 0.0 < self.rolloff <= 1.0:
            raise ValueError("rolloff must be in (0, 1]")
        if not dbm_to_watts(self.power_dbm) < np.inf:
            raise ValueError("power_dbm must be a finite number of watts")

    @property
    def occupied_halfwidth(self) -> float:
        return 0.5 * (1.0 + self.rolloff) * self.symbol_rate

    @property
    def amplitude(self) -> float:
        """Peak amplitude of the sine of the same power, in volts."""
        return dbm_to_amplitude(self.power_dbm)

    def waveform(self, grid: TimeGrid) -> SampledWaveform:
        return make_qam(self, grid)

    def band_halfwidth(self, rbw: float) -> float:
        return self.occupied_halfwidth


@dataclass
class SpectrumEstimate:
    freqs: np.ndarray  # Hz, strictly increasing
    psd: np.ndarray  # dBm/Hz
    rbw: float  # Hz


def make_tone(spec: ToneSpec, grid: TimeGrid) -> SampledWaveform:
    """Real cosine amplitude*cos(2*pi*f*t) on the grid."""
    if spec.frequency >= grid.nyquist:
        raise AliasError(
            f"tone at {spec.frequency:.3g} Hz exceeds Nyquist {grid.nyquist:.3g} Hz"
        )
    t = grid.times()
    return SampledWaveform(grid, spec.amplitude * np.cos(2.0 * np.pi * spec.frequency * t))


_GRAY2 = np.array([-3.0, -1.0, 3.0, 1.0]) / np.sqrt(10.0)


def _qam16_symbols(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 4, size=(n, 2))
    return _GRAY2[bits[:, 0]] + 1j * _GRAY2[bits[:, 1]]


def _rrc_response(freqs: np.ndarray, symbol_rate: float, rolloff: float) -> np.ndarray:
    """Root-raised-cosine magnitude response on the given frequency axis."""
    af = np.abs(freqs)
    f1 = 0.5 * (1.0 - rolloff) * symbol_rate
    f2 = 0.5 * (1.0 + rolloff) * symbol_rate
    h = np.zeros_like(af)
    h[af <= f1] = 1.0
    skirt = (af > f1) & (af < f2)
    h[skirt] = np.sqrt(
        0.5 * (1.0 + np.cos(np.pi * (af[skirt] - f1) / (rolloff * symbol_rate)))
    )
    return h


_MIN_SYMBOLS = 64  # shortest QAM record, in symbols


def qam_samples_per_symbol(spec: QamSignalSpec, grid: TimeGrid) -> int:
    """Samples per symbol of `spec` on `grid`; a ValueError unless the sample
    rate is an integer multiple of the symbol rate and the record holds at
    least 64 symbols."""
    sps = grid.sample_rate / spec.symbol_rate
    if not (math.isfinite(sps) and abs(sps - round(sps)) <= 1e-9 and round(sps) >= 1):
        raise ValueError("sample_rate must be an integer multiple of symbol_rate")
    sps = int(round(sps))
    if grid.n_samples // sps < _MIN_SYMBOLS:
        raise ValueError(f"grid too short for at least {_MIN_SYMBOLS} symbols")
    return sps


def _chirp_z(x: np.ndarray, n: int, step: int, p0: int, q0: int, n_out: int) -> np.ndarray:
    """y[q] = sum_p x[p] * exp(-2j*pi*step*(p0 + p)*(q0 + q)/n) for q < n_out:
    n_out bins of a length-n DFT of samples `step` apart, by Bluestein's
    algorithm, in O((x.size + n_out) log) time.

    2*(p0 + p)*(q0 + q) = 2*p0*(q0 + q) + 2*q0*p + p^2 + q^2 - (q - p)^2 turns the
    sum into a convolution with a chirp. Every phase is an integer number of
    2n-ths of a turn, reduced exactly mod 2n before it becomes an angle.
    """
    two_n = 2 * n

    def turns(k: np.ndarray) -> np.ndarray:  # exp(-1j*pi*step*k/n) for integers k
        return np.exp(-1j * np.pi / n * (step * (k % two_n) % two_n))

    p = np.arange(x.size, dtype=np.int64)
    q = np.arange(n_out, dtype=np.int64)
    lags = np.arange(1 - x.size, n_out, dtype=np.int64)
    n_fft = sfft.next_fast_len(lags.size)
    pre = sfft.fft(x * turns(2 * q0 * p + p * p), n_fft, workers=_FFT_WORKERS)
    pre *= sfft.fft(np.conj(turns(lags * lags)), n_fft, workers=_FFT_WORKERS)
    conv = sfft.ifft(pre, workers=_FFT_WORKERS, overwrite_x=True)[x.size - 1 : lags.size]
    return conv * turns(2 * p0 * (q0 + q) + q * q)


def _qam_support(
    spec: QamSignalSpec, grid: TimeGrid
) -> tuple[np.ndarray, int, np.ndarray, np.ndarray, np.ndarray]:
    """The spec's symbols, samples per symbol sps, and its band: the signed
    FFT bins the RRC response covers, the spectrum of the symbol impulse train
    (symbol k at sample k*sps) on them, and the response.

    The bin frequencies are formed as `grid.freqs()` forms them, so the
    response is bit for bit its value on the full axis; it is zero off the band.
    """
    n = grid.n_samples
    sps = qam_samples_per_symbol(spec, grid)
    symbols = _qam16_symbols(n // sps, spec.seed)
    df = 1.0 / (n * grid.dt)
    m = int(spec.occupied_halfwidth / df) + 1
    bins = np.arange(max(-m, -(n // 2)), min(m, (n - 1) // 2) + 1)
    h = _rrc_response(bins * df, spec.symbol_rate, spec.rolloff)
    spectrum = _chirp_z(symbols, n, sps, 0, bins[0], bins.size)
    return symbols, sps, bins, spectrum, h


def make_qam(spec: QamSignalSpec, grid: TimeGrid) -> SampledWaveform:
    """RRC-shaped 16-QAM passband waveform normalized to the requested power.

    The complex baseband is one inverse FFT of the RRC-shaped symbol spectrum,
    which is filled only on the bins of its band; the carrier is mixed in place.
    Deterministic for a fixed seed: the same spec always yields bit-identical
    samples.
    """
    edge = spec.frequency + spec.occupied_halfwidth
    if edge >= grid.nyquist or spec.frequency - spec.occupied_halfwidth <= 0:
        raise AliasError("QAM band does not fit inside the Nyquist interval")
    _, _, bins, spectrum, h = _qam_support(spec, grid)
    baseband = np.zeros(grid.n_samples, dtype=np.complex128)
    baseband[bins] = spectrum * h  # negative bins wrap
    baseband = sfft.ifft(baseband, workers=_FFT_WORKERS, overwrite_x=True)
    carrier = np.multiply(2j * np.pi * spec.frequency, grid.times())
    np.exp(carrier, out=carrier)
    baseband *= carrier
    del carrier
    passband = baseband.real  # a view; SampledWaveform stores a contiguous copy
    target = dbm_to_watts(spec.power_dbm) * R_REF  # mean square volts
    passband *= np.sqrt(target / np.mean(passband**2))
    return SampledWaveform(grid, passband)


_HANN_ENBW = 1.5  # equivalent noise bandwidth of a Hann window, in bins


def welch_segment(grid: TimeGrid, rbw: float) -> int:
    """Hann segment length in samples that yields the requested resolution bandwidth."""
    nperseg = max(int(round(_HANN_ENBW * grid.sample_rate / rbw)), 8)
    if nperseg > grid.n_samples:
        raise ResolutionError(
            f"rbw {rbw:.3g} Hz needs {nperseg} samples/segment; record has "
            f"{grid.n_samples}"
        )
    return nperseg


def psd_to_dbm_per_hz(pxx: np.ndarray) -> np.ndarray:
    """V^2/Hz into 50 ohm as dBm/Hz, floored at -400 dBm/Hz."""
    return 10.0 * np.log10(np.maximum(pxx / R_REF / 1e-3, 1e-40))


def _welch(x: np.ndarray, grid: TimeGrid, rbw: float, onesided: bool):
    """Hann-window Welch PSD (V^2/Hz or W/Hz) at the requested resolution
    bandwidth, 50 % overlap, no detrend; returns (freqs, pxx, rbw achieved).

    Every full segment is used, without padding, in one batched FFT. With
    `onesided` (real records) every bin but DC and an even-length Nyquist bin
    is doubled; otherwise (complex envelopes) the estimate is two-sided, in
    FFT order.
    """
    fs = grid.sample_rate
    nperseg = welch_segment(grid, rbw)
    # periodic Hann window, computed as SciPy's get_window("hann", nperseg) computes it
    win = 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, nperseg + 1)[:-1])
    # The density scale goes into the window, as SciPy's ShortTimeFFT puts it
    # there, with the squares summed in order; scaling the periodograms instead
    # rounds differently once they fall to subnormal values.
    win *= 1.0 / np.sqrt(np.cumsum(win**2)[-1] / (1.0 / fs))
    segments = np.lib.stride_tricks.sliding_window_view(x, nperseg)[:: nperseg - nperseg // 2]
    if onesided:
        freqs = sfft.rfftfreq(nperseg, 1.0 / fs)
        spec = sfft.rfft(segments * win, axis=-1, workers=_FFT_WORKERS)
    else:
        freqs = sfft.fftfreq(nperseg, 1.0 / fs)
        spec = sfft.fft(segments * win, axis=-1, workers=_FFT_WORKERS)
    pxx = spec.real**2 + spec.imag**2
    if onesided:
        pxx[:, 1 : (nperseg + 1) // 2] *= 2.0
    return freqs, pxx.mean(axis=0), _HANN_ENBW * fs / nperseg


def welch_psd(w: SampledWaveform | SpectralWaveform, rbw: float) -> SpectrumEstimate:
    """One-sided averaged-periodogram PSD in dBm/Hz at the requested resolution
    bandwidth, of the waveform's samples (a spectral one is transformed).

    Integrating the linear PSD over frequency recovers the waveform mean power
    within 0.2 dB.
    """
    freqs, pxx, enbw = _welch(w.samples, w.grid, rbw, onesided=True)
    return SpectrumEstimate(freqs=freqs, psd=psd_to_dbm_per_hz(pxx), rbw=enbw)


def envelope_psd(grid: TimeGrid, rails, rbw: float) -> SpectrumEstimate:
    """Two-sided Welch PSD of complex optical envelopes, summed over the rails.

    Frequencies are offsets from the carrier in increasing order.
    """
    total = 0.0
    for env in rails:
        freqs, pxx, enbw = _welch(env, grid, rbw, onesided=False)
        total = total + pxx
    return SpectrumEstimate(
        freqs=sfft.fftshift(freqs), psd=psd_to_dbm_per_hz(sfft.fftshift(total)), rbw=enbw
    )


def band_power(s: SpectrumEstimate, f_lo: float, f_hi: float) -> float:
    """Integrated power of the PSD over [f_lo, f_hi], in dBm."""
    if f_lo >= f_hi:
        raise RangeError("f_lo must be below f_hi")
    if f_lo < s.freqs[0] or f_hi > s.freqs[-1]:
        raise RangeError("band outside the estimated spectrum")
    df = s.freqs[1] - s.freqs[0]
    mask = (s.freqs >= f_lo) & (s.freqs <= f_hi)
    if not mask.any():
        raise RangeError(f"no frequency bin in [{f_lo:.6g}, {f_hi:.6g}] Hz")
    p_mw = np.sum(10.0 ** (s.psd[mask] / 10.0)) * df
    return float(10.0 * np.log10(p_mw))


_SKIRT_FRACTION = 0.05  # transition width as a fraction of the edge frequency


def _edge_mask(af: np.ndarray, edge: float, rising: bool) -> np.ndarray:
    """Raised-cosine skirt from unity inside the edge to zero one skirt width out."""
    w = _SKIRT_FRACTION * edge
    h = np.zeros_like(af)
    if rising:
        h[af >= edge] = 1.0
        skirt = (af < edge) & (af > edge - w)
        h[skirt] = 0.5 * (1.0 + np.cos(np.pi * (edge - af[skirt]) / w))
    else:
        h[af <= edge] = 1.0
        skirt = (af > edge) & (af < edge + w)
        h[skirt] = 0.5 * (1.0 + np.cos(np.pi * (af[skirt] - edge) / w))
    return h


def _apply_spectral(w: SampledWaveform, h: np.ndarray) -> np.ndarray:
    """Samples of w filtered by h, given on the one-sided rfft frequency axis."""
    n = w.grid.n_samples
    return sfft.irfft(sfft.rfft(w.samples, workers=_FFT_WORKERS) * h, n, workers=_FFT_WORKERS)


def _filter_response(grid: TimeGrid, kind: str, *edges: float) -> np.ndarray:
    """Response of `filter_band` on `grid.rfreqs()`: raised-cosine skirts
    outside the passband."""
    for e in edges:
        if e >= grid.nyquist:
            raise FilterSpecError("filter edge at or above Nyquist")
    af = grid.rfreqs()
    if kind == "lowpass":
        if len(edges) != 1:
            raise FilterSpecError("lowpass takes one edge")
        return _edge_mask(af, edges[0], rising=False)
    if kind == "bandpass":
        if len(edges) != 2 or edges[0] >= edges[1]:
            raise FilterSpecError("bandpass takes two increasing edges")
        return _edge_mask(af, edges[0], rising=True) * _edge_mask(af, edges[1], rising=False)
    raise FilterSpecError(f"unknown filter kind {kind!r}")


def filter_spectrum(w: SampledWaveform, kind: str, *edges: float) -> SpectralWaveform:
    """`filter_band` held as the filtered spectrum: one rfft, times the response in place."""
    h = _filter_response(w.grid, kind, *edges)
    spectrum = sfft.rfft(w.samples, workers=_FFT_WORKERS)
    spectrum *= h
    return SpectralWaveform(w.grid, spectrum)


def filter_band(w: SampledWaveform, kind: str, *edges: float) -> SampledWaveform:
    """Frequency-domain filter with raised-cosine skirts outside the passband."""
    return filter_spectrum(w, kind, *edges).waveform()


_EVM_GUARD_SYMBOLS = 10


def demodulate_evm(w: SampledWaveform, spec: QamSignalSpec) -> float:
    """RMS EVM in percent after matched filtering and complex-gain equalization.

    Data-aided: the reference symbols are regenerated from the spec seed, and
    symbol timing is recovered by correlating against the known baseband, whose
    matched-filtered spectrum is the impulse-train spectrum times h^2. Both
    spectra are nonzero only on the RRC band, so the correlation is one
    inverse FFT of its bins, and the matched-filter output is evaluated at the
    symbol instants alone, by a chirp-z transform of the same bins.
    """
    grid = w.grid
    n = grid.n_samples
    symbols, sps, bins, spectrum, h = _qam_support(spec, grid)
    z = np.multiply(-2j * np.pi * spec.frequency, grid.times())
    np.exp(z, out=z)
    np.multiply(w.samples, z, out=z)
    zf = sfft.fft(z, workers=_FFT_WORKERS, overwrite_x=True)[bins] * h  # matched filter
    del z
    xc = np.zeros(n, dtype=np.complex128)
    xc[bins] = zf * np.conj(spectrum * h**2)
    xc = sfft.ifft(xc, workers=_FFT_WORKERS, overwrite_x=True)
    mag = np.abs(xc)
    lag = int(np.argmax(mag))
    if mag[lag] < 5.0 * np.sqrt(np.mean(mag**2)):
        raise LockError("no correlation peak; carrier or seed mismatch")
    del xc, mag
    # the output at sample lag + k*sps, for the symbols k clear of the guards:
    # the inverse DFT of the band, advanced by the lag, is the conjugate of a
    # chirp-z transform of its conjugate
    n_sym = symbols.size
    zf *= np.exp(2j * np.pi / n * (bins * lag % n))
    rx = np.conj(_chirp_z(np.conj(zf), n, sps, bins[0], _EVM_GUARD_SYMBOLS,
                          n_sym - 2 * _EVM_GUARD_SYMBOLS)) / n
    ref = symbols[_EVM_GUARD_SYMBOLS : n_sym - _EVM_GUARD_SYMBOLS]
    gain = np.vdot(ref, rx) / np.vdot(ref, ref)
    if abs(gain) == 0.0:
        raise LockError("zero equalizer gain")
    err = rx / gain - ref
    return float(100.0 * np.sqrt(np.mean(np.abs(err) ** 2) / np.mean(np.abs(ref) ** 2)))


def _delay_response(grid: TimeGrid, tau: float) -> np.ndarray:
    """Circular delay by tau as a spectral phase on `grid.rfreqs()`.

    The Nyquist bin is zeroed: its phase under a fractional shift is ambiguous
    for real signals, and dropping it keeps delay/advance pairs exact inverses.
    """
    ph = np.exp(-2j * np.pi * grid.rfreqs() * tau)
    if grid.n_samples % 2 == 0:
        ph[-1] = 0.0
    return ph


def _phase_response(grid: TimeGrid, phi: float) -> np.ndarray:
    """Analytic phase shift by +phi on `grid.rfreqs()`: DC is unchanged, and
    the Nyquist bin, shared by both signs of frequency, is scaled by cos(phi),
    the real part of the two rotations."""
    h = np.full(grid.n_samples // 2 + 1, np.exp(1j * phi))
    h[0] = 1.0
    if grid.n_samples % 2 == 0:
        h[-1] = np.cos(phi)
    return h


def fractional_delay(w: SampledWaveform, tau: float) -> SampledWaveform:
    """Circular fractional delay applied as a spectral phase (`_delay_response`)."""
    return SampledWaveform(w.grid, _apply_spectral(w, _delay_response(w.grid, tau)))


def phase_shift(w: SampledWaveform, phi: float) -> SampledWaveform:
    """Shift every positive-frequency component by +phi (`_phase_response`)."""
    return SampledWaveform(w.grid, _apply_spectral(w, _phase_response(w.grid, phi)))
