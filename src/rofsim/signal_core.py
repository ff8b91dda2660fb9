"""Time-grid waveforms, tone/QAM generation, spectral estimation and metrics.

All electrical powers are referenced to 50 ohm: P_dBm = 10*log10(Vrms^2/50/1mW).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def require_same_grid(*items) -> None:
    g0 = items[0].grid
    for it in items[1:]:
        if it.grid != g0:
            raise GridError("operands do not share a time grid")


@dataclass(frozen=True)
class ToneSpec:
    amplitude: float  # volts, peak
    frequency: float  # Hz

    def __post_init__(self):
        if not 0.0 <= self.amplitude < np.inf:
            raise ValueError("amplitude must be finite and non-negative")


@dataclass(frozen=True)
class QamSignalSpec:
    """Root-raised-cosine 16-QAM signal around `center_frequency`."""

    symbol_rate: float = 10e6
    center_frequency: float = 2e9
    power_dbm: float = 0.0
    rolloff: float = 0.35
    seed: int = 0

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


def _qam_impulses(spec: QamSignalSpec, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray, int]:
    """Symbol impulse train on the grid, its symbol values, and samples per symbol."""
    sps = qam_samples_per_symbol(spec, grid)
    n_sym = grid.n_samples // sps
    symbols = _qam16_symbols(n_sym, spec.seed)
    impulses = np.zeros(grid.n_samples, dtype=np.complex128)
    impulses[: n_sym * sps : sps] = symbols
    return impulses, symbols, sps


def _qam_baseband(spec: QamSignalSpec, grid: TimeGrid) -> np.ndarray:
    """Complex RRC-shaped baseband of the spec's symbol stream."""
    impulses, _, _ = _qam_impulses(spec, grid)
    h = _rrc_response(grid.freqs(), spec.symbol_rate, spec.rolloff)
    return sfft.ifft(sfft.fft(impulses, workers=_FFT_WORKERS) * h, workers=_FFT_WORKERS)


def make_qam(spec: QamSignalSpec, grid: TimeGrid) -> SampledWaveform:
    """RRC-shaped 16-QAM passband waveform normalized to the requested power.

    Deterministic for a fixed seed: the same spec always yields bit-identical
    samples.
    """
    edge = spec.center_frequency + spec.occupied_halfwidth
    if edge >= grid.nyquist or spec.center_frequency - spec.occupied_halfwidth <= 0:
        raise AliasError("QAM band does not fit inside the Nyquist interval")
    baseband = _qam_baseband(spec, grid)
    t = grid.times()
    passband = (baseband * np.exp(2j * np.pi * spec.center_frequency * t)).real
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
    segments = np.lib.stride_tricks.sliding_window_view(x, nperseg)[:: nperseg - nperseg // 2]
    if onesided:
        freqs = sfft.rfftfreq(nperseg, 1.0 / fs)
        spec = sfft.rfft(segments * win, axis=-1, workers=_FFT_WORKERS)
    else:
        freqs = sfft.fftfreq(nperseg, 1.0 / fs)
        spec = sfft.fft(segments * win, axis=-1, workers=_FFT_WORKERS)
    pxx = spec.real**2 + spec.imag**2
    pxx *= 1.0 / (fs * np.sum(win * win))
    if onesided:
        pxx[:, 1 : (nperseg + 1) // 2] *= 2.0
    return freqs, pxx.mean(axis=0), _HANN_ENBW * fs / nperseg


def welch_psd(w: SampledWaveform, rbw: float) -> SpectrumEstimate:
    """One-sided averaged-periodogram PSD in dBm/Hz at the requested resolution bandwidth.

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


def cancellation_depth(
    without: SpectrumEstimate, with_: SpectrumEstimate, band: tuple[float, float]
) -> float:
    """Band power without minus with cancellation, in dB (positive = suppression)."""
    return band_power(without, *band) - band_power(with_, *band)


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


def filter_band(w: SampledWaveform, kind: str, *edges: float) -> SampledWaveform:
    """Frequency-domain filter with raised-cosine skirts outside the passband."""
    for e in edges:
        if e >= w.grid.nyquist:
            raise FilterSpecError("filter edge at or above Nyquist")
    af = w.grid.rfreqs()
    if kind == "lowpass":
        if len(edges) != 1:
            raise FilterSpecError("lowpass takes one edge")
        h = _edge_mask(af, edges[0], rising=False)
    elif kind == "bandpass":
        if len(edges) != 2 or edges[0] >= edges[1]:
            raise FilterSpecError("bandpass takes two increasing edges")
        h = _edge_mask(af, edges[0], rising=True) * _edge_mask(af, edges[1], rising=False)
    else:
        raise FilterSpecError(f"unknown filter kind {kind!r}")
    return SampledWaveform(w.grid, _apply_spectral(w, h))


_EVM_GUARD_SYMBOLS = 10


def demodulate_evm(w: SampledWaveform, spec: QamSignalSpec) -> float:
    """RMS EVM in percent after matched filtering and complex-gain equalization.

    Data-aided: the reference symbols are regenerated from the spec seed, and
    symbol timing is recovered by correlating against the known baseband, whose
    matched-filtered spectrum is the impulse-train spectrum times h^2.
    """
    grid = w.grid
    # Every record is filtered, mixed and conjugated in place and freed once
    # used, so no more than three complex records are alive at once.
    impulses, symbols, sps = _qam_impulses(spec, grid)
    h = _rrc_response(grid.freqs(), spec.symbol_rate, spec.rolloff)
    ref_spec = sfft.fft(impulses, workers=_FFT_WORKERS)
    del impulses
    ref_spec *= h**2
    z = np.multiply(-2j * np.pi * spec.center_frequency, grid.times())
    np.exp(z, out=z)
    np.multiply(w.samples, z, out=z)
    zf_spec = sfft.fft(z, workers=_FFT_WORKERS)
    del z
    zf_spec *= h
    del h
    zf = sfft.ifft(zf_spec, workers=_FFT_WORKERS)
    np.conj(ref_spec, out=ref_spec)
    np.multiply(zf_spec, ref_spec, out=ref_spec)  # zf_spec * conj(ref_spec)
    del zf_spec
    xc = sfft.ifft(ref_spec, workers=_FFT_WORKERS)
    del ref_spec
    mag = np.abs(xc)
    lag = int(np.argmax(mag))
    if np.abs(xc[lag]) < 5.0 * np.sqrt(np.mean(mag**2)):
        raise LockError("no correlation peak; carrier or seed mismatch")
    n_sym = symbols.size
    idx = np.arange(_EVM_GUARD_SYMBOLS, n_sym - _EVM_GUARD_SYMBOLS)
    rx = zf[(idx * sps + lag) % grid.n_samples]  # symbols of zf advanced by the lag
    ref = symbols[idx]
    gain = np.vdot(ref, rx) / np.vdot(ref, ref)
    if abs(gain) == 0.0:
        raise LockError("zero equalizer gain")
    err = rx / gain - ref
    return float(100.0 * np.sqrt(np.mean(np.abs(err) ** 2) / np.mean(np.abs(ref) ** 2)))


def fractional_delay(w: SampledWaveform, tau: float) -> SampledWaveform:
    """Circular fractional delay applied as a spectral phase.

    The Nyquist bin is zeroed: its phase under a fractional shift is ambiguous
    for real signals, and dropping it keeps delay/advance pairs exact inverses.
    """
    ph = np.exp(-2j * np.pi * w.grid.rfreqs() * tau)
    if w.grid.n_samples % 2 == 0:
        ph[-1] = 0.0
    return SampledWaveform(w.grid, _apply_spectral(w, ph))


def phase_shift(w: SampledWaveform, phi: float) -> SampledWaveform:
    """Shift every positive-frequency component by +phi (analytic phase shift).

    DC is unchanged, and the Nyquist bin, shared by both signs of frequency,
    is scaled by cos(phi), the real part of the two rotations.
    """
    h = np.full(w.grid.n_samples // 2 + 1, np.exp(1j * phi))
    h[0] = 1.0
    if w.grid.n_samples % 2 == 0:
        h[-1] = np.cos(phi)
    return SampledWaveform(w.grid, _apply_spectral(w, h))
