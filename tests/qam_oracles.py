"""The dense QAM path, kept as a test oracle: the symbol impulse train and the
RRC response on the whole FFT axis, from which `make_qam` and `demodulate_evm`
once built their waveforms and read their EVM."""

import numpy as np
import scipy.fft as sfft

from rofsim.errors import LockError
from rofsim.signal_core import (
    R_REF,
    QamSignalSpec,
    SampledWaveform,
    TimeGrid,
    dbm_to_watts,
    qam_samples_per_symbol,
    _EVM_GUARD_SYMBOLS,
    _qam16_symbols,
    _rrc_response,
)


def qam_impulses(spec: QamSignalSpec, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray, int]:
    """Symbol impulse train on the grid, its symbol values, and samples per symbol."""
    sps = qam_samples_per_symbol(spec, grid)
    n_sym = grid.n_samples // sps
    symbols = _qam16_symbols(n_sym, spec.seed)
    impulses = np.zeros(grid.n_samples, dtype=np.complex128)
    impulses[: n_sym * sps : sps] = symbols
    return impulses, symbols, sps


def dense_make_qam(spec: QamSignalSpec, grid: TimeGrid) -> SampledWaveform:
    """`make_qam` from the full FFT of the impulse train times the RRC response."""
    impulses, _, _ = qam_impulses(spec, grid)
    h = _rrc_response(grid.freqs(), spec.symbol_rate, spec.rolloff)
    baseband = sfft.ifft(sfft.fft(impulses) * h)
    t = grid.times()
    passband = (baseband * np.exp(2j * np.pi * spec.center_frequency * t)).real
    target = dbm_to_watts(spec.power_dbm) * R_REF
    passband *= np.sqrt(target / np.mean(passband**2))
    return SampledWaveform(grid, passband)


def dense_demodulate_evm(w: SampledWaveform, spec: QamSignalSpec) -> float:
    """`demodulate_evm` with the matched filter and the correlation on full records."""
    grid = w.grid
    impulses, symbols, sps = qam_impulses(spec, grid)
    h = _rrc_response(grid.freqs(), spec.symbol_rate, spec.rolloff)
    ref_spec = sfft.fft(impulses) * h**2
    z = w.samples * np.exp(-2j * np.pi * spec.center_frequency * grid.times())
    zf_spec = sfft.fft(z) * h
    zf = sfft.ifft(zf_spec)
    xc = sfft.ifft(zf_spec * np.conj(ref_spec))
    mag = np.abs(xc)
    lag = int(np.argmax(mag))
    if mag[lag] < 5.0 * np.sqrt(np.mean(mag**2)):
        raise LockError("no correlation peak; carrier or seed mismatch")
    idx = np.arange(_EVM_GUARD_SYMBOLS, symbols.size - _EVM_GUARD_SYMBOLS)
    rx = zf[(idx * sps + lag) % grid.n_samples]
    ref = symbols[idx]
    gain = np.vdot(ref, rx) / np.vdot(ref, ref)
    err = rx / gain - ref
    return float(100.0 * np.sqrt(np.mean(np.abs(err) ** 2) / np.mean(np.abs(ref) ** 2)))
