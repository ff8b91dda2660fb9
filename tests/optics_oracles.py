"""What the link does not run, kept as test oracles: a CW laser field, a
push-pull DSB modulator (the power-fading control of C6), the small-signal
Bessel lines of the SSB modulator, an optical attenuator, a true optical
delay line, a balanced detector, the time-domain reference arm of the SIC
stage, the LO branch and the SOI-only signal arm built on the whole record,
the power of a field or a waveform, and the cancellation depth between two
Welch estimates."""

import numpy as np
import scipy.fft as sfft
from scipy.special import j0, j1

from rofsim.errors import GridError, RofsimError
from rofsim.link import LinkScenario, UplinkEvaluator, _carries_spectra, run_downlink
from rofsim.optics import (
    ModulatorParams,
    OpticalField,
    dd_mzm_ssb,
    fiber_propagate,
    pbs,
    photodetect,
    split_branch,
)
from rofsim.signal_core import (
    _FFT_WORKERS,
    SampledWaveform,
    SpectrumEstimate,
    TimeGrid,
    band_power,
    dbm_to_watts,
    fractional_delay,
    phase_shift,
)


class GainNotAllowed(RofsimError):
    """Attenuator asked to amplify (power ratio above one)."""


def laser_cw(power_dbm: float, polarization: str, grid: TimeGrid) -> OpticalField:
    """CW field of constant envelope sqrt(P) in the selected rail, zero phase.

    power_dbm = -inf yields a lit rail of zeros (the other rail is dark); NaN
    and +inf are not powers and give a non-finite envelope.
    """
    amp = np.sqrt(dbm_to_watts(power_dbm))
    env = np.full(grid.n_samples, amp, dtype=np.complex128)
    if polarization == "x":
        return OpticalField(grid, env, None)
    if polarization == "y":
        return OpticalField(grid, None, env)
    raise ValueError("polarization must be 'x' or 'y'")


def cancellation_depth(
    without: SpectrumEstimate, with_: SpectrumEstimate, band: tuple[float, float]
) -> float:
    """Band power without minus with cancellation, in dB (positive = suppression)."""
    return band_power(without, *band) - band_power(with_, *band)


def total_power(field: OpticalField) -> float:
    """Time-averaged optical power of a field in watts."""
    return float(np.mean(np.abs(field.env_x) ** 2) + np.mean(np.abs(field.env_y) ** 2))


def mean_power(w: SampledWaveform) -> float:
    """Mean-square value of a waveform into a unit load (A^2/2 for a tone of amplitude A)."""
    return float(np.mean(w.samples**2))


def mzm_dsb(
    carrier: OpticalField, drive: SampledWaveform, params: ModulatorParams
) -> OpticalField:
    """Quadrature-biased push-pull MZM: double-sideband intensity modulator.

    Used as the dispersion power-fading control against the SSB path.
    """
    if carrier.grid != drive.grid:
        raise GridError("carrier and drive grids differ")
    phi = np.pi * drive.samples / (2.0 * params.v_pi)
    m = np.cos(phi - np.pi / 4.0)
    return carrier.held_as((False, False))._each_lit(lambda env, _: env * m)


def ssb_smallsignal_coefficients(m: float) -> dict:
    """First-order line coefficients of the SSB modulator for index m.

    Analytic oracle for dd_mzm_ssb spectra: carrier (sqrt(2)/2)*J0(m)*e^{j pi/4}
    and retained first sideband J1(m)*e^{j pi}.
    """
    if m < 0:
        raise ValueError("m must be non-negative")
    return {
        "carrier": (np.sqrt(2.0) / 2.0) * j0(m) * np.exp(1j * np.pi / 4.0),
        "sideband": j1(m) * np.exp(1j * np.pi),
    }


def attenuate(field: OpticalField, alpha: float) -> OpticalField:
    """Scale power by alpha (0 <= alpha <= 1)."""
    if alpha > 1.0:
        raise GainNotAllowed(f"attenuator cannot amplify (alpha={alpha})")
    if alpha < 0.0:
        raise ValueError("alpha must be non-negative")
    s = np.sqrt(alpha)
    return field.scaled(s)


def delay_line(field: OpticalField, tau: float, carrier_frequency: float = 0.0) -> OpticalField:
    """True optical delay: envelope delay plus carrier phase e^{-j w_c tau} at
    w_c = 2*pi*carrier_frequency. The default 0 delays the envelope alone,
    which is all that square-law detection sees."""
    if tau < 0.0:
        raise ValueError("tau must be non-negative")
    if tau == 0.0:
        return field
    ph = np.exp(-2j * np.pi * field.grid.freqs() * tau) * np.exp(
        -2j * np.pi * carrier_frequency * tau
    )
    return field.filtered(ph)


def balanced_detect(
    plus: OpticalField, minus: OpticalField, responsivity: float = 0.8
) -> SampledWaveform:
    """Difference of two square-law photocurrents."""
    if plus.grid != minus.grid:
        raise GridError("balanced detector inputs do not share a grid")
    return SampledWaveform(
        plus.grid,
        photodetect(plus, responsivity).samples - photodetect(minus, responsivity).samples,
    )


def reference_current(ru_field: OpticalField, s: LinkScenario, tau2: float) -> np.ndarray:
    """Photocurrent i_X of the reference arm: the X rail of the RU field carried
    to the CO and delayed by tau2 in the optical delay line. It never touches
    the uplink RF."""
    x_co = fiber_propagate(pbs(ru_field)[0], s.uplink_fiber)
    return photodetect(delay_line(x_co, tau2), s.responsivity).samples


def bpd_raw(ev: UplinkEvaluator, alpha: float, tau2: float) -> np.ndarray:
    """Unfiltered balanced-detector output i_X - i_Y of the SIC stage `ev`, with
    the reference arm delayed and detected in the time domain."""
    i_x = reference_current(run_downlink(ev.scenario)[1], ev.scenario, tau2)
    return alpha * i_x - sfft.irfft(ev._spec_y, ev.grid.n_samples, workers=_FFT_WORKERS)


def record_lo_branch(s: LinkScenario) -> OpticalField:
    """The CO modulator's LO branch modulated on the whole record, held in
    the domain the link of `s` carries."""
    branch = split_branch(s.laser_power_dbm, s.lo_signal.waveform(s.grid), s.v_pi, "y")
    return branch.held_as((False, _carries_spectra(s)))


def record_soi_only_spectrum(s: LinkScenario, rf_phase_comp: float | None) -> np.ndarray:
    """rfft of the signal arm's photocurrent with the SOI alone received, in
    the time domain on the whole record: the SOI synthesized on the record,
    `fractional_delay` and `phase_shift`, the RU modulator's own hybrid on
    the kept RU Y rail, and the uplink fiber."""
    soi = s.soi.waveform(s.grid)
    if s.soi_delay:
        soi = fractional_delay(soi, s.soi_delay)
    if rf_phase_comp is not None:
        soi = phase_shift(soi, rf_phase_comp)
    y = dd_mzm_ssb(pbs(run_downlink(s)[1])[1], soi, ModulatorParams(s.v_pi, "lower"))
    i_y = photodetect(fiber_propagate(y, s.uplink_fiber), s.responsivity)
    return sfft.rfft(i_y.samples, workers=_FFT_WORKERS)
