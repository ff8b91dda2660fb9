"""Component models: laser, SSB modulators, polarization elements, fiber, detectors.

Optical fields are dual-polarization complex envelopes referenced to the
carrier frequency. The dual-drive MZM is modeled exactly (complex exponential
of the per-sample arm phases); its small-signal Bessel expansion is provided
separately as a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft
from scipy.special import j0, j1

from .errors import GainNotAllowed, GridError, RailConflict
from .signal_core import SampledWaveform, TimeGrid, dbm_to_watts

C_LIGHT = 299_792_458.0
_FFT_WORKERS = -1
_REFERENCE_WAVELENGTH_NM = 1567.0  # wavelength at which the dispersion is quoted


@dataclass
class OpticalField:
    """Dual-polarization complex envelope (sqrt(W)) around a carrier frequency."""

    grid: TimeGrid
    carrier_frequency: float
    env_x: np.ndarray
    env_y: np.ndarray

    def __post_init__(self):
        self.env_x = np.asarray(self.env_x, dtype=np.complex128)
        self.env_y = np.asarray(self.env_y, dtype=np.complex128)
        if self.env_x.shape != (self.grid.n_samples,) or self.env_y.shape != (
            self.grid.n_samples,
        ):
            raise ValueError("envelope length must match grid")

    def total_power(self) -> float:
        """Time-averaged optical power in watts."""
        return float(
            np.mean(np.abs(self.env_x) ** 2) + np.mean(np.abs(self.env_y) ** 2)
        )

    def rail(self) -> str:
        """Which rail carries energy: 'x', 'y', 'both' or 'dark'."""
        has_x = bool(np.any(self.env_x))
        has_y = bool(np.any(self.env_y))
        if has_x and has_y:
            return "both"
        if has_x:
            return "x"
        if has_y:
            return "y"
        return "dark"


@dataclass(frozen=True)
class ModulatorParams:
    v_pi: float
    insertion_loss: float = 0.0  # dB
    sideband: str = "lower"

    def __post_init__(self):
        if self.v_pi <= 0:
            raise ValueError("v_pi must be positive")
        if self.insertion_loss < 0:
            raise ValueError("insertion_loss must be non-negative")
        if self.sideband not in ("upper", "lower"):
            raise ValueError("sideband must be 'upper' or 'lower'")


@dataclass(frozen=True)
class FiberParams:
    length: float = 0.0  # km
    dispersion: float = 17.0  # ps/(nm km)
    attenuation: float = 0.2  # dB/km

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("length must be non-negative")
        if self.attenuation < 0:
            raise ValueError("attenuation must be non-negative")

    @property
    def beta2(self) -> float:
        """Group-velocity dispersion in s^2/m."""
        d_si = self.dispersion * 1e-6  # ps/(nm km) -> s/m^2
        lam = _REFERENCE_WAVELENGTH_NM * 1e-9
        return -d_si * lam**2 / (2.0 * np.pi * C_LIGHT)


def laser_cw(
    power_dbm: float, carrier_frequency: float, polarization: str, grid: TimeGrid
) -> OpticalField:
    """CW field of constant envelope sqrt(P) in the selected rail, zero phase.

    power_dbm = -inf yields an all-zero (dark) field.
    """
    amp = np.sqrt(dbm_to_watts(power_dbm)) if np.isfinite(power_dbm) else 0.0
    env = np.full(grid.n_samples, amp, dtype=np.complex128)
    zero = np.zeros(grid.n_samples, dtype=np.complex128)
    if polarization == "x":
        return OpticalField(grid, carrier_frequency, env, zero)
    if polarization == "y":
        return OpticalField(grid, carrier_frequency, zero, env)
    raise ValueError("polarization must be 'x' or 'y'")


def _hilbert90(x: np.ndarray) -> np.ndarray:
    """Shift every positive-frequency component by +90 deg; DC maps to zero."""
    n = x.size
    xf = sfft.rfft(x)
    xf[1:] *= 1j
    xf[0] = 0.0
    if n % 2 == 0:
        xf[-1] = 0.0
    return sfft.irfft(xf, n)


def _ssb_transfer(drive: np.ndarray, params: ModulatorParams) -> np.ndarray:
    """Per-sample complex transfer of the DD-MZM biased for SSB operation.

    The two arms are driven in quadrature at full drive amplitude (the 90 deg
    hybrid of the modulator is `_hilbert90`); the sign of the quadrature path
    selects which first-order sideband survives.
    """
    if params.sideband == "lower":
        q = -_hilbert90(drive)
    else:
        q = _hilbert90(drive)
    rad_per_volt = np.pi / params.v_pi
    pa = rad_per_volt * drive
    pb = rad_per_volt * q - 0.5 * np.pi
    # 0.5*(e^{j pa} + e^{j pb}) written with one complex exponential
    mag = np.cos(0.5 * (pa - pb)) * 10.0 ** (-params.insertion_loss / 20.0)
    return np.exp(0.5j * (pa + pb)) * mag


def dd_mzm_ssb(
    carrier: OpticalField, drive: SampledWaveform, params: ModulatorParams
) -> OpticalField:
    """Modulate a single-rail field; exact transcendental model.

    For a single-tone drive of modulation index m = pi*peak/v_pi the output
    lines have magnitudes (sqrt(2)/2)*J0(m) (carrier) and J1(m) (retained
    sideband); the opposite sideband is cancelled by the quadrature drive.
    """
    if carrier.grid != drive.grid:
        raise GridError("carrier and drive grids differ")
    rail = carrier.rail()
    if rail == "both":
        raise ValueError("dd_mzm_ssb carrier must occupy a single rail")
    m = _ssb_transfer(drive.samples, params)
    if rail in ("x", "dark"):
        return OpticalField(
            carrier.grid,
            carrier.carrier_frequency,
            carrier.env_x * m,
            carrier.env_y.copy(),
        )
    return OpticalField(
        carrier.grid,
        carrier.carrier_frequency,
        carrier.env_x.copy(),
        carrier.env_y * m,
    )


def mzm_dsb(
    carrier: OpticalField, drive: SampledWaveform, params: ModulatorParams
) -> OpticalField:
    """Quadrature-biased push-pull MZM: double-sideband intensity modulator.

    Used as the dispersion power-fading control against the SSB path.
    """
    if carrier.grid != drive.grid:
        raise GridError("carrier and drive grids differ")
    phi = np.pi * drive.samples / (2.0 * params.v_pi)
    m = np.cos(phi - np.pi / 4.0) * 10.0 ** (-params.insertion_loss / 20.0)
    return OpticalField(
        carrier.grid,
        carrier.carrier_frequency,
        carrier.env_x * m,
        carrier.env_y * m,
    )


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


def dp_bpsk_modulate(
    carrier: OpticalField,
    if_drive: SampledWaveform,
    lo_drive: SampledWaveform,
    p_if: ModulatorParams,
    p_lo: ModulatorParams,
) -> OpticalField:
    """3-dB split into two SSB modulators, recombined on orthogonal rails.

    X rail carries the IF modulation (lower sideband), Y rail the LO
    modulation (upper sideband).
    """
    if carrier.grid != if_drive.grid or carrier.grid != lo_drive.grid:
        raise GridError("drive grids differ from the carrier grid")
    rail = carrier.rail()
    if rail == "both":
        raise ValueError("dp_bpsk_modulate carrier must occupy a single rail")
    env = carrier.env_x if rail in ("x", "dark") else carrier.env_y
    c = env / np.sqrt(2.0)
    mx = _ssb_transfer(if_drive.samples, p_if)
    my = _ssb_transfer(lo_drive.samples, p_lo)
    return OpticalField(carrier.grid, carrier.carrier_frequency, c * mx, c * my)


def polarizer(field: OpticalField, angle: float) -> OpticalField:
    """Project onto a linear polarizer axis; output on the X rail."""
    out = np.cos(angle) * field.env_x + np.sin(angle) * field.env_y
    return OpticalField(
        field.grid,
        field.carrier_frequency,
        out,
        np.zeros(field.grid.n_samples, dtype=np.complex128),
    )


def pbs(field: OpticalField) -> tuple[OpticalField, OpticalField]:
    """Split rails losslessly into two single-rail fields."""
    zero = np.zeros(field.grid.n_samples, dtype=np.complex128)
    return (
        OpticalField(field.grid, field.carrier_frequency, field.env_x.copy(), zero),
        OpticalField(
            field.grid, field.carrier_frequency, zero.copy(), field.env_y.copy()
        ),
    )


def pbc(x: OpticalField, y: OpticalField) -> OpticalField:
    """Merge two complementary single-rail fields; inverse of pbs."""
    if x.grid != y.grid:
        raise GridError("pbc inputs do not share a grid")
    if x.rail() in ("y", "both") or y.rail() in ("x", "both"):
        raise RailConflict("pbc inputs must occupy complementary rails")
    return OpticalField(
        x.grid, x.carrier_frequency, x.env_x.copy(), y.env_y.copy()
    )


def _copy(field: OpticalField) -> OpticalField:
    return OpticalField(field.grid, field.carrier_frequency, field.env_x.copy(), field.env_y.copy())


def _filter_rails(field: OpticalField, h: np.ndarray) -> OpticalField:
    """Multiply the spectrum of each rail by h; a dark rail stays dark."""

    def run(env):
        if not np.any(env):
            return np.zeros(env.shape, dtype=env.dtype)
        return sfft.ifft(sfft.fft(env, workers=_FFT_WORKERS) * h, workers=_FFT_WORKERS)

    return OpticalField(field.grid, field.carrier_frequency, run(field.env_x), run(field.env_y))


def fiber_propagate(field: OpticalField, fp: FiberParams) -> OpticalField:
    """Chromatic dispersion and loss as a quadratic spectral phase on both rails.

    Phase is referenced to the carrier; the common group delay is dropped so
    path delays are not double-counted by the link model.
    """
    if fp.length == 0.0:
        return _copy(field)
    length_m = fp.length * 1e3
    dw = 2.0 * np.pi * field.grid.freqs()
    h = 10.0 ** (-fp.attenuation * fp.length / 20.0) * np.exp(
        0.5j * fp.beta2 * length_m * dw**2
    )
    return _filter_rails(field, h)


def attenuate(field: OpticalField, alpha: float) -> OpticalField:
    """Scale power by alpha (0 <= alpha <= 1)."""
    if alpha > 1.0:
        raise GainNotAllowed(f"attenuator cannot amplify (alpha={alpha})")
    if alpha < 0.0:
        raise ValueError("alpha must be non-negative")
    s = np.sqrt(alpha)
    return OpticalField(
        field.grid, field.carrier_frequency, s * field.env_x, s * field.env_y
    )


def delay_line(field: OpticalField, tau: float) -> OpticalField:
    """True optical delay: envelope delay plus carrier phase e^{-j w_c tau}."""
    if tau < 0.0:
        raise ValueError("tau must be non-negative")
    if tau == 0.0:
        return _copy(field)
    ph = np.exp(-2j * np.pi * field.grid.freqs() * tau) * np.exp(
        -2j * np.pi * field.carrier_frequency * tau
    )
    return _filter_rails(field, ph)


def photodetect(field: OpticalField, responsivity: float = 0.8) -> SampledWaveform:
    """Square-law detection of the total intensity (polarization-insensitive)."""
    ex, ey = field.env_x, field.env_y
    i = responsivity * (ex.real**2 + ex.imag**2 + ey.real**2 + ey.imag**2)
    return SampledWaveform(field.grid, i)


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
