"""Optical elements that the link does not use, kept as test oracles: a
push-pull DSB modulator (the power-fading control of C6), the small-signal
Bessel lines of the SSB modulator, an optical attenuator and a balanced
detector."""

import numpy as np
from scipy.special import j0, j1

from rofsim.errors import GainNotAllowed, GridError
from rofsim.optics import ModulatorParams, OpticalField, photodetect
from rofsim.signal_core import SampledWaveform


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
