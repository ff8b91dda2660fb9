"""Component models: laser, SSB modulators, polarization elements, fiber, detectors.

Optical fields are dual-polarization complex envelopes referenced to the
carrier frequency. The dual-drive MZM is modeled exactly (complex exponential
of the per-sample arm phases); its small-signal Bessel expansion is provided
in the tests as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft as sfft

from .errors import GridError, RailConflict
from .signal_core import _FFT_WORKERS, SampledWaveform, TimeGrid, _quadrature, dbm_to_watts

C_LIGHT = 299_792_458.0
_REFERENCE_WAVELENGTH_NM = 1567.0  # wavelength at which the dispersion is quoted


def _read_only(rail) -> np.ndarray:
    rail = np.asarray(rail, dtype=np.complex128)
    rail.flags.writeable = False
    return rail


def dark_rail(n: int) -> np.ndarray:
    """An unlit rail of n samples: a read-only zero-stride view of one zero,
    which holds no per-sample memory."""
    return np.broadcast_to(np.complex128(0), (n,))


class OpticalField:
    """Dual-polarization complex envelope (sqrt(W)) around a carrier.

    Each rail is held in one domain: as samples, or as its spectrum (the
    unnormalised `scipy.fft.fft`, on `grid.freqs()`) where the link carries it
    through linear elements only, and a dark rail is held as None, so which
    rails are lit is set where the field is built. `env_x`/`env_y` give a
    rail's samples and `spectrum_x`/`spectrum_y` its spectrum (`dark_rail(n)`
    for a dark one); a rail held in the other domain is transformed on demand
    and the result is not kept. Rails are read-only. The linear steps `scaled`
    and `filtered` act on each lit rail in the domain it is held in;
    `held_as` converts.
    """

    def __init__(self, grid: TimeGrid, env_x, env_y, spectral: tuple[bool, bool] = (False, False)):
        self.grid = grid
        self.spectral = tuple(spectral)
        self._held = tuple(None if r is None else _read_only(r) for r in (env_x, env_y))
        if any(r is not None and r.shape != (grid.n_samples,) for r in self._held):
            raise ValueError("envelope length must match grid")

    def _rail_as(self, i: int, spectral: bool) -> np.ndarray:
        """Rail i as its spectrum or as samples; a dark rail as `dark_rail(n)`."""
        rail = self._held[i]
        if rail is None:
            return dark_rail(self.grid.n_samples)
        if spectral == self.spectral[i]:
            return rail
        transform = sfft.fft if spectral else sfft.ifft
        return _read_only(transform(rail, workers=_FFT_WORKERS))

    @property
    def env_x(self) -> np.ndarray:
        return self._rail_as(0, False)

    @property
    def env_y(self) -> np.ndarray:
        return self._rail_as(1, False)

    @property
    def spectrum_x(self) -> np.ndarray:
        return self._rail_as(0, True)

    @property
    def spectrum_y(self) -> np.ndarray:
        return self._rail_as(1, True)

    def held_as(self, spectral: tuple[bool, bool]) -> OpticalField:
        """The field with its rails held in the given domains (itself if they are)."""
        if tuple(spectral) == self.spectral:
            return self
        rails = [None if r is None else self._rail_as(i, sp)
                 for i, (r, sp) in enumerate(zip(self._held, spectral))]
        return OpticalField(self.grid, *rails, spectral=spectral)

    def _each_lit(self, step) -> OpticalField:
        """step(rail, spectral) on each lit rail, in its held domain; a dark rail stays dark."""
        rails = [None if r is None else step(r, sp) for r, sp in zip(self._held, self.spectral)]
        return OpticalField(self.grid, *rails, spectral=self.spectral)

    def scaled(self, *factors: float) -> OpticalField:
        """Scalar gain: each lit rail times every factor in turn (k * rail), into
        one new buffer per rail; with no factor, the field itself."""
        def step(rail, _):
            out = np.multiply(factors[0], rail)
            for k in factors[1:]:
                np.multiply(k, out, out=out)
            return out
        return self._each_lit(step) if factors else self

    def filtered(self, h: np.ndarray, spectral: tuple[bool, bool] | None = None) -> OpticalField:
        """Linear filter: each lit rail's spectrum times h (on `grid.freqs()`),
        held in the domains `spectral` (default: each rail's own). A rail's
        filtered spectrum is one new buffer, h * rail for a spectrum rail or
        the FFT of a sample rail times h in place; a rail held as samples
        after is transformed back in that buffer, so the product is never
        held twice."""
        spectral = self.spectral if spectral is None else tuple(spectral)
        rails = []
        for rail, held_spectral, out_spectral in zip(self._held, self.spectral, spectral):
            if rail is None:
                rails.append(None)
                continue
            if held_spectral:
                spec = h * rail
            else:
                spec = sfft.fft(rail, workers=_FFT_WORKERS)
                spec *= h
            rails.append(spec if out_spectral
                         else sfft.ifft(spec, workers=_FFT_WORKERS, overwrite_x=True))
        return OpticalField(self.grid, *rails, spectral=spectral)

    def rail(self) -> str:
        """Which rail is lit: 'x', 'y', 'both' or 'dark'."""
        lit = tuple(rail is not None for rail in self._held)
        return {(True, True): "both", (True, False): "x", (False, True): "y"}.get(lit, "dark")


@dataclass(frozen=True)
class ModulatorParams:
    v_pi: float
    sideband: str = "lower"

    def __post_init__(self):
        if not 0.0 < self.v_pi < np.inf:  # NaN fails too
            raise ValueError("v_pi must be a finite, positive voltage")
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


def _hilbert90(x: np.ndarray) -> np.ndarray:
    """Shift every positive-frequency component by +90 deg; DC maps to zero."""
    return _quadrature(sfft.rfft(x, workers=_FFT_WORKERS), x.size)


_BLOCK = 2**14  # samples per block of the SSB transfer, whose temporaries stay in cache


def _ssb_transfer(drive: np.ndarray, quadrature: np.ndarray, params: ModulatorParams) -> np.ndarray:
    """Per-sample complex transfer of the DD-MZM biased for SSB operation.

    The two arms are driven in quadrature at full drive amplitude: one by
    the drive, the other by its quadrature (the drive shifted by +90 deg, the
    output of the modulator's 90 deg hybrid), whose sign selects which
    first-order sideband survives. The transfer is pointwise in time, so it
    is computed in blocks of `_BLOCK` samples, each bit for bit the whole
    record's.
    """
    rad_per_volt = np.pi / params.v_pi
    # the lower sideband negates the quadrature: k * (-q) == (-k) * q exactly
    quad_rad_per_volt = -rad_per_volt if params.sideband == "lower" else rad_per_volt
    out = np.empty(drive.size, dtype=np.complex128)
    for start in range(0, drive.size, _BLOCK):
        block = slice(start, start + _BLOCK)
        pa = rad_per_volt * drive[block]
        pb = quad_rad_per_volt * quadrature[block]
        np.subtract(pb, 0.5 * np.pi, out=pb)
        # 0.5*(e^{j pa} + e^{j pb}) written with one complex exponential,
        # exp(0.5j*(pa + pb)) * cos(0.5*(pa - pb))
        mag = np.subtract(pa, pb)
        np.multiply(0.5, mag, out=mag)
        np.cos(mag, out=mag)
        np.add(pa, pb, out=pa)
        o = out[block]
        np.multiply(0.5j, pa, out=o)
        np.exp(o, out=o)
        np.multiply(o, mag, out=o)
    return out


def dd_mzm_ssb(
    carrier: OpticalField,
    drive: SampledWaveform,
    params: ModulatorParams,
    quadrature: SampledWaveform | None = None,
) -> OpticalField:
    """Modulate a single-rail field; exact transcendental model.

    `quadrature` is the drive shifted by +90 deg, for a caller that holds it
    (the remote unit forms it from the received RF's spectrum); without it
    the modulator's hybrid forms it from the drive (`_hilbert90`).

    For a single-tone drive of modulation index m = pi*peak/v_pi the output
    lines have magnitudes (sqrt(2)/2)*J0(m) (carrier) and J1(m) (retained
    sideband); the opposite sideband is cancelled by the quadrature drive.
    """
    if carrier.grid != drive.grid or (quadrature is not None and quadrature.grid != drive.grid):
        raise GridError("carrier and drive grids differ")
    rail = carrier.rail()
    if rail == "both":
        raise ValueError("dd_mzm_ssb carrier must occupy a single rail")
    i = 1 if rail == "y" else 0  # the lit rail; X when both are dark
    q = _hilbert90(drive.samples) if quadrature is None else quadrature.samples
    m = _ssb_transfer(drive.samples, q, params)
    del q
    rails = list(carrier._held)
    rails[i] = np.multiply(carrier._rail_as(i, False), m, out=m)
    return OpticalField(carrier.grid, *rails)


# the CO modulator's fixed sideband layout: the IF on X as the lower
# sideband, the LO on Y as the upper one
_CO_SIDEBANDS = {"x": "lower", "y": "upper"}


def split_branch(
    laser_power_dbm: float, drive: SampledWaveform, v_pi: float, rail: str
) -> OpticalField:
    """One branch of the CO modulator: the 3-dB split of the CW laser of
    `laser_power_dbm`, a constant held as one zero-stride sample as a dark rail
    is, placed on `rail` ('x' or 'y') of the drive's grid and modulated by
    `dd_mzm_ssb` with that rail's fixed sideband (lower on X, upper on Y)."""
    if rail not in _CO_SIDEBANDS:
        raise ValueError("rail must be 'x' or 'y'")
    c = np.complex128(np.sqrt(dbm_to_watts(laser_power_dbm))) / np.sqrt(2.0)
    c = np.broadcast_to(c, (drive.grid.n_samples,))
    half = OpticalField(drive.grid, *((c, None) if rail == "x" else (None, c)))
    return dd_mzm_ssb(half, drive, ModulatorParams(v_pi, _CO_SIDEBANDS[rail]))


def dp_bpsk_modulate(
    laser_power_dbm: float,
    if_drive: SampledWaveform,
    lo_branch: OpticalField,
    v_pi: float,
) -> OpticalField:
    """The CO modulator: the IF branch, `split_branch(laser_power_dbm,
    if_drive, v_pi, "x")`, recombined by `pbc` with the built LO branch
    `split_branch(laser_power_dbm, lo_drive, v_pi, "y")`, in either domain.

    X rail carries the IF modulation (lower sideband), Y rail the LO
    modulation (upper sideband); the output's Y rail is the LO branch's rail.
    """
    return pbc(split_branch(laser_power_dbm, if_drive, v_pi, "x"), lo_branch)


def polarizer(field: OpticalField, angle: float) -> OpticalField:
    """Project onto a linear polarizer axis; output on the X rail, in the
    domain the input's X rail is held in."""
    sp = field.spectral[0]
    out = np.cos(angle) * field._rail_as(0, sp)
    out += np.sin(angle) * field._rail_as(1, sp)
    return OpticalField(field.grid, out, None, spectral=(sp, False))


def pbs(field: OpticalField) -> tuple[OpticalField, OpticalField]:
    """Split rails losslessly into two single-rail fields; each rail stays in
    the domain it is held in."""
    (x, y), (sx, sy) = field._held, field.spectral
    return (
        OpticalField(field.grid, x, None, spectral=(sx, False)),
        OpticalField(field.grid, None, y, spectral=(False, sy)),
    )


def pbc(x: OpticalField, y: OpticalField) -> OpticalField:
    """Merge two complementary single-rail fields; inverse of pbs."""
    if x.grid != y.grid:
        raise GridError("pbc inputs do not share a grid")
    if x._held[1] is not None or y._held[0] is not None:
        raise RailConflict("pbc inputs must occupy complementary rails")
    return OpticalField(x.grid, x._held[0], y._held[1], spectral=(x.spectral[0], y.spectral[1]))


def fiber_transfer(fp: FiberParams, grid: TimeGrid) -> np.ndarray:
    """Transfer function of the fiber on `grid.freqs()`: loss * exp(0.5j*beta2*L*w^2).

    Phase is referenced to the carrier; the common group delay is dropped so
    path delays are not double-counted by the link model. w^2 is even, so the
    n//2 + 1 non-negative bins are evaluated and mirrored onto the negative ones.
    """
    n = grid.n_samples
    length_m = fp.length * 1e3
    dw = 2.0 * np.pi * grid.rfreqs()
    half = 10.0 ** (-fp.attenuation * fp.length / 20.0) * np.exp(
        0.5j * fp.beta2 * length_m * dw**2
    )
    h = np.empty(n, dtype=np.complex128)
    h[: half.size] = half
    h[half.size:] = half[n - half.size:0:-1]
    return h


def fiber_propagate(field: OpticalField, fp: FiberParams) -> OpticalField:
    """Chromatic dispersion and loss (`fiber_transfer`) on both rails."""
    if fp.length == 0.0:
        return field
    return field.filtered(fiber_transfer(fp, field.grid))


def photodetect(field: OpticalField, responsivity: float = 0.8) -> SampledWaveform:
    """Square-law detection of the total intensity (polarization-insensitive).

    A dark rail adds nothing and is skipped, as in `OpticalField.filtered`.
    """
    intensity = None  # starts at the first lit rail's square (0 + a == a), not at zeros
    for i, rail in enumerate(field._held):
        if rail is not None:
            env = field._rail_as(i, False)
            square = env.real**2
            intensity = square if intensity is None else np.add(intensity, square, out=intensity)
            intensity += env.imag**2
    if intensity is None:
        intensity = np.zeros(field.grid.n_samples)
    intensity *= responsivity
    return SampledWaveform(field.grid, intensity)
