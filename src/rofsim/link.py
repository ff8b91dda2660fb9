"""End-to-end link: CO downlink, over-the-air SI/SOI path, RU re-modulation,
uplink transport and balanced detection at the CO."""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np
import scipy.fft as sfft

from .errors import DelayRangeError, GridError, SimulationError
from .optics import (
    FiberParams,
    ModulatorParams,
    OpticalField,
    dd_mzm_ssb,
    dp_bpsk_modulate,
    fiber_propagate,
    fiber_transfer,
    pbs,
    photodetect,
    polarizer,
    split_branch,
)
from .signal_core import (
    QamSignalSpec,
    SampledWaveform,
    SpectralWaveform,
    SpectrumEstimate,
    TimeGrid,
    ToneSpec,
    band_power,
    dbm_to_watts,
    demodulate_evm,
    filter_spectrum,
    qam_samples_per_symbol,
    welch_psd,
    DEFAULT_GRID,
    _FFT_WORKERS,
    _SKIRT_FRACTION,
    _delay_response,
    _edge_mask,
    _phase_response,
)


@dataclass(frozen=True)
class SelfInterferencePath:
    """Single delayed leakage path from the transmit to the receive antenna."""

    gain_db: float = -20.0
    delay: float = 1e-9  # seconds

    def __post_init__(self):
        if self.delay < 0:
            raise ValueError("delay must be non-negative")
        if self.gain_db != -np.inf and not 0.0 < self.amplitude_gain < np.inf:
            raise ValueError("SI path gain must be a finite, non-zero gain (or -inf: path off)")

    @property
    def amplitude_gain(self) -> float:
        """Voltage gain of the path; a gain of -inf dB disables it."""
        return 10.0 ** (self.gain_db / 20.0)


@dataclass(frozen=True)
class LinkScenario:
    """Full parameter set of one experiment."""

    name: str = "scenario"
    description: str = ""  # a line of text for the reader; no stage reads it
    seed: int = 1
    laser_power_dbm: float = 10.0
    if_signal: ToneSpec | QamSignalSpec = dc_field(
        default_factory=lambda: ToneSpec(amplitude=0.631, frequency=2e9)
    )
    lo_signal: ToneSpec = dc_field(
        default_factory=lambda: ToneSpec(amplitude=2.318, frequency=6e9)
    )
    v_pi: float = 3.5  # volts, shared by the CO and RU modulators
    downlink_fiber: FiberParams = dc_field(default_factory=lambda: FiberParams(length=0.0))
    uplink_fiber: FiberParams = dc_field(default_factory=lambda: FiberParams(length=0.0))
    edfa_gain_db: float = 20.0
    si_path: SelfInterferencePath = dc_field(default_factory=SelfInterferencePath)
    # the uplink signal of interest, radiated at the SI's RF frequency: built
    # with any frequency, it is held at f_s
    soi: ToneSpec | QamSignalSpec | None = None
    soi_delay: float = 0.0  # seconds, the SOI's arrival delay
    bpf: tuple[float, float] = (6.45e9, 8.55e9)
    lpf: float = 3e9
    grid: TimeGrid = dc_field(default_factory=lambda: DEFAULT_GRID)
    responsivity: float = 0.8
    rbw: float = 1e6

    def __post_init__(self):
        if self.soi is not None:
            object.__setattr__(self, "soi", replace(self.soi, frequency=self.f_s))
        if not 0.0 < dbm_to_watts(self.laser_power_dbm) < np.inf:
            raise ValueError(
                "laser.power_dbm: laser power must be a finite, non-zero number of watts"
            )
        if not 0.0 < self.v_pi < np.inf:
            raise ValueError("modulators.v_pi_volts: v_pi must be a finite, positive voltage")
        nyq = self.grid.nyquist
        for key, f in (("if_signal.frequency_ghz", self.f_if), ("lo.frequency_ghz", self.f_lo),
                       ("filters.lpf_cutoff_ghz", self.lpf), ("filters.bpf_low_ghz", self.bpf[0]),
                       ("filters.bpf_high_ghz", self.bpf[1])):
            if not 0 < f < nyq:
                raise ValueError(f"{key}: frequency {f:.3g} Hz outside (0, Nyquist)")
        if not self.bpf[0] < self.f_s < self.bpf[1]:  # so f_s lies below Nyquist too
            raise ValueError(
                f"if_signal.frequency_ghz + lo.frequency_ghz: f_if + f_lo = {self.f_s:.3g} Hz must"
                f" fall inside the BPF passband (filters.bpf_low_ghz, filters.bpf_high_ghz)"
            )
        for key, spec in (("if_signal", self.if_signal), ("soi", self.soi)):
            if isinstance(spec, QamSignalSpec):
                try:
                    qam_samples_per_symbol(spec, self.grid)
                except ValueError as exc:
                    raise ValueError(f"{key}.symbol_rate_mbaud: {exc}") from None
        horizon = self.grid.duration / 4.0  # the delays of the SIC stage and the tuner
        if not self.si_path.delay < horizon:
            raise ValueError(
                f"si_path.delay_ns: SI delay {self.si_path.delay:.3g} s must lie below a quarter"
                f" of the record, {horizon:.3g} s"
            )
        if max(self.si_band()[1], self.soi_band()[1] if self.soi is not None else 0.0) > self.lpf:
            raise ValueError(
                "filters.lpf_cutoff_ghz: the SI and SOI bands must lie below the lowpass edge"
            )

    @property
    def f_if(self) -> float:
        return self.if_signal.frequency

    @property
    def f_lo(self) -> float:
        return self.lo_signal.frequency

    @property
    def f_s(self) -> float:
        return self.f_if + self.f_lo

    def _band(self, spec: ToneSpec | QamSignalSpec) -> tuple[float, float]:
        """The band `spec` is measured in, around the down-converted IF."""
        hw = spec.band_halfwidth(self.rbw)
        return (self.f_if - hw, self.f_if + hw)

    def si_band(self) -> tuple[float, float]:
        """Measurement band for SI power at the down-converted IF."""
        return self._band(self.if_signal)

    def soi_band(self) -> tuple[float, float]:
        return self._band(self.soi)


@dataclass(frozen=True)
class SicSettings:
    alpha: float = 0.0  # power ratio through the reference-arm attenuator
    tau2: float = 0.0  # reference-arm delay, seconds
    rf_phase_comp: float | None = None  # explicit phase shifter (wideband mode)

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not 0.0 <= self.tau2 < np.inf:
            raise ValueError("tau2 must be a finite, non-negative delay in seconds")


@dataclass
class LinkMetrics:
    depth_db: float
    residual_si_dbm: float
    soi_power_dbm: float | None = None
    evm_percent: float | None = None


@dataclass
class LinkResult:
    """Lowpass BPD outputs, their Welch estimates at the scenario RBW, and metrics."""

    bpd_out_with_sic: SampledWaveform
    bpd_out_without_sic: SampledWaveform
    spectrum_with_sic: SpectrumEstimate
    spectrum_without_sic: SpectrumEstimate
    metrics: LinkMetrics


def _lo_key(s: LinkScenario) -> tuple:
    """The fields the LO branch reads: the laser, the LO drive, v_pi, and
    whether the link carries spectra, which sets the domain it is held in."""
    return (s.grid, s.laser_power_dbm, s.lo_signal, s.v_pi, _carries_spectra(s))


def _modulator_key(s: LinkScenario) -> tuple:
    """The fields the modulator output reads: the LO branch's plus the IF drive."""
    return _lo_key(s) + (s.if_signal,)


def _downlink_key(s: LinkScenario) -> tuple:
    """The fields the downlink reads: the modulator's plus the EDFA, the
    downlink fiber, the BPF and the photodiode."""
    return _modulator_key(s) + (s.edfa_gain_db, s.downlink_fiber, s.bpf, s.responsivity)


def _evaluator_key(s: LinkScenario, rf_phase_comp: float | None) -> tuple:
    """The fields the SI-only SIC stage reads: the downlink's plus the SI path,
    the uplink fiber, the SI band, the lowpass and the RF phase shifter."""
    return _downlink_key(s) + (s.si_path, s.uplink_fiber, s.rbw, s.lpf, rf_phase_comp)


# Latest (key, output) of each kept stage, in chain order: the CO modulator's
# LO branch, the modulator output, the downlink and the SI-only SIC stage.
# Each output is a function of its key alone, so a kept output is bit for bit
# the one a cold run builds; `_kept_stage` is the slots' one writer.
_LO_BRANCH, _MODULATOR, _DOWNLINK, _EVALUATOR = range(4)
_kept: list = [None] * 4


def _kept_stage(i: int, key: tuple, build):
    """The output of kept stage i for `key`. A changed key frees this stage and
    every later one before `build` runs, so two downlinks are never alive at once."""
    if _kept[i] is None or _kept[i][0] != key:
        _kept[i:] = [None] * (len(_kept) - i)
        _kept[i] = (key, build())
    return _kept[i][1]


def _carries_spectra(s: LinkScenario) -> bool:
    """Whether the link holds its optical rails as spectra: when a fibre has
    length. Every element between the modulators and the photodiodes is
    linear, so the rails are transformed only where a modulator or a
    photodiode needs samples."""
    return bool(s.downlink_fiber.length or s.uplink_fiber.length)


def _tiled(samples: np.ndarray, r: int) -> np.ndarray:
    """r periods of `samples`, one after another; `samples` itself for r = 1."""
    return samples if r == 1 else np.tile(samples, r)


def _spread(spectrum: np.ndarray, r: int, size: int) -> np.ndarray:
    """The `size` fft or rfft bins of r periods of the waveform whose
    spectrum on one period is `spectrum`: r times it on every r-th bin and
    zero elsewhere, the DFT of a periodic record; `spectrum` itself for r = 1."""
    if r == 1:
        return spectrum
    out = np.zeros(size, dtype=np.complex128)
    np.multiply(spectrum, r, out=out[::r])
    return out


def _lo_branch(s: LinkScenario) -> OpticalField:
    """The CO modulator's LO branch: the Y half of the laser's 3-dB split,
    modulated by the LO, held in the domain the link of `s` carries.

    Every step of the branch is pointwise in time or diagonal in frequency,
    so it repeats on the LO's period P (`ToneSpec.period`). It is built on P
    samples, the first P of the record, and repeated over the record: tiled
    as samples, or as its spectrum on every (n/P)-th bin."""
    n, spectral = s.grid.n_samples, _carries_spectra(s)
    p = s.lo_signal.period(s.grid)
    lo = s.lo_signal.waveform(TimeGrid(s.grid.sample_rate, p))
    rail = split_branch(s.laser_power_dbm, lo, s.v_pi, "y").env_y
    if spectral:
        rail = _spread(sfft.fft(rail, workers=_FFT_WORKERS), n // p, n)
    else:
        rail = _tiled(rail, n // p)
    return OpticalField(s.grid, None, rail, spectral=(False, spectral))


def _modulate(s: LinkScenario) -> OpticalField:
    """Output of the dual-polarization modulator driven by the IF and the kept
    LO branch, held in the domain the link of `s` carries. Its Y rail is the
    kept LO branch's rail, shared, not copied; the IF drive is freed before
    the X rail is transformed."""
    lo_branch = _kept_stage(_LO_BRANCH, _lo_key(s), lambda: _lo_branch(s))
    out = dp_bpsk_modulate(s.laser_power_dbm, s.if_signal.waveform(s.grid), lo_branch, s.v_pi)
    return out.held_as((_carries_spectra(s),) * 2)


def downlink_taps(s: LinkScenario) -> dict:
    """Run the downlink and expose intermediate fields and waveforms. The
    modulator output is kept, so a scenario that changes only later fields
    reuses it.

    The fiber, the EDFA, the splitter and the polarizer act on the rails in
    the domain the modulator output is held in. Held as spectra, the chain
    transforms two rails: the polarizer output, for the photodiode, and the
    RU Y rail, for the uplink modulator. The RU X rail stays in its domain.
    """
    dp_out = _kept_stage(_MODULATOR, _modulator_key(s), lambda: _modulate(s))
    edfa = 10.0 ** (s.edfa_gain_db / 20.0)
    # fiber, EDFA at the RU and the 3-dB optical splitter, whose two outputs
    # carry the same read-only field
    split = fiber_propagate(dp_out, s.downlink_fiber).scaled(edfa, 1.0 / np.sqrt(2.0))
    ru_field = split.held_as((split.spectral[0], False))
    pol_out = polarizer(split, np.pi / 4.0).held_as((False, False))
    del split  # a spectrum Y rail is freed before the photodiode runs
    rf = filter_spectrum(photodetect(pol_out, s.responsivity), "bandpass", *s.bpf)
    return {
        "dp_bpsk_out": dp_out,
        "polarizer_out": pol_out,
        "ru_field": ru_field,
        "rf": rf,
    }


def run_downlink(s: LinkScenario) -> tuple[SpectralWaveform, OpticalField]:
    """Downlink chain: returns the up-converted RF, held as the one-sided
    spectrum the BPF makes, and the RU optical field.

    The result for the latest downlink fields is kept, so tuning and then
    running the same link, or a sweep over an uplink-side field, computes the
    downlink once.
    """

    def build():
        taps = downlink_taps(s)
        return taps["rf"], taps["ru_field"]

    return _kept_stage(_DOWNLINK, _downlink_key(s), build)


def uplink_evaluator(s: LinkScenario, rf_phase_comp: float | None = None) -> UplinkEvaluator:
    """The SI-only SIC stage of `s`, kept for the latest fields it reads, so
    tuning and then running the same link builds it once. Its `scenario` may
    differ from `s` in fields the stage does not read (`name`, `seed`, `soi`)."""
    return _kept_stage(_EVALUATOR, _evaluator_key(s, rf_phase_comp),
                       lambda: UplinkEvaluator(s, rf_phase_comp))


def _soi_on_period(s: LinkScenario) -> tuple[SampledWaveform, np.ndarray]:
    """The SOI at the air-interface frequency f_s on its own period
    (`period`): its samples, and their rfft after the arrival delay, a
    product with the delay's response on that grid."""
    soi = s.soi.waveform(TimeGrid(s.grid.sample_rate, s.soi.period(s.grid)))
    bins = sfft.rfft(soi.samples, workers=_FFT_WORKERS)
    if s.soi_delay:
        bins *= _delay_response(soi.grid, s.soi_delay)
    return soi, bins


def _on_record(bins: np.ndarray, period: int, grid: TimeGrid) -> SpectralWaveform:
    """The rfft `bins` of a waveform on `period` samples, repeated over the
    record of `grid`, as its spectrum there."""
    n = grid.n_samples
    return SpectralWaveform(grid, _spread(bins, n // period, n // 2 + 1))


def soi_spectrum(s: LinkScenario) -> SpectralWaveform | None:
    """The SOI realized at the air-interface frequency f_s, after its arrival
    delay, held as its one-sided spectrum on the record's bins. It is built
    on its own period, so a tone SOI costs a few samples."""
    if s.soi is None:
        return None
    soi, bins = _soi_on_period(s)
    return _on_record(bins, soi.grid.n_samples, s.grid)


def make_received_signal(
    rf: SpectralWaveform,
    si: SelfInterferencePath,
    soi: SpectralWaveform | None = None,
    rf_phase_comp: float | None = None,
) -> SpectralWaveform:
    """The RF at the RU modulator's input, held as its one-sided spectrum:
    the transmitted RF delayed and scaled by the SI path, plus the SOI, then
    the RF phase shifter of wideband mode when `rf_phase_comp` is set. The
    delay zeroes the Nyquist bin, as `fractional_delay` does."""
    grid = rf.grid
    if si.delay >= grid.duration / 4.0:
        raise DelayRangeError("SI delay exceeds a quarter of the record")
    received = rf.bins * _delay_response(grid, si.delay)
    received *= si.amplitude_gain
    if soi is not None:
        if soi.grid != grid:
            raise GridError("SOI and RF grids differ")
        received += soi.bins
    if rf_phase_comp is not None:
        received *= _phase_response(grid, rf_phase_comp)
    return SpectralWaveform(grid, received)


def remodulate(
    ru_field: OpticalField,
    received: SpectralWaveform,
    s: LinkScenario,
    drive: SampledWaveform | None = None,
) -> OpticalField:
    """RU re-modulation: the received RF drives the SSB modulator (lower
    sideband) on the Y output of the RU's beam splitter; the output's X rail
    is dark. The drive and its quadrature, the modulator's 90 deg hybrid,
    are two inverse transforms of the received spectrum; `drive` stands for
    the first where the caller holds those samples. The spectrum is dropped
    once both are formed, so a caller that passes it unbound frees it before
    the modulator runs."""
    if drive is None:
        drive = received.waveform()
    quadrature = received.quadrature()
    del received
    return dd_mzm_ssb(pbs(ru_field)[1], drive, ModulatorParams(s.v_pi, "lower"), quadrature)


def _uplink_transfer(s: LinkScenario) -> np.ndarray | None:
    """The uplink fiber's transfer function; None when it has no length."""
    return fiber_transfer(s.uplink_fiber, s.grid) if s.uplink_fiber.length else None


def _arm_spectrum(field: OpticalField, s: LinkScenario, h_up: np.ndarray | None) -> np.ndarray:
    """rfft of the photocurrent of one SIC arm: `field` carried to the CO
    through the uplink fiber, whose transfer is `h_up` (None: no length). The
    fiber's product is transformed to samples in place, so only the arm
    holds it."""
    if h_up is not None:
        field = field.filtered(h_up, (False, False))
    field = field.held_as((False, False))
    return sfft.rfft(photodetect(field, s.responsivity).samples, workers=_FFT_WORKERS)


def output_decimation(grid: TimeGrid, lpf: float) -> int:
    """Decimation d of the lowpass outputs: the largest power of two that divides
    the record into at least 2 samples while the top of the lowpass skirt,
    (1 + skirt fraction) * lpf, stays strictly below the output Nyquist
    fs / (2d). The lowpass is exactly zero from that top up, so every d-th
    sample loses nothing."""
    top = (1.0 + _SKIRT_FRACTION) * lpf
    n = grid.n_samples
    d = 1
    while n % (2 * d) == 0 and n // (2 * d) >= 2 and top < grid.sample_rate / (4 * d):
        d *= 2
    return d


def _lowpassed(
    spectrum: np.ndarray, grid: TimeGrid, lpf: float, d: int | None = None
) -> SampledWaveform:
    """The lowpass of `filter_band` applied to an rfft spectrum on `grid`, as
    every d-th sample (default d: `output_decimation`) on the grid fs/d.

    With m = n/d, the first m//2 + 1 bins hold the whole lowpassed spectrum,
    and irfft(., m) * (m/n) of them is every d-th sample of irfft(., n).
    """
    if d is None:
        d = output_decimation(grid, lpf)
    n = grid.n_samples
    m = n // d
    keep = m // 2 + 1
    h = _edge_mask(grid.rfreqs()[:keep], lpf, rising=False)
    samples = sfft.irfft(spectrum[:keep] * h, m, workers=_FFT_WORKERS)
    samples *= m / n
    return SampledWaveform(TimeGrid(grid.sample_rate / d, m), samples)


def signal_output(received: SpectralWaveform, s: LinkScenario) -> SampledWaveform:
    """-LP(i_Y): the lowpass BPD output of the signal arm that `received`
    re-modulates (reference arm dark), on the output grid."""
    arm = _arm_spectrum(remodulate(run_downlink(s)[1], received, s), s, _uplink_transfer(s))
    return _lowpassed(-arm, s.grid, s.lpf)


class UplinkEvaluator:
    """The scenario's SI-only SIC stage: closed-form objective and outputs.

    Everything upstream of the attenuator/delay line is independent of the SIC
    settings, so the evaluator keeps B = rfft(i_Y) of the signal arm and
    A = rfft(i_X) of the reference arm at zero delay. Square-law detection
    drops the carrier phase of the reference-arm delay, and delaying the
    envelope by tau2 multiplies the bins of its intensity by
    exp(-2j*pi*f*tau2), exactly while the envelope content lies below fs/4.
    Then rfft(i_X - i_Y) at (alpha, tau2) = alpha*A*exp(-2j*pi*f*tau2) - B: the
    objective reads its SI-band bins, and the outputs are one irfft of it.
    """

    def __init__(self, s: LinkScenario, rf_phase_comp: float | None = None):
        self.scenario = s
        self.grid = s.grid
        self.rf_phase_comp = rf_phase_comp
        rf, ru = run_downlink(s)
        h_up = _uplink_transfer(s)  # both arms cross the uplink fiber
        # B: passed unbound, the received spectrum is freed before the RU
        # modulator runs, and the re-modulated rail once it is filtered
        self._spec_y = _arm_spectrum(remodulate(
            ru, make_received_signal(rf, s.si_path, rf_phase_comp=rf_phase_comp), s), s, h_up)
        self._spec_x = _arm_spectrum(pbs(ru)[0], s, h_up)  # A: the reference arm at zero delay
        freqs = self.grid.rfreqs()
        f_lo, f_hi = s.si_band()
        mask = (freqs >= f_lo) & (freqs <= f_hi)
        self._si_bins = (self._spec_x[mask], self._spec_y[mask], freqs[mask])
        for a in (self._spec_y, self._spec_x, *self._si_bins):
            a.flags.writeable = False  # a kept stage is shared by every caller
        self._d = output_decimation(self.grid, s.lpf)

    def _reference_bins(self, tau2: float) -> np.ndarray:
        a, _, f = self._si_bins
        return a * np.exp(-2j * np.pi * f * tau2)

    def optimal_alpha(self, tau2: float) -> float:
        """Least-squares attenuation at delay tau2, clipped to [0, 1]."""
        a = self._reference_bins(tau2)
        norm = np.vdot(a, a).real
        if norm == 0.0:
            return 0.0
        return float(np.clip(np.vdot(a, self._si_bins[1]).real / norm, 0.0, 1.0))

    def crest_step(self, tau2: float) -> float | None:
        """Newton step g'/g'' toward the crest of g(tau2) = Re C(tau2), or None
        off a crest (g'' >= 0).

        C(tau2) = sum(conj(A)*B*exp(2j*pi*f*tau2)) over the SI band, so
        optimal_alpha is g/||A||^2 and, with alpha in [0, 1], the residual is
        ||B||^2 - g^2/||A||^2: its minima are the crests of g.
        """
        _, b, f = self._si_bins
        w = 2.0 * np.pi * f
        c = np.conj(self._reference_bins(tau2)) * b
        g2 = -np.dot(w * w, c.real)
        if g2 >= 0.0:
            return None
        return float(-np.dot(w, c.imag) / g2)

    def residual_band_power_dbm(self, alpha: float, tau2: float) -> float:
        """Band power of the residual over the SI band (objective), in closed form."""
        spec = alpha * self._reference_bins(tau2) - self._si_bins[1]
        msq = 2.0 * np.sum(np.abs(spec) ** 2) / self.grid.n_samples**2
        p_dbm = 10.0 * np.log10(max(msq / 50.0 / 1e-3, 1e-40))
        if not np.isfinite(p_dbm):
            raise SimulationError("non-finite residual power")
        return float(p_dbm)

    def outputs(self, alpha: float, tau2: float) -> tuple[SampledWaveform, SampledWaveform]:
        """Lowpass-filtered BPD outputs (with_sic, without_sic) at (alpha, tau2),
        on the output grid; only the bins below its Nyquist are computed."""
        keep = self.grid.n_samples // self._d // 2 + 1
        x, y = self._spec_x[:keep], self._spec_y[:keep]
        delay = np.exp(-2j * np.pi * self.grid.rfreqs()[:keep] * tau2)
        lpf = self.scenario.lpf
        with_sic = _lowpassed(alpha * x * delay - y, self.grid, lpf, self._d)
        return with_sic, _lowpassed(-y, self.grid, lpf, self._d)


def _soi_only_spectrum(
    s: LinkScenario,
    soi: SampledWaveform,
    bins: np.ndarray,
    rf_phase_comp: float | None,
    h_up: np.ndarray | None,
) -> np.ndarray:
    """rfft, on the record's bins, of the signal arm's photocurrent with the
    SOI alone received: `soi` and `bins` as `_soi_on_period` gives them, and
    `h_up` the uplink fiber's transfer on the record (None: no length).

    The RU's Y rail carries only the LO, so it repeats on the LO's period,
    and the SOI repeats on its own. The pass runs on the p samples of their
    lcm: the first p of the kept rail, the SOI's bins and every (n/p)-th bin
    of the fiber's transfer. Its spectrum is spread onto the record's bins.
    Without a delay or a phase shifter the SOI's samples are its drive.
    """
    n = s.grid.n_samples
    p = math.lcm(s.lo_signal.period(s.grid), soi.grid.n_samples)
    grid = TimeGrid(s.grid.sample_rate, p)
    r = p // soi.grid.n_samples
    received = _spread(bins, r, p // 2 + 1)
    drive = None
    if rf_phase_comp is not None:
        received = received * _phase_response(grid, rf_phase_comp)
    elif not s.soi_delay:
        drive = SampledWaveform(grid, _tiled(soi.samples, r))
    ru = OpticalField(grid, None, run_downlink(s)[1].env_y[:p])
    h_up = None if h_up is None else h_up[:: n // p]
    spectrum = _arm_spectrum(remodulate(ru, SpectralWaveform(grid, received), s, drive), s, h_up)
    return _spread(spectrum, n // p, n // 2 + 1)


def run_full(s: LinkScenario, sic: SicSettings) -> LinkResult:
    """Execute the whole link and compute the scenario metrics.

    The SI-only pass is the one SIC stage, kept from tuning; the SI + SOI and
    SOI-only passes detect only the signal arm. The received RF is linear in
    the SI and the SOI, so the SOI's spectrum is taken once, on its period,
    and added to the SI's. The outputs, spectra and powers are on the output
    grid; EVM reads the SOI at the full rate.
    """
    # SI-only pass: depth and residual are measured without the SOI so the
    # always-on uplink signal cannot mask the cancellation.
    ev = uplink_evaluator(s, sic.rf_phase_comp)
    with_out, without_out = ev.outputs(sic.alpha, sic.tau2)
    spec_with, spec_without = welch_psd(with_out, s.rbw), welch_psd(without_out, s.rbw)
    band = s.si_band()
    residual = band_power(spec_with, *band)
    depth = band_power(spec_without, *band) - residual

    soi_power = None
    evm = None
    if s.soi is not None:
        rf, ru = run_downlink(s)
        soi, bins = _soi_on_period(s)
        h_up = _uplink_transfer(s)  # both SOI passes cross the uplink fiber
        # The reference arm never touches the uplink RF, so adding the SOI
        # changes only the signal arm: `signal_output` of the SI + SOI
        # signal, with each spectrum passed unbound so it is freed once used.
        full = _lowpassed(-_arm_spectrum(remodulate(ru, make_received_signal(
            rf, s.si_path, _on_record(bins, soi.grid.n_samples, s.grid), sic.rf_phase_comp,
        ), s), s, h_up), s.grid, s.lpf)
        with_out = SampledWaveform(
            with_out.grid, with_out.samples - without_out.samples + full.samples
        )
        without_out = full
        spec_with, spec_without = welch_psd(with_out, s.rbw), welch_psd(without_out, s.rbw)
        # SOI-only pass: measured on the signal arm alone, otherwise the
        # reference arm's downlink copy would masquerade as SOI power.
        soi_spec = -_soi_only_spectrum(s, soi, bins, sic.rf_phase_comp, h_up)
        del h_up, soi, bins  # freed before the EVM, which sets the peak of run_full
        soi_only = _lowpassed(soi_spec, s.grid, s.lpf)
        soi_power = band_power(welch_psd(soi_only, s.rbw), *s.soi_band())
        if isinstance(s.soi, QamSignalSpec):  # down-converted, the SOI sits at f_if
            soi_full_rate = _lowpassed(soi_spec, s.grid, s.lpf, 1)
            del soi_spec
            evm = demodulate_evm(soi_full_rate, replace(s.soi, frequency=s.f_if))

    return LinkResult(
        bpd_out_with_sic=with_out,
        bpd_out_without_sic=without_out,
        spectrum_with_sic=spec_with,
        spectrum_without_sic=spec_without,
        metrics=LinkMetrics(
            depth_db=depth,
            residual_si_dbm=residual,
            soi_power_dbm=soi_power,
            evm_percent=evm,
        ),
    )
