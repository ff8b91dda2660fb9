"""End-to-end link: CO downlink, over-the-air SI/SOI path, RU re-modulation,
uplink transport and balanced detection at the CO."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.fft as sfft

from .errors import DelayRangeError, SimulationError
from .optics import (
    FiberParams,
    ModulatorParams,
    OpticalField,
    dd_mzm_ssb,
    dp_bpsk_modulate,
    fiber_propagate,
    fiber_transfer,
    laser_cw,
    pbs,
    photodetect,
    polarizer,
)
from .signal_core import (
    QamSignalSpec,
    SampledWaveform,
    SpectrumEstimate,
    TimeGrid,
    ToneSpec,
    band_power,
    dbm_to_amplitude,
    dbm_to_watts,
    demodulate_evm,
    filter_band,
    fractional_delay,
    make_qam,
    make_tone,
    phase_shift,
    qam_samples_per_symbol,
    welch_psd,
    DEFAULT_GRID,
    _FFT_WORKERS,
    _SKIRT_FRACTION,
    _edge_mask,
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
class SoiSpec:
    """Uplink signal of interest, radiated at the same frequency as the SI."""

    kind: str = "tone"  # tone | qam
    power_dbm: float = -22.0
    arrival_delay: float = 0.0
    symbol_rate: float = 10e6
    rolloff: float = 0.35
    seed: int = 7

    def __post_init__(self):
        if self.kind not in ("tone", "qam"):
            raise ValueError("soi kind must be 'tone' or 'qam'")
        if not dbm_to_watts(self.power_dbm) < np.inf:
            raise ValueError("soi.power_dbm: SOI power must be a finite number of watts")


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
    soi: SoiSpec | None = None
    bpf: tuple[float, float] = (6.45e9, 8.55e9)
    lpf: float = 3e9
    grid: TimeGrid = dc_field(default_factory=lambda: DEFAULT_GRID)
    responsivity: float = 0.8
    rbw: float = 1e6

    def __post_init__(self):
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
        # a QAM SOI's spec checks its roll-off
        for key, spec in (("if_signal", self.if_signal), ("soi", _soi_signal(self, self.f_if))):
            if isinstance(spec, QamSignalSpec):
                try:
                    qam_samples_per_symbol(spec, self.grid)
                except ValueError as exc:
                    raise ValueError(f"{key}.symbol_rate_mbaud: {exc}") from None
        if max(self.si_band()[1], self.soi_band()[1]) > self.lpf:
            raise ValueError(
                "filters.lpf_cutoff_ghz: the SI and SOI bands must lie below the lowpass edge"
            )

    @property
    def f_if(self) -> float:
        if isinstance(self.if_signal, ToneSpec):
            return self.if_signal.frequency
        return self.if_signal.center_frequency

    @property
    def f_lo(self) -> float:
        return self.lo_signal.frequency

    @property
    def f_s(self) -> float:
        return self.f_if + self.f_lo

    def _band(self, spec: ToneSpec | QamSignalSpec | None) -> tuple[float, float]:
        """Band around the down-converted IF: a QAM signal's occupied band, else 3 RBW."""
        hw = spec.occupied_halfwidth if isinstance(spec, QamSignalSpec) else 3.0 * self.rbw
        return (self.f_if - hw, self.f_if + hw)

    def si_band(self) -> tuple[float, float]:
        """Measurement band for SI power at the down-converted IF."""
        return self._band(self.if_signal)

    def soi_band(self) -> tuple[float, float]:
        return self._band(_soi_signal(self, self.f_if))


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


def _drive(spec: ToneSpec | QamSignalSpec, grid: TimeGrid) -> SampledWaveform:
    """The waveform of a tone or QAM drive spec on `grid`."""
    return make_tone(spec, grid) if isinstance(spec, ToneSpec) else make_qam(spec, grid)


def _modulator_key(s: LinkScenario) -> tuple:
    """The fields the modulator output reads: the laser, the two drives, v_pi,
    and whether the link carries spectra, which sets the domain the output is
    held in."""
    return (s.grid, s.laser_power_dbm, s.if_signal, s.lo_signal, s.v_pi, _carries_spectra(s))


def _downlink_key(s: LinkScenario) -> tuple:
    """The fields the downlink reads: the modulator's plus the EDFA, the
    downlink fiber, the BPF and the photodiode."""
    return _modulator_key(s) + (s.edfa_gain_db, s.downlink_fiber, s.bpf, s.responsivity)


def _evaluator_key(s: LinkScenario, rf_phase_comp: float | None) -> tuple:
    """The fields the SI-only SIC stage reads: the downlink's plus the SI path,
    the uplink fiber, the SI band, the lowpass and the RF phase shifter."""
    return _downlink_key(s) + (s.si_path, s.uplink_fiber, s.rbw, s.lpf, rf_phase_comp)


# Latest (key, output) of each kept stage, in chain order: modulator output,
# downlink, SI-only SIC stage. Each output is a function of its key alone, so
# a kept output is bit for bit the one a cold run builds; `_kept_stage` is the
# slots' one writer.
_kept: list = [None, None, None]


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


def _modulate(s: LinkScenario) -> OpticalField:
    """Output of the dual-polarization modulator driven by the IF and LO, held
    in the domain the link of `s` carries."""
    if_drive = _drive(s.if_signal, s.grid)
    lo_drive = _drive(s.lo_signal, s.grid)
    laser = laser_cw(s.laser_power_dbm, "x", s.grid)
    out = dp_bpsk_modulate(laser, if_drive, lo_drive, s.v_pi)
    del if_drive, lo_drive, laser  # freed before the rails are transformed
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
    dp_out = _kept_stage(0, _modulator_key(s), lambda: _modulate(s))
    edfa = 10.0 ** (s.edfa_gain_db / 20.0)
    # fiber, EDFA at the RU and the 3-dB optical splitter, whose two outputs
    # carry the same read-only field
    split = fiber_propagate(dp_out, s.downlink_fiber).scaled(edfa, 1.0 / np.sqrt(2.0))
    ru_field = split.held_as((split.spectral[0], False))
    pol_out = polarizer(split, np.pi / 4.0).held_as((False, False))
    del split  # a spectrum Y rail is freed before the photodiode runs
    rf = filter_band(photodetect(pol_out, s.responsivity), "bandpass", *s.bpf)
    return {
        "dp_bpsk_out": dp_out,
        "polarizer_out": pol_out,
        "ru_field": ru_field,
        "rf": rf,
    }


def run_downlink(s: LinkScenario) -> tuple[SampledWaveform, OpticalField]:
    """Downlink chain: returns the up-converted RF and the RU optical field.

    The result for the latest downlink fields is kept, so tuning and then
    running the same link, or a sweep over an uplink-side field, computes the
    downlink once.
    """

    def build():
        taps = downlink_taps(s)
        return taps["rf"], taps["ru_field"]

    return _kept_stage(1, _downlink_key(s), build)


def uplink_evaluator(s: LinkScenario, rf_phase_comp: float | None = None) -> UplinkEvaluator:
    """The SI-only SIC stage of `s`, kept for the latest fields it reads, so
    tuning and then running the same link builds it once. Its `scenario` may
    differ from `s` in fields the stage does not read (`name`, `seed`, `soi`)."""
    return _kept_stage(2, _evaluator_key(s, rf_phase_comp),
                       lambda: UplinkEvaluator(s, rf_phase_comp))


def _soi_signal(s: LinkScenario, center: float) -> ToneSpec | QamSignalSpec | None:
    """The SOI as a tone or 16-QAM spec centred at `center`; None without an SOI."""
    if s.soi is None:
        return None
    if s.soi.kind == "tone":
        return ToneSpec(amplitude=dbm_to_amplitude(s.soi.power_dbm), frequency=center)
    return QamSignalSpec(symbol_rate=s.soi.symbol_rate, center_frequency=center,
                         power_dbm=s.soi.power_dbm, rolloff=s.soi.rolloff, seed=s.soi.seed)


def build_soi_waveform(s: LinkScenario) -> SampledWaveform | None:
    """SOI realized at the air-interface frequency f_s."""
    if s.soi is None:
        return None
    w = _drive(_soi_signal(s, s.f_s), s.grid)
    if s.soi.arrival_delay:
        w = fractional_delay(w, s.soi.arrival_delay)
    return w


def make_received_signal(
    rf: SampledWaveform,
    si: SelfInterferencePath,
    soi: SampledWaveform | None = None,
) -> SampledWaveform:
    """Delayed, scaled copy of the transmitted RF plus the SOI."""
    if si.delay >= rf.grid.duration / 4.0:
        raise DelayRangeError("SI delay exceeds a quarter of the record")
    received = fractional_delay(rf, si.delay).scaled(si.amplitude_gain)
    if soi is not None:
        received = received + soi
    return received


def remodulate(ru_field: OpticalField, received: SampledWaveform, s: LinkScenario) -> OpticalField:
    """RU re-modulation: the received RF drives the SSB modulator (lower
    sideband) on the Y output of the RU's beam splitter; the output's X rail
    is dark."""
    return dd_mzm_ssb(pbs(ru_field)[1], received, ModulatorParams(s.v_pi, "lower"))


def _uplink_transfer(s: LinkScenario) -> np.ndarray | None:
    """The uplink fiber's transfer function; None when it has no length."""
    return fiber_transfer(s.uplink_fiber, s.grid) if s.uplink_fiber.length else None


def _arm_spectrum(field: OpticalField, s: LinkScenario, h_up: np.ndarray | None) -> np.ndarray:
    """rfft of the photocurrent of one SIC arm: `field` carried to the CO
    through the uplink fiber, whose transfer is `h_up` (None: no length). A
    rail held as a spectrum is transformed, and its spectrum freed, before
    it is detected."""
    if h_up is not None:
        field = field.filtered(h_up)
    field = field.held_as((False, False))
    return sfft.rfft(photodetect(field, s.responsivity).samples, workers=_FFT_WORKERS)


def _signal_spectrum(
    received: SampledWaveform, s: LinkScenario, h_up: np.ndarray | None = None
) -> np.ndarray:
    """B = rfft(i_Y) of the signal arm that `received` re-modulates; `h_up` is
    the uplink fiber's transfer when the caller holds it."""
    h_up = _uplink_transfer(s) if h_up is None else h_up
    # passed unbound, so the re-modulated rail is freed once it is filtered
    return _arm_spectrum(remodulate(run_downlink(s)[1], received, s), s, h_up)


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


def signal_output(
    received: SampledWaveform, s: LinkScenario, h_up: np.ndarray | None = None
) -> SampledWaveform:
    """-LP(i_Y): the lowpass BPD output of the signal arm alone (reference arm
    dark), on the output grid; `h_up` as in `_signal_spectrum`."""
    return _lowpassed(-_signal_spectrum(received, s, h_up), s.grid, s.lpf)


def _compensated(w: SampledWaveform, rf_phase_comp: float | None) -> SampledWaveform:
    """Apply the RF phase shifter of wideband mode, when there is one."""
    if rf_phase_comp is None:
        return w
    return phase_shift(w, rf_phase_comp)


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
        self.received = _compensated(make_received_signal(rf, s.si_path), rf_phase_comp)
        h_up = _uplink_transfer(s)  # both arms cross the uplink fiber
        self._spec_y = _signal_spectrum(self.received, s, h_up)
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


def run_full(s: LinkScenario, sic: SicSettings) -> LinkResult:
    """Execute the whole link and compute the scenario metrics.

    The SI-only pass is the one SIC stage, kept from tuning; the SI + SOI and
    SOI-only passes detect only the signal arm. The received RF is linear in
    the SI and the SOI, so each is built and phase-compensated once. The
    outputs, spectra and powers are on the output grid; EVM reads the SOI at
    the full rate.
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
        soi_wave = _compensated(build_soi_waveform(s), sic.rf_phase_comp)
        h_up = _uplink_transfer(s)  # both SOI passes cross the uplink fiber
        # The reference arm never touches the uplink RF, so adding the SOI
        # changes only the signal arm.
        full = signal_output(ev.received + soi_wave, s, h_up)
        with_out = SampledWaveform(
            with_out.grid, with_out.samples - without_out.samples + full.samples
        )
        without_out = full
        spec_with, spec_without = welch_psd(with_out, s.rbw), welch_psd(without_out, s.rbw)
        # SOI-only pass: measured on the signal arm alone, otherwise the
        # reference arm's downlink copy would masquerade as SOI power.
        soi_spec = -_signal_spectrum(soi_wave, s, h_up)
        del h_up, soi_wave  # freed before the EVM, which sets the peak of run_full
        soi_only = _lowpassed(soi_spec, s.grid, s.lpf)
        soi_power = band_power(welch_psd(soi_only, s.rbw), *s.soi_band())
        soi_if = _soi_signal(s, s.f_if)
        if isinstance(soi_if, QamSignalSpec):
            soi_full_rate = _lowpassed(soi_spec, s.grid, s.lpf, 1)
            del soi_spec
            evm = demodulate_evm(soi_full_rate, soi_if)

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
