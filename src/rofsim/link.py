"""End-to-end link: CO downlink, over-the-air SI/SOI path, RU re-modulation,
uplink transport and balanced detection at the CO."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np
import scipy.fft as sfft

from .errors import DelayRangeError, SimulationError
from .optics import (
    FiberParams,
    ModulatorParams,
    OpticalField,
    dd_mzm_ssb,
    delay_line,
    dp_bpsk_modulate,
    fiber_propagate,
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
    cancellation_depth,
    dbm_to_amplitude,
    filter_band,
    fractional_delay,
    make_qam,
    make_tone,
    phase_shift,
    welch_psd,
    DEFAULT_GRID,
)

_FFT_WORKERS = -1


@dataclass(frozen=True)
class SelfInterferencePath:
    """Single delayed leakage path from the transmit to the receive antenna."""

    gain_db: float = -20.0
    delay: float = 1e-9  # seconds

    def __post_init__(self):
        if self.delay < 0:
            raise ValueError("delay must be non-negative")

    @property
    def amplitude_gain(self) -> float:
        """Voltage gain of the path; a gain of -inf dB disables it."""
        return 10.0 ** (self.gain_db / 20.0) if np.isfinite(self.gain_db) else 0.0


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


@dataclass
class LinkScenario:
    """Full parameter set of one experiment."""

    name: str = "scenario"
    seed: int = 1
    laser_power_dbm: float = 10.0
    carrier_frequency: float = 191.3e12
    if_signal: ToneSpec | QamSignalSpec = dc_field(
        default_factory=lambda: ToneSpec(amplitude=0.631, frequency=2e9)
    )
    lo_signal: ToneSpec = dc_field(
        default_factory=lambda: ToneSpec(amplitude=2.318, frequency=6e9)
    )
    mod_if: ModulatorParams = dc_field(
        default_factory=lambda: ModulatorParams(v_pi=3.5, sideband="lower")
    )
    mod_lo: ModulatorParams = dc_field(
        default_factory=lambda: ModulatorParams(v_pi=3.5, sideband="upper")
    )
    mod_uplink: ModulatorParams = dc_field(
        default_factory=lambda: ModulatorParams(v_pi=3.5, sideband="lower")
    )
    downlink_fiber: FiberParams = dc_field(default_factory=lambda: FiberParams(length=0.0))
    uplink_fiber: FiberParams = dc_field(default_factory=lambda: FiberParams(length=0.0))
    edfa_gain_db: float = 20.0
    edfa_position: str = "ru"  # co | ru
    si_path: SelfInterferencePath = dc_field(default_factory=SelfInterferencePath)
    soi: SoiSpec | None = None
    bpf: tuple[float, float] = (6.45e9, 8.55e9)
    lpf: float = 3e9
    grid: TimeGrid = dc_field(default_factory=lambda: DEFAULT_GRID)
    responsivity: float = 0.8
    rbw: float = 1e6

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

    def validate(self) -> None:
        nyq = self.grid.nyquist
        for f in (self.f_if, self.f_lo, self.f_s, self.lpf, *self.bpf):
            if not 0 < f < nyq:
                raise ValueError(f"frequency {f:.3g} Hz outside (0, Nyquist)")
        if not self.bpf[0] < self.f_s < self.bpf[1]:
            raise ValueError("f_if + f_lo must fall inside the BPF passband")
        if self.edfa_position not in ("co", "ru"):
            raise ValueError("edfa_position must be 'co' or 'ru'")

    def si_band(self) -> tuple[float, float]:
        """Measurement band for SI power at the down-converted IF."""
        if isinstance(self.if_signal, QamSignalSpec):
            hw = self.if_signal.occupied_halfwidth
        else:
            hw = 3.0 * self.rbw
        return (self.f_if - hw, self.f_if + hw)

    def soi_band(self) -> tuple[float, float]:
        if self.soi is not None and self.soi.kind == "qam":
            hw = 0.5 * (1.0 + self.soi.rolloff) * self.soi.symbol_rate
        else:
            hw = 3.0 * self.rbw
        return (self.f_if - hw, self.f_if + hw)


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


def _amplify(field: OpticalField, gain_db: float) -> OpticalField:
    g = 10.0 ** (gain_db / 20.0)
    return OpticalField(
        field.grid, field.carrier_frequency, g * field.env_x, g * field.env_y
    )


def _if_drive(s: LinkScenario) -> SampledWaveform:
    if isinstance(s.if_signal, ToneSpec):
        return make_tone(s.if_signal, s.grid)
    return make_qam(s.if_signal, s.grid)


def downlink_taps(s: LinkScenario) -> dict:
    """Run the downlink and expose intermediate fields and waveforms."""
    s.validate()
    grid = s.grid
    if_drive = _if_drive(s)
    lo_drive = make_tone(s.lo_signal, grid)
    laser = laser_cw(s.laser_power_dbm, s.carrier_frequency, "x", grid)
    dp_out = dp_bpsk_modulate(laser, if_drive, lo_drive, s.mod_if, s.mod_lo)
    stage = _amplify(dp_out, s.edfa_gain_db) if s.edfa_position == "co" else dp_out
    stage = fiber_propagate(stage, s.downlink_fiber)
    if s.edfa_position == "ru":
        stage = _amplify(stage, s.edfa_gain_db)
    # 3-dB optical splitter
    half = 1.0 / np.sqrt(2.0)
    pd_branch = OpticalField(
        grid, s.carrier_frequency, half * stage.env_x, half * stage.env_y
    )
    ru_field = OpticalField(
        grid, s.carrier_frequency, half * stage.env_x, half * stage.env_y
    )
    pol_out = polarizer(pd_branch, np.pi / 4.0)
    rf = filter_band(photodetect(pol_out, s.responsivity), "bandpass", *s.bpf)
    return {
        "dp_bpsk_out": dp_out,
        "polarizer_out": pol_out,
        "ru_field": ru_field,
        "rf": rf,
    }


def run_downlink(s: LinkScenario) -> tuple[SampledWaveform, OpticalField]:
    """Downlink chain: returns the up-converted RF and the RU optical field."""
    taps = downlink_taps(s)
    return taps["rf"], taps["ru_field"]


def _soi_qam(s: LinkScenario, center: float) -> QamSignalSpec:
    """16-QAM spec of the SOI, centred at `center`."""
    return QamSignalSpec(
        order=16,
        symbol_rate=s.soi.symbol_rate,
        center_frequency=center,
        power_dbm=s.soi.power_dbm,
        rolloff=s.soi.rolloff,
        seed=s.soi.seed,
    )


def build_soi_waveform(s: LinkScenario) -> SampledWaveform | None:
    """SOI realized at the air-interface frequency f_s."""
    if s.soi is None:
        return None
    if s.soi.kind == "tone":
        w = make_tone(
            ToneSpec(amplitude=dbm_to_amplitude(s.soi.power_dbm), frequency=s.f_s),
            s.grid,
        )
    else:
        w = make_qam(_soi_qam(s, s.f_s), s.grid)
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
    """RU re-modulation: the received RF drives the SSB modulator on the Y rail."""
    return dd_mzm_ssb(pbs(ru_field)[1], received, s.mod_uplink)


def reference_current(ru_field: OpticalField, s: LinkScenario, tau2: float) -> np.ndarray:
    """Photocurrent i_X of the reference arm: the X rail of the RU field carried
    to the CO and delayed by tau2. It never touches the uplink RF."""
    x_co = fiber_propagate(pbs(ru_field)[0], s.uplink_fiber)
    return photodetect(delay_line(x_co, tau2), s.responsivity).samples


class UplinkEvaluator:
    """Signal arm of the uplink, and the closed-form SIC objective.

    Everything upstream of the attenuator/delay line is independent of the SIC
    settings, so the signal-arm photocurrent i_Y is computed once. The tuner
    objective works on the SI-band bins of the two rail intensities; the
    lowpass outputs take the lowpassed reference current from the caller.
    """

    def __init__(self, ru_field: OpticalField, received: SampledWaveform, s: LinkScenario):
        self.scenario = s
        self.grid = s.grid
        self.ru_field = ru_field
        self.y_mod = remodulate(ru_field, received, s)
        y_co = fiber_propagate(self.y_mod, s.uplink_fiber)
        self._i_y = photodetect(y_co, s.responsivity).samples

    def bpd_raw(self, alpha: float, tau2: float) -> np.ndarray:
        """Unfiltered balanced-detector output i_X - i_Y."""
        return alpha * reference_current(self.ru_field, self.scenario, tau2) - self._i_y

    @cached_property
    def _si_band_spectra(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """SI-band bins (A, B, f) of rfft(R*|x_env|^2) and rfft(i_Y).

        Square-law detection drops the carrier phase of the reference-arm
        delay, and delaying the envelope by tau2 multiplies the bins of its
        intensity by exp(-2j*pi*f*tau2). That identity needs the intensity to
        fit below Nyquist, which holds when the envelope content lies below
        fs/4; then bpd_raw's SI-band bins are alpha*A*exp(-2j*pi*f*tau2) - B.
        """
        freqs = self.grid.rfreqs()
        f_lo, f_hi = self.scenario.si_band()
        mask = (freqs >= f_lo) & (freqs <= f_hi)
        i_x = reference_current(self.ru_field, self.scenario, 0.0)
        a, b = (sfft.rfft(i, workers=_FFT_WORKERS)[mask] for i in (i_x, self._i_y))
        return a, b, freqs[mask]

    def _reference_bins(self, tau2: float) -> np.ndarray:
        a, _, f = self._si_band_spectra
        return a * np.exp(-2j * np.pi * f * tau2)

    def optimal_alpha(self, tau2: float) -> float:
        """Least-squares attenuation at delay tau2, clipped to [0, 1]."""
        a = self._reference_bins(tau2)
        norm = np.vdot(a, a).real
        if norm == 0.0:
            return 0.0
        return float(np.clip(np.vdot(a, self._si_band_spectra[1]).real / norm, 0.0, 1.0))

    def residual_band_power_dbm(self, alpha: float, tau2: float) -> float:
        """Band power of the residual over the SI band (objective), in closed form."""
        spec = alpha * self._reference_bins(tau2) - self._si_band_spectra[1]
        msq = 2.0 * np.sum(np.abs(spec) ** 2) / self.grid.n_samples**2
        p_dbm = 10.0 * np.log10(max(msq / 50.0 / 1e-3, 1e-40))
        if not np.isfinite(p_dbm):
            raise SimulationError("non-finite residual power")
        return float(p_dbm)

    def outputs(
        self, alpha: float, lp_reference: np.ndarray
    ) -> tuple[SampledWaveform, SampledWaveform]:
        """Lowpass-filtered BPD outputs (with_sic, without_sic).

        The lowpass is linear, so with_sic = alpha*lp_reference - LP(i_Y), where
        lp_reference is LP(i_X) at the delay in use; without_sic is -LP(i_Y).
        """
        without = filter_band(SampledWaveform(self.grid, -self._i_y), "lowpass", self.scenario.lpf)
        with_sic = alpha * lp_reference + without.samples
        return SampledWaveform(self.grid, with_sic), without


def _compensated(w: SampledWaveform, sic) -> SampledWaveform:
    """Apply the RF phase shifter of wideband mode, when the settings carry one."""
    if sic.rf_phase_comp is None:
        return w
    return phase_shift(w, sic.rf_phase_comp)


def _lowpassed_reference(ru_field: OpticalField, s: LinkScenario, tau2: float) -> np.ndarray:
    raw = SampledWaveform(s.grid, reference_current(ru_field, s, tau2))
    return filter_band(raw, "lowpass", s.lpf).samples


def run_full(s: LinkScenario, sic, downlink=None) -> LinkResult:
    """Execute the whole link and compute the scenario metrics.

    `downlink` is an optional (rf, ru_field) pair from `run_downlink(s)`, so a
    caller that has already run it (e.g. after `auto_tune`) need not repeat it.
    All passes share one lowpassed reference current; the received RF is
    linear in the SI and the SOI, so each is built and phase-compensated once.
    """
    from .signal_core import demodulate_evm  # local to avoid cycle noise

    s.validate()
    rf, ru = run_downlink(s) if downlink is None else downlink
    lp_reference = _lowpassed_reference(ru, s, sic.tau2)

    # SI-only pass: depth and residual are measured without the SOI so the
    # always-on uplink signal cannot mask the cancellation.
    received_si = _compensated(make_received_signal(rf, s.si_path), sic)
    with_out, without_out = UplinkEvaluator(ru, received_si, s).outputs(sic.alpha, lp_reference)
    spec_with, spec_without = welch_psd(with_out, s.rbw), welch_psd(without_out, s.rbw)
    band = s.si_band()
    residual = band_power(spec_with, *band)
    depth = cancellation_depth(spec_without, spec_with, band)

    soi_power = None
    evm = None
    if s.soi is not None:
        soi_wave = _compensated(build_soi_waveform(s), sic)
        with_out, without_out = UplinkEvaluator(ru, received_si + soi_wave, s).outputs(
            sic.alpha, lp_reference
        )
        spec_with, spec_without = welch_psd(with_out, s.rbw), welch_psd(without_out, s.rbw)
        # SOI-only pass: measured on the signal arm alone, otherwise the
        # reference arm's downlink copy would masquerade as SOI power.
        _, soi_only = UplinkEvaluator(ru, soi_wave, s).outputs(0.0, lp_reference)
        soi_power = band_power(welch_psd(soi_only, s.rbw), *s.soi_band())
        if s.soi.kind == "qam":
            evm = demodulate_evm(soi_only, _soi_qam(s, s.f_if))

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
