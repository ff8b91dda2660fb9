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
    dp_bpsk_modulate,
    fiber_propagate,
    laser_cw,
    pbc,
    pbs,
    photodetect,
    polarizer,
)
from .signal_core import (
    QamSignalSpec,
    SampledWaveform,
    TimeGrid,
    ToneSpec,
    band_power,
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
    downlink_rf: SampledWaveform
    bpd_out_with_sic: SampledWaveform
    bpd_out_without_sic: SampledWaveform
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
    pd_raw = photodetect(pol_out, s.responsivity)
    rf = filter_band(pd_raw, "bandpass", *s.bpf)
    return {
        "dp_bpsk_out": dp_out,
        "polarizer_out": pol_out,
        "ru_field": ru_field,
        "pd_raw": pd_raw,
        "rf": rf,
    }


def run_downlink(s: LinkScenario) -> tuple[SampledWaveform, OpticalField]:
    """Downlink chain: returns the up-converted RF and the RU optical field."""
    taps = downlink_taps(s)
    return taps["rf"], taps["ru_field"]


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
        w = make_qam(
            QamSignalSpec(
                order=16,
                symbol_rate=s.soi.symbol_rate,
                center_frequency=s.f_s,
                power_dbm=s.soi.power_dbm,
                rolloff=s.soi.rolloff,
                seed=s.soi.seed,
            ),
            s.grid,
        )
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
    gain = 10.0 ** (si.gain_db / 20.0) if np.isfinite(si.gain_db) else 0.0
    received = fractional_delay(rf, si.delay).scaled(gain)
    if soi is not None:
        received = received + soi
    return received


class UplinkEvaluator:
    """Uplink chain with the (alpha, tau2) stage factored out for fast re-evaluation.

    Everything upstream of the attenuator/delay line is independent of the SIC
    settings, so it is computed once. The tuner objective works on the SI-band
    bins of the two rail intensities; the lowpass outputs delay the full field.
    """

    def __init__(self, ru_field: OpticalField, received: SampledWaveform, s: LinkScenario):
        self.scenario = s
        self.grid = s.grid
        x_rail, y_rail = pbs(ru_field)
        y_mod = dd_mzm_ssb(y_rail, received, s.mod_uplink)
        self.y_mod = y_mod
        uplink = fiber_propagate(pbc(x_rail, y_mod), s.uplink_fiber)
        x_co, y_co = pbs(uplink)
        self._x_env = x_co.env_x
        self._x_spec = sfft.fft(self._x_env, workers=_FFT_WORKERS)
        self._i_y = photodetect(y_co, s.responsivity).real_samples()
        self._freqs = self.grid.freqs()
        self._carrier = s.carrier_frequency

    def _x_delayed(self, tau2: float) -> np.ndarray:
        if tau2 == 0.0:
            return self._x_env
        ph = np.exp(-2j * np.pi * self._freqs * tau2)
        env = sfft.ifft(self._x_spec * ph, workers=_FFT_WORKERS)
        env *= np.exp(-2j * np.pi * self._carrier * tau2)
        return env

    def bpd_raw(self, alpha: float, tau2: float) -> np.ndarray:
        """Unfiltered balanced-detector output i_X - i_Y."""
        env = self._x_delayed(tau2)
        return alpha * self.scenario.responsivity * (env.real**2 + env.imag**2) - self._i_y

    @cached_property
    def _si_band_spectra(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """SI-band bins (A, B, f) of rfft(R*|x_env|^2) and rfft(i_Y).

        Square-law detection drops the carrier phase of the reference-arm
        delay, and delaying the envelope by tau2 multiplies the bins of its
        intensity by exp(-2j*pi*f*tau2). That identity needs the intensity to
        fit below Nyquist, which holds when the envelope content lies below
        fs/4; then bpd_raw's SI-band bins are alpha*A*exp(-2j*pi*f*tau2) - B.
        """
        freqs = sfft.rfftfreq(self.grid.n_samples, self.grid.dt)
        f_lo, f_hi = self.scenario.si_band()
        mask = (freqs >= f_lo) & (freqs <= f_hi)
        env = self._x_env
        i_x = self.scenario.responsivity * (env.real**2 + env.imag**2)
        return sfft.rfft(i_x)[mask], sfft.rfft(self._i_y)[mask], freqs[mask]

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

    def outputs(self, alpha: float, tau2: float) -> tuple[SampledWaveform, SampledWaveform]:
        """Lowpass-filtered BPD outputs (with_sic, without_sic)."""
        s = self.scenario
        with_raw = SampledWaveform(self.grid, self.bpd_raw(alpha, tau2))
        without_raw = SampledWaveform(self.grid, -self._i_y.astype(np.complex128))
        return (
            filter_band(with_raw, "lowpass", s.lpf),
            filter_band(without_raw, "lowpass", s.lpf),
        )


def _received_with_comp(
    rf: SampledWaveform,
    s: LinkScenario,
    sic,
    soi_wave: SampledWaveform | None,
    si_enabled: bool = True,
) -> SampledWaveform:
    si = s.si_path if si_enabled else SelfInterferencePath(gain_db=-np.inf, delay=0.0)
    received = make_received_signal(rf, si, soi_wave)
    if sic.rf_phase_comp is not None:
        received = phase_shift(received, sic.rf_phase_comp)
    return received


def run_uplink(
    ru_field: OpticalField,
    received: SampledWaveform,
    s: LinkScenario,
    sic,
) -> tuple[SampledWaveform, SampledWaveform]:
    """RU re-modulation, uplink transport, SIC stage and balanced detection.

    The without-SIC measurement darkens the reference arm (alpha = 0) so both
    outputs share one signal chain.
    """
    ev = UplinkEvaluator(ru_field, received, s)
    return ev.outputs(sic.alpha, sic.tau2)


def run_full(s: LinkScenario, sic) -> LinkResult:
    """Execute the whole link and compute the scenario metrics."""
    from .signal_core import demodulate_evm  # local to avoid cycle noise

    s.validate()
    rf, ru = run_downlink(s)

    # SI-only pass: depth and residual are measured without the SOI so the
    # always-on uplink signal cannot mask the cancellation.
    received_si = _received_with_comp(rf, s, sic, None)
    ev_si = UplinkEvaluator(ru, received_si, s)
    with_si, without_si = ev_si.outputs(sic.alpha, sic.tau2)
    band = s.si_band()
    residual = band_power(welch_psd(with_si, s.rbw), *band)
    depth = band_power(welch_psd(without_si, s.rbw), *band) - residual

    soi_power = None
    evm = None
    with_out, without_out = with_si, without_si
    if s.soi is not None:
        soi_wave = build_soi_waveform(s)
        received_full = _received_with_comp(rf, s, sic, soi_wave)
        ev_full = UplinkEvaluator(ru, received_full, s)
        with_out, without_out = ev_full.outputs(sic.alpha, sic.tau2)
        # SOI-only pass: measured on the signal arm alone, otherwise the
        # reference arm's downlink copy would masquerade as SOI power.
        received_soi = _received_with_comp(rf, s, sic, soi_wave, si_enabled=False)
        ev_soi = UplinkEvaluator(ru, received_soi, s)
        _, soi_only = ev_soi.outputs(sic.alpha, sic.tau2)
        soi_power = band_power(welch_psd(soi_only, s.rbw), *s.soi_band())
        if s.soi.kind == "qam":
            evm = demodulate_evm(
                soi_only,
                QamSignalSpec(
                    order=16,
                    symbol_rate=s.soi.symbol_rate,
                    center_frequency=s.f_if,
                    power_dbm=s.soi.power_dbm,
                    rolloff=s.soi.rolloff,
                    seed=s.soi.seed,
                ),
            )

    return LinkResult(
        downlink_rf=rf,
        bpd_out_with_sic=with_out,
        bpd_out_without_sic=without_out,
        metrics=LinkMetrics(
            depth_db=depth,
            residual_si_dbm=residual,
            soi_power_dbm=soi_power,
            evm_percent=evm,
        ),
    )
