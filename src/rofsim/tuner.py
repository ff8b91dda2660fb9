"""Cancellation settings: analytic seeding from the Bessel conditions, then
refinement on the simulated residual power, with the attenuation alpha in
closed form and one bounded search over the delay tau2."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import j0, j1

from .errors import AttenuatorInfeasible, DegenerateScan
from .link import LinkScenario, UplinkEvaluator, _compensated, make_received_signal, run_downlink
from .signal_core import QamSignalSpec, SampledWaveform, ToneSpec, dbm_to_amplitude

# Aggregate phase constant of the cancellation condition: the TODL delay must
# satisfy w_if*tau2 = w_s*tau1 + PHASE_CONSTANT (mod 2*pi).
PHASE_CONSTANT = -5.0 * np.pi / 4.0


@dataclass(frozen=True)
class SicSettings:
    alpha: float = 0.0  # power ratio through the reference-arm attenuator
    tau2: float = 0.0  # reference-arm delay, seconds
    rf_phase_comp: float | None = None  # explicit phase shifter (wideband mode)

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if self.tau2 < 0.0:
            raise ValueError("tau2 must be non-negative")


@dataclass
class TuneReport:
    seed: SicSettings
    refined: SicSettings
    depth_seed_db: float
    depth_refined_db: float
    iterations: int


def analytic_alpha(m1: float, m2: float, m3: float) -> float:
    """Attenuation matching the reference to the down-converted SI amplitude."""
    if min(m1, m2, m3) < 0:
        raise ValueError("modulation indices must be non-negative")
    denom = 2.0 * j0(m1) * j1(m1)
    if denom == 0.0:
        raise ZeroDivisionError("J0(m1)*J1(m1) vanishes; alpha undefined")
    alpha = math.sqrt(2.0) * j0(m2) * j0(m3) * j1(m2) * j1(m3) / denom
    if alpha > 1.0:
        raise AttenuatorInfeasible(
            f"required alpha {alpha:.3g} > 1; lower m2/m3 or raise m1"
        )
    if alpha < 0.0:
        raise AttenuatorInfeasible(
            f"required alpha {alpha:.3g} < 0; indices beyond a Bessel sign change"
        )
    return alpha


def analytic_tau2(
    omega_if: float,
    omega_s: float,
    tau1: float,
    wideband: bool = False,
    horizon: float = math.inf,
) -> float:
    """Reference-arm delay satisfying the phase-matching condition.

    Narrowband mode folds the constant phase into the delay; wideband mode
    assumes the constant is compensated by an RF phase shifter instead.
    """
    if omega_if <= 0:
        raise ValueError("omega_if must be positive")
    tau = omega_s * tau1 / omega_if
    if not wideband:
        tau += PHASE_CONSTANT / omega_if
    period = 2.0 * np.pi / omega_if
    while tau < 0.0:
        tau += period
    while tau >= horizon:
        tau -= period
    if tau < 0.0:
        raise ValueError("no non-negative tau2 below the horizon")
    return tau


def _effective_amplitude(w: SampledWaveform) -> float:
    """Peak-equivalent tone amplitude: sqrt(2) * rms."""
    return float(np.sqrt(2.0 * np.mean(np.abs(w.samples) ** 2)))


def _drive_amplitude(sig) -> float:
    if isinstance(sig, ToneSpec):
        return sig.amplitude
    if isinstance(sig, QamSignalSpec):
        return dbm_to_amplitude(sig.power_dbm)
    raise TypeError(f"unsupported drive spec {type(sig)!r}")


def seed_settings(
    s: LinkScenario,
    rf: SampledWaveform,
    wideband: bool = False,
) -> SicSettings:
    """Analytic SIC seed from the scenario drives and the simulated SI level."""
    m1 = np.pi * _drive_amplitude(s.if_signal) / s.mod_if.v_pi
    m2 = np.pi * _drive_amplitude(s.lo_signal) / s.mod_lo.v_pi
    m3 = np.pi * _effective_amplitude(rf) * s.si_path.amplitude_gain / s.mod_uplink.v_pi
    alpha = analytic_alpha(m1, m2, m3)
    w_if = 2.0 * np.pi * s.f_if
    w_s = 2.0 * np.pi * s.f_s
    tau2 = analytic_tau2(
        w_if, w_s, s.si_path.delay, wideband=wideband, horizon=s.grid.duration / 4.0
    )
    return SicSettings(
        alpha=alpha,
        tau2=tau2,
        rf_phase_comp=PHASE_CONSTANT if wideband else None,
    )


_TAU_TOL = 1e-15  # s, absolute tolerance of the bounded Brent search on tau2
_N_SCAN = 96  # delays in the coarse scan of verify_phase_constant


def _brent_tau2(objective, t_lo: float, t_hi: float) -> tuple[float, float]:
    """Bounded Brent minimum of objective(tau2) on [t_lo, t_hi]; returns (tau2, value)."""
    res = minimize_scalar(
        objective, bounds=(t_lo, t_hi), method="bounded", options={"xatol": _TAU_TOL}
    )
    return float(res.x), float(res.fun)


def _make_evaluator(s: LinkScenario, sic: SicSettings, downlink) -> UplinkEvaluator:
    rf, ru = downlink
    received = _compensated(make_received_signal(rf, s.si_path), sic)
    return UplinkEvaluator(ru, received, s)


def refine(s: LinkScenario, seed: SicSettings, downlink) -> TuneReport:
    """Bounded search on tau2 with alpha profiled out in closed form.

    For each delay the least-squares attenuation is exact, so one bounded
    Brent search over one IF period either side of the seed finds (alpha,
    tau2). Objective is the residual SI band power; the report never degrades
    below the seed depth.
    """
    ev = _make_evaluator(s, seed, downlink)
    p_without = ev.residual_band_power_dbm(0.0, 0.0)
    obj_seed = ev.residual_band_power_dbm(seed.alpha, seed.tau2)

    period = 1.0 / s.f_if
    tau2, obj = _brent_tau2(
        lambda t: ev.residual_band_power_dbm(ev.optimal_alpha(t), t),
        max(0.0, seed.tau2 - period),
        seed.tau2 + period,
    )
    alpha = ev.optimal_alpha(tau2)
    if obj > obj_seed:
        alpha, tau2, obj = seed.alpha, seed.tau2, obj_seed
    return TuneReport(
        seed=seed,
        refined=replace(seed, alpha=alpha, tau2=tau2),
        depth_seed_db=p_without - obj_seed,
        depth_refined_db=p_without - obj,
        iterations=1,
    )


def refine_alpha(s: LinkScenario, settings: SicSettings, downlink) -> TuneReport:
    """Attenuator-only refinement with the delay line held fixed.

    Useful in wideband mode, where tau2 is pinned to the phase-matching
    formula and only the reference-arm attenuation is free; the optimum is the
    closed-form least-squares attenuation at that delay.
    """
    ev = _make_evaluator(s, settings, downlink)
    p_without = ev.residual_band_power_dbm(0.0, 0.0)
    obj0 = ev.residual_band_power_dbm(settings.alpha, settings.tau2)
    a = ev.optimal_alpha(settings.tau2)
    obj = ev.residual_band_power_dbm(a, settings.tau2)
    if obj > obj0:
        a, obj = settings.alpha, obj0
    return TuneReport(
        seed=settings,
        refined=replace(settings, alpha=a),
        depth_seed_db=p_without - obj0,
        depth_refined_db=p_without - obj,
        iterations=1,
    )


def auto_tune(s: LinkScenario, wideband: bool = False, downlink=None) -> TuneReport:
    """Analytic seed followed by refinement.

    Wideband mode keeps tau2 pinned to the phase-matching formula (the RF
    phase shifter carries the constant) and refines the attenuation only.
    """
    downlink = run_downlink(s) if downlink is None else downlink
    seed = seed_settings(s, downlink[0], wideband=wideband)
    if wideband:
        return refine_alpha(s, seed, downlink)
    return refine(s, seed, downlink)


def _wrap_phase(phi: float) -> float:
    return float((phi + np.pi) % (2.0 * np.pi) - np.pi)


def verify_phase_constant(s: LinkScenario) -> float:
    """Empirical cancellation phase constant wrap(w_if*tau2* - w_s*tau1).

    Scans tau2 over one IF period at the analytic alpha and locates the
    depth-maximizing delay.
    """
    if not isinstance(s.if_signal, ToneSpec):
        raise ValueError("verify_phase_constant needs a single-tone scenario")
    downlink = run_downlink(s)
    seed = seed_settings(s, downlink[0])
    ev = _make_evaluator(s, seed, downlink)
    period = 1.0 / s.f_if
    taus = np.linspace(0.0, period, _N_SCAN, endpoint=False)
    objs = np.array([ev.residual_band_power_dbm(seed.alpha, t) for t in taus])
    if objs.max() - objs.min() < 1.0:
        raise DegenerateScan("residual power flat over the delay scan")
    k = int(np.argmin(objs))
    tau_star, _ = _brent_tau2(
        lambda t: ev.residual_band_power_dbm(seed.alpha, max(t, 0.0)),
        taus[k] - period / _N_SCAN,
        taus[k] + period / _N_SCAN,
    )
    w_if = 2.0 * np.pi * s.f_if
    w_s = 2.0 * np.pi * s.f_s
    return _wrap_phase(w_if * max(tau_star, 0.0) - w_s * s.si_path.delay)
