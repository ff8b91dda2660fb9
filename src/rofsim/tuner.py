"""Cancellation settings: analytic seeding from the Bessel conditions, then
refinement on the simulated residual power, with the attenuation alpha in
closed form and Newton steps on the delay tau2 to the crest of the seed's
branch."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import j0, j1

from .errors import AttenuatorInfeasible, DelayRangeError
from .link import LinkScenario, SicSettings, UplinkEvaluator, run_downlink, uplink_evaluator
from .signal_core import SpectralWaveform

# Aggregate phase constant of the cancellation condition: the TODL delay must
# satisfy w_if*tau2 = w_s*tau1 + PHASE_CONSTANT (mod 2*pi).
PHASE_CONSTANT = -5.0 * np.pi / 4.0


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
        raise AttenuatorInfeasible(
            f"the IF drive (index m1 = {m1:.3g}) makes J0(m1)*J1(m1) vanish; alpha undefined"
        )
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
    if tau1 < 0.0:  # the folds below take about |tau2| / period passes
        raise DelayRangeError(f"SI delay {tau1:.3g} s must be non-negative")
    if tau1 >= horizon:
        raise DelayRangeError(
            f"SI delay {tau1:.3g} s is not below the horizon of {horizon:.3g} s"
        )
    tau = omega_s * tau1 / omega_if
    if not wideband:
        tau += PHASE_CONSTANT / omega_if
    period = 2.0 * np.pi / omega_if
    while tau < 0.0:
        tau += period
    while tau >= horizon:
        tau -= period
    if tau < 0.0:
        raise DelayRangeError(
            f"no non-negative tau2 below the horizon of {horizon:.3g} s "
            f"(the delay repeats every {period:.3g} s)"
        )
    return tau


def _effective_amplitude(w: SpectralWaveform) -> float:
    """Peak-equivalent tone amplitude sqrt(2) * rms, read from the spectrum by
    Parseval: every bin but DC and an even-length Nyquist bin stands for two."""
    n = w.grid.n_samples
    power = np.abs(w.bins) ** 2
    sum_sq = 2.0 * np.sum(power) - power[0] - (power[-1] if n % 2 == 0 else 0.0)
    return float(np.sqrt(2.0 * sum_sq / n**2))


def seed_settings(
    s: LinkScenario,
    rf: SpectralWaveform,
    wideband: bool = False,
) -> SicSettings:
    """Analytic SIC seed from the scenario drives and the simulated SI level."""
    m1 = np.pi * s.if_signal.amplitude / s.v_pi
    m2 = np.pi * s.lo_signal.amplitude / s.v_pi
    m3 = np.pi * _effective_amplitude(rf) * s.si_path.amplitude_gain / s.v_pi
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


_TAU_TOL = 1e-15  # s: a Newton step on tau2 this short is not taken


def _crest_tau2(ev: UplinkEvaluator, seed: float, period: float) -> float:
    """tau2 at the crest of the seed's branch: Newton steps from the seed while
    each is longer than _TAU_TOL and shorter than the last. The seed itself
    where a point is off a crest or a step leaves the window of one IF period
    either side of the seed."""
    tau2, last = seed, math.inf
    while (step := ev.crest_step(tau2)) is not None:
        if not _TAU_TOL < abs(step) < last:
            return tau2
        tau2, last = tau2 - step, abs(step)
        if not max(0.0, seed - period) <= tau2 <= seed + period:
            break
    return seed


def _report(ev: UplinkEvaluator, seed: SicSettings, alpha: float, tau2: float) -> TuneReport:
    """Report of a refinement that found (alpha, tau2); the seed is kept unless beaten."""
    p_without = ev.residual_band_power_dbm(0.0, 0.0)
    obj_seed = ev.residual_band_power_dbm(seed.alpha, seed.tau2)
    obj = ev.residual_band_power_dbm(alpha, tau2)
    if obj > obj_seed:
        alpha, tau2, obj = seed.alpha, seed.tau2, obj_seed
    return TuneReport(
        seed=seed,
        refined=replace(seed, alpha=alpha, tau2=tau2),
        depth_seed_db=p_without - obj_seed,
        depth_refined_db=p_without - obj,
        iterations=1,
    )


def refine(s: LinkScenario, seed: SicSettings) -> TuneReport:
    """Newton steps on tau2 to the crest of the seed's branch, with alpha
    profiled out in closed form.

    For each delay the least-squares attenuation is exact, and the residual is
    then smallest at a crest of the closed-form correlation
    (`UplinkEvaluator.crest_step`). Steps from the seed stay within one IF
    period of it and stop at 1 fs (_TAU_TOL). A seed with an RF phase shifter
    (wideband mode) keeps its tau2, pinned to the phase-matching formula, and
    only alpha is refined. Objective is the residual SI band power; the report
    never degrades below the seed depth.
    """
    ev = uplink_evaluator(s, seed.rf_phase_comp)
    tau2 = seed.tau2
    if seed.rf_phase_comp is None:
        tau2 = _crest_tau2(ev, seed.tau2, 1.0 / s.f_if)
    return _report(ev, seed, ev.optimal_alpha(tau2), tau2)


def auto_tune(s: LinkScenario, wideband: bool = False) -> TuneReport:
    """Analytic seed followed by refinement; in wideband mode the RF phase
    shifter carries the phase constant and tau2 stays pinned."""
    return refine(s, seed_settings(s, run_downlink(s)[0], wideband=wideband))
