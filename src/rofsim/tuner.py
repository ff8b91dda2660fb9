"""Cancellation settings: analytic seeding from the Bessel conditions, then
refinement on the simulated residual power, with the attenuation alpha in
closed form and one bounded search over the delay tau2."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import j0, j1

from .errors import AttenuatorInfeasible, DelayRangeError
from .link import LinkScenario, SicSettings, UplinkEvaluator, run_downlink, uplink_evaluator
from .signal_core import SampledWaveform

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


def _effective_amplitude(w: SampledWaveform) -> float:
    """Peak-equivalent tone amplitude: sqrt(2) * rms."""
    return float(np.sqrt(2.0 * np.mean(w.samples ** 2)))


def seed_settings(
    s: LinkScenario,
    rf: SampledWaveform,
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


_TAU_TOL = 1e-15  # s, absolute tolerance of the bounded Brent search on tau2
_MAX_EVALS = 500  # objective evaluations before the bounded Brent search stops


def _brent_tau2(objective, t_lo: float, t_hi: float) -> float:
    """Bounded Brent minimizer of objective(tau2) on [t_lo, t_hi], t_lo <= t_hi.

    A line-for-line port of `_minimize_scalar_bounded` (fminbound) in SciPy's
    `scipy/optimize/_optimize.py` (SciPy 1.17), Copyright (c) 2001-2002
    Enthought, Inc. 2003, SciPy Developers, used under the BSD 3-Clause
    License. It makes the same operations in the same order, so it evaluates
    the objective at the same delays and returns the same `x`, bit for bit,
    as `minimize_scalar(objective, bounds=(t_lo, t_hi), method="bounded",
    options={"xatol": _TAU_TOL})`, without importing `scipy.optimize`.
    """
    xatol = _TAU_TOL
    sqrt_eps = np.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - np.sqrt(5.0))
    a, b = t_lo, t_hi
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = objective(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while np.abs(xf - xm) > (tol2 - 0.5 * (b - a)):
        golden = 1
        # Check for parabolic fit
        if np.abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat

            # Check for acceptability of parabola
            if (np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf)) and (p < q * (b - xf)):
                rat = (p + 0.0) / q
                x = xf + rat

                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:  # do a golden-section step
                golden = 1

        if golden:  # do a golden-section step
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = objective(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= _MAX_EVALS:
            break

    return float(xf)


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
    """Bounded search on tau2 with alpha profiled out in closed form.

    For each delay the least-squares attenuation is exact, so one bounded
    Brent search over one IF period either side of the seed finds (alpha,
    tau2). A seed with an RF phase shifter (wideband mode) keeps its tau2,
    pinned to the phase-matching formula, and only alpha is refined.
    Objective is the residual SI band power; the report never degrades below
    the seed depth.
    """
    ev = uplink_evaluator(s, seed.rf_phase_comp)
    tau2 = seed.tau2
    if seed.rf_phase_comp is None:
        period = 1.0 / s.f_if
        tau2 = _brent_tau2(
            lambda t: ev.residual_band_power_dbm(ev.optimal_alpha(t), t),
            max(0.0, seed.tau2 - period),
            seed.tau2 + period,
        )
    return _report(ev, seed, ev.optimal_alpha(tau2), tau2)


def auto_tune(s: LinkScenario, wideband: bool = False) -> TuneReport:
    """Analytic seed followed by refinement; in wideband mode the RF phase
    shifter carries the phase constant and tau2 stays pinned."""
    return refine(s, seed_settings(s, run_downlink(s)[0], wideband=wideband))
