"""Tuner checks that the package does not use, kept as test oracles: the
empirical phase constant of the cancellation condition, located by a coarse
delay scan and SciPy's bounded Brent search (C8)."""

import numpy as np
from scipy.optimize import minimize_scalar

from rofsim.errors import RofsimError
from rofsim.link import LinkScenario, run_downlink, uplink_evaluator
from rofsim.signal_core import ToneSpec
from rofsim.tuner import seed_settings

_N_SCAN = 96  # delays in the coarse scan of verify_phase_constant


class DegenerateScan(RofsimError):
    """Delay scan found no clear optimum."""


def _wrap_phase(phi: float) -> float:
    return float((phi + np.pi) % (2.0 * np.pi) - np.pi)


def verify_phase_constant(s: LinkScenario) -> float:
    """Empirical cancellation phase constant wrap(w_if*tau2* - w_s*tau1).

    Scans tau2 over one IF period at the analytic alpha and locates the
    depth-maximizing delay.
    """
    if not isinstance(s.if_signal, ToneSpec):
        raise ValueError("verify_phase_constant needs a single-tone scenario")
    seed = seed_settings(s, run_downlink(s)[0])
    ev = uplink_evaluator(s, seed.rf_phase_comp)
    period = 1.0 / s.f_if
    taus = np.linspace(0.0, period, _N_SCAN, endpoint=False)
    objs = np.array([ev.residual_band_power_dbm(seed.alpha, t) for t in taus])
    if objs.max() - objs.min() < 1.0:
        raise DegenerateScan("residual power flat over the delay scan")
    k = int(np.argmin(objs))
    tau_star = minimize_scalar(
        lambda t: ev.residual_band_power_dbm(seed.alpha, max(t, 0.0)),
        bounds=(taus[k] - period / _N_SCAN, taus[k] + period / _N_SCAN),
        method="bounded",
        options={"xatol": 1e-15},
    ).x
    w_if = 2.0 * np.pi * s.f_if
    w_s = 2.0 * np.pi * s.f_s
    return _wrap_phase(w_if * max(tau_star, 0.0) - w_s * s.si_path.delay)
