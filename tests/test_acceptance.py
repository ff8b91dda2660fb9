"""Acceptance gate: end-to-end checks at the default grid (64 GS/s, 2**20).

Each criterion records a single PASS/FAIL line, echoed in the terminal
summary by the conftest hook.
"""

import dataclasses
import functools

import numpy as np
import pytest

from conftest import CRITERION_LINES
from optics_oracles import laser_cw, mzm_dsb, ssb_smallsignal_coefficients
from tuner_oracles import verify_phase_constant

from rofsim.link import UplinkEvaluator, run_downlink, run_full
from rofsim.optics import (
    FiberParams,
    ModulatorParams,
    dd_mzm_ssb,
    fiber_propagate,
    photodetect,
)
from rofsim.scenario import bundled_scenario_dir, load_scenario
from rofsim.signal_core import DEFAULT_GRID, ToneSpec, make_tone
from rofsim.tuner import (
    PHASE_CONSTANT,
    analytic_tau2,
    auto_tune,
    seed_settings,
)


def _report(tag: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {tag}: {detail}"
    CRITERION_LINES.append(line)
    print(line)
    assert ok, line


@functools.cache
def scenario(name: str):
    return load_scenario(bundled_scenario_dir() / f"{name}.scenario")


@functools.cache
def tuned(name: str, wideband: bool = False):
    return auto_tune(scenario(name), wideband=wideband)


@functools.cache
def full_result(name: str):
    return run_full(scenario(name), tuned(name).refined)


def _line_db(w, freq, rbw=1e6):
    from rofsim.signal_core import band_power, welch_psd

    est = welch_psd(w, rbw)
    return est, band_power(est, freq - 3 * rbw, freq + 3 * rbw)


def test_criterion_1_upconverted_line_purity():
    s = scenario("fig5a")
    rf, _ = run_downlink(s)
    from rofsim.signal_core import welch_psd

    est = welch_psd(rf, s.rbw)
    f_main = s.f_s
    in_bpf = (est.freqs >= s.bpf[0]) & (est.freqs <= s.bpf[1])
    near_main = np.abs(est.freqs - f_main) <= 5e6
    main_peak = est.psd[near_main].max()
    spur_peak = est.psd[in_bpf & ~near_main].max()
    margin = main_peak - spur_peak
    _report(
        "C1",
        abs(est.freqs[np.argmax(est.psd)] - f_main) <= 2 * s.rbw and margin >= 40.0,
        f"up-converted line at {f_main / 1e9:.2f} GHz, next in-band spur {margin:.1f} dB down",
    )


def test_criterion_2_tone_cancellation_family():
    depths = {n: tuned(n).depth_refined_db for n in ("fig6a", "fig6b", "fig6c", "fig6d")}
    ok = all(d >= 40.0 for d in depths.values()) and min(depths.values()) >= 50.0
    detail = ", ".join(f"{n}={d:.1f} dB" for n, d in depths.items())
    _report("C2", ok, f"tone depths after auto-tune: {detail}")


def test_criterion_3_qam_depths_and_ordering():
    thresholds = {"fig7a": 26.0, "fig7b": 23.9, "fig7c": 23.5, "fig7d": 22.0}
    depths = {n: full_result(n).metrics.depth_db for n in thresholds}
    ok = all(depths[n] >= thresholds[n] - 2.0 for n in thresholds)
    ok = ok and depths["fig7a"] > depths["fig7b"] and depths["fig7c"] > depths["fig7d"]
    detail = ", ".join(f"{n}={depths[n]:.1f} dB" for n in thresholds)
    _report("C3", ok, f"QAM depths {detail}; 10 MBaud strictly above 20 MBaud")


def test_criterion_4_fiber_transport_penalty():
    deltas = {}
    for name in ("fig8a", "fig8b", "fig8c", "fig8d"):
        s = scenario(name)
        b2b = dataclasses.replace(
            s,
            downlink_fiber=dataclasses.replace(s.downlink_fiber, length=0.0),
            uplink_fiber=dataclasses.replace(s.uplink_fiber, length=0.0),
        )
        deltas[name] = abs(
            tuned(name).depth_refined_db - auto_tune(b2b).depth_refined_db
        )
    ok = all(d < 3.0 for d in deltas.values())
    detail = ", ".join(f"{n}:{d:.2f} dB" for n, d in deltas.items())
    _report("C4", ok, f"depth change 4.1 km vs back-to-back: {detail}")


def test_criterion_5_soi_recovery():
    m = full_result("fig7a").metrics
    si_without = m.residual_si_dbm + m.depth_db
    margin_before = si_without - m.soi_power_dbm
    margin_after = m.soi_power_dbm - m.residual_si_dbm
    ok = margin_before >= 10.0 and margin_after >= 10.0
    _report(
        "C5",
        ok,
        f"-22 dBm SOI: SI dominates by {margin_before:.1f} dB before SIC, "
        f"SOI dominates by {margin_after:.1f} dB after",
    )


def test_criterion_6_ssb_dispersion_immunity():
    carrier = laser_cw(0.0, "x", DEFAULT_GRID)
    f_rf = 12e9
    drive = make_tone(ToneSpec(amplitude=0.3 * 3.5 / np.pi, frequency=f_rf), DEFAULT_GRID)
    ssb = dd_mzm_ssb(carrier, drive, ModulatorParams(v_pi=3.5, sideband="upper"))
    dsb = mzm_dsb(carrier, drive, ModulatorParams(v_pi=3.5))
    beta2 = FiberParams(length=1.0).beta2
    l_null = np.pi / (abs(beta2) * (2 * np.pi * f_rf) ** 2) / 1e3

    def rf_line(field, length):
        prop = fiber_propagate(field, FiberParams(length=length, attenuation=0.0))
        i = photodetect(prop)
        spec = np.fft.fft(i.samples) / i.samples.size
        k = int(round(f_rf / (DEFAULT_GRID.sample_rate / DEFAULT_GRID.n_samples)))
        return abs(spec[k])

    lengths = sorted(set(np.linspace(0.0, 40.0, 21)) | {l_null})
    p_ssb = [rf_line(ssb, L) for L in lengths]
    p_dsb = [rf_line(dsb, L) for L in lengths]
    ripple = 20 * np.log10(max(p_ssb) / min(p_ssb))
    fade = 20 * np.log10(max(p_dsb) / min(p_dsb))
    ok = ripple < 0.5 and fade > 20.0
    _report(
        "C6",
        ok,
        f"SSB ripple {ripple:.2f} dB over 0-40 km; DSB fades {fade:.1f} dB "
        f"at the {l_null:.1f} km null",
    )


def test_criterion_7_wideband_mode():
    s = scenario("wideband")
    rep = tuned("wideband", wideband=True)
    pinned = analytic_tau2(
        2 * np.pi * s.f_if, 2 * np.pi * s.f_s, s.si_path.delay, wideband=True
    )
    ok = (
        rep.depth_refined_db >= 40.0
        and rep.refined.tau2 == pytest.approx(pinned, rel=1e-12)
        and rep.refined.rf_phase_comp == pytest.approx(PHASE_CONSTANT)
    )
    _report(
        "C7",
        ok,
        f"20 MBaud wideband depth {rep.depth_refined_db:.1f} dB with the constant "
        "carried by the RF phase shifter",
    )


def test_criterion_8_analytic_model_agreement():
    # small-signal modulator spectrum vs the Bessel-series coefficients
    carrier = laser_cw(0.0, "x", DEFAULT_GRID)
    m = 0.2
    drive = make_tone(ToneSpec(amplitude=m * 3.5 / np.pi, frequency=2e9), DEFAULT_GRID)
    out = dd_mzm_ssb(carrier, drive, ModulatorParams(v_pi=3.5, sideband="lower"))
    spec = np.fft.fft(out.env_x) / out.env_x.size
    df = DEFAULT_GRID.sample_rate / DEFAULT_GRID.n_samples
    a0 = np.abs(carrier.env_x[0])
    got_c = abs(spec[0]) / a0
    got_s = abs(spec[int(round(-2e9 / df))]) / a0
    coeffs = ssb_smallsignal_coefficients(m)
    spectra_ok = (
        abs(got_c / abs(coeffs["carrier"]) - 1) < 0.02
        and abs(got_s / abs(coeffs["sideband"]) - 1) < 0.02
    )

    # analytic seeds vs brute-force scans of the residual objective; the
    # scans run at soft drive levels where the first-order Bessel seed is
    # the exact optimum rather than an approximation
    base = scenario("fig6a")
    s = dataclasses.replace(
        base,
        if_signal=dataclasses.replace(
            base.if_signal, amplitude=np.sqrt(2 * 50 * 1e-3 * 10 ** (-10.0 / 10))
        ),
        lo_signal=dataclasses.replace(
            base.lo_signal, amplitude=np.sqrt(2 * 50 * 1e-3 * 10 ** (-6.0 / 10))
        ),
    )
    seed = seed_settings(s, run_downlink(s)[0])
    ev = UplinkEvaluator(s)

    alphas = np.linspace(0.5 * seed.alpha, 2.0 * seed.alpha, 401)
    objs = [ev.residual_band_power_dbm(a, seed.tau2) for a in alphas]
    alpha_star = alphas[int(np.argmin(objs))]
    alpha_ok = abs(alpha_star - seed.alpha) <= 2 * (alphas[1] - alphas[0])

    period = 1.0 / s.f_if
    taus = np.linspace(max(0.0, seed.tau2 - period / 2), seed.tau2 + period / 2, 801)
    objs = [ev.residual_band_power_dbm(seed.alpha, t) for t in taus]
    tau_star = taus[int(np.argmin(objs))]
    tau_ok = abs(tau_star - seed.tau2) <= 2 * (taus[1] - taus[0])

    # phase-matching constant invariant across geometry
    wrapped = (PHASE_CONSTANT + np.pi) % (2 * np.pi) - np.pi
    errs = []
    for tau1 in (1e-9, 3e-9, 7e-9):
        for f_lo in (5e9, 6e9):
            sc = dataclasses.replace(
                base,
                lo_signal=dataclasses.replace(base.lo_signal, frequency=f_lo),
                si_path=dataclasses.replace(base.si_path, delay=tau1),
            )
            errs.append(abs(verify_phase_constant(sc) - wrapped))
    phase_ok = max(errs) <= 0.02

    ok = spectra_ok and alpha_ok and tau_ok and phase_ok
    _report(
        "C8",
        ok,
        f"small-signal spectra within 2%; scan optima at alpha={alpha_star:.4f} "
        f"(seed {seed.alpha:.4f}), tau2={tau_star * 1e9:.4f} ns "
        f"(seed {seed.tau2 * 1e9:.4f} ns); phase constant error "
        f"{max(errs):.4f} rad",
    )


# auto_tune on every bundled scenario, wideband in wideband mode: refined
# alpha, refined tau2 (ns), seed depth (dB), refined depth (dB).
GOLDEN_TUNE = {
    "fig5a": (0.000509326, 3.083327, 43.4110, 50.2700),
    "fig5b": (0.000509517, 3.687500, 60.8697, 218.2731),
    "fig6a": (0.0956012, 3.187500, 38.1019, 127.0747),
    "fig6b": (0.0963388, 3.687500, 36.4682, 156.1593),
    "fig6c": (0.0956000, 3.083338, 38.0395, 53.7741),
    "fig6d": (0.0956101, 3.559530, 36.4172, 51.6015),
    "fig7a": (0.0955857, 2.087583, 29.2061, 30.8117),
    "fig7b": (0.0954650, 2.087490, 24.5256, 24.9392),
    "fig7c": (0.0956163, 2.016798, 29.7028, 31.5434),
    "fig7d": (0.0955111, 2.016689, 24.9703, 25.4328),
    "fig8a": (0.0794796, 2.087457, 29.2451, 30.8101),
    "fig8b": (0.0793762, 2.087364, 24.5348, 24.9382),
    "fig8c": (0.0795059, 1.952267, 30.0130, 31.9212),
    "fig8d": (0.0794237, 1.952171, 25.3446, 25.8385),
    "wideband": (0.0955671, 0.120000, 33.7238, 45.6500),
}

# Refined depths set by round-off rather than by the link: only a floor holds.
NUMERICAL_DEPTH_FLOOR = {"fig5b": 218.0, "fig6a": 127.0, "fig6b": 156.0}


@pytest.mark.parametrize("name", sorted(GOLDEN_TUNE))
def test_golden_tuner_metrics(name):
    rep = tuned(name, wideband=name == "wideband")
    alpha, tau2_ns, depth_seed, depth_refined = GOLDEN_TUNE[name]
    assert rep.refined.alpha == pytest.approx(alpha, rel=1e-4)
    assert rep.refined.tau2 * 1e9 == pytest.approx(tau2_ns, abs=1e-5)
    assert rep.depth_seed_db == pytest.approx(depth_seed, abs=0.05)
    if name in NUMERICAL_DEPTH_FLOOR:
        assert rep.depth_refined_db >= NUMERICAL_DEPTH_FLOOR[name]
    else:
        assert rep.depth_refined_db == pytest.approx(depth_refined, abs=0.05)
