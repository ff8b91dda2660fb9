"""End-to-end link behavior: downlink up-conversion, SI path, uplink SIC."""

import dataclasses
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rofsim.link
from rofsim.errors import DelayRangeError
from rofsim.link import (
    LinkScenario,
    SelfInterferencePath,
    UplinkEvaluator,
    build_soi_waveform,
    make_received_signal,
    output_decimation,
    remodulate,
    run_downlink,
    run_full,
    signal_output,
    uplink_evaluator,
)
from rofsim.optics import (
    FiberParams,
    ModulatorParams,
    OpticalField,
    _hilbert90,
    _ssb_transfer,
    dd_mzm_ssb,
    fiber_propagate,
    pbs,
    photodetect,
    polarizer,
)
from rofsim.scenario import bundled_scenario_dir, load_scenario, set_axis
from rofsim.signal_core import (
    _SKIRT_FRACTION,
    QamSignalSpec,
    SampledWaveform,
    SpectralWaveform,
    TimeGrid,
    ToneSpec,
    band_power,
    dbm_to_amplitude,
    filter_band,
    fractional_delay,
    make_tone,
    phase_shift,
    welch_psd,
)
from rofsim.tuner import auto_tune, seed_settings

from optics_oracles import (
    attenuate,
    balanced_detect,
    bpd_raw,
    cancellation_depth,
    delay_line,
    mean_power,
)

GRID_TONE = TimeGrid(sample_rate=64e9, n_samples=2**18)
GRID_QAM = TimeGrid(sample_rate=64e9, n_samples=2**19)


def bundled(name: str, grid: TimeGrid, **overrides) -> LinkScenario:
    s = load_scenario(bundled_scenario_dir() / f"{name}.scenario")
    return dataclasses.replace(s, grid=grid, **overrides)


def tone_soi(power_dbm: float) -> ToneSpec:
    """A tone SOI of `power_dbm`; the scenario places it at f_s."""
    return ToneSpec(amplitude=dbm_to_amplitude(power_dbm), frequency=0.0)


def tone_scenario(f_if: float = 2e9, f_lo: float = 5e9, **overrides) -> LinkScenario:
    s = bundled("fig6a", GRID_TONE, **overrides)
    return dataclasses.replace(
        s,
        if_signal=dataclasses.replace(s.if_signal, frequency=f_if),
        lo_signal=dataclasses.replace(s.lo_signal, frequency=f_lo),
    )


class TestFrequencyBookkeeping:
    @pytest.mark.parametrize("f_if", [2e9, 2.1e9, 2.2e9])
    @pytest.mark.parametrize("f_lo", [5e9, 6e9])
    def test_air_interface_frequency(self, f_if, f_lo):
        s = tone_scenario(f_if, f_lo)
        assert s.f_s == pytest.approx(f_if + f_lo)
        lo, hi = s.si_band()
        assert lo < f_if < hi

    def test_downlink_line_follows_sum_frequency(self):
        for f_if, f_lo in ((2e9, 5e9), (2.2e9, 6e9)):
            s = tone_scenario(f_if, f_lo)
            rf, _ = run_downlink(s)
            est = welch_psd(rf, s.rbw)
            peak = est.freqs[np.argmax(est.psd)]
            assert peak == pytest.approx(f_if + f_lo, abs=2 * s.rbw)


class TestRunDownlink:
    def test_single_dominant_line(self):
        s = tone_scenario(2e9, 5e9)
        rf, _ = run_downlink(s)
        est = welch_psd(rf, s.rbw)
        main = band_power(est, 7e9 - 5e6, 7e9 + 5e6)
        total = band_power(est, est.freqs[1], est.freqs[-1])
        assert total - main < 0.1  # essentially all RF power in the one line

    def test_qam_bandwidth_preserved(self):
        s = bundled("fig7b", GRID_QAM)  # 20 MBaud at 2 GHz IF, 6 GHz LO
        rf, _ = run_downlink(s)
        est = welch_psd(rf, s.rbw)
        hw = 0.5 * (1 + 0.35) * 20e6
        inside = band_power(est, 8e9 - hw, 8e9 + hw)
        nearby = band_power(est, 8e9 - 10 * hw, 8e9 + 10 * hw)
        assert nearby - inside < 0.2

    def test_zero_if_drive_kills_rf(self):
        s = tone_scenario(2e9, 5e9)
        dark = dataclasses.replace(
            s, if_signal=dataclasses.replace(s.if_signal, amplitude=0.0)
        )
        p_on = mean_power(run_downlink(s)[0])
        p_off = mean_power(run_downlink(dark)[0])
        assert 10 * np.log10(p_on / max(p_off, 1e-300)) >= 80.0

    def test_tune_then_run_computes_downlink_once(self, monkeypatch):
        calls = []
        taps = rofsim.link.downlink_taps

        def counting(s):
            calls.append(s.name)
            return taps(s)

        monkeypatch.setattr(rofsim.link, "downlink_taps", counting)
        s = tone_scenario()
        run_full(s, auto_tune(s).refined)
        assert len(calls) == 1

    def test_outputs_are_read_only(self):
        rf, ru = run_downlink(tone_scenario())
        with pytest.raises(ValueError):
            rf.bins[0] = 1.0
        with pytest.raises(ValueError):
            ru.env_x[0] = 1.0


GRID_HISTORY = TimeGrid(sample_rate=64e9, n_samples=2**17)


def tune_and_run(s: LinkScenario) -> tuple:
    """The `auto_tune` report's repr, and the bytes of every `run_full`
    output and the repr of its metrics at the tuned settings."""
    report = auto_tune(s)
    r = run_full(s, report.refined)
    arrays = (r.bpd_out_with_sic.samples, r.bpd_out_without_sic.samples,
              r.spectrum_with_sic.freqs, r.spectrum_with_sic.psd,
              r.spectrum_without_sic.freqs, r.spectrum_without_sic.psd)
    return repr(report), [a.tobytes() for a in arrays], repr(r.metrics)


class TestKeptStage:
    """The SI-only SIC stage is kept with the downlink of the latest scenario."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        init = UplinkEvaluator.__init__

        def counting(self, s, rf_phase_comp=None):
            calls.append((s.name, rf_phase_comp))
            init(self, s, rf_phase_comp)

        monkeypatch.setattr(UplinkEvaluator, "__init__", counting)
        return calls

    def test_tune_then_run_builds_one_evaluator(self, builds):
        s = tone_scenario()
        run_full(s, auto_tune(s).refined)
        assert len(builds) == 1

    def test_wideband_tune_then_run_builds_one_evaluator(self, builds):
        s = tone_scenario()
        rep = auto_tune(s, wideband=True)
        assert rep.refined.rf_phase_comp is not None
        run_full(s, rep.refined)
        assert len(builds) == 1

    def test_other_phase_comp_or_scenario_builds_anew(self, builds):
        s = tone_scenario()
        ev = uplink_evaluator(s)
        assert uplink_evaluator(s) is ev
        comp = uplink_evaluator(s, -1.0)
        assert comp is not ev and comp.rf_phase_comp == -1.0
        other = dataclasses.replace(s, si_path=SelfInterferencePath(gain_db=30.0, delay=0.7e-9))
        assert uplink_evaluator(other) is not comp
        assert builds == [(s.name, None), (s.name, -1.0), (other.name, None)]

    def test_next_downlink_frees_the_stage(self, monkeypatch):
        # the modulator output, downlink and SIC stage of `s` are all freed
        # before the next modulator output is computed
        s = tone_scenario()
        ev = uplink_evaluator(s)
        rf, ru = run_downlink(s)
        refs = [weakref.ref(x) for x in (ev, rf, ru, rofsim.link.downlink_taps(s)["dp_bpsk_out"])]
        del ev, rf, ru
        alive_at_modulation = []
        modulate = rofsim.link._modulate

        def recording(s):
            alive_at_modulation.append([r() is not None for r in refs])
            return modulate(s)

        monkeypatch.setattr(rofsim.link, "_modulate", recording)
        run_downlink(dataclasses.replace(s, laser_power_dbm=9.0))
        assert alive_at_modulation == [[False] * 4]
        assert all(r() is None for r in refs)

    def test_downlink_field_keeps_the_modulator_output(self, monkeypatch):
        s = tone_scenario()
        dp_out = weakref.ref(rofsim.link.downlink_taps(s)["dp_bpsk_out"])
        stage = weakref.ref(uplink_evaluator(s))
        monkeypatch.setattr(rofsim.link, "_modulate", None)  # a second modulation fails
        run_downlink(dataclasses.replace(s, edfa_gain_db=19.0))
        assert dp_out() is not None and stage() is None

    def test_uplink_field_keeps_the_downlink(self, builds, monkeypatch):
        s = tone_scenario()
        ev = uplink_evaluator(s)
        monkeypatch.setattr(rofsim.link, "downlink_taps", None)  # a second downlink fails
        other = dataclasses.replace(s, si_path=SelfInterferencePath(gain_db=30.0, delay=0.7e-9))
        assert uplink_evaluator(other) is not ev
        soi_only = dataclasses.replace(other, name="x", seed=2, soi=tone_soi(-30.0))
        assert uplink_evaluator(soi_only) is uplink_evaluator(other)
        assert len(builds) == 2

    @pytest.mark.parametrize(
        "first, second", [("fibre", "b2b"), ("uplink_only", "b2b"), ("b2b", "fibre")]
    )
    def test_run_after_another_is_the_cold_run(self, first, second, monkeypatch):
        # fig8c's drives with both fibres, the uplink fibre alone and back to
        # back: each pair flips the domain the modulator output is held in;
        # 32 MBaud fits 65 symbols in the record
        s = load_scenario(bundled_scenario_dir() / "fig8c.scenario")
        fibre = dataclasses.replace(s, grid=GRID_HISTORY,
                                    if_signal=dataclasses.replace(s.if_signal, symbol_rate=32e6))
        no_down = dataclasses.replace(fibre, downlink_fiber=FiberParams(length=0.0))
        links = {"fibre": fibre, "uplink_only": no_down,
                 "b2b": dataclasses.replace(no_down, uplink_fiber=FiberParams(length=0.0))}
        cold = tune_and_run(links[second])
        rofsim.link._kept[:] = [None] * len(rofsim.link._kept)
        tune_and_run(links[first])
        calls = []
        modulate = rofsim.link._modulate
        monkeypatch.setattr(rofsim.link, "_modulate",
                            lambda link: calls.append(link) or modulate(link))
        assert tune_and_run(links[second]) == cold
        assert len(calls) == 1

    def test_kept_spectra_are_read_only(self):
        ev = uplink_evaluator(tone_scenario())
        with pytest.raises(ValueError):
            ev._spec_y[0] = 1.0
        with pytest.raises(ValueError):
            ev._si_bins[0][0] = 1.0


class TestLoBranch:
    """The CO modulator's LO branch is a kept stage of its own: links that
    share the laser, the LO, v_pi and the domain modulate only their IF."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """Per LO-branch build, whether the rail of an earlier branch was still
        alive, in the kept slot or in a modulator output that shares it."""
        calls, rails = [], []
        build = rofsim.link._lo_branch

        def recording(s):
            calls.append(any(r() is not None for r in rails))
            branch = build(s)
            rails.append(weakref.ref(branch._held[1]))
            return branch

        monkeypatch.setattr(rofsim.link, "_lo_branch", recording)
        return calls

    def test_links_that_differ_in_their_if_share_it(self, builds):
        s = tone_scenario()
        other = set_axis(s, "if_signal.power_dbm", -3.0)
        first = rofsim.link.downlink_taps(s)["dp_bpsk_out"]
        second = rofsim.link.downlink_taps(other)["dp_bpsk_out"]
        assert not bit_identical(field_arrays(first), field_arrays(second))
        assert builds == [False]
        # the output's Y rail is the kept branch's rail, shared, not copied
        branch = rofsim.link._kept[rofsim.link._LO_BRANCH][1]
        assert second._held[1] is branch._held[1]

    @pytest.mark.parametrize("axis, value", [
        pytest.param("lo.power_dbm", 4.0, id="lo-power"),
        pytest.param("downlink_fiber.length_km", 4.1, id="fibre-flips-the-domain"),
    ])
    def test_a_changed_lo_key_rebuilds_it(self, builds, axis, value):
        s = tone_scenario()
        other = set_axis(s, axis, value)
        run_downlink(s)
        run_downlink(other)
        assert builds == [False, False]  # the old rail is freed before the new one is built
        branch = rofsim.link._kept[rofsim.link._LO_BRANCH][1]
        assert branch.spectral == (False, rofsim.link._carries_spectra(other))
        assert bit_identical(field_arrays(branch), lo_branch_stage(other))


class TestMemory:
    """Dark rails hold no samples, each fibre is evaluated once, and a cold
    tune and run stays within a traced memory budget."""

    @pytest.mark.parametrize("fibre", [0.0, 4.1])
    def test_every_dark_rail_is_a_zero_stride_view(self, fibre, monkeypatch):
        fields = []
        init = OpticalField.__init__

        def recording(self, *args, **kwargs):
            init(self, *args, **kwargs)
            fields.append(self)

        monkeypatch.setattr(OpticalField, "__init__", recording)
        s = tone_scenario(soi=tone_soi(-22.0), uplink_fiber=FiberParams(length=fibre))
        run_full(s, auto_tune(s).refined)
        rofsim.link.downlink_taps(s)
        dark = [(f.env_x, f.env_y)[i] for f in fields for i, r in enumerate(f._held) if r is None]
        # the laser's Y rail, the polarizer output's Y rail and the X rail of
        # each re-modulation (SI-only stage and both SOI passes)
        assert len(dark) >= 6
        assert all(r.strides == (0,) and not r.flags.writeable and not np.any(r) for r in dark)

    def test_run_full_evaluates_the_uplink_fibre_once(self, monkeypatch):
        s = bundled("fig8c", GRID_QAM, soi=tone_soi(-22.0), soi_delay=0.1e-9)
        sic = auto_tune(s).refined  # keeps the stage, so run_full runs only the SOI passes
        lengths = []
        transfer = rofsim.link.fiber_transfer

        def recording(fp, grid):
            lengths.append(fp.length)
            return transfer(fp, grid)

        monkeypatch.setattr(rofsim.link, "fiber_transfer", recording)
        run_full(s, sic)
        assert lengths == [4.1]

    @pytest.mark.parametrize("name, bound_mib", [
        pytest.param("fig7c", 117.0, id="fig7c"),
        pytest.param("fig8c", 142.0, id="fig8c"),
    ])
    def test_cold_tune_and_run_traced_peak(self, name, bound_mib):
        # at 2^20 samples the kept modulator output, downlink and SI-only
        # stage hold 98 MiB when run_full returns. The traced peak of a cold
        # auto_tune -> run_full measured 112.1 MiB on fig7c, and 136.0 MiB on
        # fig8c, whose reference arm detects its X rail after the uplink
        # fiber; each bound adds 4.4 %
        s = load_scenario(bundled_scenario_dir() / f"{name}.scenario")
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            run_full(s, auto_tune(s).refined)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if started:
                tracemalloc.stop()
        assert peak <= bound_mib * 2**20


GRID_KEYS = TimeGrid(sample_rate=64e9, n_samples=2**16)


def key_scenarios() -> dict:
    """A tone and a QAM scenario on a short grid, with an SOI of each kind; the
    QAM symbol rates fit 65 symbols."""
    tone = dataclasses.replace(tone_scenario(), grid=GRID_KEYS, soi=tone_soi(-22.0))
    fig8c = load_scenario(bundled_scenario_dir() / "fig8c.scenario")
    qam = dataclasses.replace(
        fig8c,
        grid=GRID_KEYS,
        if_signal=dataclasses.replace(fig8c.if_signal, symbol_rate=64e6),
        soi=QamSignalSpec(symbol_rate=64e6, power_dbm=-22.0, seed=7),
    )
    return {"tone": tone, "qam": qam}


def leaf_paths(obj, prefix=()):
    """Dotted paths of every leaf value of a (nested) scenario dataclass."""
    if dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from leaf_paths(getattr(obj, f.name), prefix + (f.name,))
    elif isinstance(obj, tuple):
        for i, v in enumerate(obj):
            yield from leaf_paths(v, prefix + (i,))
    else:
        yield prefix


def with_leaf(obj, path, value):
    """`obj` with the leaf at `path` replaced."""
    head, *rest = path
    if isinstance(obj, tuple):
        items = list(obj)
        items[head] = with_leaf(obj[head], rest, value) if rest else value
        return tuple(items)
    new = with_leaf(getattr(obj, head), rest, value) if rest else value
    return dataclasses.replace(obj, **{head: new})


def perturbed(s: LinkScenario, path) -> LinkScenario:
    """The first valid scenario with a different value at `path`."""
    value = s
    for p in path:
        value = value[p] if isinstance(value, tuple) else getattr(value, p)
    if isinstance(value, str):
        candidates = [value + "x"]
    elif isinstance(value, int):
        candidates = [value + 1, 2 * value]
    elif value:
        candidates = [value * 2.0, value * 1.01, value / 2.0]
    else:
        candidates = [0.5, 1e-10]
    for v in candidates:
        try:
            return with_leaf(s, path, v)
        except ValueError:
            continue
    raise AssertionError(f"no valid perturbation of {path}")


def field_arrays(field) -> list:
    return [field.env_x, field.env_y]


def lo_branch_stage(s):
    return field_arrays(rofsim.link._lo_branch(s))


def modulator_stage(s):
    return field_arrays(rofsim.link._modulate(s))


def downlink_stage(s):
    rofsim.link._kept[:] = [None] * len(rofsim.link._kept)
    taps = rofsim.link.downlink_taps(s)
    return [taps["rf"].bins, *field_arrays(taps["ru_field"])]


def evaluator_stage(s):
    rofsim.link._kept[:] = [None] * len(rofsim.link._kept)
    ev = UplinkEvaluator(s)
    with_sic, without_sic = ev.outputs(0.5, 0.3e-9)
    return [ev._spec_x, ev._spec_y, *ev._si_bins, with_sic.samples, without_sic.samples]


STAGES = {
    "lo_branch": (rofsim.link._lo_key, lo_branch_stage),
    "modulator": (rofsim.link._modulator_key, modulator_stage),
    "downlink": (rofsim.link._downlink_key, downlink_stage),
    "evaluator": (lambda s: rofsim.link._evaluator_key(s, None), evaluator_stage),
}


def bit_identical(a: list, b: list) -> bool:
    return all(x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip(a, b))


class TestStageKeys:
    """A kept stage is reused while its key is unchanged, so every field it
    reads must be in its key: a changed field either changes the key or leaves
    the stage output bit-identical."""

    @pytest.mark.parametrize("kind", ["tone", "qam"])
    @pytest.mark.parametrize("stage", sorted(STAGES))
    def test_every_leaf_changes_the_key_or_not_the_output(self, kind, stage):
        s = key_scenarios()[kind]
        key, output = STAGES[stage]
        base = output(s)
        paths = list(leaf_paths(s))
        assert len(paths) == {"tone": 28, "qam": 34}[kind]  # a lost leaf and an added one both show
        missed = []
        for path in paths:
            other = perturbed(s, path)
            if key(other) == key(s) and not bit_identical(output(other), base):
                missed.append(".".join(map(str, path)))
        assert missed == []


GRID_CHAIN = TimeGrid(sample_rate=64e9, n_samples=2**12)


def time_domain_chain(s: LinkScenario) -> list:
    """rf, the RU Y rail, i_X at zero delay and i_Y of the SI-only received
    signal, with every element of the link applied to samples: the optics
    (fiber_propagate, polarizer, pbs, photodetect), the SI path as
    `fractional_delay` and a gain, and the modulator's own hybrid."""
    field = fiber_propagate(rofsim.link._modulate(s).held_as((False, False)), s.downlink_fiber)
    gain = 10.0 ** (s.edfa_gain_db / 20.0)
    half = 1.0 / np.sqrt(2.0)
    ru = OpticalField(s.grid, half * (gain * field.env_x), half * (gain * field.env_y))
    rf = filter_band(photodetect(polarizer(ru, np.pi / 4.0), s.responsivity), "bandpass", *s.bpf)
    x_ru, y_ru = pbs(ru)
    i_x = photodetect(fiber_propagate(x_ru, s.uplink_fiber), s.responsivity)
    received = fractional_delay(rf, s.si_path.delay).scaled(s.si_path.amplitude_gain)
    y_mod = dd_mzm_ssb(y_ru, received, ModulatorParams(s.v_pi, "lower"))
    i_y = photodetect(fiber_propagate(y_mod, s.uplink_fiber), s.responsivity)
    return [rf.samples, y_ru.env_y, i_x.samples, i_y.samples]


class TestSpectralChain:
    """With a fibre, the link carries the optical rails as spectra between
    the modulators and the photodiodes; what it detects is the time-domain
    chain's."""

    @settings(max_examples=40, deadline=None)
    @given(
        down=st.one_of(st.just(0.0), st.floats(0.0, 25.0)),
        up=st.one_of(st.just(0.0), st.floats(0.0, 25.0)),
    )
    def test_matches_the_time_domain_chain(self, down, up):
        s = dataclasses.replace(
            tone_scenario(),
            grid=GRID_CHAIN,
            downlink_fiber=FiberParams(length=down),
            uplink_fiber=FiberParams(length=up),
        )
        rofsim.link._kept[:] = [None] * len(rofsim.link._kept)
        rf, ru = run_downlink(s)
        assert ru.spectral == (down > 0.0 or up > 0.0, False)
        ev = uplink_evaluator(s)
        n = s.grid.n_samples
        got = [rf.samples, ru.env_y, np.fft.irfft(ev._spec_x, n), np.fft.irfft(ev._spec_y, n)]
        want = time_domain_chain(s)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12 * np.abs(b).max())
        if down == up == 0.0:  # a fibre-free link computes what it always did
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def quadrature_reference(x: np.ndarray) -> np.ndarray:
    """The modulator hybrid's output through a full complex FFT: +90 deg on
    f > 0, -90 deg on f < 0, and DC and an even-length Nyquist bin zeroed."""
    n = x.size
    f = np.fft.fftfreq(n)
    spec = np.where(f > 0, 1j, -1j) * np.fft.fft(x)
    spec[0] = 0.0
    if n % 2 == 0:
        spec[n // 2] = 0.0
    return np.fft.ifft(spec).real


def spectral_tone(amplitude: float, frequency: float) -> SpectralWaveform:
    return SpectralWaveform.of(make_tone(ToneSpec(amplitude, frequency), GRID_TONE))


class TestMakeReceivedSignal:
    def test_unity_path_is_identity(self):
        w = spectral_tone(1.0, 7e9)
        r = make_received_signal(w, SelfInterferencePath(gain_db=0.0, delay=0.0))
        assert np.allclose(r.samples, w.samples, atol=1e-12)

    def test_disabled_si_leaves_soi(self):
        w = spectral_tone(1.0, 7e9)
        soi = spectral_tone(0.01, 7.004e9)
        r = make_received_signal(w, SelfInterferencePath(gain_db=-np.inf, delay=0.0), soi)
        assert np.allclose(r.samples, soi.samples, atol=1e-15)

    def test_gain_scaling(self):
        w = spectral_tone(1.0, 7e9)
        r = make_received_signal(w, SelfInterferencePath(gain_db=-20.0, delay=0.0))
        assert mean_power(r) == pytest.approx(mean_power(w) / 100.0, rel=1e-9)

    def test_excessive_delay_rejected(self):
        w = spectral_tone(1.0, 7e9)
        with pytest.raises(DelayRangeError):
            make_received_signal(w, SelfInterferencePath(gain_db=0.0, delay=2e-6))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.sampled_from([64, 65, 256, 1000, 1001]),
        seed=st.integers(0, 2**32 - 1),
        delay_fraction=st.floats(0.0, 0.25, exclude_max=True),
        gain_db=st.floats(-60.0, 20.0),
        phi=st.one_of(st.none(), st.floats(-2 * np.pi, 2 * np.pi)),
        sideband=st.sampled_from(["lower", "upper"]),
    )
    def test_drive_and_quadrature_are_the_time_domain_chain(
        self, n, seed, delay_fraction, gain_db, phi, sideband
    ):
        # the RU drive and its quadrature are two inverse transforms of the
        # shaped spectrum; in the time domain they are the delayed, scaled
        # and phase-shifted record and the modulator hybrid's output, which
        # `_hilbert90` and a complex-FFT oracle both give
        grid = TimeGrid(sample_rate=64e9, n_samples=n)
        w = SampledWaveform(grid, np.random.default_rng(seed).standard_normal(n))
        si = SelfInterferencePath(gain_db=gain_db, delay=delay_fraction * grid.duration)
        received = make_received_signal(SpectralWaveform.of(w), si, rf_phase_comp=phi)
        want = fractional_delay(w, si.delay).scaled(si.amplitude_gain)
        if phi is not None:
            want = phase_shift(want, phi)
        want_q = quadrature_reference(want.samples)
        drive, quadrature = received.waveform(), received.quadrature()
        for got, ref in ((drive.samples, want.samples), (quadrature.samples, want_q),
                         (_hilbert90(want.samples), want_q)):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
        # the modulator sets the quadrature's sign by the sideband
        params = ModulatorParams(v_pi=3.5, sideband=sideband)
        np.testing.assert_allclose(
            _ssb_transfer(drive.samples, quadrature.samples, params),
            _ssb_transfer(want.samples, want_q, params),
            rtol=0, atol=1e-12 * np.pi / 3.5 * np.abs(want.samples).max(),
        )


class TestBuildSoi:
    def test_tone_soi_level_and_frequency(self):
        s = tone_scenario(2e9, 5e9)
        s = dataclasses.replace(s, soi=dataclasses.replace(bundled("fig7a", GRID_QAM).soi))
        w = build_soi_waveform(s)
        assert mean_power(w) == pytest.approx(
            dbm_to_amplitude(-22.0) ** 2 / 2, rel=1e-9
        )
        est = welch_psd(w, s.rbw)
        assert est.freqs[np.argmax(est.psd)] == pytest.approx(7e9, abs=2 * s.rbw)

    def test_none_without_soi(self):
        assert build_soi_waveform(tone_scenario()) is None


class TestRunUplink:
    def test_dark_reference_arm_matches_without(self):
        # run_full's SOI passes rely on this alpha = 0 identity
        s = tone_scenario(2e9, 5e9)
        rf = run_downlink(s)[0]
        seed = seed_settings(s, rf)
        ev = UplinkEvaluator(s)
        with_sic, without_sic = ev.outputs(0.0, seed.tau2)
        assert np.array_equal(with_sic.samples, without_sic.samples)
        received = make_received_signal(rf, s.si_path)
        assert np.array_equal(without_sic.samples, signal_output(received, s).samples)

    def test_tuned_settings_cancel(self):
        s = tone_scenario(2e9, 5e9)
        rep = auto_tune(s)
        res = run_full(s, rep.refined)
        assert res.metrics.depth_db > 39.0


class TestRunFull:
    def test_tone_depth_and_residual(self):
        s = tone_scenario(2e9, 5e9)
        rep = auto_tune(s)
        res = run_full(s, rep.refined)
        m = res.metrics
        assert m.depth_db > 39.0
        without = band_power(welch_psd(res.bpd_out_without_sic, s.rbw), *s.si_band())
        assert m.residual_si_dbm == pytest.approx(without - m.depth_db, abs=0.1)

    def test_qam_20m_depth(self):
        s = bundled("fig7b", GRID_QAM)
        rep = auto_tune(s)
        assert run_full(s, rep.refined).metrics.depth_db > 20.0

    def test_depth_monotone_in_bandwidth(self):
        base = bundled("fig7a", GRID_QAM, soi=None)
        depths = {}
        for label, sig in (
            ("tone", ToneSpec(amplitude=dbm_to_amplitude(0.0), frequency=2e9)),
            ("10M", base.if_signal),
            ("20M", dataclasses.replace(base.if_signal, symbol_rate=20e6)),
        ):
            s = dataclasses.replace(base, if_signal=sig)
            depths[label] = auto_tune(s).depth_refined_db
        assert depths["tone"] >= depths["10M"] >= depths["20M"]

    def test_fiber_transport_preserves_depth(self):
        s0 = bundled("fig7a", GRID_QAM, soi=None)
        rep0 = auto_tune(s0)
        s1 = bundled("fig8a", GRID_QAM, soi=None)
        rep1 = auto_tune(s1)
        assert abs(rep1.depth_refined_db - rep0.depth_refined_db) < 3.0

    def test_soi_metrics_reported(self):
        s = bundled("fig7a", GRID_QAM)
        rep = auto_tune(s)
        m = run_full(s, rep.refined).metrics
        assert m.soi_power_dbm == pytest.approx(-57.2, abs=3.0)
        assert m.evm_percent is None  # tone SOI carries no constellation

    def test_soi_transparent_to_attenuator(self):
        s = bundled("fig7a", GRID_QAM)
        rep = auto_tune(s)
        p = []
        for a in (0.0, rep.refined.alpha):
            sic = dataclasses.replace(rep.refined, alpha=a)
            p.append(run_full(s, sic).metrics.soi_power_dbm)
        assert abs(p[1] - p[0]) < 1.0

    @pytest.mark.parametrize("soi", [False, True])
    def test_spectra_are_welch_of_outputs(self, soi):
        s = bundled("fig7a", GRID_QAM) if soi else tone_scenario(2e9, 5e9)
        assert (s.soi is not None) == soi
        res = run_full(s, seed_settings(s, run_downlink(s)[0]))
        for est, w in (
            (res.spectrum_with_sic, res.bpd_out_with_sic),
            (res.spectrum_without_sic, res.bpd_out_without_sic),
        ):
            ref = welch_psd(w, s.rbw)
            assert np.array_equal(est.freqs, ref.freqs)
            assert np.array_equal(est.psd, ref.psd)

    def test_validation_runs(self):
        s = tone_scenario(2e9, 5e9)
        with pytest.raises(ValueError, match="Nyquist"):
            dataclasses.replace(s, lpf=-1.0)


def full_fft_band_power_dbm(ev: UplinkEvaluator, alpha: float, tau2: float) -> float:
    """Reference objective: SI-band power of the full-record FFT of bpd_raw."""
    x = bpd_raw(ev, alpha, tau2)
    spec = np.fft.rfft(x)
    freqs = np.fft.rfftfreq(x.size, ev.grid.dt)
    f_lo, f_hi = ev.scenario.si_band()
    mask = (freqs >= f_lo) & (freqs <= f_hi)
    msq = 2.0 * np.sum(np.abs(spec[mask]) ** 2) / x.size**2
    return float(10.0 * np.log10(msq / 50.0 / 1e-3))


# Largest |with-SIC output - LP(bpd_raw)| relative to the peak of LP(bpd_raw).
# At 2.0 GHz the closed form is exact to round-off; at 2.1 and 2.2 GHz the
# off-bin drives leak envelope energy above fs/4 (measured up to 3.4e-5).
OUTPUT_TOLERANCE = {"fig6a": 1e-12, "fig7a": 1e-12, "wideband": 1e-12, "fig7c": 1e-4, "fig8c": 1e-4}

BUNDLED = sorted(p.stem for p in bundled_scenario_dir().glob("*.scenario"))


class TestClosedFormObjective:
    @pytest.mark.parametrize("name", ["fig6a", "fig7a", "fig7c", "fig8c", "wideband"])
    def test_matches_full_fft(self, name):
        s = load_scenario(bundled_scenario_dir() / f"{name}.scenario")
        rep = auto_tune(s, wideband=name == "wideband")
        ev = UplinkEvaluator(s, rep.seed.rf_phase_comp)
        seed, refined = rep.seed, rep.refined
        points = [
            (seed.alpha, seed.tau2),
            (0.5 * seed.alpha, seed.tau2 + 0.25 / s.f_if),
            (refined.alpha, refined.tau2),
        ]
        for alpha, tau2 in points:
            assert ev.residual_band_power_dbm(alpha, tau2) == pytest.approx(
                full_fft_band_power_dbm(ev, alpha, tau2), abs=1e-3
            )
            raw = SampledWaveform(ev.grid, bpd_raw(ev, alpha, tau2))
            ref = filter_band(raw, "lowpass", s.lpf).samples[:: output_decimation(s.grid, s.lpf)]
            np.testing.assert_allclose(
                ev.outputs(alpha, tau2)[0].samples,
                ref,
                rtol=0,
                atol=OUTPUT_TOLERANCE[name] * np.abs(ref).max(),
            )

    @pytest.mark.parametrize("name", BUNDLED)
    def test_reference_envelope_below_quarter_rate(self, name):
        # the objective and the outputs both delay the reference intensity as
        # a spectral phase, which is exact only for envelope content below fs/4
        s = load_scenario(bundled_scenario_dir() / f"{name}.scenario")
        env = run_downlink(s)[1].env_x
        energy = np.abs(np.fft.fft(env)) ** 2
        above = np.abs(np.fft.fftfreq(env.size)) >= 0.25
        assert energy[above].sum() < 1e-6 * energy.sum()

    @settings(max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        tau=st.floats(-20.0, 20.0, allow_nan=False),
    )
    def test_intensity_delay_identity_below_quarter_rate(self, seed, tau):
        # envelope content strictly below fs/4: |x|^2 fits below Nyquist
        n = 256
        k = np.fft.fftfreq(n) * n
        rng = np.random.default_rng(seed)
        spec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        spec[np.abs(k) >= n // 4] = 0.0
        delayed, intensity = self._delay_pair(spec, tau)
        np.testing.assert_allclose(delayed, intensity, rtol=0, atol=1e-9 * np.abs(intensity).max())

    def test_intensity_delay_identity_breaks_near_nyquist(self):
        n = 256
        spec = np.zeros(n, dtype=complex)
        spec[[115, n - 115]] = 1.0  # +-0.45 fs: the beat at 0.9 fs aliases to 0.1 fs
        delayed, intensity = self._delay_pair(spec, 0.3)
        alias = n - 2 * 115
        assert abs(delayed[alias] - intensity[alias]) > 0.1 * abs(intensity[alias])

    @staticmethod
    def _delay_pair(spec, tau):
        """rfft of |x delayed by tau samples|^2, and rfft(|x|^2) times the delay phase."""
        n = spec.size
        x = np.fft.ifft(spec)
        x_tau = np.fft.ifft(spec * np.exp(-2j * np.pi * np.fft.fftfreq(n) * tau))
        delayed = np.fft.rfft(np.abs(x_tau) ** 2)
        intensity = np.fft.rfft(np.abs(x) ** 2) * np.exp(-2j * np.pi * np.fft.rfftfreq(n) * tau)
        return delayed, intensity


@st.composite
def grids_and_lpf(draw):
    """A grid whose record is a random power of two times an odd number, and a
    lowpass edge anywhere below its Nyquist."""
    n = draw(st.sampled_from([1, 3, 5, 7])) * 2 ** draw(st.integers(1, 9))
    grid = TimeGrid(sample_rate=draw(st.floats(1e9, 1e11)), n_samples=n)
    return grid, draw(st.floats(1e-3, 0.999)) * grid.nyquist


class TestOutputRate:
    """The lowpass outputs are every d-th sample of the full-rate lowpass."""

    @settings(max_examples=200, deadline=None)
    @given(case=grids_and_lpf(), seed=st.integers(0, 2**32 - 1))
    def test_lowpassed_is_decimated_filter_band(self, case, seed):
        grid, lpf = case
        n = grid.n_samples
        d = output_decimation(grid, lpf)
        top = (1.0 + _SKIRT_FRACTION) * lpf
        # d: the largest power of two dividing n with the skirt top below fs/(2d)
        assert d & (d - 1) == 0 and n % d == 0 and (d == 1 or top < grid.sample_rate / (2 * d))
        assert n % (2 * d) != 0 or n // (2 * d) < 2 or top >= grid.sample_rate / (4 * d)
        if top >= grid.sample_rate / 4:
            assert d == 1
        rng = np.random.default_rng(seed)
        spec = rng.standard_normal(n // 2 + 1) + 1j * rng.standard_normal(n // 2 + 1)
        got = rofsim.link._lowpassed(spec, grid, lpf)
        full = SampledWaveform(grid, np.fft.irfft(spec, n))
        ref = filter_band(full, "lowpass", lpf).samples[::d]
        assert got.grid == TimeGrid(grid.sample_rate / d, n // d)
        np.testing.assert_allclose(got.samples, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    def test_bundled_outputs_at_8_gsps(self):
        for name in BUNDLED:
            s = load_scenario(bundled_scenario_dir() / f"{name}.scenario")
            assert output_decimation(s.grid, s.lpf) == 8, name

    @pytest.mark.parametrize("name", ["fig6a", "fig7a", "fig8c", "wideband"])
    def test_metrics_match_full_rate_welch(self, name):
        s = load_scenario(bundled_scenario_dir() / f"{name}.scenario")
        sic = auto_tune(s, wideband=name == "wideband").refined
        m = run_full(s, sic).metrics
        ev = uplink_evaluator(s, sic.rf_phase_comp)
        est = {}
        for tag, alpha in (("with", sic.alpha), ("without", 0.0)):
            raw = SampledWaveform(s.grid, bpd_raw(ev, alpha, sic.tau2))
            est[tag] = welch_psd(filter_band(raw, "lowpass", s.lpf), s.rbw)
        band = s.si_band()
        assert m.depth_db == pytest.approx(
            cancellation_depth(est["without"], est["with"], band), abs=1e-6
        )
        assert m.residual_si_dbm == pytest.approx(band_power(est["with"], *band), abs=1e-6)


# run_full metrics at the analytic seed settings on the bundled 2^20-sample
# grids, recorded before the electrical path became real-valued and the
# reference arm was shared between passes: (depth dB, residual SI dBm,
# SOI power dBm, EVM %).
GOLDEN_RUN_FULL = {
    "fig7a": (29.2387, -67.8546, -57.2499, None),
    "fig8c": (30.1153, -73.6142, None, None),
    "fig7c": (29.7886, -68.4040, None, None),
    "fig7c-qam-soi": (29.7886, -68.4040, -57.1937, 0.0807),
}


def golden_scenario(name: str) -> LinkScenario:
    if name == "fig7c-qam-soi":
        s = load_scenario(bundled_scenario_dir() / "fig7c.scenario")
        return dataclasses.replace(
            s, soi=QamSignalSpec(symbol_rate=10e6, power_dbm=-22.0, rolloff=0.35, seed=7)
        )
    return load_scenario(bundled_scenario_dir() / f"{name}.scenario")


class TestGoldenRunFull:
    @pytest.mark.parametrize("name", sorted(GOLDEN_RUN_FULL))
    def test_metrics_at_seed_settings(self, name):
        s = golden_scenario(name)
        m = run_full(s, seed_settings(s, run_downlink(s)[0])).metrics
        depth, residual, soi, evm = GOLDEN_RUN_FULL[name]
        assert m.depth_db == pytest.approx(depth, abs=0.05)
        assert m.residual_si_dbm == pytest.approx(residual, abs=0.05)
        if soi is None:
            assert m.soi_power_dbm is None
        else:
            assert m.soi_power_dbm == pytest.approx(soi, abs=0.05)
        if evm is None:
            assert m.evm_percent is None
        else:
            assert m.evm_percent == pytest.approx(evm, abs=0.05)


class TestReferenceArmOracle:
    """The SIC stage of the link is the optics attenuator, delay line and
    balanced detector composed on the X rail carried to the CO."""

    @pytest.mark.parametrize("name", ["fig6a", "fig7a", "fig8c"])
    def test_bpd_raw_matches_optics(self, name):
        s = bundled(name, GRID_QAM)
        rf, ru = run_downlink(s)
        seed = seed_settings(s, rf)
        ev = UplinkEvaluator(s)
        x_co = fiber_propagate(pbs(ru)[0], s.uplink_fiber)
        received = make_received_signal(rf, s.si_path)
        y_co = fiber_propagate(remodulate(ru, received, s), s.uplink_fiber)
        points = [
            (seed.alpha, 0.0),
            (seed.alpha, seed.tau2),
            (0.3, seed.tau2 + 0.25 / s.f_if),
        ]
        for alpha, tau2 in points:
            ref = balanced_detect(
                attenuate(delay_line(x_co, tau2), alpha), y_co, s.responsivity
            ).samples
            np.testing.assert_allclose(
                bpd_raw(ev, alpha, tau2), ref, rtol=0, atol=1e-12 * np.abs(ref).max()
            )

    def test_run_full_never_delays_the_reference(self, monkeypatch):
        # run_full applies tau2 as a spectral phase and detects the reference
        # rail directly; the optical delay line, a filter on the field, is
        # only the oracle's, and a fibre-free link filters no field
        filters = []
        filtered = OpticalField.filtered

        def recording_filtered(field, h):
            filters.append(h)
            return filtered(field, h)

        monkeypatch.setattr(OpticalField, "filtered", recording_filtered)
        s = bundled("fig7a", GRID_QAM)
        assert s.soi is not None
        assert s.downlink_fiber.length == s.uplink_fiber.length == 0.0
        sic = seed_settings(s, run_downlink(s)[0])
        assert sic.tau2 > 0.0
        run_full(s, sic)
        assert filters == []

    def test_package_keeps_no_oracle(self):
        # the time-domain reference arm, the test-only optics and the
        # test-only metric live in tests/optics_oracles.py
        moved = ("delay_line", "reference_current", "bpd_raw", "total_power", "mean_power",
                 "GainNotAllowed", "laser_cw", "cancellation_depth")
        for module in (rofsim, rofsim.link, rofsim.optics, rofsim.errors, rofsim.signal_core):
            assert not [name for name in moved if hasattr(module, name)], module.__name__
        assert not set(moved) & set(rofsim.__all__)
        assert not hasattr(UplinkEvaluator, "bpd_raw")
        assert not hasattr(OpticalField, "total_power")
        assert not hasattr(SampledWaveform, "mean_power")

    def test_full_pass_matches_optics(self):
        # adding the SOI changes only the signal arm, so the full pass is the
        # SI-only reference arm balanced against the SI + SOI signal arm
        s = bundled("fig7a", GRID_QAM)
        assert s.soi is not None
        rf, ru = run_downlink(s)
        sic = seed_settings(s, rf)
        soi = SpectralWaveform.of(build_soi_waveform(s))
        received = make_received_signal(rf, s.si_path, soi)
        x_co = fiber_propagate(pbs(ru)[0], s.uplink_fiber)
        y_co_full = fiber_propagate(remodulate(ru, received, s), s.uplink_fiber)
        raw = balanced_detect(
            attenuate(delay_line(x_co, sic.tau2), sic.alpha), y_co_full, s.responsivity
        )
        ref = filter_band(raw, "lowpass", s.lpf).samples[:: output_decimation(s.grid, s.lpf)]
        got = run_full(s, sic).bpd_out_with_sic.samples
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
