"""Per-layer tracing, installed from outside the program.

The package imports with ``from .x import y``, so one function is bound under
several module attributes (``link.photodetect``, ``optics.photodetect``, ...).
``Tracer.install`` wraps a function at every attribute of every loaded
``rofsim`` module that holds it, wraps methods on their class, and wraps the
transforms of ``scipy.fft`` that all of the package's FFTs go through.
``Tracer.restore`` puts every original back.

Spans form a stack, so a span's self time is its duration minus the time of
the spans it called, and a layer's self time sums the self times of its spans.
A name that no longer exists is recorded in ``absent`` instead of wrapped.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

# (span, layer, module, attribute). A dotted attribute is a method on a class.
SPANS = (
    ("tuner.auto_tune", "tuner", "rofsim.tuner", "auto_tune"),
    ("tuner.seed_settings", "tuner", "rofsim.tuner", "seed_settings"),
    ("tuner.objective", "link", "rofsim.link", "UplinkEvaluator.residual_band_power_dbm"),
    ("link.downlink", "link", "rofsim.link", "downlink_taps"),
    ("link.evaluator_build", "link", "rofsim.link", "UplinkEvaluator.__init__"),
    ("link.received", "link", "rofsim.link", "make_received_signal"),
    ("link.outputs", "link", "rofsim.link", "UplinkEvaluator.outputs"),
    ("link.run_full", "link", "rofsim.link", "run_full"),
    ("optics.dp_bpsk_modulate", "optics", "rofsim.optics", "dp_bpsk_modulate"),
    ("optics.dd_mzm_ssb", "optics", "rofsim.optics", "dd_mzm_ssb"),
    ("optics.fiber_propagate", "optics", "rofsim.optics", "fiber_propagate"),
    ("optics.photodetect", "optics", "rofsim.optics", "photodetect"),
    ("optics.polarizer", "optics", "rofsim.optics", "polarizer"),
    ("optics.pbs_pbc", "optics", "rofsim.optics", "pbs"),
    ("optics.pbs_pbc", "optics", "rofsim.optics", "pbc"),
    ("signal_core.synth", "signal_core", "rofsim.signal_core", "make_tone"),
    ("signal_core.synth", "signal_core", "rofsim.signal_core", "make_qam"),
    ("signal_core.filter_band", "signal_core", "rofsim.signal_core", "filter_band"),
    ("signal_core.fractional_delay", "signal_core", "rofsim.signal_core", "fractional_delay"),
    ("signal_core.phase_shift", "signal_core", "rofsim.signal_core", "phase_shift"),
    ("signal_core.welch_psd", "signal_core", "rofsim.signal_core", "welch_psd"),
    ("signal_core.demodulate_evm", "signal_core", "rofsim.signal_core", "demodulate_evm"),
    ("scenario.load", "scenario", "rofsim.scenario", "load_scenario"),
    ("scenario.roundtrip", "scenario", "rofsim.scenario", "scenario_to_dict"),
    ("scenario.roundtrip", "scenario", "rofsim.scenario", "dict_to_scenario"),
    ("cli.main", "cli", "rofsim.cli", "main"),
)

FFT_SPANS = (
    ("fft.complex", "fft"),
    ("fft.complex", "ifft"),
    ("fft.real", "rfft"),
    ("fft.real", "irfft"),
)


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.seconds: dict[str, float] = defaultdict(float)
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.layer_self_seconds: dict[str, float] = defaultdict(float)
        self.fft_bytes = 0
        self.evm_percent: list[float] = []
        self.absent: list[str] = []
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, layer: str, fn):
        stack = self._stack
        after = {
            "tuner.auto_tune": self._split_auto_tune,
            "signal_core.demodulate_evm": self._record_evm,
            "fft.complex": self._count_fft_bytes,
            "fft.real": self._count_fft_bytes,
        }.get(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                self.calls[span] += 1
                self.seconds[span] += dt
                self.self_seconds[span] += dt - child
                self.layer_self_seconds[layer] += dt - child
            if after is not None:
                after(dt, args, kwargs, result)
            return result

        return wrapper

    def _split_auto_tune(self, dt, args, kwargs, result) -> None:
        wideband = kwargs.get("wideband", args[1] if len(args) > 1 else False)
        self.seconds["tuner.auto_tune." + ("wideband" if wideband else "narrowband")] += dt

    def _record_evm(self, dt, args, kwargs, result) -> None:
        self.evm_percent.append(float(result))

    def _count_fft_bytes(self, dt, args, kwargs, result) -> None:
        """Bytes a transform reads plus writes, from the array shapes and dtypes."""
        x = args[0] if args else kwargs.get("x")
        self.fft_bytes += int(getattr(x, "nbytes", 0)) + int(getattr(result, "nbytes", 0))

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "rofsim" or name.startswith("rofsim."))]
        for span, layer, module_name, attr in SPANS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}.{attr}")
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name, None)
                fn = cls.__dict__.get(meth) if cls is not None else None
                if fn is None:
                    self.absent.append(f"{module_name}.{attr}")
                    continue
                self._patch(cls, meth, self._wrap(span, layer, fn))
                continue
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(span, layer, fn)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is fn:
                        self._patch(m, name, wrapper)
        import scipy.fft

        for span, attr in FFT_SPANS:
            self._patch(scipy.fft, attr, self._wrap(span, "fft", getattr(scipy.fft, attr)))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
