"""The program names that the benchmark in perfbench/ wraps or reads.

perfbench traces the stages by wrapping module attributes; a name that is
gone is only listed as absent there, and its per-layer metric silently reads
0. These tests turn such a rename into a failure.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import pytest

import rofsim.link
from rofsim.tuner import TuneReport

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("span, layer, module_name, attr", load_spans().SPANS)
def test_span_target_resolves(span, layer, module_name, attr):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        assert callable(getattr(module, cls_name).__dict__.get(meth))
    else:
        assert callable(getattr(module, attr, None))


def test_values_the_runner_reads():
    assert rofsim.link._FFT_WORKERS == -1
    assert "iterations" in {f.name for f in dataclasses.fields(TuneReport)}
