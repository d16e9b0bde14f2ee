"""The benchmark's traced run must find every span it expects.

``perfbench/layers.json`` lists, per workload, the spans a traced run has to
fire; the tracer wraps public functions (and ``EvalReport`` methods) by name
and the run fails when an expected span never fires. Resolving the names here
catches a rename that would break the benchmark without running it.
"""

import importlib
import inspect
import json
from pathlib import Path

import pytest

from sensordiag import ContributionMethod, DetectionIndex

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.json"
# Contribution spans carry the variant as a suffix, e.g. ".rbc-t2".
VARIANT_SPAN = "isolation.contribution_matrix"
VARIANTS = {f"{m.value}-{i.value}" for m in ContributionMethod for i in DetectionIndex}


def expected_spans() -> list[str]:
    spans = json.loads(LAYERS.read_text(encoding="utf-8"))["expected_spans"]
    return sorted({name for names in spans.values() for name in names})


@pytest.mark.parametrize("span", expected_spans())
def test_span_names_a_public_function(span):
    if span.startswith(VARIANT_SPAN + "."):
        assert span[len(VARIANT_SPAN) + 1 :] in VARIANTS
        span = VARIANT_SPAN
    short, *path = span.split(".")
    module = importlib.import_module(f"sensordiag.{short}")
    obj = module
    for attr in path:
        assert not attr.startswith("_"), f"{span} names a private attribute"
        obj = getattr(obj, attr, None)
        assert obj is not None, f"sensordiag.{short} has no {'.'.join(path)}"
    assert inspect.isfunction(obj), f"{span} is not a function"
    assert obj.__module__ == module.__name__, f"{span} is not defined in {module.__name__}"
