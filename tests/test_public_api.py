"""Each layer module's ``__all__`` names only what it defines, and the
package re-exports all of it, so ``from sensordiag.<module> import *`` works.
One module reads the JSON files that come from outside the program."""

import importlib
import re
from pathlib import Path

import pytest

import sensordiag

MODULES = ("dataset", "detection", "ebf", "harness", "isolation", "pca")
REMOVED = ("direction_matrix", "inverse_scaler", "ebf_reset")


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_and_is_reexported(name):
    module = importlib.import_module(f"sensordiag.{name}")
    for item in module.__all__:
        assert hasattr(module, item), f"sensordiag.{name}.__all__ lists missing {item!r}"
        assert getattr(sensordiag, item, None) is getattr(module, item), (
            f"sensordiag does not re-export {name}.{item}"
        )
    namespace = {}
    exec(f"from sensordiag.{name} import *", namespace)
    assert set(module.__all__) <= namespace.keys()


@pytest.mark.parametrize("name", ("__init__",) + MODULES)
def test_removed_helpers_are_gone(name):
    module = sensordiag if name == "__init__" else importlib.import_module(f"sensordiag.{name}")
    for item in REMOVED:
        assert not hasattr(module, item)
        assert item not in getattr(module, "__all__", ())


@pytest.mark.parametrize(
    "pattern",
    [r"\bjson\.loads?\(", r"\bexcept\b[^:\n]*\bOverflowError\b"],
    ids=["json-load", "except-overflow"],
)
def test_one_json_reader(pattern):
    """Only the reader module parses JSON or catches a float conversion's
    overflow, so a second reader of the config or model files fails here."""
    package = Path(sensordiag.__file__).parent
    hits = [p.name for p in sorted(package.glob("*.py")) if re.search(pattern, p.read_text("utf-8"))]
    assert hits == ["_jsonin.py"]
