"""Each layer module's ``__all__`` names only what it defines, and the
package re-exports all of it, so ``from sensordiag.<module> import *`` works.
Every public name has a user outside the tests, and README's library example
runs. One module reads the JSON files that come from outside the program, one
stores the scaler tiled over the lag blocks, one forms the attribution kernels,
one function advances the evidence levels and one generator runs ``monitor``'s
online loop. Every file parses under the grammar of the oldest supported
Python."""

import ast
import functools
import importlib
import math
import re
from pathlib import Path

import pytest

import sensordiag

MODULES = ("dataset", "detection", "ebf", "harness", "isolation", "pca")
REMOVED = (
    "direction_matrix",
    "inverse_scaler",
    "ebf_reset",
    "LagSpec",
    "project",
    "Projection",
    "isolate",
    "reconstruct",
)
PACKAGE = Path(sensordiag.__file__).parent
ROOT = Path(__file__).resolve().parents[1]


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


def test_model_holds_one_scaler():
    assert not hasattr(sensordiag.PcaModel, "base_scaler")


def _references(source: str) -> set:
    """Every variable the code reads and every attribute it names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _readme_example() -> str:
    """The code block under README's "Library usage"."""
    readme = (ROOT / "README.md").read_text("utf-8")
    return readme.split("## Library usage", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


@functools.cache
def _used_outside_tests() -> set:
    """Names read by the package (re-exports aside), README's library
    example, the benchmark and the acceptance gates."""
    sources = [_readme_example(), (ROOT / "tests" / "test_acceptance.py").read_text("utf-8")]
    sources += [p.read_text("utf-8") for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    sources += [p.read_text("utf-8") for p in sorted((ROOT / "perfbench").glob("*.py"))]
    return set().union(*map(_references, sources))


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_has_a_user(name):
    """A public name nothing outside the tests reads is deleted, not kept
    for a caller that may come."""
    module = importlib.import_module(f"sensordiag.{name}")
    assert [item for item in module.__all__ if item not in _used_outside_tests()] == []


def test_the_readme_library_example_runs(capsys):
    """README's library example runs as written on a small simulated series,
    with ``embedded_sample`` one of its embedded training rows and
    ``series_matrix`` a second run of the same process."""
    raw = sensordiag.simulate(sensordiag.default_sim_config(n_sensors=4, m_samples=400))
    series = sensordiag.simulate(sensordiag.default_sim_config(n_sensors=4, m_samples=300, seed=2))
    embedded = sensordiag.embed_lags(
        sensordiag.apply_scaler(raw, sensordiag.fit_scaler(raw)), 10
    ).samples
    namespace = {
        "train_matrix": raw.samples,
        "sensor_names": raw.sensor_names,
        "embedded_sample": embedded[len(embedded) // 2],
        "series_matrix": series.samples,
    }
    exec(_readme_example(), namespace)
    index_line, amplitude_line, replay_line = capsys.readouterr().out.splitlines()
    alarms, declared = map(int, replay_line.split())
    assert 0 <= alarms <= 300 - 10 and -1 <= declared < 4, replay_line
    fields = re.fullmatch(
        r"IndexSample\(spe=(.+), t2=(.+), spe_exceeds=(True|False), t2_exceeds=(True|False)\)",
        index_line,
    )
    assert fields is not None, index_line
    values = [float(v) for v in (*fields.group(1, 2), amplitude_line)]
    assert all(map(math.isfinite, values)), values


@pytest.mark.parametrize(
    "pattern",
    [r"\bjson\.loads?\(", r"\bexcept\b[^:\n]*\bOverflowError\b"],
    ids=["json-load", "except-overflow"],
)
def test_one_json_reader(pattern):
    """Only the reader module parses JSON or catches a float conversion's
    overflow, so a second reader of the config or model files fails here."""
    hits = [p.name for p in sorted(PACKAGE.glob("*.py")) if re.search(pattern, p.read_text("utf-8"))]
    assert hits == ["_jsonin.py"]


def test_one_owner_of_the_tiled_scaler():
    """Only the model file stores the scaler tiled over the lag blocks, so
    only ``pca.py`` tiles it."""
    hits = [p.name for p in sorted(PACKAGE.glob("*.py")) if "np.tile(" in p.read_text("utf-8")]
    assert hits == ["pca.py"]


def test_one_owner_of_the_attribution_kernels():
    """Only ``isolation.py`` forms a kernel from the loadings (the residual
    projector, the Mahalanobis matrix or its square root), so the model keeps
    no dense projector and a second copy of the attribution math fails here."""
    pattern = r"p_hat\.T|p_tilde\.T"
    hits = [p.name for p in sorted(PACKAGE.glob("*.py")) if re.search(pattern, p.read_text("utf-8"))]
    assert hits == ["isolation.py"]


def test_one_owner_of_the_evidence_step():
    """Only ``ebf._step`` adds the reward and the penalty to the evidence
    levels, so ``ebf_step`` and ``filter_stream`` advance them through one
    kernel and a second copy of the update fails here."""
    for term in ("params.reward", "params.penalty"):
        counts = {p.name: p.read_text("utf-8").count(term) for p in PACKAGE.glob("*.py")}
        assert {name: k for name, k in counts.items() if k} == {"ebf.py": 1}, term


def test_one_owner_of_the_monitor_loop():
    """Only ``harness.replay`` steps and decides the evidence per sample, and
    ``cli.py`` scores nothing, so ``monitor``'s online loop is one library
    generator and a second copy of it in the command fails here."""
    for call in ("ebf_step", "ebf_decide"):
        pattern = rf"(?<!def ){call}\("
        hits = [p.name for p in sorted(PACKAGE.glob("*.py")) if re.search(pattern, p.read_text("utf-8"))]
        assert hits == ["harness.py"], call
    cli = (PACKAGE / "cli.py").read_text("utf-8")
    assert re.findall(r"(?<![\w.])(?:spe|t2|contribution_matrix)\(", cli) == []


def test_one_owner_of_the_input_checks():
    """Only ``errors.check_index`` tells an integer index from a bool or a float,
    and only ``PcaModel._require_series`` checks a series against the model, so a
    hand-written copy of either check fails here."""
    hits = [p.name for p in sorted(PACKAGE.glob("*.py")) if "np.integer" in p.read_text("utf-8")]
    assert hits == ["errors.py"]
    for term in ("rows too few for the model's lag depth", "do not match the model's"):
        hits = [p.name for p in sorted(PACKAGE.glob("*.py")) if term in p.read_text("utf-8")]
        assert hits == ["pca.py"], term


def test_one_owner_of_forked_work():
    """Only ``_shares.py`` forks, talks to a child over its socket pair, ends it or
    reaches a native library, so a second copy of the fork policy fails here."""
    pattern = r"os\.fork\(|os\._exit\(|os\.waitpid\(|socketpair\(|MSG_NOSIGNAL|ctypes\."
    hits = [p.name for p in sorted(PACKAGE.glob("*.py")) if re.search(pattern, p.read_text("utf-8"))]
    assert hits == ["_shares.py"]


def test_the_oldest_supported_python_parses_every_file():
    """A grammar check only: ``ast.parse`` at ``feature_version`` rejects what
    the oldest Python in ``requires-python`` cannot parse (``except*``, say);
    names its library lacks pass it."""
    pyproject = (ROOT / "pyproject.toml").read_text("utf-8")
    oldest = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"', pyproject).groups()))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=oldest)
    files = sorted(f for d in ("src", "tests", "perfbench") for f in (ROOT / d).rglob("*.py"))
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text("utf-8"), str(path), feature_version=oldest)
