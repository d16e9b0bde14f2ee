"""A fuzz over the input files of ``fit``, ``eval`` and ``monitor``.

Each (command, input) pair runs ``cli.main`` in-process on a tiny workspace,
with that one input mutated and every other input intact. CSVs get byte-level
mutations and cuts to a few rows (``d + 1`` rows leaves ``monitor`` one
embedded row); the model file gets byte-level and JSON-level ones. Whatever
the mutation, the exit code keeps the contract: 0, or 2 or 3 with exactly one
stderr line and no traceback; on 0 every output parses, and a model ``eval``
accepted holds the model invariants.
"""

import contextlib
import copy
import csv
import io
import itertools
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensordiag.cli import main
from sensordiag.pca import load_model

D = 2
CONFIG = {
    "lag_depth": D,
    "simulate": {"n_sensors": 3, "m_train": 200, "m_validation": 40, "n_validation_runs": 1},
    "sweep": {"grid_points": 3},
}
# Spellings the readers must reject or accept whole: non-finite and extreme
# numbers, a quote, NUL, a BOM, stray delimiters and line ends, a non-UTF-8 byte.
TOKENS = [
    b"nan", b"inf", b"-inf", b"1e308", b"1e999", b"-0.0", b"5e-324", b'"', b"\x00",
    b"\xef\xbb\xbf", b",", b"\n", b"\r", b"\r\n", b" ", b"\xff", b"[", b"}",
]
# Each draw is a fresh copy: a later mutation may edit a drawn list in place.
JSON_VALUES = st.sampled_from(
    [None, True, False, 0, -1, 2**70, 5e-324, -0.0, 1e308, "x", [], {}, [[1.0]], [None]]
).map(copy.deepcopy)


@st.composite
def byte_mutants(draw, text: bytes):
    """``text`` with one to three slices deleted, duplicated, inserted or replaced."""
    data = bytearray(text)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["delete", "duplicate", "insert", "replace"]))
        i = draw(st.integers(0, len(data)))
        j = draw(st.integers(i, min(len(data), i + 64)))
        if op == "delete":
            del data[i:j]
        elif op == "duplicate":
            data[i:i] = data[i:j]
        elif op == "insert":
            data[i:i] = draw(st.sampled_from(TOKENS) | st.binary(min_size=1, max_size=4))
        else:
            data[i:j] = draw(st.sampled_from(TOKENS))
    return bytes(data)


@st.composite
def short_csvs(draw, text: bytes):
    """The header and the first few body lines: 1, 2, ``d``, ``d + 1`` or ``d + 2``."""
    lines = text.splitlines(keepends=True)
    return b"".join(lines[: 1 + draw(st.sampled_from([1, 2, D, D + 1, D + 2]))])


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def json_mutants(draw, text: bytes):
    """The model JSON with one or two nodes replaced, deleted or duplicated."""
    doc = json.loads(text)
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        path = paths[draw(st.integers(0, len(paths) - 1))]
        if not path:
            doc = draw(JSON_VALUES)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        op = draw(st.sampled_from(["replace", "delete", "duplicate"]))
        if op == "replace":
            parent[key] = draw(JSON_VALUES)
        elif op == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, parent[key])
        else:
            parent[key + "_"] = parent[key]  # an unknown key
    return json.dumps(doc).encode()


def csv_mutants(text):
    return st.one_of(byte_mutants(text), short_csvs(text), short_csvs(text).flatmap(byte_mutants))


MUTANTS = {
    "train": csv_mutants,
    "validation": csv_mutants,
    "model": lambda text: st.one_of(byte_mutants(text), json_mutants(text)),
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_inputs")
    config = root / "config.json"
    config.write_text(json.dumps(CONFIG), encoding="utf-8")
    data = root / "data"
    assert main(["--config", str(config), "simulate", "--out-dir", str(data)]) == 0
    model = root / "model.json"
    assert main(["--config", str(config), "fit", str(data / "train.csv"), "--model-out", str(model)]) == 0
    return {"config": config, "train": data / "train.csv", "validation": data / "validation_1.csv", "model": model}


def _argv(command, inputs, tmp):
    return {
        "fit": ["fit", str(inputs["train"]), "--model-out", f"{tmp}/out.json"],
        "eval": ["eval", str(inputs["model"]), str(inputs["validation"]), "--report-out", f"{tmp}/report"],
        "monitor": ["monitor", str(inputs["model"]), str(inputs["validation"])],
    }[command]


def _check_outputs(command, stdout, tmp):
    if command == "fit":
        load_model(f"{tmp}/out.json")
    elif command == "eval":
        report = json.loads(Path(f"{tmp}/report.json").read_text(encoding="utf-8"))
        with open(f"{tmp}/report.csv", newline="", encoding="utf-8") as fh:
            assert len(list(csv.reader(fh))) == 1 + len(report["rows"])
    else:
        for line in stdout.splitlines():
            json.loads(line)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in a mutated but accepted input
@pytest.mark.parametrize(
    ("command", "target"),
    [("fit", "train"), ("eval", "validation"), ("eval", "model"), ("monitor", "validation"), ("monitor", "model")],
)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_input_exits_with_a_contract_code(workspace, command, target, data):
    mutant = data.draw(MUTANTS[target](workspace[target].read_bytes()), label=target)
    with tempfile.TemporaryDirectory() as tmp:
        inputs = {**workspace, target: Path(tmp) / workspace[target].name}
        inputs[target].write_bytes(mutant)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--config", str(workspace["config"]), *_argv(command, inputs, tmp)])
        assert code in (0, 2, 3), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code:
            assert err.getvalue().count("\n") == 1, err.getvalue()
        else:
            _check_outputs(command, out.getvalue(), tmp)


def _numbers(node, path=()):
    """The path of every JSON number in ``node``."""
    if type(node) in (int, float):
        yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _numbers(child, path + (key,))


@st.composite
def number_mutants(draw, text: bytes):
    """The model JSON with one number negated, zeroed, nudged by 1e-12 to 1e-6 of itself or
    swapped for an integer beyond float range."""
    doc = json.loads(text)
    paths = list(_numbers(doc))
    *path, key = paths[draw(st.integers(0, len(paths) - 1))]
    parent = doc
    for step in path:
        parent = parent[step]
    x = parent[key]
    nudges = [-x, 0, -0.0, x * (1 + 1e-12), x * (1 + 1e-9), x * (1 + 1e-6), x + 1e-9, 10**400]
    parent[key] = draw(st.sampled_from(nudges))
    return json.dumps(doc).encode()


def _matrix(value, rows: int, cols: int) -> list:
    assert isinstance(value, list) and len(value) == rows
    assert all(isinstance(row, list) and len(row) == cols for row in value)
    assert all(type(v) in (int, float) and math.isfinite(v) for row in value for v in row)
    return value


def assert_model_invariants(doc: dict) -> None:
    """The north star's model invariants, read from the file's JSON with plain
    floats: ``[p_hat p_tilde]`` orthonormal, the spectrum (``lambda_hat`` then
    ``lambda_tilde``) non-negative and descending, both limits finite and
    non-negative."""
    n_e, l = doc["n"] * (doc["d"] + 1), doc["l"]
    loadings = [a + b for a, b in zip(_matrix(doc["p_hat"], n_e, l), _matrix(doc["p_tilde"], n_e, n_e - l))]
    for j, k in itertools.product(range(n_e), repeat=2):
        assert abs(math.fsum(row[j] * row[k] for row in loadings) - (j == k)) <= 1e-8, (j, k)
    spectrum = _matrix([doc["lambda_hat"] + doc["lambda_tilde"]], 1, n_e)[0]
    assert all(v >= 0 for v in spectrum) and all(a >= b for a, b in zip(spectrum, spectrum[1:]))
    for key in ("spe_limit", "t2_limit"):
        assert type(doc[key]) in (int, float) and math.isfinite(doc[key]) and doc[key] >= 0, key


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in a mutated but accepted model
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_model_eval_accepts_holds_the_invariants(workspace, data):
    text = workspace["model"].read_bytes()
    mutant = data.draw(st.one_of(MUTANTS["model"](text), number_mutants(text)), label="model")
    with tempfile.TemporaryDirectory() as tmp:
        inputs = {**workspace, "model": Path(tmp) / "model.json"}
        inputs["model"].write_bytes(mutant)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["--config", str(workspace["config"]), *_argv("eval", inputs, tmp)])
    if code == 0:
        assert_model_invariants(json.loads(mutant))
