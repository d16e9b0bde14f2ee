"""The config table: every key's accepted and rejected values, the README
block, the resolved config embedded in ``report.json``, and a fuzz over
config files for every command."""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sensordiag.cli import DEFAULT_CONFIG, load_config, main

README = Path(__file__).resolve().parents[1] / "README.md"
BIG = 10**400  # a JSON integer no float can hold
INF, NAN = float("inf"), float("nan")
CP_SPE = {"method": "cp", "index": "spe", "ebf": False}

# (dotted key, accepted values, rejected values), written out here rather
# than read from the table, so that a changed range or type fails a case.
KEY_CASES = [
    ("sample_period_s", [5e-324, 0.1, 1, 1e300], [0, 0.0, -0.1, True, None, "0.1", BIG, INF, NAN]),
    ("variance_fraction", [1e-9, 0.98, 1, 1.0], [0, 0.0, 1.0000001, 2, -0.5, False, None, "0.9", BIG]),
    ("alpha", [1e-9, 0.01, 0.999999], [0, 0.0, 1, 1.0, -0.01, True, None, "0.01", BIG, NAN]),
    ("lag_depth", [0, 1, 10, BIG], [-1, 1.0, 2.5, True, False, None, "10", [10]]),
    ("ebf.reward", [1e-9, 0.01, 1, 1e300], [True, None, "0.01", BIG, INF, NAN, [0.01]]),
    ("ebf.penalty", [-1e-9, -0.005, -1, -1e300], [False, None, "-0.005", -BIG, -INF, {}]),
    ("ebf.decision_threshold", [1e-9, 0.2, 1, 1.0], [True, None, "0.2", BIG, NAN]),
    ("ebf.upper_sat", [0.2, 1, 1.0, 1e300], [True, None, "1.0", BIG, INF]),
    ("ebf.lower_sat", [0, 0.0, -1, -1e300], [False, None, "0.0", -BIG, -INF]),
    ("monitor.method", ["cp", "rbc"], ["CP", "", "pca", None, True, 1, ["rbc"]]),
    ("monitor.index", ["spe", "t2"], ["T2", "", None, False, 0, ["t2"]]),
    ("monitor.gate_on_detection", [True, False], [0, 1, 0.0, None, "true", "false"]),
    ("sweep.target_sensor", [0, 7, BIG], [-1, 0.0, True, None, "0"]),
    ("sweep.grid_points", [1, 100, 10_000], [0, -1, 10_001, BIG, 2.0, True, None, "100"]),
    ("sweep.max_amplitude", [None, 5e-324, 1, 2.5, 1e300], [0, 0.0, -1, True, False, "1", BIG, INF, [1]]),
    (
        "sweep.amplitudes",
        [None, [1], [-1.5, 0, 2], [1e300]],
        [[], [True], ["1"], [None], [BIG], [NAN], [[1.0]], 1.0, "1", {}],
    ),
    ("sweep.onset_k", [None, 0, 5, BIG], [-1, 1.0, True, False, "0", [0]]),
    (
        "sweep.variants",
        [None, [CP_SPE], [CP_SPE, CP_SPE], [{"method": "rbc", "index": "t2", "ebf": True}]],
        [
            [],
            [{}],
            [None],
            [{"method": "cp", "index": "spe"}],
            [{**CP_SPE, "ebf": 0}],
            [{**CP_SPE, "ebf": "false"}],
            [{**CP_SPE, "method": "pca"}],
            [{**CP_SPE, "index": "T2"}],
            [{**CP_SPE, "extra": 1}],
            CP_SPE,
            "all",
            True,
        ],
    ),
    ("simulate.n_sensors", [1, 18, 32], [0, -1, 33, BIG, 8.0, True, None, "8"]),
    ("simulate.m_train", [1, 20_000, 1_000_000], [0, 1_000_001, BIG, 2.0, True, None, "1"]),
    ("simulate.m_validation", [1, 5000, 1_000_000], [0, 1_000_001, BIG, 2.0, False, None, "1"]),
    ("simulate.n_validation_runs", [1, 4], [0, -1, 1.0, True, None, "4"]),
    ("simulate.seed", [0, 1, BIG], [-1, 1.0, True, None, "1"]),
    ("simulate.structure_seed", [0, 118, BIG], [-1, 118.0, False, None, "118"]),
    ("simulate.noise_std", [0, 0.0, 1, 1e300], [-5e-324, -1, True, None, "1", BIG, INF, NAN]),
]

# Saturation and threshold constraints span several ebf keys, so their
# message names the section.
EBF_CROSS_CASES = [
    {"reward": 0},
    {"reward": -0.01},
    {"penalty": 0},
    {"penalty": 0.005},
    {"decision_threshold": 0},
    {"decision_threshold": 1.5},
    {"upper_sat": 0.1},
    {"lower_sat": 0.2},
    {"lower_sat": 0.1, "decision_threshold": 0.5},
    {"upper_sat": -1, "lower_sat": -2, "decision_threshold": -1},
]


def nest(key, value):
    """``"a.b", v`` as the config ``{"a": {"b": v}}``."""
    for part in reversed(key.split(".")):
        value = {part: value}
    return value


def lookup(cfg, key):
    for part in key.split("."):
        cfg = cfg[part]
    return cfg


def case_id(value):
    text = "10**400" if value == BIG else "-10**400" if value == -BIG else json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def cases(which):
    return [
        pytest.param(key, value, id=f"{key}={case_id(value)}")
        for key, *values in KEY_CASES
        for value in values[which]
    ]


def write_json(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def config_exit(config, tmp_path, capsys):
    """Exit code and stderr of ``fit`` on a missing CSV: 3 if the config is
    rejected, else 2 for the CSV, so an accepted size allocates nothing."""
    args = ["fit", str(tmp_path / "absent.csv"), "--model-out", str(tmp_path / "m.json")]
    code = main(["--config", config, *args])
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


class TestKeyTable:
    @pytest.mark.parametrize("key, value", cases(0))
    def test_accepted_verbatim(self, tmp_path, key, value):
        got = lookup(load_config(write_json(tmp_path, nest(key, value))), key)
        # The same JSON type and value: an int stays an int, never 1.0.
        assert json.dumps(got) == json.dumps(value) and type(got) is type(value)

    @pytest.mark.parametrize("key, value", cases(1))
    def test_rejected_names_the_key(self, tmp_path, capsys, key, value):
        code, err = config_exit(write_json(tmp_path, nest(key, value)), tmp_path, capsys)
        assert code == 3
        assert err.startswith(f"config error: {key} must be ") and err.count("\n") == 1

    @pytest.mark.parametrize("ebf", EBF_CROSS_CASES, ids=case_id)
    def test_ebf_cross_constraint(self, tmp_path, capsys, ebf):
        code, err = config_exit(write_json(tmp_path, {"ebf": ebf}), tmp_path, capsys)
        assert code == 3 and err.startswith("config error: ebf: ") and err.count("\n") == 1

    @pytest.mark.parametrize("section", ["ebf", "monitor", "sweep", "simulate"])
    @pytest.mark.parametrize("value", [None, 1, "x", [], [{}]], ids=case_id)
    def test_section_must_be_an_object(self, tmp_path, capsys, section, value):
        code, err = config_exit(write_json(tmp_path, {section: value}), tmp_path, capsys)
        assert code == 3 and err == f"config error: config key '{section}' must be an object\n"

    @pytest.mark.parametrize(
        "payload, name",
        [({"x": 1}, "x"), ({"ebf": {"bonus": 1}}, "ebf.bonus"), ({"sweep": {"Onset_k": 1}}, "sweep.Onset_k")],
        ids=["top", "ebf", "sweep"],
    )
    def test_unknown_key_is_named(self, tmp_path, capsys, payload, name):
        code, err = config_exit(write_json(tmp_path, payload), tmp_path, capsys)
        assert code == 3 and err == f"config error: unknown config key '{name}'\n"

    def test_every_default_is_accepted(self, tmp_path):
        assert load_config(write_json(tmp_path, DEFAULT_CONFIG)) == DEFAULT_CONFIG
        assert load_config(None) == DEFAULT_CONFIG

    def test_load_returns_a_fresh_dict(self):
        load_config(None)["ebf"]["reward"] = 5.0
        assert DEFAULT_CONFIG["ebf"]["reward"] == 0.01 == load_config(None)["ebf"]["reward"]


def readme_config_block():
    text = README.read_text(encoding="utf-8")
    section = text.split("### Config file", 1)[1]
    return re.search(r"```json\n(.*?)```", section, re.DOTALL).group(1)


def test_readme_block_is_the_default_config():
    readme = json.loads(readme_config_block())
    # json.dumps keeps insertion order, so this compares key order too.
    assert json.dumps(readme) == json.dumps(DEFAULT_CONFIG)


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """A three-sensor, lag-1 model and one short validation run."""
    root = tmp_path_factory.mktemp("config_tiny")
    config = {
        "lag_depth": 1,
        "simulate": {"n_sensors": 3, "m_train": 300, "m_validation": 60, "n_validation_runs": 1},
    }
    path = write_json(root, config)
    data = root / "data"
    assert main(["--config", path, "simulate", "--out-dir", str(data)]) == 0
    model = root / "model.json"
    assert main(["--config", path, "fit", str(data / "train.csv"), "--model-out", str(model)]) == 0
    return {"train": data / "train.csv", "validation": data / "validation_1.csv", "model": model}


def test_report_metadata_keeps_order_and_user_values(tmp_path, tiny, capsys):
    # Keys in a different order from the defaults, integers where reals go.
    user = {
        "sweep": {"variants": [CP_SPE], "grid_points": 3},
        "ebf": {"upper_sat": 1, "reward": 1},
        "sample_period_s": 1,
    }
    args = ["eval", str(tiny["model"]), str(tiny["validation"]), "--report-out", str(tmp_path / "report")]
    code = main(["--config", write_json(tmp_path, user), *args])
    assert code == 0, capsys.readouterr().err
    text = (tmp_path / "report.json").read_text(encoding="utf-8")
    cfg = json.loads(text)["metadata"]["config"]
    assert list(cfg) == [
        "sample_period_s", "variance_fraction", "alpha", "lag_depth", "ebf", "monitor", "sweep", "simulate"
    ]
    assert list(cfg["ebf"]) == ["reward", "penalty", "decision_threshold", "upper_sat", "lower_sat"]
    assert list(cfg["monitor"]) == ["method", "index", "gate_on_detection"]
    assert list(cfg["sweep"]) == [
        "target_sensor", "grid_points", "max_amplitude", "amplitudes", "onset_k", "variants"
    ]
    assert list(cfg["simulate"]) == [
        "n_sensors", "m_train", "m_validation", "n_validation_runs", "seed", "structure_seed", "noise_std"
    ]
    assert '"sample_period_s": 1,' in text and '"reward": 1,' in text and '"upper_sat": 1,' in text
    assert cfg["sweep"] == {
        "target_sensor": 0, "grid_points": 3, "max_amplitude": None, "amplitudes": None,
        "onset_k": None, "variants": [CP_SPE],
    }


# --- fuzz -------------------------------------------------------------------
#
# A config is valid, or broken: valid but for one value, valid plus an
# unknown key, valid but for one section that is not an object, or a JSON
# value that is not an object. Size keys take only a tiny valid value or one
# the table rejects, so that no example allocates more than a tiny run.

JUNK = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=4)
    | st.sampled_from([BIG, -BIG]),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6,
)


def size(lo, tiny_hi, hi=None):
    """A tiny valid size in ``[lo, tiny_hi]``, and values outside ``[lo, hi]``."""
    invalid = JUNK.filter(lambda v: type(v) is not int or v < lo or (hi is not None and v > hi))
    above = [] if hi is None else [st.integers(min_value=hi + 1)]
    return st.integers(lo, tiny_hi), st.one_of(invalid, *above)


VARIANT = st.fixed_dictionaries(
    {"method": st.sampled_from(["cp", "rbc"]), "index": st.sampled_from(["spe", "t2"]), "ebf": st.booleans()}
)
# dotted key: (valid values, values that may be invalid)
FUZZ_KEYS = {
    "sample_period_s": (st.floats(1e-3, 10.0), JUNK),
    "variance_fraction": (st.floats(0.05, 1.0), JUNK),
    "alpha": (st.floats(1e-3, 0.5), JUNK),
    "lag_depth": size(0, 2),
    "ebf.reward": (st.floats(1e-3, 1.0), JUNK),
    "ebf.penalty": (st.floats(-1.0, -1e-3), JUNK),
    "ebf.decision_threshold": (st.floats(0.01, 1.0), JUNK),
    "ebf.upper_sat": (st.floats(0.5, 2.0), JUNK),
    "ebf.lower_sat": (st.floats(-1.0, 0.0), JUNK),
    "monitor.method": (st.sampled_from(["cp", "rbc"]), JUNK),
    "monitor.index": (st.sampled_from(["spe", "t2"]), JUNK),
    "monitor.gate_on_detection": (st.booleans(), JUNK),
    "sweep.target_sensor": (st.integers(0, 3), JUNK),
    "sweep.grid_points": size(1, 3, 10_000),
    "sweep.max_amplitude": (st.none() | st.floats(1e-3, 10.0), JUNK),
    "sweep.amplitudes": (st.none() | st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=3), JUNK),
    "sweep.onset_k": (st.none() | st.integers(0, 70), JUNK),
    "sweep.variants": (st.none() | st.lists(VARIANT, min_size=1, max_size=3), JUNK),
    "simulate.n_sensors": size(1, 3, 32),
    "simulate.m_train": size(1, 40, 1_000_000),
    "simulate.m_validation": size(1, 40, 1_000_000),
    "simulate.n_validation_runs": size(1, 2),
    "simulate.seed": (st.integers(min_value=0), JUNK),
    "simulate.structure_seed": (st.integers(min_value=0), JUNK),
    "simulate.noise_std": (st.floats(0.0, 10.0), JUNK),
}
SECTION_NAMES = ["ebf", "monitor", "sweep", "simulate"]


def nested(flat):
    cfg = {}
    for key, value in flat.items():
        *sections, leaf = key.split(".")
        node = cfg
        for name in sections:
            node = node.setdefault(name, {})
        node[leaf] = value
    return cfg


# Size keys are always given: their defaults are not tiny.
SIZE_KEYS = {
    "lag_depth",
    "sweep.grid_points",
    "simulate.n_sensors",
    "simulate.m_train",
    "simulate.m_validation",
    "simulate.n_validation_runs",
}
VALID = st.fixed_dictionaries(
    {key: FUZZ_KEYS[key][0] for key in sorted(SIZE_KEYS)},
    optional={key: valid for key, (valid, _) in FUZZ_KEYS.items() if key not in SIZE_KEYS},
)
ONE_BAD_VALUE = st.builds(
    lambda flat, bad: nested({**flat, bad[0]: bad[1]}),
    VALID,
    st.sampled_from(sorted(FUZZ_KEYS)).flatmap(lambda key: st.tuples(st.just(key), FUZZ_KEYS[key][1])),
)
UNKNOWN_KEY = st.builds(
    lambda flat, where, key, value: nested({**flat, f"{where}{key}": value}),
    VALID,
    st.sampled_from(["", *(f"{name}." for name in SECTION_NAMES)]),
    st.text(min_size=1, max_size=4).filter(lambda k: "." not in k),
    JUNK,
)
NOT_AN_OBJECT = JUNK.filter(lambda v: not isinstance(v, dict))
BAD_SECTION = st.builds(
    lambda flat, name, value: {**nested(flat), name: value},
    VALID,
    st.sampled_from(SECTION_NAMES),
    NOT_AN_OBJECT,
)
CONFIGS = {
    "valid": VALID.map(nested),
    "broken": st.one_of(ONE_BAD_VALUE, UNKNOWN_KEY, BAD_SECTION, NOT_AN_OBJECT),
}


def command_args(command, tiny, tmp):
    return {
        "simulate": ["simulate", "--out-dir", f"{tmp}/sim"],
        "fit": ["fit", str(tiny["train"]), "--model-out", f"{tmp}/model.json"],
        "eval": ["eval", str(tiny["model"]), str(tiny["validation"]), "--report-out", f"{tmp}/report"],
        "monitor": ["monitor", str(tiny["model"]), str(tiny["validation"])],
    }[command]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in a valid but extreme config
@pytest.mark.parametrize("command", ["simulate", "fit", "eval", "monitor"])
@pytest.mark.parametrize("kind", sorted(CONFIGS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_config_fuzz_exits_with_a_contract_code(tiny, kind, command, data):
    cfg = data.draw(CONFIGS[kind], label="config")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["--config", str(path), *command_args(command, tiny, tmp)])
    assert code in (0, 2, 3), err.getvalue()
    if code:
        assert err.getvalue().count("\n") == 1, err.getvalue()
