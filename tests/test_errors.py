"""Every toolkit error survives ``pickle`` and ``copy.copy``: a result that
carries one can travel between processes and be copied whole."""

import copy
import inspect
import pickle

import pytest

from sensordiag import errors
from sensordiag.errors import DegenerateDirection, SensorDiagError, ZeroVarianceColumn

ERRORS = [
    cls
    for cls in vars(errors).values()
    if inspect.isclass(cls) and issubclass(cls, SensorDiagError)
]
# Constructor arguments of the errors that build their own message.
ARGS = {ZeroVarianceColumn: ("s1",), DegenerateDirection: (3, "rbc/t2")}


@pytest.mark.parametrize("cls", ERRORS, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("clone", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy], ids=["pickle", "copy"])
def test_error_round_trips(cls, clone):
    original = cls(*ARGS.get(cls, ("sensor 's1': something went wrong",)))
    twin = clone(original)
    assert type(twin) is cls
    assert str(twin) == str(original)
    assert twin.args == original.args
    assert vars(twin) == vars(original)
    assert twin.exit_code == original.exit_code


def test_messages_and_attributes_are_kept():
    zero = ZeroVarianceColumn("s1")
    assert str(zero) == "sensor 's1' has zero variance; a constant column cannot be standardized"
    assert zero.sensor_name == "s1"
    degenerate = DegenerateDirection(3, "rbc/t2")
    assert str(degenerate) == (
        "direction of sensor 3 is degenerate for rbc/t2; the reconstruction denominator is numerically zero"
    )
    assert degenerate.sensor == 3
