"""Exception and warning types shared across the toolkit, and the index check."""

import numpy as np


class SensorDiagError(Exception):
    """Base class for all toolkit errors. ``exit_code`` is the CLI exit
    status it maps to: 2 for a data error, 3 for a config error."""

    exit_code = 2


class CsvParseError(SensorDiagError):
    """CSV input is malformed: bad header, ragged row, or a non-finite cell."""


class ZeroVarianceColumn(SensorDiagError):
    """A sensor column is (numerically) constant and cannot be standardized."""

    def __init__(self, sensor_name: str):
        super().__init__(sensor_name)  # the arguments, so pickle and copy rebuild it
        self.sensor_name = sensor_name

    def __str__(self):
        return (
            f"sensor '{self.sensor_name}' has zero variance; a constant column "
            "cannot be standardized"
        )


class DimensionMismatch(SensorDiagError):
    """Data shape or sensor names do not match what the model or scaler expects."""


class LagTooLarge(SensorDiagError):
    """Lag depth d must be strictly smaller than the number of samples."""

    exit_code = 3


class EigendecompositionFailure(SensorDiagError):
    """The symmetric eigensolver did not converge or the spectrum is unusable."""


class SingularLambda(SensorDiagError):
    """A retained eigenvalue is numerically zero; the Mahalanobis index is undefined."""


class EmptySample(SensorDiagError):
    """An operation that needs at least one value received none."""


class DegenerateDirection(SensorDiagError):
    """A sensor direction lies (numerically) inside the complementary subspace."""

    def __init__(self, sensor: int, what: str):
        super().__init__(sensor, what)  # the arguments, so pickle and copy rebuild it
        self.sensor = sensor

    def __str__(self):
        return (
            f"direction of sensor {self.sensor} is degenerate for {self.args[1]}; "
            "the reconstruction denominator is numerically zero"
        )


class IndexOutOfRange(SensorDiagError):
    """A sensor or sample index is outside the valid range."""

    exit_code = 3


def check_index(value, n, what: str) -> None:
    """Raise ``ValueError`` unless ``value`` is a Python or numpy integer (a bool
    is not), and ``IndexOutOfRange`` unless it is in ``[0, n)``; with ``n`` None
    only the type is checked. ``what`` names the value in the message."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if n is not None and not 0 <= value < n:
        raise IndexOutOfRange(f"{what} {value} not in [0, {n})")


class SchemaVersionMismatch(SensorDiagError):
    """Model file was written with an unsupported schema version."""


class CorruptModelFile(SensorDiagError):
    """Model file is unreadable, incomplete, or internally inconsistent."""


class UnstableConfig(SensorDiagError):
    """The autoregressive generator parameters describe a non-stationary process."""

    exit_code = 3


class ZeroAmplitude(SensorDiagError):
    """Relative reconstruction error is undefined for a zero fault amplitude."""


class NonFiniteResult(SensorDiagError):
    """A fitted statistic or a sweep result overflowed float64."""


class AmplitudeOverflow(NonFiniteResult):
    """Every estimate is finite, but the error relative to the sweep amplitude
    overflows float64: the amplitude, not the data, is out of range."""


class ConfigError(SensorDiagError):
    """Run configuration file contains unknown keys or invalid values."""

    exit_code = 3


class DegenerateSpectrum(UserWarning):
    """Trailing eigenvalues are numerically zero (rank-deficient training data)."""


class UndersampledFit(UserWarning):
    """Fewer training samples than (extended) variables; covariance is rank-deficient."""
