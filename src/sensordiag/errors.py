"""Exception and warning types shared across the toolkit."""


class SensorDiagError(Exception):
    """Base class for all toolkit errors."""


class CsvParseError(SensorDiagError):
    """CSV input is malformed: bad header, ragged row, or a non-finite cell."""


class ZeroVarianceColumn(SensorDiagError):
    """A sensor column is (numerically) constant and cannot be standardized."""

    def __init__(self, sensor_name: str):
        self.sensor_name = sensor_name
        super().__init__(
            f"sensor '{sensor_name}' has zero variance; a constant column "
            "cannot be standardized"
        )


class DimensionMismatch(SensorDiagError):
    """Vector/matrix width does not match what the model or scaler expects."""


class LagTooLarge(SensorDiagError):
    """Lag depth d must be strictly smaller than the number of samples."""


class EigendecompositionFailure(SensorDiagError):
    """The symmetric eigensolver did not converge or the spectrum is unusable."""


class SingularLambda(SensorDiagError):
    """A retained eigenvalue is numerically zero; the Mahalanobis index is undefined."""


class EmptySample(SensorDiagError):
    """An operation that needs at least one value received none."""


class DegenerateDirection(SensorDiagError):
    """A sensor direction lies (numerically) inside the complementary subspace."""

    def __init__(self, sensor: int, what: str):
        self.sensor = sensor
        super().__init__(
            f"direction of sensor {sensor} is degenerate for {what}; "
            "the reconstruction denominator is numerically zero"
        )


class IndexOutOfRange(SensorDiagError):
    """A sensor or sample index is outside the valid range."""


class SchemaVersionMismatch(SensorDiagError):
    """Model file was written with an unsupported schema version."""


class CorruptModelFile(SensorDiagError):
    """Model file is unreadable, incomplete, or internally inconsistent."""


class UnstableConfig(SensorDiagError):
    """The autoregressive generator parameters describe a non-stationary process."""


class ZeroAmplitude(SensorDiagError):
    """Relative reconstruction error is undefined for a zero fault amplitude."""


class NonFiniteResult(SensorDiagError):
    """A fitted statistic or a sweep result overflowed float64."""


class ConfigError(SensorDiagError):
    """Run configuration file contains unknown keys or invalid values."""


class DegenerateSpectrum(UserWarning):
    """Trailing eigenvalues are numerically zero (rank-deficient training data)."""


class UndersampledFit(UserWarning):
    """Fewer training samples than (extended) variables; covariance is rank-deficient."""
