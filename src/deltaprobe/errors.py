"""Exception types shared across the package. Each category class sets the
exit status (`exit_code`) the command line ends with for its errors."""


class DeltaProbeError(Exception):
    """Base class for all deltaprobe errors."""

    exit_code = 1


class EstimationError(DeltaProbeError):
    """No estimate, model or statistic is defined for the given data."""

    exit_code = 3


class DataError(DeltaProbeError):
    """Malformed input data: a file, a config value or a sample."""

    exit_code = 65


class EnvironmentFailure(DeltaProbeError):
    """The host or network does not allow the measurement (the base's exit 1)."""


class UsageError(DeltaProbeError):
    """A command-line flag is missing, malformed or out of range."""

    exit_code = 64


# --- estimation ---------------------------------------------------------

class NoUsableSizes(EstimationError):
    """No packet size has enough non-lost samples to estimate from."""


class EqualSizes(EstimationError):
    """The two probe points have the same wire size."""


class NonPositiveDelayDifference(EstimationError):
    """The larger packet was not slower; the pairwise estimator is undefined."""


class DelayNotAboveIntercept(EstimationError):
    """Measured delay does not exceed the fixed-delay intercept."""


class InsufficientPoints(EstimationError):
    """Fewer than two size/delay points available for a fit."""


class NonPositiveSlope(EstimationError):
    """Fitted delay-vs-size slope is zero or negative."""


class NonFiniteEstimate(EstimationError):
    """The estimated bandwidth, intercept or residual overflows float64."""


# --- intercept model ----------------------------------------------------

class RankDeficient(EstimationError):
    """Hop-count / route-length design matrix is rank deficient."""


class InsufficientObservations(EstimationError):
    """Fewer than two (features, intercept) observations."""


class NonFiniteModel(EstimationError):
    """A fitted coefficient or the residual overflows float64."""


# --- probing ------------------------------------------------------------

class ResolveFailure(EnvironmentFailure):
    """Target host name could not be resolved."""


class ProbePermissionError(EnvironmentFailure):
    """The socket type required by the probe method is not permitted."""


class AllProbesLost(EnvironmentFailure):
    """Every probe in the session was lost (target unreachable)."""

    exit_code = 2


class NoReply(EnvironmentFailure):
    """Target never answered within the TTL search bound."""


class InvalidProbePlan(UsageError, ValueError):
    """A probe plan out of range, or one the probe engine cannot run."""


# --- statistics ---------------------------------------------------------

class NoSamples(EstimationError):
    """Empty sample list."""


class InsufficientSamples(EstimationError):
    """Not enough non-lost samples for the requested window."""


# --- persistence and input data -----------------------------------------

class SchemaMismatch(DataError):
    """Session file uses an unrecognized schema version."""


class CorruptLine(DataError):
    """Session file line could not be parsed."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class MissingColumn(DataError):
    """Required CSV column is absent."""


class EmptyFile(DataError):
    """CSV file has no header or no rows."""


class ConfigError(DataError):
    """Malformed configuration data (path JSON or CLI config file)."""


class InvalidSample(DataError, ValueError):
    """A sample column breaks a rule; `index` is the first offending row."""

    def __init__(self, index: int, message: str):
        super().__init__(f"sample {index}: {message}")
        self.index = index
