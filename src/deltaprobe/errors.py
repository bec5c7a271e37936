"""Exception types shared across the package."""


class DeltaProbeError(Exception):
    """Base class for all deltaprobe errors."""


# --- estimation ---------------------------------------------------------

class NoUsableSizes(DeltaProbeError):
    """No packet size has enough non-lost samples to estimate from."""


class EqualSizes(DeltaProbeError):
    """The two probe points have the same wire size."""


class NonPositiveDelayDifference(DeltaProbeError):
    """The larger packet was not slower; the pairwise estimator is undefined."""


class DelayNotAboveIntercept(DeltaProbeError):
    """Measured delay does not exceed the fixed-delay intercept."""


class InsufficientPoints(DeltaProbeError):
    """Fewer than two size/delay points available for a fit."""


class NonPositiveSlope(DeltaProbeError):
    """Fitted delay-vs-size slope is zero or negative."""


# --- intercept model ----------------------------------------------------

class RankDeficient(DeltaProbeError):
    """Hop-count / route-length design matrix is rank deficient."""


class InsufficientObservations(DeltaProbeError):
    """Fewer than two (features, intercept) observations."""


class NonFiniteModel(DeltaProbeError):
    """A fitted coefficient or the residual overflows float64."""


# --- probing ------------------------------------------------------------

class ResolveFailure(DeltaProbeError):
    """Target host name could not be resolved."""


class ProbePermissionError(DeltaProbeError):
    """The socket type required by the probe method is not permitted."""


class AllProbesLost(DeltaProbeError):
    """Every probe in the session was lost (target unreachable)."""


class NoReply(DeltaProbeError):
    """Target never answered within the TTL search bound."""


# --- statistics ---------------------------------------------------------

class NoSamples(DeltaProbeError):
    """Empty sample list."""


class InsufficientSamples(DeltaProbeError):
    """Not enough non-lost samples for the requested window."""


# --- persistence --------------------------------------------------------

class SchemaMismatch(DeltaProbeError):
    """Session file uses an unrecognized schema version."""


class CorruptLine(DeltaProbeError):
    """Session file line could not be parsed."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class MissingColumn(DeltaProbeError):
    """Required CSV column is absent."""


class EmptyFile(DeltaProbeError):
    """CSV file has no header or no rows."""


class ConfigError(DeltaProbeError):
    """Malformed configuration data (path JSON or CLI config file)."""
