"""deltaprobe: available-bandwidth estimation from probe packets of
different sizes.

Probe a path with two (or more) packet sizes, filter delays by per-size
minimum, and read the available bandwidth off the delay-vs-size slope and
the fixed delay off its intercept. Ships a deterministic path simulator as
a ground-truth oracle plus session persistence and summary statistics.
"""

# errors.py defines exception classes only, and each of them is public
from .errors import *  # noqa: F403
from .estimator import (
    BandwidthEstimate,
    DelayProfile,
    EstimateReport,
    SizeDelayPoint,
    estimate_bandwidth,
    estimate_from_intercept,
    estimate_intercept,
    estimate_pairwise,
    estimate_regression,
    invert_slope,
    min_delay_profile,
)
from .intercept import (
    InterceptModel,
    Observations,
    PathFeatures,
    estimate_with_model,
    fit_intercept_model,
    predict_intercept,
)
from .probe import (
    ProbePlan,
    ProbeSample,
    SampleBatch,
    discover_hops,
    run_session,
    wire_size,
)
from .simulator import (
    Hop,
    SimPath,
    fixed_delay,
    fixed_overhead,
    ground_truth_rate,
    run_experiment,
)
from .stats import DelaySummary, jitter_series, summarize
from .store import (
    SessionRecord,
    export_csv,
    import_csv,
    load_session,
    read_observations_csv,
    save_session,
)

__version__ = "0.1.0"
