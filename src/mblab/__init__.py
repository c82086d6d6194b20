"""Numerical laboratory for split-inequality certificates of martingale
transform bounds on regular atom towers."""

from .filtration import (
    Atom,
    Filtration,
    FiltrationError,
    RatioSamplingError,
    SplitEvent,
    build_dyadic,
    build_random_regular,
    filtration_from_json,
    filtration_to_json,
    level_partition,
    regularity_delta,
    split_schedule,
)
from .martingale import (
    MartFunction,
    average,
    cond_exp,
    constant_function,
    delta_split,
    from_leaf_values,
    indicator,
    inner,
    l2_norm,
    lp_norm,
    osc2,
    pointwise_dot,
    restrict,
)
from .transforms import (
    MartingaleTransform,
    PredictabilityError,
    make_transform,
    operator_norm,
    predictable_hull,
    transform_from_json,
    transform_to_json,
)
from .bellman import (
    BellmanCandidate,
    BellmanPoint,
    ExpansionCertificate,
    RescaleEstimate,
    SplitConfig,
    bellman_point,
    dyadic_expand,
    estimate_rescale_constant,
    in_bellman_domain,
    linear_candidate,
    quadratic_candidate,
    recombine_slack,
    sample_dyadic_split_configs,
    sample_split_configs,
    scale_candidate,
    shaped_candidate,
    split_slack,
)
from .certifier import (
    Certificate,
    CertificationError,
    SplitRecord,
    certify,
)
from .estimator import (
    DualityReport,
    EstimateError,
    ScanResult,
    SearchResult,
    duality_bound,
    kappa_constant,
    lower_bound_search,
    point_in_box,
    lp_constant_scan,
    optimal_lambda,
    optimal_lambda_numeric,
)
from .checks import SUITES, Tolerances, run_all, run_suite
from .corpus import CorpusCell, default_corpus, haar_witness, prepare_cell

__version__ = "0.1.0"
