"""Numerical laboratory for split-inequality certificates of martingale
transform bounds on regular atom towers.

The package holds the production routes only; the tests keep the oracles
they compare them with in ``tests/oracles.py``.  The root re-exports names
the modules list in ``__all__``."""

from .filtration import (
    Filtration,
    FiltrationError,
    build_dyadic,
    build_random_regular,
    filtration_to_dict,
    level_partition,
)
from .martingale import (
    MartFunction,
    inner,
    l2_norm,
    lp_norm,
)
from .transforms import (
    MartingaleTransform,
    PredictabilityError,
    make_transform,
    transform_to_dict,
)
from .bellman import (
    BellmanCandidate,
    dyadic_expand,
    estimate_rescale_constant,
    linear_candidate,
    quadratic_candidate,
    recombine_slack,
    sample_dyadic_split_configs,
)
from .certifier import (
    Certificate,
    CertificationError,
    certify,
)
from .estimator import (
    EstimateError,
    duality_bound,
    lower_bound_search,
    lp_constant_scan,
)
from .checks import SUITES, Tolerances, run_all
from .corpus import CorpusCell, default_corpus, haar_witness, prepare_cell

__version__ = "0.1.0"
