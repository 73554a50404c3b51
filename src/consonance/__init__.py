"""Conformal prediction read as a possibility measure.

Transduce an exchangeable bag into a plausibility contour, treat the
contour as a consonant possibility measure, and work with everything that
follows: upper/lower probabilities, Moebius masses on nested focal sets,
prediction regions in their cut and intersection forms, the dominated
credal set with its extreme points and lower entropy, a robust-Bayes
Poisson pipeline, and a Monte-Carlo harness for the coverage guarantee.
"""

from .bsa import (
    GammaParams,
    IhdrSearchReport,
    PredictiveFGCS,
    bsa_ihdr,
    bsa_ihdr_report,
    fgcs_lower_prob,
    posterior_update,
    predictive_pmf,
)
from .credal import (
    ProbabilityVector,
    extreme_points,
    in_credal_set,
    lower_entropy,
    prop2_membership,
    sample_credal,
    ternary_coords,
)
from .errors import (
    AllZeroContour,
    AlphaOutOfRange,
    BudgetExceeded,
    EmptyBag,
    FixtureMismatch,
    NegativeCount,
    NegativeMass,
    NonConsonantContour,
    SpaceTooLarge,
    TruncationInsufficient,
    UnknownLabel,
    WrongDimension,
)
from .harness import (
    CoverageReport,
    ProcessSpec,
    run_coverage,
    run_uniformity_sweep,
)
from .outcome import (
    Event,
    FiniteOutcomeSpace,
    GridOutcomeSpace,
    complement,
    enumerate_events,
    space_from_json,
)
from .possibility import (
    CheckResult,
    Cloud,
    FocalSet,
    MassFunction,
    Witness,
    check_k_alternating,
    check_k_monotone,
    cloud_gamma,
    focal_chain,
    focal_elements,
    is_consonant,
    lower_prob,
    mass_from_belief,
    upper_prob,
    upper_table,
)
from .region import (
    PredictionRegion,
    Prop1Report,
    Prop1Violation,
    cpr,
    ihdr_cut,
    ihdr_intersection,
    prop1_check,
    region_size,
)
from .transducer import (
    ConformalResult,
    Contour,
    NonconformityMeasure,
    adjust_double_prime,
    adjust_prime,
    conformal_transducer,
    nonconformity_mean_abs,
    nonconformity_one_minus_emp,
    transduce_grid,
)

__version__ = "0.1.0"
