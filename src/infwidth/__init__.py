"""Matrix-vector program IR, finite-size simulation, and infinite-width limits.

The package represents programs of matrix multiplications and coordinatewise
nonlinearities over large random matrices, executes them at finite size,
computes their infinite-width limit objects mechanically, and checks the
classical random-matrix laws (semicircle, Marchenko-Pastur, asymptotic
freeness, deep-net Jacobian spectra) against the limits.
"""

from . import corpus, dsl, exprs, laws
from .errors import (
    ArityMismatch,
    CapExceeded,
    DimClassConflict,
    DuplicateSymbol,
    NonFiniteEstimate,
    NonInvertibleSeries,
    NonPSDCovariance,
    NonPSDExtension,
    NotAlternating,
    ParseError,
    ShapeMismatch,
    StepAtJump,
    UndeclaredSymbol,
    UnknownSymbol,
)
from .finite import (
    DiagFactor,
    MatFactor,
    MatrixWord,
    Realization,
    dims_for_scale,
    eig_spectrum,
    empirical_average,
    instantiate,
    spectral_moments,
    trace_moment,
    word_apply,
)
from .freeness import (
    AlternatingWord,
    FreenessReport,
    centered_trace,
    fip_witness_program,
    freeness_sweep,
    jacobian_finite,
    jacobian_limit_moments,
)
from .limits import LimitState, ReplicatedLimit, build_limit, build_replicated
from .numerics import hermite_pair_expectation, pseudoinverse
from .program import (
    CovDecl,
    MatMul,
    MatrixDecl,
    Moment,
    Nonlin,
    Program,
    RatioDecl,
    ScalarDecl,
    ScalarRule,
    TieDecl,
    VectorDecl,
    build_program,
    compute_cdc,
)

__version__ = "0.1.0"
