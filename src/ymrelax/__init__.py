"""Numerical toolkit for Young-measure relaxation of integral energies
that are finite only on invertible matrix arguments.

The package builds atomic Young measures and piecewise-affine gradient
fields, evaluates quasiconvex-envelope bounds restricted to invertibility
balls, solves a discretized relaxation by alternating linear programs and
atom generation, and certifies the resulting objects against the class
conditions the theory requires.
"""

__version__ = "0.1.0"

from .errors import (
    BudgetExceeded,
    ConfigError,
    DomainError,
    HypothesisViolated,
    Infeasible,
    InfeasibleBarycenter,
    InfeasibleLayer,
    NoAdmissibleSplit,
    NoFeasibleStart,
    NotRankOne,
    SingularAtom,
    SingularError,
    Stalled,
    ToolError,
    UnknownEnergy,
)
from .matcore import (
    Mat,
    RhoBall,
    det,
    frob_norm,
    in_rho_ball,
    inv_norm,
    inverse,
    invert,
    is_invertible,
    iter_coordinate_dyads,
    mat_close,
    max_norm_pair,
    rank_one_difference,
    singular_threshold,
)
from .testfn import (
    Growth,
    TestFn,
    builtin_energy,
    evaluate_batch,
    make_det_cutoff,
    make_phi_rho,
    named_testfn,
    orho_extend,
    smoothstep,
)
from .measure import (
    AtomicMeasure,
    ClassReport,
    Mesh,
    YoungMeasureField,
    classify,
    first_moment,
    hat_pushforward,
    homogenize,
    measures_equal,
    pair,
    support_in_ball,
    truncate,
)
from .laminate import (
    WEIGHT_FUNCTIONS,
    BoundaryDatum,
    GenerationEntry,
    GenerationReport,
    GlueReport,
    GradientField,
    SequenceSpec,
    boundary_glue,
    build_laminate_sequence,
    empirical_pairing,
    integrate_weight,
    verify_generation,
)
from .meshdef import MeshDeformation
from .envelope import (
    EnvelopeEstimate,
    Oracle1D,
    qinv_fe_upper,
    qinv_laminate_upper,
    qinv_oracle_1d,
)
from .relax import (
    LpSolution,
    RelaxProblem,
    RelaxSolution,
    lp_weights,
    refine_atoms,
    relax_solve,
)
from .certify import (
    Certificate,
    Check,
    check_det_limit,
    check_support_from_sequence,
    check_thm3,
    check_thm12,
)

__all__ = [
    "__version__",
    # errors
    "ToolError", "SingularError", "DomainError", "SingularAtom", "NotRankOne",
    "BudgetExceeded", "InfeasibleLayer", "InfeasibleBarycenter",
    "NoAdmissibleSplit", "NoFeasibleStart", "Infeasible", "Stalled",
    "UnknownEnergy", "HypothesisViolated", "ConfigError",
    # matrices
    "Mat", "RhoBall", "mat_close", "frob_norm", "det", "singular_threshold",
    "is_invertible", "inverse", "invert", "inv_norm", "rank_one_difference",
    "in_rho_ball",
    "max_norm_pair",
    "iter_coordinate_dyads",
    # test functions
    "Growth", "TestFn", "smoothstep", "make_phi_rho",
    "make_det_cutoff", "orho_extend", "builtin_energy", "named_testfn",
    "evaluate_batch",
    # measures
    "AtomicMeasure", "pair", "first_moment", "hat_pushforward", "truncate",
    "Mesh", "YoungMeasureField", "homogenize", "ClassReport", "classify",
    "measures_equal", "support_in_ball",
    # laminates
    "GradientField", "BoundaryDatum", "SequenceSpec", "WEIGHT_FUNCTIONS",
    "build_laminate_sequence", "empirical_pairing", "integrate_weight",
    "GenerationEntry", "GenerationReport", "verify_generation", "GlueReport",
    "boundary_glue",
    # deformations
    "MeshDeformation",
    # envelopes
    "EnvelopeEstimate", "Oracle1D", "qinv_oracle_1d", "qinv_laminate_upper",
    "qinv_fe_upper",
    # relaxation
    "LpSolution", "lp_weights", "refine_atoms",
    "RelaxProblem", "RelaxSolution", "relax_solve",
    # certificates
    "Check", "Certificate", "check_thm12", "check_support_from_sequence",
    "check_det_limit", "check_thm3",
]
