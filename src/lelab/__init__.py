"""Numerical laboratory for the Lane-Emden system on R^d.

The system -Delta u = |v|^(p-1) v, -Delta v = |u|^(q-1) u is studied
through its closed-form constants, regime classification against the
critical Sobolev hyperbola and the Joseph-Lundgren curve, radial shooting,
and numerical verification of the identities and inequalities that govern
existence and stability of positive solutions.
"""

from .classifier import (
    Criticality,
    CurveKind,
    CurvePoint,
    CurvePointStatus,
    CurveTrace,
    RegimeReport,
    classify,
    criticality,
    grid_classify,
    hyperbola_gap,
    jl_threshold_dimension,
    trace_hyperbola,
    trace_jl_curve,
)
from .errors import (
    BadBracketError,
    EmptyTraceError,
    InsufficientDecayWindowError,
    InsufficientWindowError,
    InvalidInputError,
    InvalidMoserExponentError,
    InvalidParamsError,
    LelabError,
    NoRealRootError,
    UndefinedSingularError,
    WindowNotCoveredError,
)
from .exponents import (
    DerivedConstants,
    Linearisation,
    MoserConstants,
    QuarticKind,
    SystemParams,
    derive_constants,
    jl_margin,
    largest_root,
    linearisation,
    moser_constants,
    quartic_coefficients,
    quartic_eval,
)
from .radial import (
    BLOWUP_THRESHOLD,
    R_START,
    DecayClass,
    DecayFit,
    RadialSolution,
    RadialStatus,
    blow_down,
    find_separating_v0,
    fit_decay,
    integrate,
    shoot_ground_state,
    singular_profile,
)
from .verify import (
    PohozaevWeights,
    VerificationReport,
    check_comparison,
    check_energy_growth,
    check_pohozaev,
    check_singular_residual,
    pohozaev_sides,
    rayleigh_stability_margin,
    spherical_mode_margins,
)

__version__ = "0.1.0"
