"""First-order logic toolkit: clausal-tableau proving, proof import and
transformation, and Craig-Lyndon interpolation with range-restriction and
Horn guarantees."""

from .interpolation import (
    InterpolationContext,
    InterpolationReport,
    NotProvedError,
    RequirementError,
    extract_ipol,
    hornify,
    interpolate,
    synthesize_definition,
    unfreeze,
    verify_interpolant,
)
from .hyperconv import ConversionTrace, hyper_convert
from .normalize import (
    ClausificationResult,
    PrenexNormalForm,
    cnf,
    dnf,
    equality_axioms,
    freeze_free_vars,
    skolemize_clausify,
)
from .proofs import DeductionStep, ground_deduction, parse_proof, to_cut_normal_form, to_tree
from .restriction import (
    RestrictionReport,
    check_vx_preconditions,
    is_horn,
    is_horn_like,
    is_u_range_restricted,
    is_vgt_range_restricted,
    prop4_check,
)
from .syntax import (
    And,
    App,
    BOTTOM,
    Clause,
    Exists,
    ForAll,
    Formula,
    Iff,
    Implies,
    Literal,
    Not,
    Or,
    Signature,
    TOP,
    Term,
    Var,
    free_vars,
    vocabulary,
)
from .tableaux import (
    Node,
    ProveResult,
    assign_sides,
    ground_tableau,
    is_closed,
    is_hyper,
    prove,
    simplify_in_place,
)

__version__ = "0.1.0"
