"""Reversing-symmetry classification and resonant normal forms in R^4.

The package answers three questions about a 4-dimensional vector field whose
linear part is a pair of independent rotations:

* which linear involutions S extend the canonical reversor diag(1,-1,1,-1)
  to a dihedral reversing-symmetry group, and how they fall into conjugacy
  classes (``solver``, ``groups``);

* which resonant monomials survive in the formal normal form once the field
  is required to be reversible under a chosen pair of involutions, and what
  constraint each surviving complex coefficient carries (``normalform``);

* how to actually normalize a given polynomial field degree by degree with
  exact rational arithmetic, preserving its reversing symmetries
  (``normalform.belitskii_normalize``), cross-checked by a brute-force
  kernel oracle (``normalform.brute_force_kernel``).
"""

from .exactalg import AlgScalar, IncompatibleRadicals, Mat4, Rational, scalar
from .groups import (
    ClosureCapExceeded,
    MatGroup,
    NotCompatible,
    SignAssignment,
    element_order,
    generate_closure,
    is_dihedral,
    sign_assignment,
)
from .normalform import (
    PHI,
    CoeffConstraint,
    MixedResonantTerms,
    NormalFormResult,
    NormalizationError,
    OracleResult,
    RealNormalForm,
    ResMonomial,
    ResonanceSpec,
    RevInvolution,
    belitskii_normalize,
    brute_force_kernel,
    constraint_for,
    emit_real_normal_form,
    real_group_representative,
    relaxed_hypothesis,
    resonant_monomials,
    survival_analysis,
)
from .solver import (
    R0,
    DegenerateResonance,
    InvolutionSolution,
    LinearPart,
    UnsupportedGroupOrder,
    XiClass,
    linear_part_matrix,
    partition_by_group,
    solve_involutions,
    verify_raw_system,
)
from .vecfield import (
    FieldFormatError,
    NotAnInvolution,
    Poly,
    PolyMap,
    PolyVF,
    check_parity_conditions,
    check_symmetry,
    conjugate,
    linearize_involution,
    parse_poly,
)

__version__ = "0.1.0"

__all__ = [
    "AlgScalar",
    "ClosureCapExceeded",
    "CoeffConstraint",
    "DegenerateResonance",
    "FieldFormatError",
    "IncompatibleRadicals",
    "InvolutionSolution",
    "LinearPart",
    "Mat4",
    "MatGroup",
    "MixedResonantTerms",
    "NormalFormResult",
    "NormalizationError",
    "NotAnInvolution",
    "NotCompatible",
    "OracleResult",
    "PHI",
    "Poly",
    "PolyMap",
    "PolyVF",
    "R0",
    "Rational",
    "RealNormalForm",
    "ResMonomial",
    "ResonanceSpec",
    "RevInvolution",
    "SignAssignment",
    "UnsupportedGroupOrder",
    "XiClass",
    "belitskii_normalize",
    "brute_force_kernel",
    "check_parity_conditions",
    "check_symmetry",
    "conjugate",
    "constraint_for",
    "element_order",
    "emit_real_normal_form",
    "generate_closure",
    "is_dihedral",
    "linear_part_matrix",
    "linearize_involution",
    "parse_poly",
    "partition_by_group",
    "real_group_representative",
    "relaxed_hypothesis",
    "resonant_monomials",
    "scalar",
    "sign_assignment",
    "solve_involutions",
    "survival_analysis",
    "verify_raw_system",
]
