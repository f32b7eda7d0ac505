"""Exact lattice-side and determinantal-side tools for cubic fourfolds
containing a plane.

Everything is integer or rational arithmetic; no floating point is used,
the Milgram residue included.
"""

from .errors import (
    BadEpsilon,
    BadPrime,
    Condition5Violated,
    CubiclatError,
    Degenerate,
    DegenerateForm,
    DimensionMismatch,
    EnumerationTooLarge,
    GroupTooLarge,
    HalfIntegerCoefficient,
    InternalError,
    InvariantViolation,
    NoPlane,
    NotCubic,
    NotFiniteIndex,
    NotHomogeneous,
    NotPositiveDefinite,
    NotSymmetric,
    OddLattice,
    ParseError,
    PreconditionError,
    PrimeTooLarge,
    SignatureViolation,
    WrongRank,
    WrongSize,
    WrongVariable,
    ZeroD,
)
from .lattice import (
    Lattice,
    Signature,
    bilinear,
    direct_sum,
    discriminant,
    e8,
    hyperbolic_u,
    is_even,
    k3_lattice,
    orthogonal_complement,
    rank_one,
    rescale,
    signature,
    sublattice_index,
)
from .discgroup import (
    DiscriminantGroup,
    FiniteQuadraticForm,
    SmithDecomposition,
    discriminant_form,
    discriminant_group,
    mayanskiy_q,
    milgram_signature,
    smith_normal_form,
)
from .enumeration import (
    isotropic_exists,
    long_roots,
    short_roots,
    vectors_of_norm,
)
from .fourfold import (
    Condition,
    ConditionReport,
    FamilyClass,
    FamilyParams,
    MarkedFourfold,
    NormTenCandidate,
    PfaffianScan,
    build_family_lattice,
    classify_family,
    delta,
    exists_odd_delta,
    is_trivially_rational_rank3,
    mayanskiy_check,
    ns_to_ax_disc,
    pfaffian_obstruction,
    rk2_discriminant_formula,
)
from .forms import (
    AMBIENT_VARS,
    PLANE_VARS,
    Form,
    embed_form,
    parse_form,
    serialize_form,
)
from .detrep import (
    FormMatrix,
    ScanResult,
    build_cubic,
    contains_plane,
    det_form_matrix,
    discriminant_curve,
    quadric_gram,
    smooth_fourfold_fp,
    smooth_plane_curve_fp,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
