"""banachlab: exact computation in Tsirelson-family Banach spaces.

Norms defined by implicit equations (plain, modified, and
partition-scaled), the dual norm via exact rational linear programming,
Hamming-type metrics generated by unconditional bases, explicit graph
embeddings with measured distortion, and desk-scale verifiers for the
quantitative block inequalities.
"""

from .caps import Caps, get_caps, parse_caps
from .dual import LPResult, dual_norm
from .embeddings import (
    ArrayEmbed,
    DistortionReport,
    Prop73,
    XpqBranch,
    array_embed,
    ell_infty_equivalence,
    measure_distortion,
    prop73_embed,
    prop73_space,
    xpq_branch_vectors,
    xpq_space,
)
from .errors import BanachLabError, CapExceeded, InputError, ParseError
from .hamming import (
    HammingSpace,
    hamming_distance,
    johnson_distance,
    make_ksubset,
    parse_ksubset,
)
from .norms import (
    Functional,
    NormEngine,
    gauge_norm,
    lp_norm,
    modified_norm,
    tsirelson_norm,
    tsirelson_norm_witness,
)
from .oracles import brute_force_tsirelson, norming_set, norming_set_max
from .report import VerifierReport
from .spaces import (
    FGauge,
    Indexed,
    Lp,
    LpN,
    ModifiedTsirelson,
    Repeat,
    Schlumprecht,
    SpaceExpr,
    Sum,
    Tsirelson,
    TsirelsonDual,
    format_space,
    parse_space,
    register_gauge,
    space_depth,
    validate_vector,
)
from .vectors import (
    Rational,
    SparseVec,
    format_vector,
    inner_product,
    parse_rational,
    parse_vector,
    restrict,
    unit,
)
from .verifiers import (
    estimate_cm,
    estimate_dm,
    hat_select,
    select_c0_subsequence,
    spreading_witness,
    tt_space,
    verify_block_c0,
    verify_lemma_l2,
)

__version__ = "0.1.0"
