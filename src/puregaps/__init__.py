"""Pure gap sets and Weierstrass semigroup data at two places of a
function field, computed from the minimal generating set via period box
decomposition, with closed forms for the GK and Kummer families and an
independent brute-force oracle for cross-validation."""

from .engine import (
    Bounds,
    BoxedGamma,
    PureGapSet,
    assemble_pure_gaps,
    bounds,
    bounds_from_row_sizes,
    check_reflection,
    components_by_box,
    decompose,
)
from .errors import (
    ConsistencyError,
    PureGapsError,
    ValidationError,
)
from .gammafile import dump_gamma, load_gamma, parse_gamma
from .gk import (
    GKParams,
    gk_card_g0,
    gk_card_gamma_k0,
    gk_g1,
    gk_g3,
    gk_gamma_k0,
    gk_generating_set,
    gk_upper_bound,
)
from .kummer import (
    KummerParams,
    kummer_card_g0,
    kummer_card_gamma_k0,
    kummer_card_special_qN,
    kummer_card_special_ur1,
    kummer_g1,
    kummer_g3,
    kummer_gamma_k0,
    kummer_generating_set,
)
from .lattice import (
    COORD_MAX,
    GeneratingSet,
    set_bits,
    validate_generating_set,
)
from .oracle import (
    count_pure_gaps_direct,
    pure_gap_boxes_direct,
    pure_gaps_direct,
)

__version__ = "0.1.0"
