"""Fine-scale statistics of directions in affine planar lattices.

Enumerate the points of a shifted unimodular lattice at scale T, study the
spacing and correlation statistics of their direction angles, and compare
against independent Monte Carlo estimates of the limiting point process on
the space of affine lattices.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .diophantine import (
    CBRT2,
    CBRT4,
    GOLDEN,
    SQRT2,
    DiophReport,
    dioph_scan,
    rational_divergence_probe,
    singular_vector,
)
from .errors import (
    CapacityError,
    InsufficientDataError,
    InvalidConstructionError,
    InvalidInputError,
    LatdirError,
    UnsupportedError,
)
from .escape import CuspSpec, bump_window, cusp_window_sum, horocycle_escape_integral
from .lattice import (
    AffineLatticeSpec,
    Annulus,
    DirectionSet,
    DirectionStream,
    DomainShape,
    Mat2,
    Square,
    direction_set,
    direction_stream,
    directions,
    enumerate_points,
    expected_count,
    lattice_from_json,
    rho_square,
    rotation,
)
from .limit import (
    ConeRegion,
    CountDistribution,
    MCResult,
    cone_counts,
    coset_reps,
    crude_bound_holds,
    crude_bound_min_T,
    cusp_bound_holds,
    disc_count,
    exact_limit_moment,
    haar_v_cdf,
    iwasawa_matrix,
    sample_count_distribution,
    siegel_average,
    tail_exponent,
)
from .stats import (
    Histogram,
    IntervalBox,
    MeasureSpec,
    MomentSpec,
    mixed_moment,
    pair_correlation,
    pair_correlation_integral,
    spacing_histogram,
    window_counts,
)

# every name imported above, and no submodule: the import lists are the one list of public names
__all__ = sorted(
    name for name, value in globals().items() if not (name.startswith("_") or isinstance(value, _ModuleType))
)
