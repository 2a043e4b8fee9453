"""Simple-triangle (PI) graph recognition and linear-interval order tooling.

A simple-triangle graph is the intersection graph of triangles that each
have an apex point on a top horizontal line and a base interval on a bottom
one.  The package recognizes these graphs through their apex orderings,
builds and verifies explicit representations, recognizes the matching order
class (intersections of a linear order with an interval order), and ships
independent brute-force oracles for cross-validation at small sizes.
"""

from .errors import (
    CycleError,
    DuplicateEdge,
    EdgeSetMismatch,
    LimitExceeded,
    NotAnExtension,
    NotApexOrdering,
    NotComparabilityOrdering,
    NotSimpleTriangle,
    ParseError,
    SelfLoop,
    SimpleTriError,
    SizeMismatch,
)
from .graphs import (
    Graph,
    OrderedPattern,
    Orientation,
    PATTERN_CP,
    PATTERN_CPC,
    PATTERN_P1,
    PATTERN_P2,
    complement,
    find_pattern,
    fulfills_2k2_rule,
    fulfills_c4_rule,
    is_alternating_orientation,
    is_cocomparability_ordering,
    is_comparability_ordering,
    is_transitive_orientation,
    orient_complement_by_ordering,
    orientation_from_ordering,
    transitive_orientation,
)
from .orders import (
    Anticycle,
    IntervalRepresentation,
    PartialOrder,
    build_interval_representation,
    enumerate_linear_extensions,
    find_alternating_anticycle,
    intersect_orders,
    is_linear_extension,
    linear_order,
    make_partial_order,
    recognize_linear_interval_order,
)
from .recognition import (
    apex_ordering,
    check_apex_ordering,
    is_simple_triangle,
    least_apex_ordering,
    realize,
    recognize,
)
from .triangles import (
    TriangleRepresentation,
    order_to_triangles,
    triangles_disjoint,
    verify_representation,
)

__version__ = "0.1.0"
