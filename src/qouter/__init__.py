"""Q-index extremal search and verification for connected outerplanar graphs."""

from .graphs import (
    Graph,
    complete,
    cycle,
    disjoint_union,
    from_edges,
    join_one,
    path,
    star,
)
from .canon import canonical_code, canonical_labeling
from .graph6 import graph6_decode, graph6_encode
from .recognition import (
    ForbiddenPattern,
    common_neighbors,
    contains_cycle,
    contains_disjoint_paths,
    is_f_free,
    is_outerplanar,
    neighborhood_is_paths,
)
from .spectral import (
    Ordering,
    SpectralResult,
    compare_results,
    eta_max,
    path_join_ratios,
    q_index,
    q_indices,
)
from .constructions import (
    cycle_extremal,
    h_gadget,
    path_extremal,
    path_join,
)
from .transforms import TransformMove, greedy_ascent
from .enumeration import (
    ArgmaxResult,
    EnumerationClass,
    connected_graphs,
    connected_outerplanar,
    enumerate_class,
    extremal_argmax,
)
from .harness import (
    VerificationReport,
    check_lemma,
    run_campaign,
    structural_check,
    verify_cycle_theorem,
    verify_path_theorem,
)

__version__ = "0.1.0"
