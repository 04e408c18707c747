"""Cycle-saturated graph families, verifiers, bounds, and exact search."""

from types import ModuleType as _ModuleType

from .bounds import (
    BoundEntry,
    BoundTable,
    ConsistencyReport,
    Observation,
    check_consistency,
    eval_bounds,
    known_exact,
)
from .codec import (
    EdgeListError,
    Graph6Error,
    detect_and_decode,
    edge_list_decode,
    edge_list_encode,
    graph6_decode,
    graph6_encode,
    labels_decode,
    labels_encode,
)
from .cycles import (
    SearchBudgetExceeded,
    exists_path_of_length,
    has_cycle_of_length,
    paths_of_length,
    shortest_cycle_through,
)
from .families import (
    ConstructionParamError,
    ConstructionPostconditionError,
    UnsuitableCoreError,
    build_h1,
    build_h2,
    build_h3,
    build_wheel,
    h1_decompose,
)
from .graphs import (
    DuplicateEdgeError,
    Graph,
    GraphError,
    LabeledGraph,
    LoopEdgeError,
    VertexRangeError,
    canonical_code,
    canonical_form_and_code,
)
from .oracle import (
    CeilingExceeded,
    GenerationTimeout,
    OracleResult,
    append_golden,
    class_levels,
    exact_min,
    search_stratum,
)
from .saturation import (
    Certificate,
    CertificateError,
    DegreePartition,
    SaturationVerdict,
    StructureReport,
    TooFewVertices,
    check_structure,
    degree_partition,
    greedy_saturate,
    is_ck_free,
    is_saturated,
    is_semisaturated,
    strip_leaves,
)
from .suitability import (
    MiningResult,
    SuitabilityReport,
    is_k_suitable,
    is_kk2_suitable,
    mine_suitable,
    split_pairs,
)

# Every imported public name, but not the submodules bound as attributes.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
__version__ = "0.1.0"
