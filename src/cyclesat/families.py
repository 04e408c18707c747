"""Deterministic builders for the saturated/semisaturated graph families.

Four families are exposed, named as in the CLI:

* ``h1``     -- the saturated family: two overlapping near-cliques (edge
  b1b2 removed) carrying pendant vertices, plus t internally disjoint
  a1-a2 paths of length k-3.
* ``wheel``  -- hub joined to a (k-1)-cycle rim, plus r pendant spikes.
* ``h2``     -- a suitable core graph plus t disjoint a1-a2 paths of
  length k-2.
* ``h3``     -- a suitable core plus t disjoint a1-a2 paths of length k-4,
  then pendant spikes matched onto the path interiors.

Vertex numbering is fixed in block order (core/cluster first, then path
blocks, then pendants, indices ascending within blocks), so rebuilding
with equal parameters yields an identical graph, not merely an isomorphic
one.
"""

from __future__ import annotations

from math import comb

from .graphs import Graph, LabeledGraph, _check_int
from .saturation import is_semisaturated
from .suitability import SuitabilityReport, is_k_suitable, is_kk2_suitable


class ConstructionParamError(ValueError):
    """Parameters outside a family's valid regime."""


class UnsuitableCoreError(ValueError):
    """Core graph failed its suitability precondition."""


class ConstructionPostconditionError(RuntimeError):
    """A built graph failed its own verification."""


Labels = dict[str, int | tuple[int, ...]]


def _path_blocks(
    edges: list[tuple[int, int]],
    labels: Labels,
    a1: int,
    a2: int,
    first: int,
    t: int,
    size: int,
) -> list[int]:
    """Add t internally disjoint a1-a2 paths through ``size`` new vertices each.

    Block alpha is ``first + alpha*size, ...``, labelled ``R<alpha+1>`` and
    joined as a1, block..., a2.  Returns the interior vertices in order.
    """
    for alpha in range(t):
        block = tuple(range(first + alpha * size, first + (alpha + 1) * size))
        labels[f"R{alpha + 1}"] = block
        edges.append((a1, block[0]))
        edges += list(zip(block, block[1:]))
        edges.append((block[-1], a2))
    return list(range(first, first + t * size))


def _verified(family: str, graph: Graph, labels: Labels, k: int) -> LabeledGraph:
    """The built graph with its labels; raises unless it is semisaturated for k."""
    if not is_semisaturated(graph, k, want_certificate=False).holds:
        raise ConstructionPostconditionError(
            f"{family} output on {graph.n} vertices is not semisaturated for k={k}"
        )
    return LabeledGraph(graph, labels)


def _require_suitable(report: SuitabilityReport) -> None:
    if not report.suitable:
        raise UnsuitableCoreError(
            f"core is not {report.mode} for k={report.k}: {report.summary()}"
        )


def h1_decompose(k: int, n: int) -> tuple[int, int]:
    """Split n as (k-1) + r + t(k-4) with t >= 1 and 0 <= r <= k-5."""
    _check_int(k, "k")
    _check_int(n, "n")
    if k < 7:
        raise ConstructionParamError(f"family h1 needs k >= 7, got k={k}")
    if n < 2 * k - 5:
        raise ConstructionParamError(
            f"family h1 needs n >= 2k-5 = {2 * k - 5}, got n={n}"
        )
    t, r = divmod(n - (k - 1), k - 4)
    return t, r


def build_h1(k: int, n: int) -> LabeledGraph:
    """The C_k-saturated family member on n vertices.

    Blocks: A = {a1, a2}, B = {b1, b2}, C (k-5 vertices), D (r pendants),
    and t path blocks R_alpha of k-4 vertices each.  Edges: all pairs
    inside C u B except b1b2, all pairs inside A u B except b1b2, pendant
    edges c_i d_i, and per block the path a1, r_a1, ..., r_a(k-4), a2.
    """
    t, r = h1_decompose(k, n)
    a1, a2, b1, b2 = 0, 1, 2, 3
    c = tuple(range(4, 4 + (k - 5)))
    d = tuple(range(4 + (k - 5), 4 + (k - 5) + r))
    edges: list[tuple[int, int]] = []
    cb = (b1, b2) + c
    for i, u in enumerate(cb):
        for v in cb[i + 1 :]:
            if (u, v) != (b1, b2):
                edges.append((u, v))
    edges += [(a1, a2), (a1, b1), (a1, b2), (a2, b1), (a2, b2)]
    edges += [(c[i], d[i]) for i in range(r)]
    labels: Labels = {
        "a1": a1,
        "a2": a2,
        "A": (a1, a2),
        "B": (b1, b2),
        "C": c,
        "D": d,
        "Q": (a1, a2, b1, b2) + c + d,
    }
    _path_blocks(edges, labels, a1, a2, (k - 1) + r, t, k - 4)
    graph = Graph(n, edges)
    assert graph.edge_count == comb(k - 3, 2) + 4 + r + t * (k - 3)
    return LabeledGraph(graph, labels)


def build_wheel(k: int, r: int) -> LabeledGraph:
    """Wheel with spikes: hub a1 joined to rim cycle a2..ak, spike d_i at a_i.

    k + r vertices and 2k - 2 + r edges; spikes attach to a1, ..., a_r in
    index order (the first spike hangs off the hub).
    """
    _check_int(k, "k")
    _check_int(r, "r")
    if k < 4:
        raise ConstructionParamError(f"wheel needs k >= 4, got k={k}")
    if not 0 <= r <= k:
        raise ConstructionParamError(f"wheel needs 0 <= r <= k, got r={r}")
    edges = [(0, i) for i in range(1, k)]
    edges += [(i, i + 1) for i in range(1, k - 1)]
    edges.append((1, k - 1))
    edges += [(i, k + i) for i in range(r)]
    labels: Labels = {"a1": 0, "a2": 1, "hub": 0, "D": tuple(range(k, k + r))}
    graph = Graph(k + r, edges)
    assert graph.edge_count == 2 * k - 2 + r
    return LabeledGraph(graph, labels)


def build_h2(core: LabeledGraph, k: int, t: int) -> LabeledGraph:
    """Core plus t disjoint a1-a2 paths of length k-2 (k-3 new vertices each).

    The core must pass the plain suitability checks (UnsuitableCoreError
    otherwise), and the built graph must be semisaturated for k
    (ConstructionPostconditionError otherwise).
    """
    _check_int(k, "k")
    _check_int(t, "t")
    if k < 4:
        raise ConstructionParamError(f"family h2 needs k >= 4, got k={k}")
    if t < 0:
        raise ConstructionParamError(f"family h2 needs t >= 0, got t={t}")
    a1, a2 = core.special_pair()
    _require_suitable(is_k_suitable(core, k))
    q = core.graph.n
    edges = list(core.graph.edges)
    labels: Labels = {"a1": a1, "a2": a2, "Q": tuple(range(q))}
    _path_blocks(edges, labels, a1, a2, q, t, k - 3)
    graph = Graph(q + t * (k - 3), edges)
    assert graph.edge_count == core.graph.edge_count + t * (k - 2)
    return _verified("h2", graph, labels, k)


def build_h3(core: LabeledGraph, k: int, t: int, r: int) -> LabeledGraph:
    """Core plus t disjoint a1-a2 paths of length k-4, plus pendant spikes.

    Each path block holds k-5 interior vertices; t(k-5) - r pendant spikes
    are matched onto the interiors, skipping the r highest-indexed interior
    vertices of the last blocks.  The core must pass the extended
    suitability checks; the built graph is verified as in ``build_h2``.
    """
    _check_int(k, "k")
    _check_int(t, "t")
    _check_int(r, "r")
    if k < 6:
        raise ConstructionParamError(f"family h3 needs k >= 6, got k={k}")
    if t < 2:
        raise ConstructionParamError(f"family h3 needs t >= 2, got t={t}")
    if not 0 <= r < 2 * k - 10:
        raise ConstructionParamError(
            f"family h3 needs 0 <= r < 2k-10 = {2 * k - 10}, got r={r}"
        )
    a1, a2 = core.special_pair()
    _require_suitable(is_kk2_suitable(core, k))
    q = core.graph.n
    edges = list(core.graph.edges)
    labels: Labels = {"a1": a1, "a2": a2, "Q": tuple(range(q))}
    interior = _path_blocks(edges, labels, a1, a2, q, t, k - 5)
    spikes = t * (k - 5) - r
    d_base = q + t * (k - 5)
    labels["D"] = tuple(range(d_base, d_base + spikes))
    edges += [(interior[j], d_base + j) for j in range(spikes)]
    graph = Graph(d_base + spikes, edges)
    assert graph.edge_count == core.graph.edge_count + t * (2 * k - 9) - r
    return _verified("h3", graph, labels, k)
