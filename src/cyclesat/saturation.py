"""Verifiers for cycle-freeness, saturation and semisaturation.

A graph is C_k-saturated when it has no k-cycle but every added non-edge
creates one, and C_k-semisaturated when every added non-edge creates a new
k-cycle (k-cycles may already be present).  Any k-cycle created by adding
uv must traverse uv, so semisaturation is equivalent to: every non-edge uv
admits a u-v path of exactly k-1 edges.  That path criterion is what the
checkers run; it is exponentially cheaper than counting cycle copies.

Leaf lemma.  Let G be connected, k >= 4, L the leaves (degree-1 vertices)
of G and H = G - L.  A leaf is interior to no path, so the paths between
vertices of H are those of H.  Leaf rule: if G is C_k-semisaturated, no two
leaves share a neighbour (their only path has 2 edges), and the neighbour w
of a leaf has degree at least 3 (else the leaf reaches w's other neighbour
only by a 2-edge path); so H is leafless and each carrier w (a neighbour of
a leaf) carries one leaf.  Reduced test: when no two leaves share a
neighbour, the non-edges of G are those of H, the pairs of a leaf and a
vertex of H other than its carrier, and the pairs of leaves.  So G is
C_k-semisaturated exactly when (a) H is, (b) every carrier has a path of
k-2 edges in H to every other vertex of H, and (c) every two carriers have
a path of k-3 edges in H between them.  An H with fewer than k vertices
has no path of k-1 edges, so it passes (a) only when it is complete.

Also here: the X/Y/Z degree partition, the structural claims that read it,
and a greedy generator of saturated instances for property testing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .cycles import (
    _expansions,
    _search_path,
    exists_path_of_length,
    has_cycle_of_length,
    paths_of_length,
    shortest_cycle_through,
)
from .graphs import Graph, _check_int, _iter_bits, _within


class TooFewVertices(ValueError):
    """Saturation is undefined on graphs with fewer than k vertices."""


class CertificateError(ValueError):
    """Malformed certificate text; the message names the line or header."""


# -- certificates ---------------------------------------------------------


# Header keys of a certificate; None marks an integer value.
_HEADER_VALUES = {
    "n": None,
    "k": None,
    "mode": ("saturated", "semisaturated"),
    "freeness": ("confirmed",),
}


@dataclass(frozen=True)
class Certificate:
    """Machine-checkable evidence of (semi)saturation.

    One witness k-cycle per non-edge, each using its non-edge.  The mode is
    the claim: a saturated certificate also claims that the graph itself is
    k-cycle-free, and its text carries the header ``freeness confirmed``.
    """

    n: int
    k: int
    mode: str  # "saturated" | "semisaturated"
    per_nonedge: dict[tuple[int, int], tuple[int, ...]]

    def validate(self, G: Graph) -> list[str]:
        """Re-check every claim against ``G``; returns problem descriptions."""
        problems: list[str] = []
        if self.mode not in _HEADER_VALUES["mode"]:
            problems.append(f"unknown mode {self.mode!r}")
        if self.n != G.n:
            problems.append(f"certificate is for n={self.n}, graph has n={G.n}")
            return problems
        if self.k < 3 or G.n < self.k:
            problems.append(f"no {self.k}-cycle fits in a graph on {G.n} vertices")
            return problems
        non_edges = G.non_edges()
        if sorted(self.per_nonedge) != non_edges:
            problems.append("non-edge set of certificate differs from graph")
        for (u, v), cyc in self.per_nonedge.items():
            if not all(0 <= x < G.n for x in (u, v, *cyc)):
                problems.append(f"line for ({u}, {v}) names a vertex outside 0..{G.n - 1}")
                continue
            if G.has_edge(u, v):
                problems.append(f"({u}, {v}) is an edge, not a non-edge")
                continue
            if len(cyc) != self.k:
                problems.append(f"witness for ({u}, {v}) has length {len(cyc)}")
                continue
            if u not in cyc or v not in cyc:
                problems.append(f"witness for ({u}, {v}) misses an endpoint")
                continue
            i, j = cyc.index(u), cyc.index(v)
            if (j - i) % self.k not in (1, self.k - 1):
                problems.append(f"witness for ({u}, {v}) does not use the non-edge")
                continue
            # k >= 3 vertices, all distinct, each cyclic step an edge of G or uv.
            steps = zip(cyc, cyc[1:] + cyc[:1])
            if len(set(cyc)) != len(cyc) or not all(
                G.has_edge(a, b) or {a, b} == {u, v} for a, b in steps
            ):
                problems.append(f"witness for ({u}, {v}) is not a cycle of G+uv")
        if self.mode == "saturated" and has_cycle_of_length(G, self.k) is not None:
            problems.append("graph contains a k-cycle despite freeness claim")
        return problems

    def to_text(self) -> str:
        lines = [f"n {self.n}", f"k {self.k}", f"mode {self.mode}"]
        if self.mode == "saturated":
            lines.append("freeness confirmed")
        for (u, v), cyc in sorted(self.per_nonedge.items()):
            lines.append(f"{u} {v} : {' '.join(str(c) for c in cyc)}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "Certificate":
        """Parse ``to_text`` output; raises CertificateError naming the line."""
        header: dict[str, int | str] = {}
        per: dict[tuple[int, int], tuple[int, ...]] = {}
        for lineno, ln in enumerate(text.splitlines(), 1):
            ln = ln.strip()
            try:
                if ":" in ln:
                    pair, _, cyc = ln.partition(":")
                    u, v = (int(x) for x in pair.split())
                    if (u, v) in per:
                        raise ValueError(f"repeated non-edge ({u}, {v})")
                    per[(u, v)] = tuple(int(x) for x in cyc.split())
                elif ln:
                    key, _, val = ln.partition(" ")
                    val = val.strip()
                    if key not in _HEADER_VALUES:
                        raise ValueError(f"unknown header {key!r}")
                    if key in header:
                        raise ValueError(f"repeated header {key!r}")
                    choices = _HEADER_VALUES[key]
                    if choices and val not in choices:
                        raise ValueError(f"unknown {key} {val!r}")
                    header[key] = val if choices else int(val)
            except ValueError as exc:
                raise CertificateError(f"line {lineno}: {ln!r}: {exc}") from exc
        for key in ("n", "k", "mode"):
            if key not in header:
                raise CertificateError(f"missing header {key!r}")
        if ("freeness" in header) != (header["mode"] == "saturated"):
            need = "needs" if header["mode"] == "saturated" else "takes no"
            raise CertificateError(f"mode {header['mode']} {need} header 'freeness confirmed'")
        return cls(header["n"], header["k"], header["mode"], per)


# -- verdicts --------------------------------------------------------------


@dataclass(frozen=True)
class SaturationVerdict:
    holds: bool
    certificate: Certificate | None = None
    failing_nonedge: tuple[int, int] | None = None
    cycle: tuple[int, ...] | None = None  # set when a freeness check failed

    def __bool__(self) -> bool:
        return self.holds


def is_ck_free(G: Graph, k: int) -> SaturationVerdict:
    """Holds iff the graph has no cycle on exactly ``k`` vertices."""
    found = has_cycle_of_length(G, k)
    return SaturationVerdict(found is None, cycle=found)


def _nonedge_paths(G: Graph, length: int):
    """Each non-edge (u, v), u < v, in order, with its first path of ``length`` edges or None.

    Each u asks ``paths_of_length`` for all its v (a single v: ``exists_path_of_length``).
    """
    for u in range(G.n):
        later = list(_iter_bits(((1 << G.n) - (2 << u)) & ~G.adj[u]))
        if len(later) == 1:
            yield u, later[0], exists_path_of_length(G, u, later[0], length)
        elif later:
            found = paths_of_length(G, u, later, length)
            for v in later:
                yield u, v, found.get(v)


def is_semisaturated(G: Graph, k: int, want_certificate: bool = True) -> SaturationVerdict:
    """Every non-edge uv admits a u-v path of exactly k-1 edges.

    Fails on the first (lexicographically) failing non-edge.  One route
    (``_nonedge_paths``) serves verdicts and certificates: one query per u,
    default budget, for every non-edge uv with v > u; a failing check stops
    after the first u with one.  ``want_certificate`` keeps the witness paths.
    """
    _check_int(k, "cycle length", 3)
    if G.n < k:
        raise TooFewVertices(f"impossible: {G.n} vertices cannot host a {k}-cycle")
    per: dict[tuple[int, int], tuple[int, ...]] = {}
    for u, v, path in _nonedge_paths(G, k - 1):
        if path is None:
            return SaturationVerdict(False, failing_nonedge=(u, v))
        per[(u, v)] = path
    if not want_certificate:
        return SaturationVerdict(True)
    return SaturationVerdict(True, certificate=Certificate(G.n, k, "semisaturated", per))


def is_saturated(G: Graph, k: int, want_certificate: bool = True) -> SaturationVerdict:
    """C_k-free and C_k-semisaturated.

    The semisaturation side runs first because it fails fast on sparse
    graphs; the conjunction is unchanged.
    """
    semi = is_semisaturated(G, k, want_certificate=want_certificate)
    if not semi.holds:
        return semi
    freeness = is_ck_free(G, k)
    if not freeness.holds or semi.certificate is None:
        return freeness
    per = semi.certificate.per_nonedge
    return SaturationVerdict(True, certificate=Certificate(G.n, k, "saturated", per))


# -- degree partition ------------------------------------------------------


@dataclass(frozen=True)
class DegreePartition:
    """The paper's three parts X, Y and Z, which the structural claims split by degree.

    X is the degree-one vertices, Y their neighbours outside X, Z the rest.
    """

    x: frozenset[int]
    y: frozenset[int]
    z: frozenset[int]


def degree_partition(G: Graph) -> DegreePartition:
    x = frozenset(v for v in range(G.n) if G.degree(v) == 1)
    y = frozenset(w for v in x for w in G.neighbors(v)) - x
    return DegreePartition(x, y, frozenset(range(G.n)) - x - y)


# -- structural checks ------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    check: str
    detail: str


@dataclass(frozen=True)
class StructureReport:
    checks_run: tuple[str, ...]
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


LEAF_CHECKS = ("i", "ii", "iii")
SATURATED_CHECKS = ("iv", "v", "vi")
_CHECK_NAMES = LEAF_CHECKS + SATURATED_CHECKS + ("cycle-cover",)


def check_structure(
    G: Graph, k: int, checks: Iterable[str] = LEAF_CHECKS + SATURATED_CHECKS
) -> StructureReport:
    """Run named structural checks and report violations.

    The caller picks the claim set: checks "i"-"iii" are expected of
    semisaturated graphs (k >= 5), "iv"-"vi" of saturated graphs (k >= 5),
    and "cycle-cover" of semisaturated graphs with minimum degree 2 (every
    vertex on a cycle of length at most k+1).  Nothing is assumed about the
    input; a violation on a graph that was claimed saturated falsifies
    either the claim or the implementation.  ``checks`` is read once; a
    string or an unknown name is refused before any claim runs.

    With X, Y and Z the parts of ``degree_partition``, Y3 and Y4+ the
    vertices of Y of degree 3 and at least 4, and Z2 and Z3+ those of Z of
    degree 2 and at least 3, the claims are: i, no two vertices of X share
    a neighbour; ii, Y has no vertex of degree below 3; iii, G - v is
    C_k-semisaturated for every v in X; iv, every neighbour of a vertex of
    Z2 lies in Z; v, a vertex of Y3 has no neighbour in Y3 or Y4+, one in X
    and two in Z3+; vi, each component of G[Z2] is a path of at most k - 2
    edges.

    Claim iii needs n > k: G - v has n - 1 vertices, and no graph on fewer
    than k vertices is C_k-semisaturated.  At n = k the C_k-semisaturated
    graphs with a leaf are K_{k-1} plus one leaf, such as ``FJ\\~w`` (k = 7)
    and ``GJ\\z~{`` (k = 8), by the leaf lemma (module docstring): H passes
    (a) only when complete, and (b) then allows one leaf.  They report
    "removing leaf 0 drops below k vertices"; if a complete graph counts as
    vacuously semisaturated, claim iii holds there too.

    Check iii reads G itself: a leaf v is interior to no path, so G - v is
    semisaturated iff every non-edge of G that avoids v has a (k-1)-edge
    path in G, and one scan of G's non-edges serves every leaf.
    """
    _check_int(k, "cycle length", 3)
    if isinstance(checks, str):
        raise ValueError(f"checks must be a sequence of check names, got the string {checks!r}")
    checks = tuple(checks)
    for check in checks:
        if check not in _CHECK_NAMES:
            raise ValueError(f"unknown structural check {check!r}")
    part = degree_partition(G)
    violations = (
        Violation(check, detail) for check in checks for detail in _claim(G, k, part, check)
    )
    return StructureReport(checks, tuple(violations))


def _claim(G: Graph, k: int, part: DegreePartition, check: str) -> Iterator[str]:
    """The detail of each violation of the structural claim named ``check``."""
    if check == "i":
        seen: dict[int, int] = {}
        for v in sorted(part.x):
            w = G.neighbors(v)[0]
            if seen.setdefault(w, v) != v:
                yield f"leaves {seen[w]} and {v} share neighbor {w}"
    elif check == "ii":
        for w in sorted(part.y):
            if G.degree(w) < 3:
                yield f"leaf neighbor {w} has degree {G.degree(w)}"
    elif check == "iii":
        scan = _nonedge_paths(G, k - 1) if part.x and G.n > k else ()
        pathless = [(u, v) for u, v, path in scan if path is None]
        for v in sorted(part.x):
            if G.n <= k:
                yield f"removing leaf {v} drops below {k} vertices"
            elif any(v not in pair for pair in pathless):
                yield f"graph minus leaf {v} is not semisaturated"
    elif check == "iv":
        for v in sorted(v for v in part.z if G.degree(v) == 2):
            for w in G.neighbors(v):
                if w not in part.z:
                    yield f"degree-2 vertex {v} adjacent to {w}"
    elif check == "v":
        for v in sorted(v for v in part.y if G.degree(v) == 3):
            for w in G.neighbors(v):
                if w in part.y and G.degree(w) >= 3:
                    yield f"degree-3 leaf neighbor {v} adjacent to {w}"
            in_x = len(part.x.intersection(G.neighbors(v)))
            in_z3 = sum(w in part.z and G.degree(w) >= 3 for w in G.neighbors(v))
            if (in_x, in_z3) != (1, 2):
                yield f"vertex {v} has {in_x} leaf / {in_z3} core neighbors"
    elif check == "vi":
        # A vertex of Z2 has degree 2, so a component of G[Z2] is a path or
        # a cycle: a path exactly when it has one edge fewer than vertices.
        left = zone = sum(1 << v for v in part.z if G.degree(v) == 2)
        while left:
            mask = _within(G.adj, left & -left, zone, zone.bit_count())[-1]
            left &= ~mask
            comp = list(_iter_bits(mask))
            edges = sum((G.adj[v] & zone).bit_count() for v in comp) // 2
            if edges != len(comp) - 1:
                yield f"component {comp} of the degree-2 zone is not a path"
            elif edges > k - 2:
                yield f"degree-2 zone path {comp} has length {edges} > {k - 2}"
    elif check == "cycle-cover":
        for v in range(G.n):
            shortest = shortest_cycle_through(G, v)
            if shortest is None or shortest > k + 1:
                yield f"vertex {v} lies on no cycle of length <= {k + 1}"


def strip_leaves(G: Graph) -> tuple[Graph, int]:
    """Remove degree <= 1 vertices repeatedly; returns (core, removed count)."""
    full = live = (1 << G.n) - 1
    while low := [v for v in _iter_bits(live) if (G.adj[v] & live).bit_count() <= 1]:
        live ^= sum(1 << v for v in low)
    if live == full:
        return G, 0
    return G.induced(_iter_bits(live))[0], G.n - live.bit_count()


# -- generators --------------------------------------------------------------


def _swap_ends(adj: Sequence[int], path: Sequence[int], on: int, joined: list[int]) -> None:
    """Mark every pair joined by ``path`` with its two ends swapped.

    ``on`` is the mask of ``path``'s vertices.  For y beside x1 and y' beside
    x(L-1), both off the inner vertices x1..x(L-1) and y != y', the walk
    y, x1, ..., x(L-1), y' is a path of L edges.
    """
    inner = on ^ (1 << path[0]) ^ (1 << path[-1])
    heads = adj[path[1]] & ~inner
    tails = adj[path[-2]] & ~inner
    for y in _iter_bits(heads):
        joined[y] |= tails & ~(1 << y)
    for y in _iter_bits(tails):
        joined[y] |= heads & ~(1 << y)


def _mark_joined(adj: Sequence[int], path: Sequence[int], joined: list[int]) -> None:
    """Mark in ``joined`` the pairs that ``adj`` visibly joins like ``path``.

    ``path`` is x0, ..., xL with L >= 2 edges of ``adj``, and ``joined`` holds
    one symmetric bitmask per vertex.  Marked are the pairs of the end swap
    of ``path``, and of each path one Posa rotation makes of it: when xL is
    beside xi with i <= L-2, x0..xi, xL, x(L-1), ..., x(i+1) is a path of L
    edges too; the same holds with ``path`` reversed.
    """
    on = sum(1 << x for x in path)
    _swap_ends(adj, path, on, joined)
    for p in (path, path[::-1]):
        end = adj[p[-1]]
        for i in range(len(p) - 2):
            if end >> p[i] & 1:
                _swap_ends(adj, p[: i + 1] + p[:i:-1], on, joined)


def greedy_saturate(n: int, k: int, edge_order: Iterable[tuple[int, int]]) -> Graph:
    """Scan vertex pairs in the given order, keeping the graph C_k-free.

    A pair is added exactly when no path of k-1 edges currently joins it.
    The result is maximal C_k-free, hence C_k-saturated.  The graph grows in
    one adjacency list that the path kernel (``cycles._search_path``) reads
    directly, unchecked; the ``Graph`` is built once, at the end.

    The graph only gains edges, so a path of the current graph stays a path
    at every later pair: a pair it joins would be searched and found when
    its turn comes, and is skipped unsearched instead.  Each found path
    marks such pairs (``_mark_joined``): those of its end swap, where any
    neighbour of x1 and any other neighbour of x(L-1), both off x1..x(L-1),
    replace the ends, and those of the end swap after one Posa rotation at
    either end.  The returned graph is therefore the same, edge for edge,
    as with one search per pair.  A second rotation skips only about 3% more
    pairs, and what it saves in searches it spends in marking.
    """
    _check_int(n, "n")
    _check_int(k, "cycle length", 3)
    if n < k:
        raise TooFewVertices(f"need at least {k} vertices, got {n}")
    order = list(edge_order)
    if sorted(order) != list(combinations(range(n), 2)):
        raise ValueError("edge_order must be a permutation of all vertex pairs")
    adj = [0] * n
    joined = [0] * n
    kept = []
    budget = _expansions(None)  # the default, for each search
    for u, v in order:
        if joined[u] >> v & 1:
            continue
        found = _search_path(adj, n, u, 1 << v, k - 1, budget)[0]
        if found:
            _mark_joined(adj, found[v], joined)
        else:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            kept.append((u, v))
    return Graph(n, kept)
