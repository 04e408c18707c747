"""Exact minimum edge counts of (semi)saturated graphs at desk scale.

Isomorphism classes of n-vertex graphs are generated level by level: level
m+1 extends the representative of every class of level m by its non-edges
and deduplicates the children on codes.  Levels are labeled by the
refinement labeling of ``graphs._refined_code``, much cheaper than the
minimal code on sparse graphs.  A level is the sorted refined codes of its
classes; a code is its class's refined form, row by row, which
``graphs._graph_from_code`` rebuilds to extend or scan the class.  A
search builds its levels once, in order (``class_levels``), and frees them
when it returns.  The minimal code (``canonical_code``) only picks and
relabels the witness of a stratum, so results do not depend on the level
labeling.

Isomorphs are rejected before labeling by the canonical-deletion test of
McKay's canonical augmentation (J. Algorithms 1998), done by invariant: a
child g + uv is labeled only when uv is a *top edge* of the child, one whose
isomorphism-invariant key (endpoint colours under one round of degree
refinement, then triangle count) is the largest of any of its edges.  No
class is lost:

- every graph h with at least one edge has a top edge f;
- h - f is isomorphic to a representative P of the level below, which is
  complete by induction;
- the isomorphism takes f to a non-edge e of P, and P + e is isomorphic to h;
- e is a top edge of P + e because the key is invariant, so h is generated.

Isomorphic children share a code, so a level does not depend on which came first.

The test is evaluated as a cascade that stops at the first deciding step,
and each early exit gives the verdict of comparing all full keys.  Colours
compare degree first, a key starts with its larger endpoint colour, and d is
the larger degree of u and v:

- a vertex of degree above d has an edge whose key starts with a colour
  above both colours of uv, so uv is not top;
- otherwise every vertex of degree below d has a colour below
  top = max(colour u, colour v), whose degree is d, so only the degree-d
  vertices are coloured; one coloured above top has an edge whose key
  starts above uv's;
- otherwise no colour exceeds top, so every edge with no endpoint coloured
  top has a smaller key than uv, and uv is top exactly when no edge at a
  vertex coloured top has a larger (other colour, triangle count) pair.

The other half of canonical augmentation prunes before the test: a parent P
is extended by one non-edge per orbit of Aut(P), generated by the
automorphisms that P's own labeling reports (``graphs._refined_code``
argues that they generate the whole group).  Nothing is lost or changed:

- each generator is an automorphism, so the children P + e for the non-edges
  e of one orbit are isomorphic;
- the top-edge key is invariant, so the orbit's representative passes the
  top-edge test exactly when every member of its orbit does;
- a class is stored as its refined code, so the levels and their order are
  the same whichever member is extended.

The levels do not depend on the group being whole; that only matters for
speed, as a smaller group would leave more orbits, whose children merge on codes.
The generators are kept only for the level last built, the parents of the next.

The same generator builds the levels of a hereditary class, the C_k-free
graphs (``free_of=k``): a child g + uv whose top-edge test passes is then
kept only when g has no u-v path of k - 1 edges.  That is one path query
per child that passes the test, made after it because the test rejects
most children more cheaply.  Every new k-cycle of g + uv runs through uv,
so the kept children of a C_k-free parent are exactly its C_k-free ones,
and no C_k-free class is lost:

- deleting an edge keeps a graph C_k-free, so for a C_k-free class h with
  top edge f, h - f is C_k-free and, by induction, isomorphic to a
  representative P of the filtered level below;
- the isomorphism takes f to a non-edge e = uv of P, and P + e is
  isomorphic to h, so it has no k-cycle and P has no u-v path of k - 1
  edges;
- the representative of e's orbit passes the top-edge test as before, and,
  as the image of e under an automorphism of P, it has no such path
  either, so h is generated.

The filtered levels are the unfiltered ones restricted to C_k-free classes,
with the same codes; ``ssat`` and the miner scan the unfiltered levels.

The search scans edge counts upward from the best applicable lower bound,
verifying connected classes only (adding any non-edge between components
creates no cycle, so a disconnected graph cannot be semisaturated).  A
stratum is scanned whole, and its witness is the passing class with the
least minimal code, in its minimal-code form.  A ``sat`` search scans the
C_k-free levels only.  This cannot move its value or its witness: every
C_k-saturated class is C_k-free, so every stratum still holds every class
that passes, and the least minimal code among them still wins; only the
``examined`` count shrinks.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from itertools import islice
from math import comb
from pathlib import Path
from typing import Callable, Iterator

from .bounds import eval_bounds
from .codec import graph6_encode
from .cycles import _check_cycle_length, exists_path_of_length
from .graphs import (
    Graph,
    Permutation,
    _check_codable,
    _graph_from_code,
    _refined_code,
    canonical_code,
)
from .saturation import is_saturated, is_semisaturated

DEFAULT_CEILING = {"sat": 8, "ssat": 9}

Level = list[bytes]


class CeilingExceeded(ValueError):
    """Requested n above the configured enumeration ceiling."""


class GenerationTimeout(Exception):
    """Deadline hit while building enumeration levels."""


def _is_top_edge(adj: list[int], u: int, v: int) -> bool:
    """Whether edge uv has the largest invariant key of any edge.

    An edge's key is its two endpoint colours, sorted, then its triangle
    count; a vertex's colour is its degree and the sorted degrees of its
    neighbours.  Every part is preserved by isomorphisms, so an isomorphism
    maps top edges onto top edges.

    The keys are compared in a cascade that stops at the first deciding
    step (the module docstring argues that each exit gives the full-key
    verdict): degrees first, then the colours of the vertices of uv's
    degree, then the keys of the edges at the vertices of uv's top colour.
    """
    deg = [a.bit_count() for a in adj]
    d = max(deg[u], deg[v])
    if max(deg) > d:
        return False
    vertices = range(len(adj))
    colours: dict[int, tuple[int, list[int]]] = {}

    def colour(w: int) -> tuple[int, list[int]]:
        if w not in colours:
            a = adj[w]
            colours[w] = (deg[w], sorted([deg[x] for x in vertices if a >> x & 1]))
        return colours[w]

    top, low = sorted((colour(u), colour(v)), reverse=True)
    peak = []
    for w in vertices:
        if deg[w] == d:
            c = colour(w)
            if c > top:
                return False
            if c == top:
                peak.append(w)
    # Every colour is now at most top, so an edge xy at a peak vertex x has
    # the key (top, colour(y), triangles), and an edge at no peak vertex is
    # below uv; a neighbour of lower degree than low has a lower colour.
    bound = (low, (adj[u] & adj[v]).bit_count())
    return all(
        (colour(y), (adj[x] & adj[y]).bit_count()) <= bound
        for x in peak
        for y in vertices
        if adj[x] >> y & 1 and deg[y] >= low[0]
    )


def _orbit_representatives(
    g: Graph, generators: list[Permutation]
) -> list[tuple[int, int]]:
    """The least non-edge of each orbit of the group that ``generators`` spans.

    Automorphisms map non-edges to non-edges, so each orbit is closed by
    applying the generators until nothing new appears.
    """
    seen: set[tuple[int, int]] = set()
    reps = []
    for e in g.non_edges():
        if e in seen:
            continue
        reps.append(e)
        seen.add(e)
        todo = [e]
        while todo:
            u, v = todo.pop()
            for p in generators:
                a, b = p[u], p[v]
                f = (a, b) if a < b else (b, a)
                if f not in seen:
                    seen.add(f)
                    todo.append(f)
    return reps


def class_levels(
    n: int, deadline: float | None = None, *, free_of: int | None = None
) -> Iterator[Level]:
    """Yield the levels m = 0, 1, ..., C(n, 2) of n-vertex graphs, one class per code.

    Each level is the sorted refined codes of the classes with m edges (with
    ``free_of=k``, only those with no k-cycle), built from the one before;
    a code decodes to its class's refined form (``graphs._graph_from_code``).
    A parent is extended once per orbit of its automorphism group on its
    non-edges; only the current parents' generators are kept.  Raises
    GenerationTimeout(m) when the deadline passes while level m is built,
    and GraphError when n is negative or above the 255 vertices a code
    holds.
    """
    _check_codable(n)
    if free_of is not None:
        _check_cycle_length(free_of)
    code, generators = _refined_code([0] * n)
    parents = {code: generators}
    for m in range(1, comb(n, 2) + 1):
        codes = sorted(parents)
        yield codes
        children: dict[bytes, list[Permutation]] = {}
        for parent in codes:
            if deadline is not None and time.monotonic() > deadline:
                raise GenerationTimeout(m)
            g = _graph_from_code(parent)
            for u, v in _orbit_representatives(g, parents[parent]):
                adj = list(g.adj)
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                if _is_top_edge(adj, u, v) and (
                    free_of is None
                    or exists_path_of_length(g, u, v, free_of - 1) is None
                ):
                    code, child_generators = _refined_code(adj)
                    children.setdefault(code, child_generators)
        parents = children
    yield sorted(parents)


@dataclass(frozen=True)
class SearchStats:
    graphs_examined: int  # classes scanned, every stratum whole unless timed out
    elapsed: float
    generate_s: float  # building levels, summed over the strata scanned
    verify_s: float  # scanning them


@dataclass(frozen=True)
class OracleResult:
    n: int
    k: int
    mode: str  # "sat" | "ssat"
    status: str  # "exact" | "lower-bound-only"
    value: int  # exact minimum, or the proven floor when budget ran out
    witness: Graph | None
    stats: SearchStats


def _verifier(mode: str, k: int) -> Callable[[Graph], bool]:
    check = is_saturated if mode == "sat" else is_semisaturated
    return lambda g: check(g, k, want_certificate=False).holds


def _deadline(t0: float, budget_seconds: float | None) -> float | None:
    """The monotonic deadline of a time budget; None means no limit."""
    if budget_seconds is None:
        return None
    # NaN compares false with everything, so a NaN deadline would never pass.
    if not budget_seconds >= 0:
        raise ValueError(
            f"time budget must be a non-negative number of seconds, got {budget_seconds}"
        )
    return t0 + budget_seconds


def search_stratum(
    level: Level, passes: Callable[[Graph], object], deadline: float | None = None
) -> tuple[Graph | None, int, bool]:
    """Scan one edge-count stratum; returns (witness, examined, timed_out).

    A connected class g of ``level`` passes when ``passes(g)`` is true.  The
    witness is the form written as the least minimal code (``canonical_code``)
    of any passer, so it does not depend on how the levels are labeled, or
    None when none passes.  ``examined`` counts the classes scanned, the
    whole level unless the deadline hit, which is reported only through
    ``timed_out``.
    """
    examined = 0
    least: bytes | None = None
    for refined in level:
        if deadline is not None and time.monotonic() > deadline:
            return None, examined, True
        examined += 1
        g = _graph_from_code(refined)
        if g.is_connected() and passes(g):
            code = canonical_code(g)
            if least is None or code < least:
                least = code
    return (None if least is None else _graph_from_code(least)), examined, False


def scan_strata(
    n: int,
    floor: int,
    passes: Callable[[Graph], object],
    ceiling: int,
    budget_seconds: float | None,
    *,
    free_of: int | None = None,
) -> tuple[str, int, Graph | None, SearchStats]:
    """Scan edge counts upward to the first stratum with a passing class.

    Returns (status, m, witness, stats).  Only connected classes are tested
    with ``passes``, so the scan starts at max(n - 1, floor).  One
    ``class_levels`` run builds the levels (only the C_k-free classes when
    ``free_of=k``), and each stratum's level is scanned by
    ``search_stratum``; ``stats`` splits the time between the two.  Every
    stratum below the returned m was scanned whole, so with status
    ``"exact"`` m is the minimum and the witness a passer; a deadline hit in
    either part stops the scan with status ``"lower-bound-only"``, m a
    proven floor and no witness.  Raises CeilingExceeded when n is above
    ``ceiling``, and AssertionError when nothing passes up to C(n, 2).
    """
    if n > ceiling:
        raise CeilingExceeded(
            f"{n} vertices is above the ceiling {ceiling}; raise `ceiling` to allow"
        )
    t0 = time.monotonic()
    deadline = _deadline(t0, budget_seconds)
    examined_total = 0
    generate_s = verify_s = 0.0
    witness = None
    first = max(n - 1, floor)
    levels = islice(class_levels(n, deadline, free_of=free_of), first, None)
    for m in range(first, comb(n, 2) + 1):
        start = time.monotonic()
        try:
            level = next(levels)
        except GenerationTimeout:
            timed_out = True
            break
        finally:
            built = time.monotonic()
            generate_s += built - start
        witness, examined, timed_out = search_stratum(level, passes, deadline)
        verify_s += time.monotonic() - built
        examined_total += examined
        if timed_out or witness is not None:
            break
    else:
        raise AssertionError("edge-count scan exhausted without a passing graph")
    stats = SearchStats(examined_total, time.monotonic() - t0, generate_s, verify_s)
    return ("lower-bound-only" if timed_out else "exact"), m, witness, stats


def exact_min(
    n: int,
    k: int,
    mode: str,
    *,
    ceiling: int | None = None,
    budget_seconds: float | None = None,
) -> OracleResult:
    """Exact minimum edge count over n-vertex graphs passing the verifier.

    Scans edge counts upward from the bound-derived floor, so the first
    stratum with a passer gives the minimum; the witness is canonical and
    re-verified.  ``budget_seconds=None`` sets no time limit; a blown budget
    yields an explicit partial result (``status="lower-bound-only"``)
    instead of a wrong answer.
    """
    if mode not in DEFAULT_CEILING:
        raise ValueError(f"mode must be 'sat' or 'ssat', got {mode!r}")
    if not 3 <= k <= n:
        raise ValueError(f"need n >= k >= 3, got n={n}, k={k}")
    cap = DEFAULT_CEILING[mode] if ceiling is None else ceiling
    passes = _verifier(mode, k)
    status, m, witness, stats = scan_strata(
        n,
        eval_bounds(n, k).lower_floor(mode),
        passes,
        cap,
        budget_seconds,
        free_of=k if mode == "sat" else None,
    )
    assert witness is None or passes(witness)
    return OracleResult(n, k, mode, status, m, witness, stats)


# -- golden file -------------------------------------------------------------

GOLDEN_HEADER = ("n", "k", "mode", "value", "witness_graph6")


def _check_golden(path: str | Path) -> Path:
    """``path`` as a Path; ValueError unless it is a new, empty or golden file."""
    p = Path(path)
    if p.is_dir():
        raise ValueError(f"golden path is a directory: {p}")
    if not p.parent.is_dir():
        raise ValueError(f"golden file's directory not found: {p.parent}")
    if p.exists():
        with p.open(newline="") as fh:
            first = next(csv.reader(fh), None)
        if first is not None and tuple(first) != GOLDEN_HEADER:
            raise ValueError(f"golden file {p} starts with a foreign header {first}")
    return p


def append_golden(path: str | Path, result: OracleResult) -> None:
    """Append an exact oracle result to the golden CSV (header if new or empty)."""
    if result.status != "exact" or result.witness is None:
        raise ValueError("only exact results belong in the golden file")
    with _check_golden(path).open("a", newline="") as fh:
        writer = csv.writer(fh)
        # Append mode opens at the end, so position 0 means a new or empty file.
        if fh.tell() == 0:
            writer.writerow(GOLDEN_HEADER)
        writer.writerow(
            (
                result.n,
                result.k,
                result.mode,
                result.value,
                graph6_encode(result.witness),
            )
        )
