"""Exact minimum edge counts of (semi)saturated graphs at desk scale.

Isomorphism classes of n-vertex graphs are generated level by level: level
m+1 extends the canonical representative of every class of level m by every
non-edge and deduplicates the children on canonical codes.  Levels are
cached per vertex count for the session, sorted by code.

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

Children that pass the test and are still isomorphic share a canonical code
and are merged; the stored representative is the canonical form, so the
levels do not depend on which child came first.

The search scans edge counts upward from the best applicable lower bound,
verifying connected classes only (adding any non-edge between components
creates no cycle, so a disconnected graph cannot be semisaturated); for
k in {3, 4} the winning level is additionally swept to confirm no
disconnected graph passes.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable, TypeVar

from .bounds import eval_bounds
from .codec import graph6_encode
from .graphs import Graph, canonical_code, canonical_form_and_code
from .saturation import is_saturated, is_semisaturated

DEFAULT_CEILING = {"sat": 8, "ssat": 9}

_T = TypeVar("_T")

_LEVELS: dict[int, list[list[tuple[bytes, Graph]]]] = {}


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
    """
    deg = [a.bit_count() for a in adj]
    colour = [
        (deg[w], sorted(deg[x] for x in range(len(adj)) if a >> x & 1))
        for w, a in enumerate(adj)
    ]

    def key(a: int, b: int) -> tuple:
        ca, cb = colour[a], colour[b]
        return (max(ca, cb), min(ca, cb), (adj[a] & adj[b]).bit_count())

    top = key(u, v)
    return all(
        key(a, b) <= top
        for a, row in enumerate(adj)
        for b in range(a + 1, len(adj))
        if row >> b & 1
    )


def classes_with_edges(
    n: int, m: int, deadline: float | None = None
) -> list[tuple[bytes, Graph]]:
    """Canonical representatives of all n-vertex graphs with m edges.

    Sorted by canonical code.  Levels are built on demand and cached; a
    level interrupted by the deadline is discarded whole, so the cache only
    ever holds complete levels.
    """
    if not 0 <= m <= comb(n, 2):
        return []
    if n not in _LEVELS:
        empty = Graph(n, [])
        _LEVELS[n] = [[(canonical_code(empty), empty)]]
    levels = _LEVELS[n]
    while len(levels) <= m:
        nxt: dict[bytes, Graph] = {}
        for _, g in levels[-1]:
            if deadline is not None and time.monotonic() > deadline:
                raise GenerationTimeout(len(levels))
            for u, v in g.non_edges():
                adj = list(g.adj)
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                if _is_top_edge(adj, u, v):
                    h, code = canonical_form_and_code(g.with_edge(u, v))
                    nxt.setdefault(code, h)
        levels.append(sorted(nxt.items()))
    return list(levels[m])


@dataclass(frozen=True)
class SearchStats:
    graphs_examined: int
    classes_seen: int
    elapsed: float


@dataclass(frozen=True)
class OracleResult:
    n: int
    k: int
    mode: str  # "sat" | "ssat"
    status: str  # "exact" | "lower-bound-only"
    value: int  # exact minimum, or the proven floor when budget ran out
    witness: Graph | None
    stats: SearchStats


def _verifier(mode: str, k: int):
    if mode == "sat":
        return lambda g: is_saturated(g, k, want_certificate=False).holds
    if mode == "ssat":
        return lambda g: is_semisaturated(g, k, want_certificate=False).holds
    raise ValueError(f"mode must be 'sat' or 'ssat', got {mode!r}")


def _deadline(t0: float, budget_seconds: float | None) -> float | None:
    """The monotonic deadline of a time budget; None means no limit."""
    if budget_seconds is None:
        return None
    # NaN compares false with everything, so a NaN deadline would never pass.
    if not budget_seconds >= 0:
        raise ValueError(
            f"budget_seconds must be a non-negative number, got {budget_seconds}"
        )
    return t0 + budget_seconds


def search_stratum(
    n: int, m: int, accept: Callable[[Graph], _T | None], deadline: float | None = None
) -> tuple[_T | None, int, bool]:
    """Scan one edge-count stratum; returns (accepted, examined, timed_out).

    Connected classes come in ascending canonical-code order, and the first
    one for which ``accept`` returns something other than None gives the
    result.  A deadline hit, while the level is generated or while it is
    scanned, is reported only through ``timed_out``.
    """
    examined = 0
    try:
        stratum = classes_with_edges(n, m, deadline=deadline)
    except GenerationTimeout:
        return None, examined, True
    for _, g in stratum:
        if deadline is not None and time.monotonic() > deadline:
            return None, examined, True
        examined += 1
        if g.is_connected():
            found = accept(g)
            if found is not None:
                return found, examined, False
    return None, examined, False


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
    if n > cap:
        raise CeilingExceeded(f"n={n} above ceiling {cap}; raise `ceiling` to allow")
    t0 = time.monotonic()
    deadline = _deadline(t0, budget_seconds)
    passes = _verifier(mode, k)
    floor = max(n - 1, eval_bounds(n, k).lower_floor(mode))
    examined_total = 0
    classes_total = 0

    def result(status: str, m: int, witness: Graph | None) -> OracleResult:
        stats = SearchStats(examined_total, classes_total, time.monotonic() - t0)
        return OracleResult(n, k, mode, status, m, witness, stats)

    for m in range(floor, comb(n, 2) + 1):
        witness, examined, timed_out = search_stratum(
            n, m, lambda g: g if passes(g) else None, deadline
        )
        examined_total += examined
        if timed_out:
            return result("lower-bound-only", m, None)
        classes_total += len(classes_with_edges(n, m))
        if witness is not None:
            if k in (3, 4):
                # Connectivity of semisaturated graphs is immediate for
                # k >= 5; for k in {3, 4} we verify instead of assume.
                for _, g in classes_with_edges(n, m):
                    if not g.is_connected() and passes(g):
                        raise AssertionError(
                            f"disconnected {g!r} passes {mode} at k={k}; verifier broken"
                        )
            assert passes(witness)
            return result("exact", m, witness)
    raise AssertionError("edge-count scan exhausted without a passing graph")


# -- golden file -------------------------------------------------------------

GOLDEN_HEADER = ("n", "k", "mode", "value", "witness_graph6")


def append_golden(path: str | Path, result: OracleResult) -> None:
    """Append an exact oracle result to the golden CSV (header if new)."""
    if result.status != "exact" or result.witness is None:
        raise ValueError("only exact results belong in the golden file")
    p = Path(path)
    new = not p.exists()
    with p.open("a", newline="") as fh:
        writer = csv.writer(fh)
        if new:
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
