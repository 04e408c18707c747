"""Exact-length simple path and cycle search.

This is the single search kernel behind every verifier in the package:
depth-first backtracking over simple paths out of a source u, taking
candidates in ascending vertex order, within the vertices a completion may
still use.  One search looks for a whole target set T at once.  A path of
the asked length that ends at a target of T records that target's witness,
the target leaves T, and the search stops when T is empty.  A one-target
search is a plain u-v query.  Four prunings act on per-vertex bitmasks:

* distance: the search keeps one BFS out of the set T in G - u, rebuilt
  only when T shrinks.  Its layer j is the union of the balls of radius j
  around the targets, so a node with r edges left takes only candidates
  within r - 1 edges of some target.  Every available set of the search
  lies inside V - u, so a distance in G - u is a lower bound on any
  distance a completion can use, and the filter drops only candidates with
  no completion to an unfound target;
* supply: at a node with r >= 8, a branch dies when the usable vertices
  (reachable from the current vertex and from the nearest available target
  within the budget, found by one BFS out of the target mask) cannot fill
  the path;
* twin skipping: once candidate w fails (T did not change while its
  subtree ran), a later candidate x at the same node with
  N(x) - {w} = N(w) - {x} is dropped when w and x are both in T or both
  out of it.  Swapping w and x is then an automorphism of the graph that
  fixes the current vertex, the available set and T as a set, so it maps
  any completion through x to a target of T onto one through w;
* edge retirement: when ``has_cycle_of_length`` finds no path closing the
  edge uv, no k-cycle passes through uv in this graph or any subgraph of
  it, so uv stays out of the graph for the later edges.

A target may be interior to a path to another target, except that the
only target of T still available on a branch is never taken as a
candidate there.  At r = 1 and r = 2 each target still in T and available
is tested in closed form: an adjacent target, or the least available
common neighbour.

Each pruning removes only branches without a completion to a target still
in T, and T only shrinks.  The DFS lists paths in lexicographic order, so
the first path it reaches a target by is that target's lexicographically
first path, whatever the other targets are.  Likewise the first edge in
``G.edges`` order that closes a k-cycle is the same with or without
retirement.  So the witnesses do not depend on which prunings run.  With
one target every step above is that of a plain u-v query, expansion for
expansion.

Two more steps make the usable set U, the vertices y with d(cur, y) +
d(y, T) <= r for budget r, cheap and change no answer.  Scope narrowing: a
node with r >= 8 hands each child w only U - {w}.  A vertex on a valid
completion through w meets that bound, and so does one on a shortest path
from w, or from T, to a vertex usable at w; so the child's completions,
usable set and target distances stay the same.  Target-first BFS: the BFS
out of cur keeps layer d only within r - d of T.  The predecessor of a
usable vertex on a shortest path from cur is usable too, so every usable
vertex is still reached at its true distance, and no other vertex passes
the filter.

U costs two BFS passes per node, and on shallow branches the distance
filter prunes nearly as much for one AND.  On the ``h1`` sweep for
k = 7..12, computing U from r >= 8 instead of r >= 4 takes a quarter off
the time.  From r >= 9 the sweep is a sixth slower than from 8, because the
deep branches of the k = 11, 12 queries need U.  From r >= 7 it is a few
percent faster, but certifying random greedy C_k-saturated graphs for
k = 5, 6, 8 takes a fifth longer, as every k = 8 cycle search then
computes U at its root.

The distance filter starts at length 4.  Lengths 1 and 2 answer at the
root and never read it.  At length 3 the BFS out of T costs more than the
closed-form children it saves: on the 801 length-3 queries of
``exact_min(8, 4, "sat")`` skipping it spends 1,785 expansions instead of
1,397, yet runs those queries about 15% faster (CPython 3.11).  The filter
is rebuilt whenever T shrinks: a stale one, built for a superset of T,
stays correct, but certifying the ``h1`` sweep (t = 1..5) then spends 41%
more expansions at k = 10 and 31% more at k = 11.

Witnesses are plain vertex tuples: a path lists its vertices from one end
to the other, and a k-cycle lists its k vertices in cyclic order with the
closing edge implied.

Exact-length path search is NP-hard in general, so a configurable node
expansion budget turns pathological inputs into an explicit error instead
of a hang.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import Graph, _within

# The budget when a caller passes None; a budget of 0 allows no expansion.
DEFAULT_EXPANSION_BUDGET = 10**8

# The least query length whose search builds the target-distance filter.
_NEAR_FROM = 4


class SearchBudgetExceeded(RuntimeError):
    """The expansion budget ran out before the search finished."""


def _expansions(budget: int | None) -> int:
    """The expansion budget a query may spend: None selects the default."""
    if budget is None:
        return DEFAULT_EXPANSION_BUDGET
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 0:
        raise ValueError(f"budget must be a non-negative int or None, got {budget!r}")
    return budget


def _check_cycle_length(k: int) -> None:
    """Raise ValueError unless ``k`` is an int (not a bool) of at least 3."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 3:
        raise ValueError(f"cycle length must be at least 3, got {k!r}")


def _usable(adj: Sequence[int], avail: int, cur: int, targets: int, remaining: int):
    """Vertices usable by some completion of the current branch.

    Returns the mask of the vertices whose distances from ``cur`` and to
    the nearest of ``targets`` through ``avail`` (which holds ``targets``
    but not ``cur``) sum to at most ``remaining``; 0 means every target is
    farther than that.
    """
    within = _within(adj, targets, avail, remaining - 1)
    # BFS out of cur keeping layer d inside within[remaining - d]; within[j] never
    # holds cur, so seen ends as the usable set (empty: the targets are too far).
    seen = 0
    frontier = 1 << cur
    for j in range(remaining - 1, -1, -1):
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= adj[low.bit_length() - 1]
            m ^= low
        frontier = nxt & within[j] & ~seen
        if not frontier:
            break
        seen |= frontier
    return seen


def _aim(adj: Sequence[int], todo: int, full: int, length: int):
    """The filters of a search out of u for the targets ``todo``; ``full`` is V - u.

    Returns ``beside``, the vertices adjacent to a target, and ``near``,
    whose entry j holds the vertices within j edges of a target in G - u.
    Every available set of the search lies inside V - u, so these
    distances bound those a completion can use.  Below length
    ``_NEAR_FROM``, ``near`` filters nothing.
    """
    beside = 0
    rest = todo
    while rest:
        low = rest & -rest
        rest ^= low
        beside |= adj[low.bit_length() - 1]
    if length < _NEAR_FROM:
        return beside, [full] * length
    return beside, _within(adj, todo, full, length - 1)


def _search_path(
    adj: Sequence[int], n: int, u: int, targets: int, length: int, left: int
) -> tuple[dict[int, tuple[int, ...]], int]:
    """The first path of ``length`` edges from u to each of ``targets``, and the expansions left.

    ``targets`` is a non-empty mask of vertices other than u.  The dict maps
    each target that some such path reaches to the lexicographically first
    one; a target with no such path is missing from it.  Raises
    SearchBudgetExceeded when the search needs more than ``left``.
    """
    found: dict[int, tuple[int, ...]] = {}
    path = [u]
    full = ((1 << n) - 1) ^ (1 << u)
    todo = targets  # the targets not found yet
    beside, near = _aim(adj, todo, full, length)

    def rec(cur: int, avail: int, remaining: int) -> bool:
        # Whether a target was found under this node.
        nonlocal left, todo, beside, near
        left -= 1
        if left < 0:
            raise SearchBudgetExceeded("node expansion budget exhausted")
        if remaining <= 2:
            if remaining == 1:
                hits = adj[cur] & todo & avail
                m = hits
                while m:
                    low = m & -m
                    m ^= low
                    t = low.bit_length() - 1
                    found[t] = (*path, t)
            else:
                # Midpoints in closed form: each available target takes the
                # least available common neighbor.
                mids = adj[cur] & avail & beside
                if not mids:
                    return False
                live = todo & avail
                hits = 0
                while mids:
                    low = mids & -mids
                    mids ^= low
                    w = low.bit_length() - 1
                    ends = adj[w] & live & ~hits
                    if ends:
                        hits |= ends
                        while ends:
                            tbit = ends & -ends
                            ends ^= tbit
                            t = tbit.bit_length() - 1
                            found[t] = (*path, w, t)
                        if hits == live:
                            break
            if not hits:
                return False
            todo ^= hits
            if todo:
                beside, near = _aim(adj, todo, full, length)
            return True
        if remaining >= 8:
            # Two BFS passes pay off only on deep branches (the module
            # docstring has the measurements); the children search inside
            # the usable set.
            avail = _usable(adj, avail, cur, todo & avail, remaining)
            if avail.bit_count() < remaining:
                return False
        # lone: the one target this branch can still end at, if only one is
        # left; it cannot be interior
        live = todo & avail
        m = adj[cur] & avail & near[remaining - 1] & ~(0 if live & (live - 1) else live)
        got = False
        while m:
            low = m & -m
            m ^= low
            w = low.bit_length() - 1
            path.append(w)
            if rec(w, avail ^ low, remaining - 1):
                if not todo:
                    return True
                # Targets were found under w: filter by those left.
                path.pop()
                got = True
                live = todo & avail
                if not live:
                    return True
                m &= near[remaining - 1] & ~(0 if live & (live - 1) else live)
                continue
            path.pop()
            # w failed, so every later twin x of w whose swap with w fixes
            # the targets fails too: drop them.
            aw = adj[w]
            rest = m
            while rest:
                xbit = rest & -rest
                rest ^= xbit
                pair = low | xbit
                if not (adj[xbit.bit_length() - 1] ^ aw) & ~pair and (todo & pair) in (0, pair):
                    m ^= xbit
        return got

    rec(u, full, length)
    return found, left


def exists_path_of_length(
    G: Graph, u: int, v: int, length: int, budget: int | None = None
) -> tuple[int, ...] | None:
    """A simple path with exactly ``length`` edges from ``u`` to ``v``.

    Returns the path's ``length + 1`` vertices in order from ``u`` to ``v``,
    or None when no such path exists.  Neighbors are explored in ascending
    vertex order, so the path is the lexicographically first one.

    ``budget`` caps the node expansions (None selects the default).  A bool,
    a non-int or a negative budget raises ValueError before anything else
    is looked at, and a bool or non-int u, v or length does so next;
    running out raises SearchBudgetExceeded.
    """
    left = _expansions(budget)
    for name, x in (("u", u), ("v", v), ("length", length)):
        if isinstance(x, bool) or not isinstance(x, int):
            raise ValueError(f"{name} must be an int, got {x!r}")
    if u == v:
        raise ValueError("path endpoints must be distinct")
    if not (0 <= u < G.n and 0 <= v < G.n):
        raise ValueError(f"endpoints ({u}, {v}) outside 0..{G.n - 1}")
    if length < 1:
        raise ValueError(f"path length must be positive, got {length}")
    if length > G.n - 1:
        return None
    return _search_path(G.adj, G.n, u, 1 << v, length, left)[0].get(v)


def has_cycle_of_length(G: Graph, k: int, budget: int | None = None) -> tuple[int, ...] | None:
    """A simple cycle on exactly ``k`` vertices, if any exists.

    Returns the cycle's ``k`` vertices in cyclic order, as a u-v path whose
    closing edge uv is implied, or None when G has no k-cycle.

    Scans edges in sorted order; for each edge uv, looks for a u-v path of
    length k-1 in the graph with uv removed (cleared in the working
    adjacency lists, not rebuilt).  The first hit, closed by uv, is the
    witness.  A miss proves uv lies on no k-cycle, so uv stays cleared and
    the later searches run on a sparser graph.  All edges share one
    ``budget``, checked as in ``exists_path_of_length``.
    """
    left = _expansions(budget)  # shared by all edges
    _check_cycle_length(k)
    if k > G.n:
        return None
    adj = list(G.adj)
    for u, v in G.edges:
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        found, left = _search_path(adj, G.n, u, 1 << v, k - 1, left)
        if found:
            return found[v]
    return None


def shortest_cycle_through(G: Graph, w: int) -> int | None:
    """Minimum length over all cycles containing ``w`` (None when acyclic at w).

    A shortest cycle through w is w plus two distinct neighbors joined by a
    shortest path avoiding w, so BFS from each neighbor in G - w suffices.
    """
    if not 0 <= w < G.n:
        raise ValueError(f"vertex {w} outside 0..{G.n - 1}")
    nbrs = G.neighbors(w)
    if len(nbrs) < 2:
        return None
    avail = ((1 << G.n) - 1) & ~(1 << w)
    best = G.n + 1
    for u in nbrs:
        # Neighbors of w above u; pairs below u were covered from their side.
        # Only a path of at most best - 3 edges gives a shorter cycle.
        later = G.adj[w] >> (u + 1) << (u + 1)
        for d, within in enumerate(_within(G.adj, 1 << u, avail, best - 3)):
            if within & later:
                best = d + 2
                break
    return None if best > G.n else best
