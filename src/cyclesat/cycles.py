"""Exact-length simple path and cycle search.

This is the single search kernel behind every verifier in the package:
depth-first backtracking over simple paths out of a source u, taking
candidates in ascending vertex order, within the vertices a completion may
still use.  One search looks for a whole target set T at once.  A path of
the asked length that ends at a target of T records that target's witness,
the target leaves T, and the search stops when T is empty; the public
door is ``paths_of_length``.  Four prunings act on per-vertex bitmasks:

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

The distance filter is built for every query, by one ``_within`` call out
of T, and no other mask aims at the targets: at r = 2 the closed form
takes its midpoints from layer 1, the targets and every vertex beside one.
A length-3 query pays for a two-layer BFS to prune its root.  On the 696
length-3 searches of ``exact_min(8, 4, "sat")`` the filter cuts the
expansions from 1,558 to 1,257, and their kernel time moves from
2.7-4.3 ms to 2.9-3.4 ms over five runs (CPython 3.11), against about
55 ms for the whole search.  The filter is rebuilt whenever T shrinks: a
stale one, built for a superset of T, stays correct, but certifying the
``h1`` sweep (t = 1..5) then spends 41% more expansions at k = 10 and 31%
more at k = 11.

Exact-length path search is NP-hard in general, so a configurable node
expansion budget turns pathological inputs into an explicit error instead
of a hang.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graphs import Graph, _check_int, _iter_bits, _within

# The budget when a caller passes None; a budget of 0 allows no expansion.
DEFAULT_EXPANSION_BUDGET = 10**8


class SearchBudgetExceeded(RuntimeError):
    """The expansion budget ran out before the search finished."""


def _expansions(budget: int | None) -> int:
    """The expansion budget a query may spend: None selects the default."""
    if budget is None:
        return DEFAULT_EXPANSION_BUDGET
    _check_int(budget, "budget", 0)
    return budget


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


def _search_path(
    adj: Sequence[int], n: int, u: int, targets: int, length: int, left: int
) -> tuple[dict[int, tuple[int, ...]], int]:
    """The first path of ``length`` edges from u to each of ``targets``, and the expansions left.

    ``targets`` is a non-empty mask of vertices other than u, and the dict
    is as in ``paths_of_length``.  Raises SearchBudgetExceeded when the
    search needs more than ``left``.
    """
    found: dict[int, tuple[int, ...]] = {}
    path = [u]
    full = ((1 << n) - 1) ^ (1 << u)
    todo = targets  # the targets not found yet
    # near[j]: the vertices within j edges of a target in G - u
    near = _within(adj, todo, full, length - 1)

    def rec(cur: int, avail: int, remaining: int) -> bool:
        # Whether a target was found under this node.
        nonlocal left, todo, near
        left -= 1
        if left < 0:
            raise SearchBudgetExceeded("node expansion budget exhausted")
        if remaining <= 2:
            if remaining == 1:
                hits = adj[cur] & todo & avail  # only a length-1 query gets here
                for t in _iter_bits(hits):
                    found[t] = (*path, t)
            else:
                # Midpoints in closed form: each available target takes the
                # least available common neighbor.  Layer 1 of the filter
                # holds the targets and every vertex beside one; a target
                # beside no other target gives no end.
                mids = adj[cur] & avail & near[1]
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
                near = _within(adj, todo, full, length - 1)
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


# On the h1 sweep of acceptance criterion 1, one search per source spends half
# the expansions of one per non-edge at k = 10, as many at k = 12 in a seventh
# less time, and an eighth more at k = 13 in a sixth more time: the distance
# filter and the usable set measure to the nearest unfound target.
_PER_SOURCE_UPTO = 11


def paths_of_length(
    G: Graph, u: int, targets: Iterable[int], length: int, budget: int | None = None
) -> dict[int, tuple[int, ...]]:
    """Each target's lexicographically first path of ``length`` edges from ``u``.

    Paths list their ``length + 1`` vertices from ``u``; a target with none
    is missing.  One search serves all targets up to ``_PER_SOURCE_UPTO``
    edges, one per target above, and ``budget`` (None: the default) caps
    their expansions together.  A bad budget raises ValueError first, then
    a bool or non-int u, target or length, then a target equal to u or out
    of range, then a length below 1; running out raises SearchBudgetExceeded.
    """
    left = _expansions(budget)
    _check_int(u, "u")
    top = G.n if 0 <= u < G.n else 0  # with u out of range, no target is in range
    mask, bad = 0, None  # bad: the first target that is u or out of range
    for v in targets:
        if v.__class__ is not int:  # one test on the hot path for a plain int
            _check_int(v, "v")
        if v != u and 0 <= v < top:
            mask |= 1 << v
        elif bad is None:
            bad = v
    _check_int(length, "length")
    if bad == u:
        raise ValueError("path endpoints must be distinct")
    if bad is not None:
        raise ValueError(f"endpoints ({u}, {bad}) outside 0..{G.n - 1}")
    if length < 1:
        raise ValueError(f"path length must be positive, got {length}")
    if not mask or length > G.n - 1:
        return {}
    if length <= _PER_SOURCE_UPTO:
        return _search_path(G.adj, G.n, u, mask, length, left)[0]
    found: dict[int, tuple[int, ...]] = {}
    for v in _iter_bits(mask):
        hit, left = _search_path(G.adj, G.n, u, 1 << v, length, left)
        found.update(hit)
    return found


def exists_path_of_length(
    G: Graph, u: int, v: int, length: int, budget: int | None = None
) -> tuple[int, ...] | None:
    """The one-target form of ``paths_of_length``: the path to ``v``, or None."""
    return paths_of_length(G, u, (v,), length, budget).get(v)


def has_cycle_of_length(G: Graph, k: int, budget: int | None = None) -> tuple[int, ...] | None:
    """A simple cycle on exactly ``k`` vertices, if any exists.

    Returns the cycle's ``k`` vertices in cyclic order, as a u-v path whose
    closing edge uv is implied, or None when G has no k-cycle.

    Scans edges in sorted order; for each edge uv, looks for a u-v path of
    length k-1 in the graph with uv removed (cleared in the working
    adjacency lists, not rebuilt).  The first hit, closed by uv, is the
    witness.  A miss proves uv lies on no k-cycle, so uv stays cleared and
    the later searches run on a sparser graph.  All edges share one
    ``budget``, checked as in ``paths_of_length``.
    """
    left = _expansions(budget)  # shared by all edges
    _check_int(k, "cycle length", 3)
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
    A bool or non-int w raises ValueError.
    """
    _check_int(w, "w")
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
