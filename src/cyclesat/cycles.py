"""Exact-length simple path and cycle search.

This is the single search kernel behind every verifier in the package:
depth-first backtracking over simple paths, taking candidates in ascending
vertex order, within the vertices a completion may still use, and four
prunings on per-vertex bitmasks:

* distance: each query starts with one BFS out of the target v in G - u,
  and a node with r edges left takes only candidates within r - 1 edges of
  v there.  Every available set of the search lies inside V - u, so a
  distance in G - u is a lower bound on any distance a completion can use,
  and the filter drops only candidates with no completion;
* supply: at a node with r >= 8, a branch dies when the usable vertices
  (reachable from both ends within the budget) cannot fill the path;
* twin skipping: once candidate w fails, a later candidate x at the same
  node with N(x) - {w} = N(w) - {x} is dropped.  Swapping w and x is an
  automorphism of the graph that fixes the current vertex, the target and
  the available set, so it maps any completion through x onto one through w;
* edge retirement: when ``has_cycle_of_length`` finds no path closing the
  edge uv, no k-cycle passes through uv in this graph or any subgraph of
  it, so uv stays out of the graph for the later edges.

Each pruning removes only branches without a valid completion, and a DFS
that takes candidates in ascending order and prunes only such branches
returns the lexicographically first valid path.  Likewise the first edge
in ``G.edges`` order that closes a k-cycle is the same with or without
retirement.  So the witnesses do not depend on which prunings run.

Two more steps make the usable set U, the vertices y with d(cur, y) +
d(y, target) <= r for budget r, cheap and change no answer.  Scope
narrowing: a node with r >= 8 hands each child w only U - {w}.  A vertex on
a valid completion through w meets that bound, and so does one on a
shortest path from w, or from the target, to a vertex usable at w; so the
child's completions, usable set and target distance stay the same.
Target-first BFS: the BFS out of cur keeps layer d only within r - d of the
target.  The predecessor of a usable vertex on a shortest path from cur is
usable too, so every usable vertex is still reached at its true distance,
and no other vertex passes the filter.

U costs two BFS passes per node, and on shallow branches the distance
filter prunes nearly as much for one AND.  On the ``h1`` sweep for
k = 7..12, computing U from r >= 8 instead of r >= 4 takes a quarter off
the time.  From r >= 9 the sweep is a sixth slower than from 8, because the
deep branches of the k = 11, 12 queries need U.  From r >= 7 it is a few
percent faster, but certifying random greedy C_k-saturated graphs for
k = 5, 6, 8 takes a fifth longer, as every k = 8 cycle search then
computes U at its root.

Witnesses are plain vertex tuples: a path lists its vertices from one end
to the other, and a k-cycle lists its k vertices in cyclic order with the
closing edge implied.

Exact-length path search is NP-hard in general, so a configurable node
expansion budget turns pathological inputs into an explicit error instead
of a hang.
"""

from __future__ import annotations

from typing import Sequence

from .graphs import Graph, _bfs_layers

# The budget when a caller passes None; a budget of 0 allows no expansion.
DEFAULT_EXPANSION_BUDGET = 10**8


class SearchBudgetExceeded(RuntimeError):
    """The expansion budget ran out before the search finished."""


def _expansions(budget: int | None) -> int:
    """The expansion budget a query may spend: None selects the default."""
    if budget is None:
        return DEFAULT_EXPANSION_BUDGET
    if isinstance(budget, bool) or not isinstance(budget, int) or budget < 0:
        raise ValueError(f"budget must be a non-negative int or None, got {budget!r}")
    return budget


def _within(adj: Sequence[int], start: int, avail: int, depth: int) -> list[int]:
    """Cumulative BFS layers out of the vertex set ``start`` inside ``avail``.

    Entry j (j = 0..depth) holds the vertices within j edges of ``start``.
    Not _bfs_layers: the kernel calls this per query and per search node,
    where a generator measurably slows.
    """
    within = [start]
    seen = frontier = start
    for _ in range(depth):
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= adj[low.bit_length() - 1]
            m ^= low
        frontier = nxt & avail & ~seen
        seen |= frontier
        within.append(seen)
    return within


def _usable(adj: Sequence[int], avail: int, cur: int, target: int, remaining: int):
    """Vertices usable by some completion of the current branch.

    Returns the mask of the vertices whose distances from ``cur`` and to
    ``target`` through ``avail`` (which holds ``target`` but not ``cur``)
    sum to at most ``remaining``; 0 means the target is farther than that.
    """
    within = _within(adj, 1 << target, avail, remaining - 1)
    # BFS out of cur keeping layer d inside within[remaining - d]; within[j] never
    # holds cur, so seen ends as the usable set (empty: the target is too far).
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
    adj: Sequence[int], n: int, u: int, v: int, length: int, left: int
) -> tuple[tuple[int, ...] | None, int]:
    """The first u-v path of ``length`` edges (or None), and the expansions left.

    Raises SearchBudgetExceeded when the search needs more than ``left``.
    """
    tbit = 1 << v
    path = [u]
    full = ((1 << n) - 1) ^ (1 << u)
    # near[j]: the vertices within j edges of v in G - u.  Every avail below
    # lies inside V - u, so these distances bound those a completion can use.
    near = _within(adj, tbit, full, length - 1)

    def rec(cur: int, avail: int, remaining: int) -> bool:
        nonlocal left
        left -= 1
        if left < 0:
            raise SearchBudgetExceeded("node expansion budget exhausted")
        if remaining == 1:
            if adj[cur] & tbit:
                path.append(v)
                return True
            return False
        if remaining == 2:
            # Midpoint in closed form: any available common neighbor.
            mids = adj[cur] & adj[v] & avail & ~tbit
            if mids:
                w = (mids & -mids).bit_length() - 1
                path.append(w)
                path.append(v)
                return True
            return False
        if remaining >= 8:
            # Two BFS passes pay off only on deep branches (the module
            # docstring has the measurements); the children search inside
            # the usable set.
            avail = _usable(adj, avail, cur, v, remaining)
            if avail.bit_count() < remaining:
                return False
        m = adj[cur] & avail & near[remaining - 1] & ~tbit
        while m:
            low = m & -m
            m ^= low
            w = low.bit_length() - 1
            path.append(w)
            if rec(w, avail ^ low, remaining - 1):
                return True
            path.pop()
            # w failed, so every later twin of w fails too: drop them.
            aw = adj[w]
            rest = m
            while rest:
                xbit = rest & -rest
                rest ^= xbit
                if not (adj[xbit.bit_length() - 1] ^ aw) & ~(low | xbit):
                    m ^= xbit
        return False

    found = rec(u, full, length)
    return (tuple(path) if found else None), left


def exists_path_of_length(
    G: Graph, u: int, v: int, length: int, budget: int | None = None
) -> tuple[int, ...] | None:
    """A simple path with exactly ``length`` edges from ``u`` to ``v``.

    Returns the path's ``length + 1`` vertices in order from ``u`` to ``v``,
    or None when no such path exists.  Neighbors are explored in ascending
    vertex order, so the path is the lexicographically first one.

    ``budget`` caps the node expansions (None selects the default).  A bool,
    a non-int or a negative budget raises ValueError before anything else
    is looked at; running out raises SearchBudgetExceeded.
    """
    left = _expansions(budget)
    if u == v:
        raise ValueError("path endpoints must be distinct")
    if not (0 <= u < G.n and 0 <= v < G.n):
        raise ValueError(f"endpoints ({u}, {v}) outside 0..{G.n - 1}")
    if length < 1:
        raise ValueError(f"path length must be positive, got {length}")
    if length > G.n - 1:
        return None
    return _search_path(G.adj, G.n, u, v, length, left)[0]


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
    if k < 3:
        raise ValueError(f"cycle length must be at least 3, got {k}")
    if k > G.n:
        return None
    adj = list(G.adj)
    for u, v in G.edges:
        adj[u] ^= 1 << v
        adj[v] ^= 1 << u
        found, left = _search_path(adj, G.n, u, v, k - 1, left)
        if found is not None:
            return found
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
    best: int | None = None
    for u in nbrs:
        # Neighbors of w above u; pairs below u were covered from their side.
        later = G.adj[w] >> (u + 1) << (u + 1)
        for d, layer in enumerate(_bfs_layers(G.adj, 1 << u, avail), 1):
            if layer & later:
                if best is None or d + 2 < best:
                    best = d + 2
                break
    return best
