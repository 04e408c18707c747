"""Shared strategies and independent reference oracles for the test suite.

The reference implementations here are deliberately naive (permutation
scans, bitmask sweeps) so they stay independent of the search kernel and
canonical-labeling code they are used to check.  The subset DP
``dp_first_path`` is the one fast reference: it reaches n = 9..12, where
the permutation scan is too slow, and is checked against that scan for
n <= 8.
"""

from __future__ import annotations

import functools
import itertools

from hypothesis import strategies as st

from cyclesat.graphs import (
    Graph,
    _code_from_order,
    _graph_from_code,
    canonical_form_and_code,
)
from cyclesat.oracle import Level, class_levels


def with_edge(G: Graph, u: int, v: int) -> Graph:
    """``G`` plus the edge uv."""
    return Graph(G.n, G.edges + ((u, v),))


def without_edge(G: Graph, u: int, v: int) -> Graph:
    """``G`` minus its edge uv."""
    pair = (min(u, v), max(u, v))
    assert pair in G.edges, f"edge {pair} not present"
    return Graph(G.n, [e for e in G.edges if e != pair])


def complement(G: Graph) -> Graph:
    """The graph on ``G``'s vertices whose edges are ``G``'s non-edges."""
    return Graph(G.n, G.non_edges())


def relabel(G: Graph, perm) -> Graph:
    """``G`` with every vertex ``old`` renamed ``perm[old]``."""
    assert sorted(perm) == list(range(G.n)), "not a permutation of the vertices"
    return Graph(G.n, [(perm[u], perm[v]) for u, v in G.edges])


def is_path_in(G: Graph, path: tuple[int, ...]) -> bool:
    """``path`` lists distinct vertices, each adjacent in ``G`` to the next."""
    return len(set(path)) == len(path) and all(
        G.has_edge(a, b) for a, b in zip(path, path[1:])
    )


def is_cycle_in(G: Graph, cycle: tuple[int, ...]) -> bool:
    """``cycle`` lists at least 3 distinct vertices in cyclic order in ``G``."""
    return len(cycle) >= 3 and is_path_in(G, cycle) and G.has_edge(cycle[-1], cycle[0])


@st.composite
def graphs(draw, min_n: int = 0, max_n: int = 8) -> Graph:
    """Graphs of every density: a density d/8 is drawn, then each pair is an
    edge with that chance.  Shrinking lowers d or drops single edges."""
    n = draw(st.integers(min_n, max_n))
    d = draw(st.integers(0, 8))
    pairs = itertools.combinations(range(n), 2)
    return Graph(n, [p for p in pairs if draw(st.integers(0, 7)) >= 8 - d])


@st.composite
def twin_rich_graphs(draw, max_n: int = 8, min_n: int = 0) -> Graph:
    """Graphs rich in twin classes and pendant vertices.

    A random base graph on at most 4 vertices has each vertex blown up into
    an independent set or a clique of 1-3 vertices (neighbouring blobs are
    joined completely), then pendants hang off random vertices, and the
    result is relabeled at random so twins do not sit next to each other.
    This covers cliques with spikes, wheels and complete bipartite graphs.
    Pendants make up any shortfall below ``min_n``.
    """
    b = draw(st.integers(1, 4))
    base_pairs = list(itertools.combinations(range(b), 2))
    base = [p for p in base_pairs if draw(st.booleans())]
    blobs: list[list[int]] = []
    edges: list[tuple[int, int]] = []
    n = 0
    for _ in range(b):
        size = draw(st.integers(1, min(3, max_n - n - (b - 1 - len(blobs)))))
        blob = list(range(n, n + size))
        if draw(st.booleans()):
            edges.extend(itertools.combinations(blob, 2))
        blobs.append(blob)
        n += size
    for i, j in base:
        edges.extend((x, y) for x in blobs[i] for y in blobs[j])
    for _ in range(draw(st.integers(max(0, min_n - n), max_n - n))):
        edges.append((draw(st.integers(0, n - 1)), n))
        n += 1
    perm = draw(st.permutations(range(n)))
    return Graph(n, [(perm[x], perm[y]) for x, y in edges])


def naive_first_path(G: Graph, u: int, v: int, length: int) -> tuple[int, ...] | None:
    """The lexicographically least u-v path with ``length`` edges, by exhaustive scan."""
    others = [w for w in range(G.n) if w != u and w != v]
    if length - 1 > len(others):
        return None
    # permutations of a sorted list come out in lexicographic order
    for mids in itertools.permutations(others, length - 1):
        seq = (u, *mids, v)
        if all(G.has_edge(a, b) for a, b in zip(seq, seq[1:])):
            return seq
    return None


def naive_first_cycle(G: Graph, k: int, first_path=naive_first_path) -> tuple[int, ...] | None:
    """The first edge uv of ``G.edges`` on a k-cycle, closing the least u-v path of G - uv."""
    for u, v in G.edges:
        seq = first_path(without_edge(G, u, v), u, v, k - 1)
        if seq is not None:
            return seq
    return None


def _hamiltonian_ends(G: Graph, v: int) -> list[int]:
    """Held-Karp table: entry S (a vertex set holding v) is the mask of the x
    from which a path through exactly the vertices of S ends at v."""
    ends = [0] * (1 << G.n)
    vbit = 1 << v
    ends[vbit] = vbit
    # every proper subset of S is a smaller number, so it is filled first
    for mask in range(1 << G.n):
        if mask & vbit and mask != vbit:
            for x in range(G.n):
                xbit = 1 << x
                if x != v and mask & xbit and G.adj[x] & ends[mask ^ xbit]:
                    ends[mask] |= xbit
    return ends


def dp_first_path(G: Graph, u: int, v: int, length: int) -> tuple[int, ...] | None:
    """The lexicographically least u-v path with ``length`` edges, by subset DP.

    The path grows from u one vertex at a time, taking the least neighbour
    w of its end from which some set of vertices off the path carries a
    w-v path with the edges still needed.  Fast enough for n <= 12, and
    shares nothing with the search kernel.
    """
    if length > G.n - 1:
        return None
    ends = _hamiltonian_ends(G, v)
    vbit = 1 << v
    path = [u]
    off = ((1 << G.n) - 1) ^ (1 << u) ^ vbit  # vertices off the path, v aside
    for r in range(length, 0, -1):
        # starts: the w beginning a w-v path of r - 1 edges on vertices off the path
        starts = 0
        sub = off
        while True:
            if sub.bit_count() == r - 1:
                starts |= ends[sub | vbit]
            if not sub:
                break
            sub = (sub - 1) & off
        step = G.adj[path[-1]] & starts
        if not step:
            return None
        w = (step & -step).bit_length() - 1
        path.append(w)
        off &= ~(1 << w)
    return tuple(path)


def dp_first_cycle(G: Graph, k: int) -> tuple[int, ...] | None:
    """``naive_first_cycle`` with the subset DP for each edge's path."""
    return naive_first_cycle(G, k, dp_first_path)


def naive_distances(adj, sources: list[int], avail: int) -> dict[int, int]:
    """Plain BFS distances from the vertices ``sources``, stepping only into ``avail``."""
    dist = dict.fromkeys(sources, 0)
    queue = list(sources)
    for x in queue:
        for y in range(len(adj)):
            if adj[x] >> y & 1 and avail >> y & 1 and y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


def naive_usable(adj, avail: int, cur: int, targets: int, remaining: int):
    """The usable set of ``cycles._usable``, by definition.

    BFS distance maps from ``cur`` and from the set ``targets`` inside
    ``avail``; the usable vertices are those x != cur with d_cur(x) +
    d_T(x) <= remaining.  There are none when every target is unreachable
    or farther than that, as a target is usable when any vertex is.
    """
    d_cur = naive_distances(adj, [cur], avail)
    d_t = naive_distances(adj, [t for t in range(len(adj)) if targets >> t & 1], avail)
    usable = 0
    for x, d in d_cur.items():
        if x != cur and x in d_t and d + d_t[x] <= remaining:
            usable |= 1 << x
    return usable


def naive_path_exists(G: Graph, u: int, v: int, length: int) -> bool:
    return naive_first_path(G, u, v, length) is not None


def naive_cycle_exists(G: Graph, k: int) -> bool:
    for sub in itertools.combinations(range(G.n), k):
        for perm in itertools.permutations(sub[1:]):
            seq = (sub[0],) + perm
            if all(G.has_edge(a, b) for a, b in zip(seq, seq[1:] + seq[:1])):
                return True
    return False


def naive_count_cycles(G: Graph, k: int) -> int:
    """Number of distinct k-cycles (vertex sets with cyclic order, undirected)."""
    count = 0
    for sub in itertools.combinations(range(G.n), k):
        for perm in itertools.permutations(sub[1:]):
            if perm[0] > perm[-1]:
                continue  # each undirected cycle once
            seq = (sub[0],) + perm
            if all(G.has_edge(a, b) for a, b in zip(seq, seq[1:] + seq[:1])):
                count += 1
    return count


def naive_is_saturated(G: Graph, k: int) -> bool:
    """Definition-level check: no k-cycle, and each added non-edge makes one."""
    if naive_cycle_exists(G, k):
        return False
    base = naive_count_cycles(G, k)
    for u, v in G.non_edges():
        if naive_count_cycles(with_edge(G, u, v), k) <= base:
            return False
    return True


def naive_is_semisaturated(G: Graph, k: int) -> bool:
    base = naive_count_cycles(G, k)
    for u, v in G.non_edges():
        if naive_count_cycles(with_edge(G, u, v), k) <= base:
            return False
    return True


def brute_level(n: int, m: int) -> list[tuple[bytes, Graph]]:
    """Isomorphism classes with m edges via raw bitmask enumeration (n <= 6)."""
    if n > 6:
        raise ValueError("brute enumeration limited to n <= 6")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    found: dict[bytes, Graph] = {}
    for mask in range(1 << len(pairs)):
        if mask.bit_count() != m:
            continue
        g = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
        h, code = canonical_form_and_code(g)
        found.setdefault(code, h)
    return sorted(found.items())


def cached_levels(n: int, free_of: int | None = None) -> tuple[Level, ...]:
    """The levels of ``class_levels(n, free_of=free_of)``, built once per session.

    The search builds its levels afresh each time; the tests read the same
    levels many times, so they share one run per (n, free_of).  Not a
    reference: it returns the generator's own output.
    """
    # one positional key, so cached_levels(n) and cached_levels(n, None) share it
    return _levels(n, free_of)


@functools.cache
def _levels(n: int, free_of: int | None) -> tuple[Level, ...]:
    return tuple(class_levels(n, free_of=free_of))


def decoded(level: Level) -> list[tuple[bytes, Graph]]:
    """A level of ``class_levels`` as (code, refined form) pairs."""
    return [(code, _graph_from_code(code)) for code in level]


def naive_levels(n: int) -> list[list[tuple[bytes, Graph]]]:
    """Every class of n-vertex graphs, level m holding those with m edges.

    Level m+1 extends every class of level m by every non-edge and keeps
    one canonical form per code: no child is skipped before labeling.
    """
    empty, code = canonical_form_and_code(Graph(n, []))
    levels = [[(code, empty)]]
    for _ in range(n * (n - 1) // 2):
        nxt: dict[bytes, Graph] = {}
        for _, g in levels[-1]:
            for u, v in g.non_edges():
                h, code = canonical_form_and_code(with_edge(g, u, v))
                nxt.setdefault(code, h)
        levels.append(sorted(nxt.items()))
    return levels


def naive_equitable_refinement(G: Graph, cells: list[int]) -> set[int]:
    """The coarsest equitable partition finer than ``cells``, as a set of bitmask cells.

    Colour refinement by full passes: every cell splits by its vertices'
    neighbour counts into every cell, until no cell splits.
    """
    while True:
        split = []
        for c in cells:
            groups: dict[tuple[int, ...], int] = {}
            for v in range(G.n):
                if c >> v & 1:
                    key = tuple((G.adj[v] & d).bit_count() for d in cells)
                    groups[key] = groups.get(key, 0) | 1 << v
            split.extend(groups.values())
        if len(split) == len(cells):
            return set(cells)
        cells = split


def naive_is_top_edge(adj: list[int], u: int, v: int) -> bool:
    """The top-edge test of ``oracle._is_top_edge`` by definition.

    Colours every vertex (its degree and the sorted degrees of its
    neighbours) and compares the full key of uv, (larger endpoint colour,
    smaller endpoint colour, triangle count), with that of every edge.
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


def brute_force_min_code(G: Graph) -> bytes:
    """The minimal code by definition: least code over every placement order (n <= 7)."""
    return min(_code_from_order(G.adj, p) for p in itertools.permutations(range(G.n)))


def brute_force_isomorphic(G: Graph, H: Graph) -> bool:
    """Isomorphism test by exhaustive backtracking over vertex assignments.

    Independent of canonical codes; the ground truth for small graphs
    (n <= 8 or so).
    """
    if G.n != H.n or len(G.edges) != len(H.edges):
        return False
    n = G.n
    if sorted(map(G.degree, range(n))) != sorted(map(H.degree, range(n))):
        return False
    if n == 0:
        return True
    mapping = [-1] * n
    used = 0

    def extend(i: int) -> bool:
        nonlocal used
        gdeg = G.degree(i)
        for h in range(n):
            bit = 1 << h
            if used & bit or H.degree(h) != gdeg:
                continue
            ok = True
            for j in range(i):
                if (G.adj[i] >> j & 1) != (H.adj[h] >> mapping[j] & 1):
                    ok = False
                    break
            if ok:
                mapping[i] = h
                used |= bit
                if i + 1 == n or extend(i + 1):
                    return True
                used ^= bit
                mapping[i] = -1
        return False

    return extend(0)


def brute_automorphisms(G: Graph) -> list[tuple[int, ...]]:
    """The full automorphism group, by scanning all n! vertex permutations (n <= 7)."""
    edges = set(G.edges)
    return [
        p
        for p in itertools.permutations(range(G.n))
        if {tuple(sorted((p[u], p[v]))) for u, v in edges} == edges
    ]


def brute_nonedge_orbits(
    G: Graph, group: list[tuple[int, ...]]
) -> list[set[tuple[int, int]]]:
    """Orbits of the non-edges under ``group``, from ``brute_automorphisms``."""
    orbits: list[set[tuple[int, int]]] = []
    for u, v in G.non_edges():
        if not any((u, v) in orbit for orbit in orbits):
            orbits.append({tuple(sorted((p[u], p[v]))) for p in group})
    return orbits


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(n: int) -> Graph:
    return Graph(n, [(0, i) for i in range(1, n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, list(itertools.combinations(range(n), 2)))


def petersen_graph() -> Graph:
    """Outer 5-cycle, inner pentagram, spokes."""
    return Graph(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, 5 + i) for i in range(5)],
    )
