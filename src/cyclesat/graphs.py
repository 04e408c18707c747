"""Immutable simple undirected graphs with bitset adjacency, labels and canonical forms.

Vertices are 0..n-1.  Every graph is a hashable value: ``induced`` returns
a new graph, so verifiers and searches can snapshot and share them freely.
The refinement labeling also reports generators of each graph's whole
automorphism group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class GraphError(ValueError):
    """Invalid graph construction input."""


class LoopEdgeError(GraphError):
    """An edge joins a vertex to itself."""


class VertexRangeError(GraphError):
    """An edge endpoint is outside 0..n-1."""


class DuplicateEdgeError(GraphError):
    """The same unordered pair is listed more than once."""


def _check_int(
    value: object, name: str, least: int | None = None, error: type[ValueError] = ValueError
) -> None:
    """Raise ``error`` unless ``value`` is an int, not a bool, of at least ``least``.

    Both faults get one message: "<name> must be an int", or with a bound
    "<name> must be at least <least>" ("non-negative" for 0), then the value.
    """
    if (
        isinstance(value, bool)
        or not isinstance(value, int)
        or (least is not None and value < least)
    ):
        need = "an int" if least is None else "non-negative" if least == 0 else f"at least {least}"
        raise error(f"{name} must be {need}, got {value!r}")


def _iter_bits(mask: int) -> Iterator[int]:
    """Yield set-bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _within(adj: Sequence[int], start: int, avail: int, depth: int) -> list[int]:
    """Cumulative BFS layers out of the vertex set ``start`` inside ``avail``.

    All sets are bitmasks.  Entry j (j = 0..depth) holds the vertices within
    j edges of ``start`` in the subgraph induced by ``avail`` plus ``start``.
    A plain loop and a list: the path kernel calls this per query and per
    search node, where a generator measurably slows.
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
        if not frontier:
            within += [seen] * (depth + 1 - len(within))
            break
        seen |= frontier
        within.append(seen)
    return within


class Graph:
    """Simple undirected graph on ``n`` vertices, stored immutably.

    Adjacency is one integer bitmask per vertex (O(1) membership tests and
    fast set algebra in the search kernel); ``neighbors`` lists a mask's
    bits in ascending order.
    """

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n.__class__ is not int or n < 0:  # one test on the hot path for a plain int
            _check_int(n, "vertex count", 0, GraphError)
        normalized = []
        adj = [0] * n
        for u, v in edges:
            if u.__class__ is not int or v.__class__ is not int:  # plain ints skip the call
                _check_int(u, "edge endpoint", None, VertexRangeError)
                _check_int(v, "edge endpoint", None, VertexRangeError)
            if u == v:
                raise LoopEdgeError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise VertexRangeError(f"edge ({u}, {v}) outside 0..{n - 1}")
            if adj[u] >> v & 1:
                raise DuplicateEdgeError(f"edge {(min(u, v), max(u, v))} listed more than once")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
            normalized.append((u, v) if u < v else (v, u))
        normalized.sort()
        self.n = n
        self.edges = tuple(normalized)
        self.adj = tuple(adj)

    # -- basic queries -------------------------------------------------

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(_iter_bits(self.adj[v]))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1) if u != v else False

    def non_edges(self) -> list[tuple[int, int]]:
        """All unordered non-adjacent pairs, lexicographically sorted."""
        return [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if not self.adj[u] >> v & 1
        ]

    def is_connected(self) -> bool:
        if self.n <= 1:
            return True
        full = (1 << self.n) - 1
        return _within(self.adj, 1, full, self.n - 1)[-1] == full

    # -- derived graphs ------------------------------------------------

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph plus the old-vertex -> new-vertex mapping."""
        keep = sorted(set(vertices))
        if keep and not (0 <= keep[0] and keep[-1] < self.n):
            raise VertexRangeError("induced vertex set outside range")
        remap = {old: new for new, old in enumerate(keep)}
        edges = [
            (remap[u], remap[v])
            for u, v in self.edges
            if u in remap and v in remap
        ]
        return Graph(len(keep), edges), remap

    # -- value semantics -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={len(self.edges)})"


@dataclass(frozen=True)
class LabeledGraph:
    """A graph together with named special vertices / vertex blocks."""

    graph: Graph
    labels: dict[str, int | tuple[int, ...]]

    def special_pair(self) -> tuple[int, int]:
        """The labelled (a1, a2), which must be two distinct int vertices."""
        try:
            a1, a2 = self.labels["a1"], self.labels["a2"]
        except KeyError as exc:
            raise GraphError("graph has no (a1, a2) labels") from exc
        _check_int(a1, "a1", error=VertexRangeError)
        _check_int(a2, "a2", error=VertexRangeError)
        n = self.graph.n
        if a1 == a2 or not (0 <= a1 < n and 0 <= a2 < n):
            raise VertexRangeError(
                f"special pair ({a1}, {a2}) is not two distinct vertices of 0..{n - 1}"
            )
        return a1, a2


# -- canonical forms -----------------------------------------------------
#
# The canonical code of a graph is the lexicographically smallest relabeled
# adjacency bitstring: place vertices one by one, each placement contributing
# its adjacency row to the already-placed prefix, and minimize the row
# sequence over all placement orders.  Branch-and-bound keeps only
# row-minimal candidates at each step and branches once per class of
# interchangeable (twin) candidates, which collapses the large symmetric
# cases (isolated vertices, cliques) that plain backtracking chokes on.
#
# The search keeps the unplaced vertices as an ordered partition: a list
# of bitmask cells, each holding the vertices whose row (adjacency to the
# placed prefix, first-placed vertex in the most significant bit) is
# ``cell_rows[i]``, in ascending row order.  The candidates at a node are
# then the bits of the first cell, ascending.  Placing v appends one least
# significant bit to every row, so each cell splits into its non-neighbours
# of v (row ``r << 1``) followed by its neighbours (``r << 1 | 1``); v has
# no loop, so it lands in neither part and drops out.  Rows of different
# cells already differ in a higher bit, so the split keeps the cells
# sorted, and the first cell is again exactly the row-minimal vertices.
#
# The search only picks the order: the automorphisms that level generation
# prunes with come from the refinement labeling below.

Permutation = tuple[int, ...]


def _lower_twins(adj: Sequence[int]) -> list[int]:
    """Per vertex v, the mask of its twins u < v: ``N(u) - v == N(v) - u``."""
    lower = [0] * len(adj)
    for v, row in enumerate(adj):
        for u in range(v):
            if not (adj[u] ^ row) & ~((1 << u) | (1 << v)):
                lower[v] |= 1 << u
    return lower


def _canonical_search(G: Graph) -> tuple[int, ...]:
    """The placement order that realizes the minimal adjacency code."""
    n, adj = G.n, G.adj
    if n <= 1:
        return tuple(range(n))
    lower = _lower_twins(adj)

    best_rows: list[int] | None = None
    best_order: list[int] | None = None
    placed: list[int] = []
    rows: list[int] = []

    def rec(cells: list[int], cell_rows: list[int], tight: bool) -> None:
        # ``tight`` means the row prefix built so far equals the prefix of
        # the best complete code found; only then can the next row prune.
        nonlocal best_rows, best_order
        if not cells:
            if best_rows is None or not tight:
                best_rows = rows.copy()
                best_order = placed.copy()
            return
        depth = len(placed)
        min_row = cell_rows[0]
        child_tight = False
        if best_rows is not None and tight:
            if min_row > best_rows[depth]:
                return
            child_tight = min_row == best_rows[depth]
        first = cells[0]
        for v in _iter_bits(first):
            if lower[v] & first:
                continue  # twins are an equivalence; its least one branches
            nbrs = adj[v]
            others = ~(nbrs | (1 << v))
            nxt_cells, nxt_rows = [], []
            for c, r in zip(cells, cell_rows):
                part = c & others
                if part:
                    nxt_cells.append(part)
                    nxt_rows.append(r << 1)
                part = c & nbrs
                if part:
                    nxt_cells.append(part)
                    nxt_rows.append(r << 1 | 1)
            placed.append(v)
            rows.append(min_row)
            rec(nxt_cells, nxt_rows, child_tight)
            placed.pop()
            rows.pop()
            # The best code now runs through this node and this row: either
            # the child was tight, so any new best was recorded below it, or
            # it pruned nothing and its first leaf became the new best.
            child_tight = True

    rec([(1 << n) - 1], [0], False)
    assert best_order is not None
    return tuple(best_order)


def _code_from_order(adj: Sequence[int], order: Sequence[int]) -> bytes:
    """The adjacency code of placing ``order[i]`` at i: row i against columns 0..i-1."""
    bits = 0
    nbits = 0
    for i in range(1, len(adj)):
        row_src = adj[order[i]]
        for j in range(i):
            bits = (bits << 1) | (row_src >> order[j] & 1)
            nbits += 1
    payload = bits.to_bytes((nbits + 7) // 8, "big") if nbits else b""
    return bytes([len(adj)]) + payload


def _graph_from_code(code: bytes) -> Graph:
    """The form a code was written from: row i holds vertex i's edges to 0..i-1."""
    n, bits = code[0], int.from_bytes(code[1:], "big")
    pairs = [(j, i) for i in range(1, n) for j in range(i)]
    return Graph(n, [p for b, p in enumerate(reversed(pairs)) if bits >> b & 1])


def _check_codable(n: int) -> None:
    _check_int(n, "vertex count", 0, GraphError)
    if n > 255:  # a code's first byte is n
        raise GraphError(f"canonical codes hold at most 255 vertices, got {n}")


def canonical_code(G: Graph) -> bytes:
    """Relabeling-invariant byte code identifying the isomorphism class (n <= 255)."""
    _check_codable(G.n)
    return _code_from_order(G.adj, _canonical_search(G))


def canonical_form_and_code(G: Graph) -> tuple[Graph, bytes]:
    """Canonical relabeling and its minimal code.

    Two graphs are isomorphic iff their canonical relabelings are equal.
    Only the refinement labeling (``_refined_code``) reports
    automorphisms.
    """
    code = canonical_code(G)
    return _graph_from_code(code), code


# -- refinement labeling -------------------------------------------------
#
# A second labeling, by individualization and refinement (McKay and
# Piperno, "Practical graph isomorphism, II", J. Symbolic Comput. 2014).
# Its code is the least adjacency code over the leaves of a search tree
# that depends only on the isomorphism class, so it too identifies the
# class, but it is not the minimal code over all placement orders.  Level
# generation labels with it; the minimal code picks and relabels witnesses.
#
# A node of the tree is an equitable ordered partition of the vertices into
# bitmask cells: every vertex of a cell has the same number of neighbours in
# each cell.  The root refines the one-cell partition; a child individualizes
# one vertex v of the first non-singleton cell, placing {v} in front of the
# rest of the cell, and refines again.  A leaf, a partition into singletons,
# is a placement order.  A child is skipped only when v has a twin u below it
# in the cell: swapping u and v is an automorphism fixing the node that maps
# v's subtree onto u's.  The rest of the tree is searched whole, so the
# automorphisms reported generate the whole group, the form being the first
# leaf of least code.  By induction on depth, a product t of twin swaps maps
# each node of the full tree to a visited one: t maps its parent to a visited
# node and the child on v to the child on t(v), and one more swap, fixing
# that node, takes t(v) to the least twin in its cell.  An automorphism g
# maps the first best leaf to a best leaf, some such t maps that to a visited
# best leaf, and two leaves with equal codes differ by exactly one
# automorphism, the one reported for the later leaf.  So t g is reported or
# the identity, and g is a product of reported automorphisms.


def _refine(adj: Sequence[int], cells: list[int], splitters: list[int]) -> list[int]:
    """The coarsest equitable ordered partition refining ``cells``.

    ``cells`` must already be equitable with respect to every cell that is
    not in ``splitters``.  Each splitter W in queue order splits the cells,
    in cell order, by the number of neighbours in W of their vertices, the
    sub-cells in ascending count.  A split cell's sub-cells join the queue,
    all of them when the cell was still queued and all but its first largest
    otherwise: counts into that one follow from counts into the others and
    into the cell.  Every step reads only the cells, so the result maps onto
    the result for the image partition under any isomorphism.
    """
    queue = list(splitters)
    pending = set(queue)
    for w in queue:
        if w not in pending:
            continue  # split after it was queued; its sub-cells are queued
        pending.discard(w)
        reach = 0
        for x in _iter_bits(w):
            reach |= adj[x]
        refined = []
        for c in cells:
            if not c & reach or not c & (c - 1):
                refined.append(c)  # no neighbour in W, or a singleton
                continue
            by_count: dict[int, int] = {}
            for v in _iter_bits(c):
                count = (adj[v] & w).bit_count()
                by_count[count] = by_count.get(count, 0) | 1 << v
            if len(by_count) == 1:
                refined.append(c)
                continue
            parts = [by_count[count] for count in sorted(by_count)]
            refined.extend(parts)
            if c in pending:
                pending.discard(c)
            else:
                parts.remove(max(parts, key=int.bit_count))
            queue.extend(parts)
            pending.update(parts)
        cells = refined
    return cells


def _refined_code(adj: Sequence[int]) -> tuple[bytes, list[Permutation]]:
    """The refinement labeling's code and generators of its form's automorphisms.

    Generator p maps vertex i of the form (``_graph_from_code`` of the code)
    to p[i]: one per leaf of least code after the first, and one per vertex
    swapping it with its least twin (``N(u) - v == N(v) - u``).  They span
    the whole group; the cost is that the leaves visited grow with
    |Aut| / |twin group| (the Petersen graph visits 120).
    """
    n = len(adj)
    lower = _lower_twins(adj)
    leaves: list[tuple[bytes, list[int]]] = []

    def rec(cells: list[int]) -> None:
        i = next((i for i, c in enumerate(cells) if c & (c - 1)), None)
        if i is None:
            order = [c.bit_length() - 1 for c in cells]
            leaves.append((_code_from_order(adj, order), order))
            return
        target = cells[i]
        for v in _iter_bits(target):
            if lower[v] & target:
                continue  # twins are an equivalence; its least one branches
            bit = 1 << v
            rec(_refine(adj, cells[:i] + [bit, target ^ bit] + cells[i + 1 :], [bit]))

    full = (1 << n) - 1
    rec(_refine(adj, [full], [full]) if n else [])
    best = min(code for code, _ in leaves)
    first, *others = [order for code, order in leaves if code == best]
    position = [0] * n
    for pos, v in enumerate(first):
        position[v] = pos
    found = [tuple(position[v] for v in order) for order in others]
    for v, twins in enumerate(lower):
        if twins:
            u = (twins & -twins).bit_length() - 1
            swap = list(range(n))
            swap[position[u]], swap[position[v]] = position[v], position[u]
            found.append(tuple(swap))
    return best, found
