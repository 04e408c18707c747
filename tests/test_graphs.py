import hashlib
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_isomorphic,
    brute_force_min_code,
    complete_graph,
    cycle_graph,
    graphs,
    naive_distances,
    naive_equitable_refinement,
    path_graph,
    relabel,
    twin_rich_graphs,
    with_edge,
    without_edge,
)
from cyclesat.graphs import (
    DuplicateEdgeError,
    Graph,
    GraphError,
    LabeledGraph,
    LoopEdgeError,
    VertexRangeError,
    _canonical_search,
    _graph_from_code,
    _refine,
    _refined_code,
    _within,
    canonical_code,
    canonical_form_and_code,
)


def test_build_triangle():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.edge_count == 3
    assert [g.degree(v) for v in range(3)] == [2, 2, 2]


def test_build_empty():
    g = Graph(4, [])
    assert g.edge_count == 0
    assert min(map(g.degree, range(g.n))) == 0


def test_build_rejects_self_loop():
    with pytest.raises(LoopEdgeError):
        Graph(2, [(0, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(VertexRangeError):
        Graph(3, [(0, 3)])
    with pytest.raises(VertexRangeError):
        Graph(3, [(-1, 2)])


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: Graph(-1, []), GraphError, "vertex count must be non-negative, got -1"),
        (lambda: Graph(3, [(0, 1)]).induced([0, 99]), VertexRangeError, "outside range"),
        # a bool endpoint was kept in edges and encoded as "0 True"
        (
            lambda: Graph(3, [(0, True), (1, 2)]),
            VertexRangeError,
            "edge endpoint must be an int, got True",
        ),
        (lambda: Graph(3, [(0, 1.5)]), VertexRangeError, "edge endpoint must be an int, got 1.5"),
    ],
)
def test_construction_errors_are_typed(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_build_rejects_duplicates():
    with pytest.raises(DuplicateEdgeError):
        Graph(3, [(0, 1), (1, 0)])


def test_edges_normalized_and_sorted():
    g = Graph(4, [(3, 2), (1, 0), (0, 2)])
    assert g.edges == ((0, 1), (0, 2), (2, 3))


@given(graphs())
def test_degree_sum_is_twice_edges(g):
    assert sum(map(g.degree, range(g.n))) == 2 * g.edge_count


@given(graphs(max_n=7), st.randoms(use_true_random=False))
def test_canonical_code_invariant_under_relabeling(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = relabel(g, perm)
    assert canonical_code(g) == canonical_code(h)
    assert canonical_form_and_code(g)[0] == canonical_form_and_code(h)[0]


@given(graphs(max_n=7))
def test_canonical_form_is_idempotent(g):
    form, code = canonical_form_and_code(g)
    assert canonical_code(form) == code
    assert canonical_form_and_code(form)[0] == form


@given(
    st.one_of(graphs(max_n=9), twin_rich_graphs(max_n=9)),
    st.randoms(use_true_random=False),
)
@settings(max_examples=300, deadline=None)
def test_refined_labeling_is_canonical(g, rng):
    # the refinement labeling's form and code do not depend on the vertex
    # names, its form labels to itself, and its generators fix the form
    code, generators = _refined_code(g.adj)
    form = _graph_from_code(code)
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert _refined_code(relabel(g, perm).adj)[0] == code
    assert _refined_code(form.adj)[0] == code
    for p in generators:
        assert sorted(p) == list(range(g.n))
        assert relabel(form, p) == form


@given(st.one_of(graphs(min_n=1, max_n=9), twin_rich_graphs(max_n=9)))
@settings(max_examples=200, deadline=None)
def test_refinement_is_coarsest_equitable(g):
    # the splitter queue reaches the partition that full passes reach, at
    # the root and after individualizing a vertex of the first non-singleton
    # cell, where only the new singleton is queued
    full = (1 << g.n) - 1
    cells = _refine(g.adj, [full], [full])
    assert set(cells) == naive_equitable_refinement(g, [full])
    target = next((c for c in cells if c & (c - 1)), None)
    if target is not None:
        i, bit = cells.index(target), target & -target
        start = cells[:i] + [bit, target ^ bit] + cells[i + 1 :]
        assert set(_refine(g.adj, start, [bit])) == naive_equitable_refinement(g, start)


def test_canonical_distinguishes_triangle_from_path():
    assert canonical_code(complete_graph(3)) != canonical_code(path_graph(3))


def test_canonical_path_relabelings_equal():
    assert canonical_code(path_graph(3)) == canonical_code(
        Graph(3, [(1, 0), (0, 2)])
    )


def test_canonical_c5_reversed_equal():
    c5 = cycle_graph(5)
    rev = relabel(c5, [4, 3, 2, 1, 0])
    assert canonical_code(c5) == canonical_code(rev)


def test_canonical_code_holds_at_most_255_vertices():
    # the code's first byte is n: 255 fits, 256 is a typed error, not a
    # ValueError from writing the byte
    assert canonical_code(Graph(255, []))[0] == 255
    with pytest.raises(GraphError, match="at most 255 vertices, got 256"):
        canonical_code(Graph(256, []))
    with pytest.raises(GraphError, match="at most 255 vertices"):
        canonical_form_and_code(Graph(256, []))


@given(graphs(max_n=6), graphs(max_n=6))
@settings(max_examples=200, deadline=None)
def test_canonical_code_matches_brute_force_isomorphism(g, h):
    assert (canonical_code(g) == canonical_code(h)) == brute_force_isomorphic(g, h)


def test_canonical_code_is_minimal_code_exhaustive():
    # every labeled graph on at most 5 vertices
    for n in range(6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(n, [p for i, p in enumerate(pairs) if mask >> i & 1])
            assert canonical_code(g) == brute_force_min_code(g)


@given(st.one_of(graphs(max_n=7), twin_rich_graphs(max_n=7)))
@settings(max_examples=100, deadline=None)
def test_canonical_code_is_minimal_code(g):
    assert canonical_code(g) == brute_force_min_code(g)


def _search_corpus() -> list[Graph]:
    """300 seeded graphs, n = 2..9: sparse to dense random, and twin-rich blow-ups."""
    rng = random.Random(2024)
    corpus = []
    for i in range(300):
        n = 2 + i % 8
        if i % 2:
            pairs = list(itertools.combinations(range(n), 2))
            p = rng.choice((0.2, 0.35, 0.5))
            corpus.append(Graph(n, [e for e in pairs if rng.random() < p]))
            continue
        # blobs of 1-3 vertices, each an independent set or a clique, with
        # random blob pairs joined completely, then relabeled at random
        blobs, edges, m = [], [], 0
        while m < n:
            size = min(rng.randint(1, 3), n - m)
            blob = list(range(m, m + size))
            if rng.random() < 0.5:
                edges.extend(itertools.combinations(blob, 2))
            for other in blobs:
                if rng.random() < 0.5:
                    edges.extend((x, y) for x in other for y in blob)
            blobs.append(blob)
            m += size
        perm = list(range(n))
        rng.shuffle(perm)
        corpus.append(Graph(n, [(perm[x], perm[y]) for x, y in edges]))
    return corpus


def test_search_output_is_pinned():
    # The labeling search must pick the same placement order: the orders are
    # hashed over a fixed corpus.  The digest is that of the orders the
    # search returned while it also collected automorphisms (commit
    # 66033ea), so dropping them left every order as it was.
    digest = hashlib.sha256()
    for g in _search_corpus():
        digest.update(repr(_canonical_search(g)).encode())
    assert digest.hexdigest() == (
        "bc565bed4bde8ae84a6cf2430c13c8ed298bb92ecfef6ce55dd99e9c05293d70"
    )


def test_induced_subgraph():
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    sub, remap = g.induced([0, 1, 4])
    assert sub.n == 3
    assert sub.edges == ((0, 1), (0, 2))
    assert remap == {0: 0, 1: 1, 4: 2}


def test_connectivity():
    assert path_graph(5).is_connected()
    assert not Graph(4, [(0, 1), (2, 3)]).is_connected()
    assert Graph(1, []).is_connected()
    assert not Graph(3, [(0, 1)]).is_connected()  # isolated vertex


@given(graphs(max_n=9))
@settings(max_examples=150, deadline=None)
def test_is_connected_matches_union_find(g):
    parent = list(range(g.n))

    def root(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in g.edges:
        parent[root(u)] = root(v)
    assert g.is_connected() == (len({root(x) for x in range(g.n)}) <= 1)


@given(graphs(max_n=9), st.data())
@settings(max_examples=300, deadline=None)
def test_within_matches_bfs_distances(g, data):
    # entry j: start plus the vertices of avail within j edges of start,
    # stepping only into avail; padded with the whole ball up to depth
    full = (1 << g.n) - 1
    start = data.draw(st.integers(0, full))
    avail = data.draw(st.integers(0, full))
    depth = data.draw(st.integers(0, g.n + 1))
    dist = naive_distances(g.adj, [x for x in range(g.n) if start >> x & 1], avail)
    want = [sum(1 << x for x, d in dist.items() if d <= j) for j in range(depth + 1)]
    assert _within(g.adj, start, avail, depth) == want


def test_immutability_style_operations():
    g = Graph(3, [(0, 1)])
    h = with_edge(g, 1, 2)
    assert g.edge_count == 1 and h.edge_count == 2
    back = without_edge(h, 1, 2)
    assert back == g
    assert hash(back) == hash(g)
    # equal graphs built from different edge orders are equal values
    a, b = Graph(3, [(1, 2), (0, 1)]), Graph(3, [(0, 1), (2, 1)])
    assert a == b and hash(a) == hash(b)


def test_exhaustive_small_corpus_vs_brute_force():
    # every pair from a deterministic 60-graph corpus with n <= 6
    rng = random.Random(5)
    corpus = []
    for _ in range(60):
        n = rng.randint(1, 6)
        pairs = list(itertools.combinations(range(n), 2))
        corpus.append(Graph(n, [p for p in pairs if rng.random() < 0.5]))
    for g, h in itertools.combinations(corpus, 2):
        assert (canonical_code(g) == canonical_code(h)) == brute_force_isomorphic(
            g, h
        )


def test_eight_vertex_corpus_vs_brute_force():
    # codes and the permutation-search oracle agree up to 8 vertices
    rng = random.Random(8)
    pairs8 = list(itertools.combinations(range(8), 2))
    corpus = []
    for _ in range(20):
        g = Graph(8, [p for p in pairs8 if rng.random() < 0.4])
        corpus.append(g)
        perm = list(range(8))
        rng.shuffle(perm)
        corpus.append(relabel(g, perm))
    for g, h in itertools.combinations(corpus, 2):
        assert (canonical_code(g) == canonical_code(h)) == brute_force_isomorphic(
            g, h
        )


def test_special_pair():
    g = Graph(3, [(0, 1), (1, 2)])
    assert LabeledGraph(g, {"a1": 2, "a2": 0}).special_pair() == (2, 0)
    with pytest.raises(GraphError, match="no \\(a1, a2\\) labels"):
        LabeledGraph(g, {"a1": 0}).special_pair()
    for a1, a2 in [(0, 3), (-1, 1), (1, 1)]:
        with pytest.raises(VertexRangeError):
            LabeledGraph(g, {"a1": a1, "a2": a2}).special_pair()
    # roles are ints, not strings, floats or bools that int() would coerce
    for a1, a2, bad in [("0", 1.9, "a1 .* '0'"), (0, 1.9, "a2 .* 1.9"), (True, 2, "a1 .* True")]:
        with pytest.raises(VertexRangeError, match=f"{bad}$"):
            LabeledGraph(g, {"a1": a1, "a2": a2}).special_pair()
