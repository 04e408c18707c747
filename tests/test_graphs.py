import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_force_isomorphic,
    complete_graph,
    cycle_graph,
    graphs,
    path_graph,
    twin_rich_graphs,
)
from cyclesat.graphs import (
    DuplicateEdgeError,
    Graph,
    GraphError,
    LabeledGraph,
    LoopEdgeError,
    VertexRangeError,
    canonical_code,
    canonical_form_and_code,
)


def test_build_triangle():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.edge_count == 3
    assert g.degree_sequence() == (2, 2, 2)


def test_build_empty():
    g = Graph(4, [])
    assert g.edge_count == 0
    assert min(g.degree_sequence()) == 0


def test_build_rejects_self_loop():
    with pytest.raises(LoopEdgeError):
        Graph(2, [(0, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(VertexRangeError):
        Graph(3, [(0, 3)])
    with pytest.raises(VertexRangeError):
        Graph(3, [(-1, 2)])


def test_build_rejects_duplicates():
    with pytest.raises(DuplicateEdgeError):
        Graph(3, [(0, 1), (1, 0)])


def test_edges_normalized_and_sorted():
    g = Graph(4, [(3, 2), (1, 0), (0, 2)])
    assert g.edges == ((0, 1), (0, 2), (2, 3))


@given(graphs())
def test_degree_sum_is_twice_edges(g):
    assert sum(g.degree_sequence()) == 2 * g.edge_count


@given(graphs(max_n=7), st.randoms(use_true_random=False))
def test_canonical_code_invariant_under_relabeling(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = g.relabel(perm)
    assert canonical_code(g) == canonical_code(h)
    assert canonical_form_and_code(g)[0] == canonical_form_and_code(h)[0]


@given(graphs(max_n=7))
def test_canonical_form_is_idempotent(g):
    form, code, _ = canonical_form_and_code(g)
    assert canonical_code(form) == code
    assert canonical_form_and_code(form)[0] == form


@given(st.one_of(graphs(max_n=8), twin_rich_graphs()))
@settings(max_examples=300, deadline=None)
def test_returned_permutations_are_automorphisms_of_the_form(g):
    form, _, generators = canonical_form_and_code(g)
    for p in generators:
        assert sorted(p) == list(range(g.n))
        assert form.relabel(p) == form


def test_canonical_distinguishes_triangle_from_path():
    assert canonical_code(complete_graph(3)) != canonical_code(path_graph(3))


def test_canonical_path_relabelings_equal():
    assert canonical_code(path_graph(3)) == canonical_code(
        Graph(3, [(1, 0), (0, 2)])
    )


def test_canonical_c5_reversed_equal():
    c5 = cycle_graph(5)
    rev = c5.relabel([4, 3, 2, 1, 0])
    assert canonical_code(c5) == canonical_code(rev)


@given(graphs(max_n=6), graphs(max_n=6))
@settings(max_examples=200, deadline=None)
def test_canonical_code_matches_brute_force_isomorphism(g, h):
    assert (canonical_code(g) == canonical_code(h)) == brute_force_isomorphic(g, h)


def test_without_vertex_relabels():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    h = g.without_vertex(1)
    assert h.n == 3
    assert h.edges == ((1, 2),)  # old (2, 3) shifted down


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


def test_immutability_style_operations():
    g = Graph(3, [(0, 1)])
    h = g.with_edge(1, 2)
    assert g.edge_count == 1 and h.edge_count == 2
    back = h.without_edge(1, 2)
    assert back == g
    assert hash(back) == hash(g)


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
        corpus.append(g.relabel(perm))
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
