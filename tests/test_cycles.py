import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    complete_graph,
    cycle_graph,
    graphs,
    naive_cycle_exists,
    naive_path_exists,
    path_graph,
)
from cyclesat.cycles import (
    SearchBudgetExceeded,
    exists_path_of_length,
    has_cycle_of_length,
    shortest_cycle_through,
)
from cyclesat.families import build_h1, build_wheel
from cyclesat.graphs import Graph


def test_triangle_two_path():
    w = exists_path_of_length(complete_graph(3), 0, 1, 2)
    assert w is not None and w.vertices == (0, 2, 1)


def test_h1_special_pair_paths():
    h = build_h1(7, 9)
    a1, a2 = h.special_pair()
    assert exists_path_of_length(h.graph, a1, a2, 3) is None
    w = exists_path_of_length(h.graph, a1, a2, 1)
    assert w is not None and w.vertices == (a1, a2)


def test_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        exists_path_of_length(complete_graph(3), 1, 1, 2)


def test_rejects_nonpositive_length():
    with pytest.raises(ValueError):
        exists_path_of_length(complete_graph(3), 0, 1, 0)


@given(graphs(min_n=2, max_n=6))
@settings(max_examples=150, deadline=None)
def test_agrees_with_exhaustive_enumeration(g):
    for u, v in itertools.combinations(range(g.n), 2):
        for length in range(1, g.n):
            found = exists_path_of_length(g, u, v, length)
            assert (found is not None) == naive_path_exists(g, u, v, length)
            if found is not None:
                assert found.is_valid_in(g)
                assert found.length == length
                assert found.vertices[0] == u and found.vertices[-1] == v


@given(graphs(min_n=2, max_n=7), st.data())
def test_symmetry(g, data):
    u = data.draw(st.integers(0, g.n - 1))
    v = data.draw(st.integers(0, g.n - 1).filter(lambda x: x != u))
    length = data.draw(st.integers(1, g.n - 1))
    fwd = exists_path_of_length(g, u, v, length)
    bwd = exists_path_of_length(g, v, u, length)
    assert (fwd is None) == (bwd is None)


@given(graphs(min_n=3, max_n=7), st.data())
def test_monotone_under_edge_addition(g, data):
    non = g.non_edges()
    if not non:
        return
    u = data.draw(st.integers(0, g.n - 1))
    v = data.draw(st.integers(0, g.n - 1).filter(lambda x: x != u))
    length = data.draw(st.integers(1, g.n - 1))
    e = data.draw(st.sampled_from(non))
    if exists_path_of_length(g, u, v, length) is not None:
        assert exists_path_of_length(g.with_edge(*e), u, v, length) is not None


def test_cycle_in_c6():
    w = has_cycle_of_length(cycle_graph(6), 6)
    assert w is not None and w.length == 6 and w.is_valid_in(cycle_graph(6))


def test_no_cycle_in_tree():
    star = Graph(6, [(0, i) for i in range(1, 6)])
    for k in range(3, 7):
        assert has_cycle_of_length(star, k) is None
        assert has_cycle_of_length(path_graph(6), k) is None


def test_h1_is_k_cycle_free():
    h = build_h1(7, 9)
    assert has_cycle_of_length(h.graph, 7) is None


@given(graphs(max_n=6))
@settings(max_examples=150, deadline=None)
def test_cycle_detection_agrees_with_naive(g):
    for k in range(3, g.n + 1):
        found = has_cycle_of_length(g, k)
        assert (found is not None) == naive_cycle_exists(g, k)
        if found is not None:
            assert found.is_valid_in(g)


@given(graphs(min_n=2, max_n=7))
@settings(max_examples=100, deadline=None)
def test_cycle_exists_iff_some_edge_spans_short_path(g):
    # the defining identity of the per-edge reduction
    for k in range(3, g.n + 1):
        via_edges = any(
            exists_path_of_length(g.without_edge(u, v), u, v, k - 1) is not None
            for u, v in g.edges
        )
        assert (has_cycle_of_length(g, k) is not None) == via_edges


def test_shortest_cycle_through_wheel_hub():
    assert shortest_cycle_through(build_wheel(6, 0).graph, 0) == 3


def test_shortest_cycle_through_path_vertex():
    assert shortest_cycle_through(path_graph(5), 2) is None


def test_shortest_cycle_through_c5():
    for v in range(5):
        assert shortest_cycle_through(cycle_graph(5), v) == 5


@given(graphs(min_n=1, max_n=6))
@settings(max_examples=150, deadline=None)
def test_shortest_cycle_through_agrees_with_exhaustive_scan(g):
    for w in range(g.n):
        others = [x for x in range(g.n) if x != w]
        expect = None
        for length in range(3, g.n + 1):
            for mids in itertools.permutations(others, length - 1):
                seq = (w, *mids)
                if all(g.has_edge(a, b) for a, b in zip(seq, seq[1:] + seq[:1])):
                    expect = length
                    break
            if expect is not None:
                break
        assert shortest_cycle_through(g, w) == expect


def test_budget_exceeded_is_reported():
    # complete bipartite: no odd-length path joins two same-side vertices,
    # and proving that absence takes far more than 50 expansions
    g = Graph(12, [(u, v) for u in range(6) for v in range(6, 12)])
    with pytest.raises(SearchBudgetExceeded):
        exists_path_of_length(g, 0, 1, 11, budget=50)


def test_zero_budget_is_not_the_default():
    # only None selects the default budget; 0 allows no expansion at all
    with pytest.raises(SearchBudgetExceeded):
        exists_path_of_length(complete_graph(4), 0, 1, 3, budget=0)
    with pytest.raises(SearchBudgetExceeded):
        has_cycle_of_length(cycle_graph(4), 4, budget=0)


def test_budget_generous_enough_succeeds():
    g = complete_graph(12)
    w = exists_path_of_length(g, 0, 1, 11)
    assert w is not None and w.length == 11
