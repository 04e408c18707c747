import itertools

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    complement,
    complete_graph,
    cycle_graph,
    dp_first_cycle,
    dp_first_path,
    graphs,
    is_cycle_in,
    is_path_in,
    naive_cycle_exists,
    naive_first_cycle,
    naive_first_path,
    naive_path_exists,
    naive_usable,
    path_graph,
    petersen_graph,
    twin_rich_graphs,
    with_edge,
    without_edge,
)
from cyclesat import cycles
from cyclesat.codec import graph6_decode
from cyclesat.cycles import (
    DEFAULT_EXPANSION_BUDGET,
    SearchBudgetExceeded,
    _search_path,
    _usable,
    exists_path_of_length,
    has_cycle_of_length,
    paths_of_length,
    shortest_cycle_through,
)
from cyclesat.families import build_h1, build_wheel
from cyclesat.graphs import Graph
from cyclesat.saturation import is_ck_free


def test_triangle_two_path():
    w = exists_path_of_length(complete_graph(3), 0, 1, 2)
    assert w == (0, 2, 1)


def test_h1_special_pair_paths():
    h = build_h1(7, 9)
    a1, a2 = h.special_pair()
    assert exists_path_of_length(h.graph, a1, a2, 3) is None
    w = exists_path_of_length(h.graph, a1, a2, 1)
    assert w == (a1, a2)


def test_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        exists_path_of_length(complete_graph(3), 1, 1, 2)


K3 = complete_graph(3)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: exists_path_of_length(K3, 0, 3, 1), r"endpoints \(0, 3\) outside 0..2"),
        (lambda: shortest_cycle_through(K3, 99), "vertex 99 outside 0..2"),
        (lambda: shortest_cycle_through(build_h1(7, 9).graph, True), "w must be an int, got True"),
        (lambda: shortest_cycle_through(build_h1(7, 9).graph, 1.0), "w must be an int, got 1.0"),
        # a budget is a non-negative int or None, checked before the early
        # return for a query longer than the graph allows
        (lambda: exists_path_of_length(K3, 0, 1, 2, budget=-1), "budget .* got -1"),
        (lambda: exists_path_of_length(K3, 0, 1, 2, budget=2.5), "budget .* got 2.5"),
        (lambda: exists_path_of_length(K3, 0, 1, 2, budget=True), "budget .* got True"),
        (lambda: exists_path_of_length(cycle_graph(5), 0, 2, 10, budget=-1), "budget .* got -1"),
        (lambda: has_cycle_of_length(K3, 3, budget=-1), "budget .* got -1"),
        (lambda: has_cycle_of_length(K3, 3, budget=2.5), "budget .* got 2.5"),
        (lambda: has_cycle_of_length(K3, 3, budget=False), "budget .* got False"),
        (lambda: has_cycle_of_length(K3, 4, budget=-1), "budget .* got -1"),
        # endpoints and length are ints, checked before the search and
        # before the early return for a query longer than the graph allows
        (lambda: exists_path_of_length(cycle_graph(6), True, 5, 3), "u must be an int, got True"),
        (lambda: exists_path_of_length(K3, 0, 2.0, 1), "v must be an int, got 2.0"),
        (lambda: exists_path_of_length(K3, 0, 1, 2.0), "length must be an int, got 2.0"),
        (lambda: exists_path_of_length(K3, 0, 1, False), "length must be an int, got False"),
        (lambda: exists_path_of_length(K3, 0, 1, 9.5), "length must be an int, got 9.5"),
        # the target-set query checks every target as exists_path_of_length
        # checks v, and its budget first of all
        (lambda: paths_of_length(K3, 0, (1, True), 2), "v must be an int, got True"),
        (lambda: paths_of_length(K3, 0, [2, 1.0], 2), "v must be an int, got 1.0"),
        (lambda: paths_of_length(K3, 1, (2, 1), 2), "path endpoints must be distinct"),
        (lambda: paths_of_length(K3, 0, (1, 3), 2), r"endpoints \(0, 3\) outside 0..2"),
        (lambda: paths_of_length(K3, 0, (-1,), 2), r"endpoints \(0, -1\) outside 0..2"),
        (lambda: paths_of_length(K3, 3, (1,), 2), r"endpoints \(3, 1\) outside 0..2"),
        # with no targets, u itself is checked
        (lambda: paths_of_length(build_h1(7, 9).graph, 99, [], 3), "endpoint 99 outside 0..8"),
        (lambda: paths_of_length(build_h1(7, 9).graph, -1, [], 3), "endpoint -1 outside 0..8"),
        (lambda: paths_of_length(K3, 3, iter(()), 0), "endpoint 3 outside 0..2"),
        (lambda: paths_of_length(K3, 0, (1,), 0), "path length must be positive, got 0"),
        (lambda: paths_of_length(K3, 0, (1, 1.5), 2.5, budget=-1), "budget .* got -1"),
        (lambda: paths_of_length(K3, True, (0, 0), 9, budget=0.5), "budget .* got 0.5"),
        (lambda: paths_of_length(K3, 0, (), 2, budget=False), "budget .* got False"),
    ],
)
def test_bad_query_arguments_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


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
                assert is_path_in(g, found)
                assert len(found) - 1 == length
                assert found[0] == u and found[-1] == v


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
        assert exists_path_of_length(with_edge(g, *e), u, v, length) is not None


def test_cycle_in_c6():
    w = has_cycle_of_length(cycle_graph(6), 6)
    assert w is not None and len(w) == 6 and is_cycle_in(cycle_graph(6), w)


def test_no_cycle_in_tree():
    star = Graph(6, [(0, i) for i in range(1, 6)])
    for k in range(3, 7):
        assert has_cycle_of_length(star, k) is None
        assert has_cycle_of_length(path_graph(6), k) is None


def test_no_cycle_longer_than_the_graph():
    assert has_cycle_of_length(complete_graph(4), 5) is None
    assert is_ck_free(complete_graph(4), 5).holds


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
            assert is_cycle_in(g, found)


@given(graphs(min_n=2, max_n=7))
@settings(max_examples=100, deadline=None)
def test_cycle_exists_iff_some_edge_spans_short_path(g):
    # the defining identity of the per-edge reduction
    for k in range(3, g.n + 1):
        via_edges = any(
            exists_path_of_length(without_edge(g, u, v), u, v, k - 1) is not None
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


@pytest.mark.parametrize(
    "extra,shortest",
    [
        # through neighbours 5 and 6 of 0: a triangle
        ([(5, 6)], 3),
        # a 5-cycle 0-5-7-8-6, one shorter than the first, so the BFS out
        # of 5 needs its full depth bound of best - 3 = 3 edges
        ([(5, 7), (7, 8), (8, 6)], 5),
    ],
)
def test_shortest_cycle_through_improves_on_the_first_neighbour(extra, shortest):
    # the first neighbour 1 of vertex 0 closes the 6-cycle 0-1-2-3-4-5, and
    # a later neighbour closes a shorter one
    g = Graph(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 6), *extra])
    assert shortest_cycle_through(g, 0) == shortest


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


def heawood_graph() -> Graph:
    # LCF notation [5, -5]^7: a 14-cycle plus a chord from each even i to
    # i + 5 (which is the chord from the odd i + 5 back by 5)
    chords = [(i, (i + 5) % 14) for i in range(0, 14, 2)]
    return Graph(14, [(i, (i + 1) % 14) for i in range(14)] + chords)


def test_budget_exceeded_is_reported():
    # the Heawood graph is bipartite and twin-free: no odd-length path joins
    # the same-side vertices 0 and 2, and proving that absence takes far
    # more than 50 expansions
    g = heawood_graph()
    with pytest.raises(SearchBudgetExceeded):
        exists_path_of_length(g, 0, 2, 13, budget=50)


def test_twin_skipping_proves_bipartite_absence_cheaply():
    # in K6,6 the vertices on each side are twins, so once one branch fails
    # its twins are skipped and absence is proven well inside the budget
    g = Graph(12, [(u, v) for u in range(6) for v in range(6, 12)])
    assert exists_path_of_length(g, 0, 1, 11, budget=50) is None


def _assert_naive_witnesses(g):
    for u, v in itertools.permutations(range(g.n), 2):
        for length in range(1, g.n):
            found = exists_path_of_length(g, u, v, length)
            want = naive_first_path(g, u, v, length)
            assert found == want
    for k in range(3, g.n + 1):
        found = has_cycle_of_length(g, k)
        assert found == naive_first_cycle(g, k)


@given(twin_rich_graphs())
@settings(max_examples=150, deadline=None)
def test_twin_rich_witnesses_are_lexicographically_first(g):
    # every pruning drops only failing branches, so the witness is the
    # lexicographically least one, as found by exhaustive scan
    _assert_naive_witnesses(g)


@given(graphs(min_n=2, max_n=7))
@settings(max_examples=100, deadline=None)
def test_witnesses_are_lexicographically_first(g):
    _assert_naive_witnesses(g)


@st.composite
def deep_queries(draw, graph_strategy):
    """A graph with two path queries and one cycle query deep enough (path
    length >= 8, cycle length >= 9) to narrow to the exact usable set."""
    g = draw(graph_strategy)
    paths = []
    for _ in range(2):
        u = draw(st.integers(0, g.n - 1))
        v = draw(st.integers(0, g.n - 1).filter(lambda x: x != u))
        paths.append((u, v, draw(st.integers(8, g.n - 1))))
    return g, paths, draw(st.integers(9, g.n))


def _assert_deep_witnesses(g, paths, k):
    # the subset DP stands in for the permutation scan, which is too slow here
    for u, v, length in paths:
        assert exists_path_of_length(g, u, v, length) == dp_first_path(g, u, v, length)
    assert has_cycle_of_length(g, k) == dp_first_cycle(g, k)


# The complements of the twin-rich graphs, in which twins stay twins, supply
# the dense cases where deep paths exist.
@given(
    deep_queries(
        st.one_of(
            twin_rich_graphs(min_n=9, max_n=10),
            twin_rich_graphs(min_n=9, max_n=10).map(complement),
        )
    )
)
@settings(max_examples=20, deadline=None)
def test_twin_rich_deep_witnesses_are_lexicographically_first(query):
    _assert_deep_witnesses(*query)


# Sparse shapes, and the dense complement of one, as the graph strategy drew
# them when it drew one integer edge mask.
SPARSE_10 = Graph(10, [(0, 4), (1, 7), (2, 9), (3, 8), (5, 6), (6, 9)])


@given(
    deep_queries(st.one_of(graphs(min_n=9, max_n=10), graphs(min_n=9, max_n=10).map(complement)))
)
@example((Graph(9, []), [(0, 8, 8), (3, 5, 8)], 9))
@example((SPARSE_10, [(0, 4, 9), (6, 9, 8)], 10))
@example((complement(SPARSE_10), [(0, 4, 9), (6, 9, 8)], 10))
@settings(max_examples=20, deadline=None)
def test_deep_witnesses_are_lexicographically_first(query):
    _assert_deep_witnesses(*query)


@given(st.one_of(graphs(min_n=2), twin_rich_graphs()), st.data())
@settings(max_examples=100, deadline=None)
def test_subset_dp_matches_the_permutation_scan(g, data):
    # the fast reference agrees with the slow one wherever both can run
    assume(g.n >= 2)
    for _ in range(3):
        u = data.draw(st.integers(0, g.n - 1))
        v = data.draw(st.integers(0, g.n - 1).filter(lambda x: x != u))
        length = data.draw(st.integers(1, g.n))
        assert dp_first_path(g, u, v, length) == naive_first_path(g, u, v, length)
    k = data.draw(st.integers(3, max(3, g.n)))
    assert dp_first_cycle(g, k) == naive_first_cycle(g, k)


def _first_paths(g, u, targets, length):
    """The target-mask search's answer, by one single-target query each."""
    found = {}
    for v in range(g.n):
        if targets >> v & 1:
            path = exists_path_of_length(g, u, v, length)
            if path is not None:
                found[v] = path
    return found


def _search_all(g, u, targets, length, budget=DEFAULT_EXPANSION_BUDGET):
    return _search_path(g.adj, g.n, u, targets, length, budget)[0]


@given(
    st.one_of(
        graphs(min_n=2, max_n=10),
        graphs(min_n=2, max_n=10).map(complement),
        twin_rich_graphs(max_n=10),
        twin_rich_graphs(max_n=10).map(complement),
    ),
    st.data(),
)
@settings(max_examples=150, deadline=None)
def test_target_mask_search_matches_single_queries(g, data):
    # each target's witness is its own lexicographically first path, bit for
    # bit, whatever else is in the mask: per target, and by the subset DP
    assume(g.n >= 2)
    u = data.draw(st.integers(0, g.n - 1))
    others = ((1 << g.n) - 1) ^ (1 << u)
    targets = data.draw(st.integers(1, (1 << g.n) - 1).map(lambda t: t & others).filter(bool))
    for length in range(1, g.n):
        found = _search_all(g, u, targets, length)
        assert found == _first_paths(g, u, targets, length)
        for v, path in found.items():
            assert path == dp_first_path(g, u, v, length)


@pytest.mark.parametrize("upto", [0, 99])
@given(
    st.one_of(
        graphs(min_n=2, max_n=10),
        graphs(min_n=2, max_n=10).map(complement),
        twin_rich_graphs(max_n=10),
        twin_rich_graphs(max_n=10).map(complement),
    ),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_paths_of_length_matches_single_queries(upto, g, data):
    # both routes of the public door, one search per target (upto = 0) and
    # one search for the whole set (upto = 99), give each target's own
    # lexicographically first path, whatever order the targets come in
    assume(g.n >= 2)
    u = data.draw(st.integers(0, g.n - 1))
    others = ((1 << g.n) - 1) ^ (1 << u)
    targets = data.draw(st.integers(1, (1 << g.n) - 1).map(lambda t: t & others).filter(bool))
    order = data.draw(st.permutations([v for v in range(g.n) if targets >> v & 1]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cycles, "_PER_SOURCE_UPTO", upto)
        for length in range(1, g.n + 1):
            assert paths_of_length(g, u, order, length) == _first_paths(g, u, targets, length)


def test_paths_of_length_without_targets_or_room():
    assert paths_of_length(K3, 0, (), 2) == {}
    assert paths_of_length(K3, 0, iter([1, 2]), 3) == {}
    assert paths_of_length(K3, 0, iter([1, 2]), 2) == {1: (0, 2, 1), 2: (0, 1, 2)}


def test_paths_of_length_shares_one_budget_over_its_targets():
    # Above _PER_SOURCE_UPTO each target is one search, and the searches
    # draw on one budget: in K13 each 12-edge path alone needs 11
    # expansions, both together 22.
    g = complete_graph(13)
    assert cycles._PER_SOURCE_UPTO < 12
    for v in (1, 2):
        assert exists_path_of_length(g, 0, v, 12, budget=11) is not None
    with pytest.raises(SearchBudgetExceeded):
        paths_of_length(g, 0, (1, 2), 12, budget=21)
    assert paths_of_length(g, 0, (1, 2), 12, budget=22) == {
        1: (0, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1),
        2: (0, 1, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 2),
    }


def test_twin_skip_keeps_a_later_twin_outside_the_targets():
    # K_{2,3} with parts {0, 3} and {1, 2, 4}, searched from 4 for 0 and
    # the twins 1 and 2.  Candidate 0 fails as an interior vertex, but its
    # twin 3 is no target: swapping them moves the target set, and the only
    # path, 4 3 1 0, runs through 3.
    g = Graph(5, [(0, 1), (0, 2), (0, 4), (1, 3), (2, 3), (3, 4)])
    assert _search_all(g, 4, 0b00111, 3) == {0: (4, 3, 1, 0)}


def test_twin_skip_with_found_twins_among_the_targets():
    # K_{3,3} with parts {1, 4, 5} and {2, 3, 6}, plus a spike 0 on 4, as
    # is_semisaturated searches it at k = 7: from 0, for every later
    # non-neighbour at once.  The twins 3 and 6 are found before 2, and
    # once out of the targets they must not stand in for 2 in a swap.
    g = Graph(7, [(0, 4), (1, 2), (1, 3), (1, 6), (2, 4), (2, 5), (3, 4), (3, 5), (4, 6), (5, 6)])
    assert _search_all(g, 0, 0b1101110, 6) == {
        2: (0, 4, 3, 1, 6, 5, 2),
        3: (0, 4, 2, 1, 6, 5, 3),
        6: (0, 4, 2, 1, 3, 5, 6),
    }


@given(twin_rich_graphs(max_n=9))
@settings(max_examples=60, deadline=None)
def test_cycle_detection_agrees_with_networkx(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph(g.edges)
    h.add_nodes_from(range(g.n))
    lengths = {len(c) for c in nx.simple_cycles(h, length_bound=g.n)}
    for k in range(3, g.n + 1):
        assert (has_cycle_of_length(g, k) is not None) == (k in lengths)


def test_zero_budget_is_not_the_default():
    # only None selects the default budget; 0 allows no expansion at all
    with pytest.raises(SearchBudgetExceeded):
        exists_path_of_length(complete_graph(4), 0, 1, 3, budget=0)
    with pytest.raises(SearchBudgetExceeded):
        has_cycle_of_length(cycle_graph(4), 4, budget=0)


def test_budget_generous_enough_succeeds():
    g = complete_graph(12)
    w = exists_path_of_length(g, 0, 1, 11)
    assert w is not None and len(w) - 1 == 11


@given(st.one_of(graphs(min_n=2), twin_rich_graphs()), st.data())
@settings(max_examples=300, deadline=None)
def test_usable_matches_distance_definition(g, data):
    # the target-first pruned BFS out of a target set gives exactly the
    # distance-sum definition, with the distance to the nearest target
    assume(g.n >= 2)
    cur = data.draw(st.integers(0, g.n - 1))
    target = data.draw(st.integers(0, g.n - 1).filter(lambda x: x != cur))
    targets = (data.draw(st.integers(0, (1 << g.n) - 1)) | 1 << target) & ~(1 << cur)
    avail = (data.draw(st.integers(0, (1 << g.n) - 1)) | targets) & ~(1 << cur)
    remaining = data.draw(st.integers(1, g.n))
    want = naive_usable(g.adj, avail, cur, targets, remaining)
    assert _usable(g.adj, avail, cur, targets, remaining) == want


def _least_sufficient_budget(search):
    budget = 0
    while True:
        try:
            return budget, search(budget)
        except SearchBudgetExceeded:
            budget += 1


@given(twin_rich_graphs(max_n=8), st.data())
@settings(max_examples=100, deadline=None)
def test_budget_is_exact(g, data):
    # E, the least budget that suffices, and every budget above it give the
    # unbudgeted answer; E - 1 raises
    assume(g.n >= 2)
    u = data.draw(st.integers(0, g.n - 1))
    v = data.draw(st.integers(0, g.n - 1).filter(lambda x: x != u))
    length = data.draw(st.integers(1, g.n - 1))
    k = data.draw(st.integers(3, max(3, g.n)))
    # one query deep enough to narrow to the exact usable set
    big = data.draw(twin_rich_graphs(min_n=9, max_n=10))
    bu = data.draw(st.integers(0, big.n - 1))
    bv = data.draw(st.integers(0, big.n - 1).filter(lambda x: x != bu))
    blength = data.draw(st.integers(8, big.n - 1))
    # and one search for a set of targets, as the certificates run it
    targets = (data.draw(st.integers(0, (1 << g.n) - 1)) | 1 << v) & ~(1 << u)
    queries = [
        lambda b: exists_path_of_length(g, u, v, length, budget=b),
        lambda b: has_cycle_of_length(g, k, budget=b),
        lambda b: exists_path_of_length(big, bu, bv, blength, budget=b),
        lambda b: _search_all(g, u, targets, length, DEFAULT_EXPANSION_BUDGET if b is None else b),
    ]
    leasts = []
    for search in queries:
        least, found = _least_sufficient_budget(search)
        for budget in range(least, least + 6):
            assert search(budget) == search(None) == found
        if least:
            with pytest.raises(SearchBudgetExceeded):
                search(least - 1)
        leasts.append(least)
    # only a query that runs no search at all gets by on budget 0
    assert leasts[0] >= 1 and (leasts[1] == 0) == (k > g.n or not g.edges)
    assert leasts[2] >= 1 and leasts[3] >= 1


# A sparse graph as greedy_saturate(16, 8, ...) leaves it; (13, 14) is an edge.
GREEDY_16 = graph6_decode("O`??H_HKUV?O@bKSEIMDS")


# Least sufficient budgets of single queries, measured before the kernel
# took a target set: a one-target search must do exactly that work.
@pytest.mark.parametrize(
    "search,least,answer",
    [
        (
            lambda b: exists_path_of_length(build_h1(12, 58).graph, 0, 4, 11, budget=b),
            47_271,
            (0, 18, 19, 20, 21, 22, 23, 24, 25, 1, 2, 4),
        ),
        (
            lambda b: exists_path_of_length(build_h1(12, 58).graph, 17, 22, 11, budget=b),
            68,
            (17, 10, 2, 4, 3, 1, 0, 18, 19, 20, 21, 22),
        ),
        (
            lambda b: exists_path_of_length(build_h1(12, 58).graph, 55, 57, 11, budget=b),
            22,
            (55, 54, 53, 52, 51, 50, 0, 2, 4, 3, 1, 57),
        ),
        (
            lambda b: has_cycle_of_length(petersen_graph(), 9, budget=b),
            7,
            (0, 4, 3, 2, 7, 5, 8, 6, 1),
        ),
        (lambda b: has_cycle_of_length(petersen_graph(), 7, budget=b), 77, None),
        (lambda b: has_cycle_of_length(petersen_graph(), 10, budget=b), 132, None),
        (
            lambda b: exists_path_of_length(without_edge(GREEDY_16, 13, 14), 13, 14, 7, budget=b),
            66,
            None,
        ),
        (
            lambda b: exists_path_of_length(GREEDY_16, 0, 2, 7, budget=b),
            6,
            (0, 1, 10, 4, 8, 7, 3, 2),
        ),
        (lambda b: exists_path_of_length(heawood_graph(), 0, 2, 13, budget=b), 363, None),
    ],
)
def test_single_target_work_is_pinned(search, least, answer):
    assert search(least) == answer
    with pytest.raises(SearchBudgetExceeded):
        search(least - 1)


# Least sufficient budgets of length-3 queries, which the target-distance
# filter prunes at the root: a candidate with no target within two edges is
# never expanded.
@pytest.mark.parametrize(
    "search,least,answer",
    [
        (lambda b: exists_path_of_length(petersen_graph(), 0, 5, 3, budget=b), 1, None),
        (lambda b: exists_path_of_length(GREEDY_16, 0, 2, 3, budget=b), 2, (0, 10, 7, 2)),
    ],
)
def test_length_3_work_is_pinned(search, least, answer):
    assert search(least) == answer
    with pytest.raises(SearchBudgetExceeded):
        search(least - 1)


def test_length_2_midpoints_may_be_targets():
    # Target 1 is the least midpoint to target 3; target 4, beside no other
    # target, is a midpoint that reaches no end.
    g = Graph(5, [(0, 1), (0, 2), (0, 4), (1, 3), (2, 3)])
    assert _search_all(g, 0, 0b11010, 2) == {3: (0, 1, 3)}
