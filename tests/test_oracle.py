import hashlib
import random
import time
from math import ceil, comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_automorphisms,
    brute_level,
    brute_nonedge_orbits,
    cached_levels,
    decoded,
    graphs,
    naive_is_top_edge,
    naive_levels,
    relabel,
    twin_rich_graphs,
)
from cyclesat import oracle
from cyclesat.bounds import Observation, check_consistency, eval_bounds
from cyclesat.codec import graph6_decode, graph6_encode
from cyclesat.graphs import (
    GraphError,
    _code_from_order,
    _graph_from_code,
    _refined_code,
    canonical_code,
    canonical_form_and_code,
)
from cyclesat.oracle import (
    CeilingExceeded,
    GenerationTimeout,
    _is_top_edge,
    _orbit_representatives,
    append_golden,
    class_levels,
    exact_min,
    scan_strata,
    search_stratum,
)
from cyclesat.saturation import is_ck_free, is_saturated, is_semisaturated

# class counts of n-vertex graphs per edge count, for cross-checking the
# generator (row n=5 and n=6 of the standard triangle)
COUNTS_5 = [1, 1, 2, 4, 6, 6, 6, 4, 2, 1, 1]
COUNTS_6 = [1, 1, 2, 5, 9, 15, 21, 24, 24, 21, 15, 9, 5, 2, 1, 1]
# row n=8 of OEIS A008406 for m = 0..9, the levels exact_min(8, 4, "sat") builds
COUNTS_8 = [1, 1, 2, 5, 11, 24, 56, 115, 221, 402]

# graphs on n = 0..8 vertices up to isomorphism (OEIS A000088) and
# connected ones on n = 0..7 (OEIS A001349)
A000088 = [1, 1, 2, 4, 11, 34, 156, 1044, 12346]
A001349 = [1, 1, 1, 2, 6, 21, 112, 853]
# triangle-free graphs on n = 1..7 vertices (OEIS A006785)
A006785 = [1, 2, 3, 7, 14, 38, 107]


def _minimal_codes(level):
    """The sorted minimal codes of a level's classes, whatever its labeling."""
    return sorted(canonical_code(g) for _, g in decoded(level))


def test_level_generation_matches_known_counts():
    assert [len(level) for level in cached_levels(5)] == COUNTS_5
    assert [len(level) for level in cached_levels(6)] == COUNTS_6
    assert [len(level) for level in cached_levels(8)[: len(COUNTS_8)]] == COUNTS_8


def test_level_generation_matches_brute_force():
    for n in (4, 5):
        for m, level in enumerate(cached_levels(n)):
            assert _minimal_codes(level) == [c for c, _ in brute_level(n, m)]


@pytest.mark.parametrize("n", range(8))
def test_level_generation_matches_naive_levels(n):
    # the top-edge filter skips children before labeling; the naive
    # generator labels every child, so both must give the same levels
    levels = naive_levels(n)
    built = cached_levels(n)
    assert len(built) == len(levels) == comb(n, 2) + 1
    for level, naive in zip(built, levels):
        assert _minimal_codes(level) == [c for c, _ in naive]


@pytest.mark.parametrize("n", range(8))
def test_class_totals_match_oeis(n):
    classes = [g for level in cached_levels(n) for _, g in decoded(level)]
    assert len(classes) == A000088[n]
    assert sum(g.is_connected() for g in classes) == A001349[n]


@pytest.mark.parametrize("n", range(3, 8))
def test_free_levels_are_the_free_classes_of_the_full_levels(n):
    # the C_k-free filter runs inside the generator; the full levels,
    # filtered afterwards, must give the same codes and representatives
    for k in range(3, n + 1):
        for level, free_level in zip(cached_levels(n), cached_levels(n, k)):
            free = [(c, g) for c, g in decoded(level) if is_ck_free(g, k)]
            assert decoded(free_level) == free
        assert len(cached_levels(n, k)) == comb(n, 2) + 1


def test_triangle_free_totals_match_oeis():
    totals = [sum(len(level) for level in cached_levels(n, 3)) for n in range(1, 8)]
    assert totals == A006785


PARENTS = [0, 1, 7, 60, 400]


@pytest.fixture(scope="module")
def levels7():
    return naive_levels(7)


@pytest.mark.parametrize(
    "parents,free_of",
    [(p, None) for p in PARENTS] + [(p, 7) for p in PARENTS],
    ids=[str(p) for p in PARENTS] + [f"free7-{p}" for p in PARENTS],
)
def test_deadline_stops_generation_at_the_level_being_built(
    monkeypatch, levels7, parents, free_of
):
    # the deadline passes after ``parents`` parents have been extended, while
    # level j + 1 is built from the level j that holds parent ``parents`` + 1;
    # levels 0..j come out whole and as without a deadline (for free_of=7,
    # the non-Hamiltonian classes), then the timeout names level j + 1
    expect = [
        [c for c, g in level if free_of is None or is_ck_free(g, free_of)]
        for level in levels7
    ]
    extended, j = 0, 0
    while extended + len(expect[j]) <= parents:
        extended += len(expect[j])
        j += 1
    got = []
    checks = iter([0.0] * parents)
    with monkeypatch.context() as clock:
        clock.setattr(oracle.time, "monotonic", lambda: next(checks, 2.0))
        with pytest.raises(GenerationTimeout) as raised:
            for level in class_levels(7, deadline=1.0, free_of=free_of):
                got.append(level)
    assert raised.value.args == (j + 1,)
    assert [_minimal_codes(level) for level in got] == expect[: j + 1]


def _group_closure(generators, n):
    """Every product of ``generators``, by a search out of the identity."""
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        p = todo.pop()
        for g in generators:
            q = tuple(g[x] for x in p)
            if q not in group:
                group.add(q)
                todo.append(q)
    return group


def _assert_generators_span_the_group(form, generators, order):
    for p in generators:
        assert relabel(form, p) == form
    assert len(_group_closure(generators, form.n)) == order


@pytest.mark.parametrize("n", range(7), ids=[f"refined-{n}" for n in range(7)])
def test_orbit_representatives_match_brute_force_orbits(n):
    # the refinement labeling's generators are automorphisms of its form and
    # generate the whole group, so there is one representative per orbit of
    # it; labeling a relabeled copy makes the search meet its best leaves in
    # another order
    reverse = list(range(n))[::-1]
    for m in range(n * (n - 1) // 2 + 1):
        for _, g in brute_level(n, m):
            for start in (g, relabel(g, reverse)):
                code, generators = _refined_code(start.adj)
                form = _graph_from_code(code)
                group = brute_automorphisms(form)
                _assert_generators_span_the_group(form, generators, len(group))
                reps = _orbit_representatives(form, generators)
                orbits = brute_nonedge_orbits(form, group)
                assert reps == sorted(min(orbit) for orbit in orbits)


def test_refined_generators_span_the_petersen_group():
    # twin-free and vertex-transitive, with |Aut| = 120: every generator
    # comes from a leaf of least code
    petersen = graph6_decode("IheA@GUAo")
    for start in (petersen, relabel(petersen, list(range(10))[::-1])):
        code, generators = _refined_code(start.adj)
        _assert_generators_span_the_group(_graph_from_code(code), generators, 120)


def _top_edges(G):
    return {(u, v) for u, v in G.edges if _is_top_edge(list(G.adj), u, v)}


def _assert_top_edge_matches_naive(adj):
    for u, row in enumerate(adj):
        for v in range(u + 1, len(adj)):
            if row >> v & 1:
                assert _is_top_edge(adj, u, v) == naive_is_top_edge(adj, u, v)


@pytest.mark.parametrize("n", range(8))
def test_top_edge_cascade_matches_full_keys_on_every_child(n):
    # every child g + uv the level generator could meet, whichever non-edge
    # the orbits pick, and every edge of it, not only the new one
    for level in cached_levels(n)[:-1]:
        for _, g in decoded(level):
            for u, v in g.non_edges():
                adj = list(g.adj)
                adj[u] |= 1 << v
                adj[v] |= 1 << u
                _assert_top_edge_matches_naive(adj)


@given(st.one_of(graphs(max_n=9), twin_rich_graphs(max_n=9)))
@settings(max_examples=300, deadline=None)
def test_top_edge_cascade_matches_full_keys(G):
    _assert_top_edge_matches_naive(list(G.adj))


@given(st.one_of(graphs(max_n=8), twin_rich_graphs()), st.data())
@settings(max_examples=200, deadline=None)
def test_top_edges_map_onto_top_edges(G, data):
    # the lemma the level filter rests on: the top-edge set is invariant
    # under relabeling, and every graph with an edge has a top edge
    perm = data.draw(st.permutations(range(G.n)))
    image = {tuple(sorted((perm[u], perm[v]))) for u, v in _top_edges(G)}
    assert _top_edges(relabel(G, perm)) == image
    assert bool(image) == bool(G.edges)


def test_representatives_are_canonical():
    # each class is stored once, as its own refined form under its code,
    # and the level is sorted by that code
    level = cached_levels(5)[5]
    for code, g in decoded(level):
        assert _refined_code(g.adj)[0] == code
    assert level == sorted(level)
    assert _minimal_codes(level) == [c for c, _ in brute_level(5, 5)]


@pytest.mark.parametrize("n", range(9))
def test_level_codes_are_their_forms(n):
    # a class is stored as its code alone: the decoded form writes the same
    # code in its own vertex order, a relabeled copy labels back to it, and
    # the minimal codes of the forms are the classes (for n < 8 level by
    # level in test_level_generation_matches_naive_levels)
    perm = list(range(n))
    random.Random(n).shuffle(perm)
    minimal = set()
    for level in cached_levels(n):
        for code, g in decoded(level):
            assert _code_from_order(g.adj, range(n)) == code
            assert _refined_code(relabel(g, perm).adj)[0] == code
            minimal.add(canonical_code(g))
    assert len(minimal) == A000088[n]


# SHA-256 of the codes of every level for n = 0..8 in (n, m, code) order, as
# the levels held them when each class also kept its form; a code's first
# byte fixes its length, so the digest pins every level
LEVEL_DIGESTS = {
    None: "171275a2f6aab6c9b3b1793dfbf322842e51909f4065d4b33be29e4c3461d0cf",
    4: "f8e482b434373ce98d7ca722364865da4627676f5ae85dbb5d0bd75babe123c8",
    5: "b3ba9e90cba6be9578914824fccf19d517b54ba73ce42262b725f6ac7c358ca7",
}


@pytest.mark.parametrize("free_of", list(LEVEL_DIGESTS))
def test_level_codes_are_pinned(free_of):
    digest = hashlib.sha256()
    for n in range(9):
        for level in cached_levels(n, free_of):
            for code in level:
                digest.update(code)
    assert digest.hexdigest() == LEVEL_DIGESTS[free_of]


def test_sat_c4_small_values():
    # floor((3n - 5) / 2) at n = 5, 6, 7
    assert exact_min(5, 4, "sat").value == 5
    assert exact_min(6, 4, "sat").value == 6
    assert exact_min(7, 4, "sat").value == 8


@pytest.mark.parametrize("n", range(5, 10))
def test_sat_c5_matches_chen_formula(n):
    # sat(n, C5) = ceil(10(n - 1) / 7) (Chen, J. Graph Theory 2009, proved
    # for n >= 21); the exhaustive values agree at n = 5..9 as well
    result = exact_min(n, 5, "sat", ceiling=9)
    assert result.value == ceil(10 * (n - 1) / 7)
    if n == 9:
        assert graph6_encode(result.witness) == "H??GnRp"


def test_sat_c3_is_spanning_tree_size():
    for n in range(3, 8):
        assert exact_min(n, 3, "sat").value == n - 1


def test_star_witness_admissible_at_6_3():
    result = exact_min(6, 3, "sat")
    assert result.value == 5
    assert result.witness is not None
    assert is_saturated(result.witness, 3, want_certificate=False).holds


def test_witness_reverifies_and_is_canonical():
    result = exact_min(7, 4, "sat")
    assert result.witness.edge_count == result.value
    assert is_saturated(result.witness, 4, want_certificate=False).holds
    assert canonical_form_and_code(result.witness)[0] == result.witness


def test_minimality_no_witness_one_below():
    result = exact_min(7, 4, "sat")
    def accept(g):
        return g if is_saturated(g, 4, want_certificate=False).holds else None

    below, _, _ = search_stratum(cached_levels(7)[result.value - 1], accept)
    assert below is None


def test_no_disconnected_graph_is_semisaturated():
    # a non-edge between two components closes no cycle, so no disconnected
    # graph is semisaturated, let alone saturated; the search relies on this
    # to verify connected classes only
    checks = 0
    for n in range(3, 8):
        for level in cached_levels(n):
            for _, g in decoded(level):
                if g.is_connected():
                    continue
                for k in range(3, n + 1):
                    assert not is_semisaturated(g, k, want_certificate=False).holds
                    assert not is_saturated(g, k, want_certificate=False).holds
                    checks += 1
    assert checks == 1182


@pytest.mark.parametrize(
    "n,k,mode,budget,status,value,witness,examined",
    [
        (7, 4, "sat", None, "exact", 8, "F?Ddw", 76),
        (8, 4, "sat", None, "exact", 9, "G?CaK{", 232),
        (6, 6, "ssat", None, "exact", 9, "EJbw", 105),
        (8, 4, "sat", 0.0, "lower-bound-only", 7, None, 0),
    ],
)
def test_search_result_is_pinned(n, k, mode, budget, status, value, witness, examined):
    result = exact_min(n, k, mode, budget_seconds=budget)
    assert (result.status, result.value) == (status, value)
    assert (graph6_encode(result.witness) if result.witness else None) == witness
    stats = result.stats
    assert stats.graphs_examined == examined
    assert 0 <= stats.generate_s and 0 <= stats.verify_s
    assert stats.generate_s + stats.verify_s <= stats.elapsed
    if status == "exact":
        # every class of the full levels in the strata scanned, C_k-free
        # ones only for sat
        start = max(n - 1, eval_bounds(n, k).lower_floor(mode))
        assert examined == sum(
            mode == "ssat" or is_ck_free(g, k).holds
            for level in cached_levels(n)[start : value + 1]
            for _, g in decoded(level)
        )


def test_generation_deadline_stops_the_scan():
    # the level at the floor is not built in time, so the scan stops in
    # generation, before any class is examined
    result = exact_min(8, 4, "sat", budget_seconds=0.0)
    assert (result.status, result.value, result.witness) == ("lower-bound-only", 7, None)
    assert result.stats.graphs_examined == 0


def test_stratum_deadline_is_reported_not_raised():
    # a passed deadline stops the scan of a built level before its first class
    past = time.monotonic() - 1
    level = cached_levels(6)[7]
    assert search_stratum(level, lambda g: g, deadline=past) == (None, 0, True)


@pytest.mark.parametrize("n,k", [(5, 4), (6, 3), (7, 4)])
def test_witness_is_least_code_connected_passer(n, k):
    # the passers are compared by minimal code, not by the level's order
    result = exact_min(n, k, "sat")
    passers = [
        g
        for _, g in decoded(cached_levels(n)[result.value])
        if g.is_connected() and is_saturated(g, k, want_certificate=False).holds
    ]
    least = min(passers, key=canonical_code)
    assert result.witness == canonical_form_and_code(least)[0]


@pytest.mark.parametrize("mode", ["sat", "ssat"])
def test_values_match_the_first_full_level_with_a_passer(mode):
    # the least m whose full level (no free_of filter, no floor, disconnected
    # classes included) holds a passing class: an independent check of the
    # C_k-free filter and of bounds.lower_floor
    check = is_saturated if mode == "sat" else is_semisaturated
    for n in range(3, 8):
        for k in range(3, n + 1):
            least = next(
                m
                for m, level in enumerate(cached_levels(n))
                for _, g in decoded(level)
                if check(g, k, want_certificate=False).holds
            )
            assert exact_min(n, k, mode).value == least, (n, k)


def test_values_respect_lower_bounds():
    for n, k in [(5, 4), (6, 4), (7, 4), (6, 3)]:
        result = exact_min(n, k, "sat")
        report = check_consistency(
            n, k, [Observation("search", "sat", "exact", result.value)]
        )
        assert report.consistent, report.violations()


def test_ceiling_guard():
    with pytest.raises(CeilingExceeded):
        exact_min(9, 4, "sat")
    with pytest.raises(CeilingExceeded):
        exact_min(10, 5, "ssat")


def test_parameter_validation():
    with pytest.raises(ValueError):
        exact_min(5, 2, "sat")
    with pytest.raises(ValueError):
        exact_min(4, 5, "sat")
    with pytest.raises(ValueError):
        exact_min(5, 4, "weird")


@pytest.mark.parametrize("budget", [float("nan"), -1.0, True, "3"])
def test_bad_budget_raises(budget):
    # NaN would never pass a deadline, so it is refused like a negative
    # budget; a bool (an int to Python) and a string are no seconds either
    with pytest.raises(ValueError, match="time budget must be a non-negative number of seconds"):
        exact_min(6, 4, "sat", budget_seconds=budget)


def test_budget_exhaustion_yields_partial_result():
    result = exact_min(8, 4, "sat", budget_seconds=0.0)
    assert result.status == "lower-bound-only"
    assert result.witness is None
    assert result.value >= 7  # the proven floor


def test_semisat_oracle_small():
    # ssat(6, C6): exhaustive minimum; must be at most the wheel's 10 edges
    result = exact_min(6, 6, "ssat")
    assert result.status == "exact"
    assert result.value <= 10
    assert is_semisaturated(result.witness, 6, want_certificate=False).holds


def test_golden_append(tmp_path):
    result = exact_min(5, 4, "sat")
    path = tmp_path / "oracle_values.csv"
    append_golden(path, result)
    append_golden(path, exact_min(6, 3, "sat"))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,k,mode,value,witness_graph6"
    assert lines[1].startswith("5,4,sat,5,")
    assert lines[2].startswith("6,3,sat,5,")


def test_golden_append_to_empty_file_writes_header(tmp_path):
    path = tmp_path / "oracle_values.csv"
    path.touch()
    append_golden(path, exact_min(5, 4, "sat"))
    assert path.read_text().splitlines() == ["n,k,mode,value,witness_graph6", "5,4,sat,5,DBk"]


def test_golden_rejects_partial(tmp_path):
    partial = exact_min(8, 4, "sat", budget_seconds=0.0)
    with pytest.raises(ValueError):
        append_golden(tmp_path / "x.csv", partial)


@pytest.mark.parametrize("text", ["foo,bar\n1,2\n", "\n", "n,k,mode\n5,4,sat\n"])
def test_golden_refuses_a_foreign_header(tmp_path, text):
    # a non-empty file takes rows only under GOLDEN_HEADER, and is left as it was
    path = tmp_path / "other.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match="foreign header"):
        append_golden(path, exact_min(5, 4, "sat"))
    assert path.read_text() == text


def test_golden_refuses_a_directory_or_a_missing_one(tmp_path):
    result = exact_min(5, 4, "sat")
    with pytest.raises(ValueError, match="is a directory"):
        append_golden(tmp_path, result)
    with pytest.raises(ValueError, match="directory not found"):
        append_golden(tmp_path / "missing" / "x.csv", result)
    assert list(tmp_path.iterdir()) == []


def test_scan_with_no_passer_raises():
    # every stratum up to C(n, 2) scanned whole with no passer is a bug, not a result
    with pytest.raises(AssertionError, match="exhausted without a passing graph"):
        scan_strata(4, 0, lambda g: False, 8, None)


def test_scan_reports_one_status():
    status, m, witness, stats = scan_strata(5, 0, lambda g: g.edge_count >= 5, 8, None)
    assert (status, m, witness is not None) == ("exact", 5, True)
    status, m, witness, stats = scan_strata(5, 0, lambda g: True, 8, 0.0)
    assert (status, m, witness, stats.graphs_examined) == ("lower-bound-only", 4, None, 0)


def test_class_levels_reject_more_vertices_than_a_code_holds():
    # checked once, before any labeling, with the error canonical_code raises
    with pytest.raises(GraphError, match="at most 255 vertices, got 256"):
        next(class_levels(256))


def test_class_levels_reject_a_negative_vertex_count():
    # checked before any labeling, in the wording of Graph(-1, [])
    with pytest.raises(GraphError, match="vertex count must be non-negative, got -1"):
        next(class_levels(-1))
