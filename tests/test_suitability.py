import pytest

from conftest import cached_levels, decoded, naive_path_exists, path_graph
from cyclesat.codec import graph6_encode
from cyclesat.cycles import exists_path_of_length
from cyclesat.families import build_wheel
from cyclesat.graphs import (
    Graph,
    LabeledGraph,
    canonical_code,
    canonical_form_and_code,
)
from cyclesat import suitability
from cyclesat.oracle import CeilingExceeded
from cyclesat.suitability import (
    is_k_suitable,
    is_kk2_suitable,
    mine_suitable,
    split_pairs,
)


def as_core(g: Graph, a1: int, a2: int) -> LabeledGraph:
    return LabeledGraph(g, {"a1": a1, "a2": a2})


def test_split_pairs_plain():
    assert split_pairs(6, "k-suitable") == [(2, 4), (3, 3), (4, 2)]


def test_split_pairs_extended():
    # second regime is empty below k = 10
    assert split_pairs(8, "kk2-suitable") == [(3, 5), (4, 4), (5, 3)]
    assert (6, 6) in split_pairs(10, "kk2-suitable")


def test_spiked_wheel_is_suitable():
    report = is_k_suitable(build_wheel(6, 4), 6)
    assert report.suitable
    assert report.s1_failing_nonedge is None and not report.s2_missing and not report.s3_failures


def test_path_endpoints_not_suitable():
    core = as_core(path_graph(6), 0, 5)
    report = is_k_suitable(core, 6)
    assert not report.suitable
    assert 1 in report.s2_missing  # a1 and a2 are not adjacent


def test_large_wheel_suitable():
    assert is_k_suitable(build_wheel(10, 0), 10).suitable


def test_w8_extended_suitable():
    assert is_kk2_suitable(build_wheel(8, 0), 8).suitable


def test_fully_spiked_w6_extended_suitable():
    assert is_kk2_suitable(build_wheel(6, 6), 6).suitable


def test_edgeless_graph_fails_s1():
    core = as_core(Graph(6, []), 0, 1)
    report = is_k_suitable(core, 6)
    assert report.s1_failing_nonedge is not None and not report.suitable


def naive_verdicts(core: LabeledGraph, k: int, mode: str) -> tuple[tuple, tuple]:
    """(s2_missing, s3_failures) by definition, from exhaustive path scans."""
    g = core.graph
    a1, a2 = core.special_pair()
    s2_missing = tuple(ell for ell in range(1, k - 1) if not naive_path_exists(g, a1, a2, ell))
    s3_failures = tuple(
        (q, m1, m2)
        for q in range(g.n)
        if q not in (a1, a2)
        for m1, m2 in split_pairs(k, mode)
        if not naive_path_exists(g, a1, q, m1) and not naive_path_exists(g, a2, q, m2)
    )
    return s2_missing, s3_failures


def test_report_verdicts_match_naive_path_scan():
    cases = [
        (as_core(g, a1, a2), 6, "k-suitable", is_k_suitable)
        for level in cached_levels(6)
        for _, g in decoded(level)
        if g.is_connected()
        for a1 in range(6)
        for a2 in range(a1 + 1, 6)
    ]
    cases += [
        (build_wheel(7, 3), 7, "k-suitable", is_k_suitable),
        (build_wheel(8, 0), 8, "kk2-suitable", is_kk2_suitable),
    ]
    assert len(cases) == 112 * 15 + 2  # OEIS A001349: 112 connected 6-vertex classes
    for core, k, mode, full in cases:
        report = full(core, k)
        assert (report.s2_missing, report.s3_failures) == naive_verdicts(core, k, mode)


def per_query_s3(g: Graph, a1: int, a2: int, pairs) -> tuple:
    """S3 failures by one exists_path_of_length query per (q, split) and side."""
    return tuple(
        (q, m1, m2)
        for q in range(g.n)
        if q not in (a1, a2)
        for m1, m2 in pairs
        if exists_path_of_length(g, a1, q, m1) is None
        and exists_path_of_length(g, a2, q, m2) is None
    )


@pytest.mark.parametrize("mode", ["k-suitable", "kk2-suitable"])
def test_s3_searches_per_split_match_per_query_reference(mode):
    # the wheel cores at their special pairs and at every other pair, and
    # every 7-vertex class at one pair each, in turn over all 21 pairs
    all_pairs = [(a1, a2) for a1 in range(7) for a2 in range(a1 + 1, 7)]
    cases = [
        (core.graph, k, a1, a2)
        for k in (6, 7, 8)
        for r in (0, 2, k)
        for core in [build_wheel(k, r)]
        for a1 in range(core.graph.n)
        for a2 in range(a1 + 1, core.graph.n)
    ]
    classes = [g for level in cached_levels(7) for _, g in decoded(level)]
    cases += [(g, 7, *all_pairs[i % len(all_pairs)]) for i, g in enumerate(classes)]
    failing = 0
    for g, k, a1, a2 in cases:
        pairs = split_pairs(k, mode)
        got = suitability._report(g, a1, a2, k, mode, pairs, None).s3_failures
        assert got == per_query_s3(g, a1, a2, pairs)
        failing += bool(got)
    assert 0 < failing < len(cases)


def test_missing_labels_rejected():
    bare = LabeledGraph(build_wheel(6, 0).graph, {})
    with pytest.raises(ValueError):
        is_k_suitable(bare, 6)


def test_mode_minimums():
    with pytest.raises(ValueError):
        is_k_suitable(build_wheel(4, 0), 3)
    with pytest.raises(ValueError):
        is_kk2_suitable(build_wheel(6, 0), 5)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: split_pairs(3, "k-suitable"), "needs k >= 4"),
        (lambda: split_pairs(5, "kk2-suitable"), "needs k >= 6"),
        (lambda: split_pairs(6, "k-plus"), "unknown suitability mode"),
        (lambda: is_kk2_suitable(build_wheel(6, 0), 5), "needs k >= 6"),
        (lambda: mine_suitable(3, "k-suitable"), "needs k >= 4"),
        (lambda: mine_suitable(5, "kk2-suitable"), "needs k >= 6"),
        (lambda: mine_suitable(6, "k-plus"), "unknown suitability mode"),
    ],
)
def test_mode_checks_come_from_split_pairs(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# -- mining -------------------------------------------------------------------


def test_mine_k6_beats_the_wheel():
    result = mine_suitable(6, "k-suitable")
    assert result.status == "exact"
    # golden from the exhaustive run; strictly below the wheel's 2k-2 = 10
    assert result.edge_count == 9
    assert result.edge_count <= 2 * 6 - 2


def test_mine_k6_witness_reverifies():
    result = mine_suitable(6, "k-suitable")
    report = is_k_suitable(result.witness, 6)
    assert report.suitable
    assert result.witness.graph.edge_count == result.edge_count


def test_mine_k6_witness_is_canonical_golden():
    from cyclesat.codec import graph6_encode
    from cyclesat.graphs import canonical_form_and_code

    result = mine_suitable(6, "k-suitable")
    assert graph6_encode(result.witness.graph) == "EJew"
    # the enumerator hands out canonical representatives
    assert canonical_form_and_code(result.witness.graph)[0] == result.witness.graph


def test_mine_k6_extended():
    result = mine_suitable(6, "kk2-suitable")
    assert result.status == "exact"
    assert result.edge_count == 9
    assert is_kk2_suitable(result.witness, 6).suitable


def test_mine_k5():
    result = mine_suitable(5, "k-suitable")
    assert result.status == "exact"
    assert result.edge_count <= 2 * 5 - 2
    assert is_k_suitable(result.witness, 5).suitable


def test_mine_ceiling_guard():
    # the oracle's typed error, a ValueError subclass
    with pytest.raises(CeilingExceeded):
        mine_suitable(9)
    with pytest.raises(CeilingExceeded):
        mine_suitable(9, "k-suitable", ceiling=None)
    with pytest.raises(CeilingExceeded):
        mine_suitable(6, "k-suitable", ceiling=5)


@pytest.mark.parametrize(
    "k,mode,budget,status,value,witness,pair,examined",
    [
        (6, "k-suitable", None, "exact", 9, "EJew", {"a1": 0, "a2": 4}, 105),
        (7, "k-suitable", None, "exact", 11, "FBYmg", {"a1": 1, "a2": 3}, 630),
        (6, "kk2-suitable", None, "exact", 9, "EJew", {"a1": 0, "a2": 4}, 105),
        (7, "k-suitable", 0.0, "lower-bound-only", 6, None, None, 0),
    ],
)
def test_mine_result_is_pinned(k, mode, budget, status, value, witness, pair, examined):
    result = mine_suitable(k, mode, budget_seconds=budget)
    assert (result.status, result.edge_count) == (status, value)
    core = result.witness
    assert (graph6_encode(core.graph) if core else None) == witness
    assert (core.labels if core else None) == pair
    stats = result.stats
    assert stats.graphs_examined == examined
    assert 0 <= stats.generate_s and 0 <= stats.verify_s
    assert stats.generate_s + stats.verify_s <= stats.elapsed


@pytest.mark.parametrize(
    "k,mode,full",
    [
        (5, "k-suitable", is_k_suitable),
        (6, "k-suitable", is_k_suitable),
        (6, "kk2-suitable", is_kk2_suitable),
    ],
)
def test_mine_witness_is_least_code_suitable_class(k, mode, full):
    # reference scan with the full report on every pair: in the least edge
    # count with a connected class that has a passing a1 < a2 pair, the
    # least such class by minimal code, in its minimal-code form, with its
    # first passing pair
    def passing_pairs(g: Graph) -> list[LabeledGraph]:
        return [
            as_core(g, a1, a2)
            for a1 in range(k)
            for a2 in range(a1 + 1, k)
            if full(as_core(g, a1, a2), k).suitable
        ]

    def least_suitable_core() -> LabeledGraph | None:
        for level in cached_levels(k)[k - 1 :]:
            classes = [g for _, g in decoded(level) if g.is_connected()]
            suitable = [g for g in classes if passing_pairs(g)]
            if suitable:
                least = min(suitable, key=canonical_code)
                return passing_pairs(canonical_form_and_code(least)[0])[0]
        return None

    expected = least_suitable_core()
    assert expected is not None
    result = mine_suitable(k, mode)
    assert result.status == "exact"
    assert result.edge_count == expected.graph.edge_count
    assert result.witness == expected


def test_mine_checks_s1_once_per_class(monkeypatch):
    # suitable_pair checks S1 once for each connected class the scan
    # offers it, and the special pairs reuse that verdict; mine_suitable
    # calls suitable_pair once more on the winner's minimal-code form
    calls = []
    check = suitability.is_semisaturated

    def counting(G, k, want_certificate=True):
        calls.append(G)
        return check(G, k, want_certificate)

    monkeypatch.setattr(suitability, "is_semisaturated", counting)
    result = mine_suitable(6, "k-suitable")
    assert result.edge_count == 9
    offered = sum(
        g.is_connected()
        for level in cached_levels(6)[5 : result.edge_count + 1]
        for _, g in decoded(level)
    )
    assert len(calls) == offered + 1


@pytest.mark.parametrize("budget", [float("nan"), -1.0, True, "3"])
def test_mine_bad_budget_raises(budget):
    with pytest.raises(ValueError, match="time budget must be a non-negative number of seconds"):
        mine_suitable(5, budget_seconds=budget)


def test_mine_budget_exhaustion():
    result = mine_suitable(7, "k-suitable", budget_seconds=0.0)
    assert result.status == "lower-bound-only"
    assert result.witness is None
