import hashlib
import itertools
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    cached_levels,
    complement,
    complete_graph,
    cycle_graph,
    decoded,
    graphs,
    is_cycle_in,
    naive_first_path,
    naive_is_saturated,
    naive_is_semisaturated,
    path_graph,
    petersen_graph,
    star_graph,
    twin_rich_graphs,
    with_edge,
)
from cyclesat import saturation
from cyclesat.codec import graph6_decode, graph6_encode
from cyclesat.cycles import exists_path_of_length, has_cycle_of_length
from cyclesat.families import build_h1, build_h3, build_wheel
from cyclesat.graphs import Graph, canonical_form_and_code
from cyclesat.oracle import class_levels
from cyclesat.saturation import (
    LEAF_CHECKS,
    SATURATED_CHECKS,
    Certificate,
    CertificateError,
    TooFewVertices,
    check_structure,
    degree_partition,
    greedy_saturate,
    is_ck_free,
    is_saturated,
    is_semisaturated,
    strip_leaves,
)


# -- freeness ---------------------------------------------------------------


def test_c6_is_not_c6_free():
    res = is_ck_free(cycle_graph(6), 6)
    assert not res.holds
    assert res.cycle is not None and is_cycle_in(cycle_graph(6), res.cycle)


def test_star_is_triangle_free():
    assert is_ck_free(star_graph(6), 3).holds


def test_h1_is_free():
    assert is_ck_free(build_h1(7, 9).graph, 7).holds


# -- semisaturation ----------------------------------------------------------


def test_wheel_is_semisaturated():
    assert is_semisaturated(build_wheel(6, 0).graph, 6).holds


def test_path5_is_not_c5_semisaturated():
    from cyclesat.cycles import exists_path_of_length

    g = path_graph(5)
    verdict = is_semisaturated(g, 5)
    assert not verdict.holds
    assert verdict.failing_nonedge is not None
    # exhaustive cross-check: exactly the five short non-edges fail; only
    # the endpoint pair (0, 4) is spanned by a 4-path (the path itself)
    failing = [
        (u, v)
        for u, v in g.non_edges()
        if exists_path_of_length(g, u, v, 4) is None
    ]
    assert len(failing) == 5 and (0, 4) not in failing
    assert not naive_is_semisaturated(g, 5)


def test_complete_graph_semisaturated_vacuously():
    verdict = is_semisaturated(complete_graph(6), 5)
    assert verdict.holds
    assert verdict.certificate is not None
    assert verdict.certificate.per_nonedge == {}


def test_too_few_vertices_is_an_error():
    with pytest.raises(TooFewVertices):
        is_semisaturated(path_graph(4), 5)
    with pytest.raises(TooFewVertices):
        is_saturated(path_graph(4), 5)
    with pytest.raises(TooFewVertices, match="need at least 5 vertices, got 3"):
        greedy_saturate(3, 5, list(itertools.combinations(range(3), 2)))


H1_7_9 = build_h1(7, 9).graph


@pytest.mark.parametrize("k", [2, 7.5, True])
@pytest.mark.parametrize(
    "call",
    [
        lambda k: has_cycle_of_length(H1_7_9, k),
        lambda k: is_semisaturated(H1_7_9, k),
        lambda k: check_structure(H1_7_9, k),
        lambda k: greedy_saturate(9, k, list(itertools.combinations(range(9), 2))),
        lambda k: next(class_levels(5, free_of=k)),
    ],
    ids=[
        "has_cycle_of_length",
        "is_semisaturated",
        "check_structure",
        "greedy_saturate",
        "class_levels",
    ],
)
def test_every_cycle_length_argument_is_an_int_of_at_least_3(call, k):
    # one check: a float or a bool is refused up front like a short length
    with pytest.raises(ValueError, match=re.escape(f"cycle length must be at least 3, got {k!r}")):
        call(k)


def test_semisaturation_rejects_a_cycle_length_below_3():
    with pytest.raises(ValueError, match="cycle length must be at least 3, got 2"):
        is_semisaturated(path_graph(4), 2)


def test_adding_an_edge_keeps_semisaturation():
    # a non-edge xy of g + e is a non-edge of g, so g's x-y path of k - 1
    # edges is still there: every child of a semisaturated class is
    # semisaturated, checked on every class with n <= 7 at every k = 3..n
    children = 0
    for n in range(3, 8):
        for level in cached_levels(n):
            for _, g in decoded(level):
                for k in range(3, n + 1):
                    if not is_semisaturated(g, k, want_certificate=False).holds:
                        continue
                    for u, v in g.non_edges():
                        child = with_edge(g, u, v)
                        assert is_semisaturated(child, k, want_certificate=False)
                        children += 1
    assert children == 18_953


# -- saturation --------------------------------------------------------------


def test_h1_is_saturated_with_sound_certificate():
    h = build_h1(7, 9)
    verdict = is_saturated(h.graph, 7)
    assert verdict.holds
    cert = verdict.certificate
    assert cert is not None and cert.mode == "saturated"
    assert "freeness confirmed" in cert.to_text()
    assert cert.validate(h.graph) == []


# The Petersen graph: outer 5-cycle, inner pentagram, spokes.  It has no
# Hamiltonian cycle, and adding any non-edge creates one (it is maximally
# non-Hamiltonian; Clark and Entringer, Period. Math. Hungar. 1983).
PETERSEN = petersen_graph()


def test_petersen_is_c10_saturated():
    assert PETERSEN.edge_count == 15
    verdict = is_saturated(PETERSEN, 10)
    assert verdict.holds
    cert = verdict.certificate
    assert cert is not None and cert.validate(PETERSEN) == []


def test_star_is_triangle_saturated():
    for n in (3, 5, 8):
        assert is_saturated(star_graph(n), 3).holds


def test_c7_is_not_c7_saturated():
    # the 7-cycle contains a 7-cycle, so it cannot be C7-saturated
    assert not is_ck_free(cycle_graph(7), 7).holds
    assert not is_saturated(cycle_graph(7), 7).holds


@given(graphs(min_n=4, max_n=7))
@settings(max_examples=80, deadline=None)
def test_agrees_with_naive_definition_checker(g):
    for k in range(3, g.n + 1):
        assert is_saturated(g, k, want_certificate=False).holds == naive_is_saturated(
            g, k
        )
        assert is_semisaturated(
            g, k, want_certificate=False
        ).holds == naive_is_semisaturated(g, k)


# -- certificates -------------------------------------------------------------


def _scan(g: Graph, k: int):
    """The first non-edge with no path of k - 1 edges (or None), and the
    paths of the non-edges before it: one single query per non-edge."""
    per = {}
    for u, v in g.non_edges():
        path = exists_path_of_length(g, u, v, k - 1)
        if path is None:
            return (u, v), per
        per[(u, v)] = path
    return None, per


def _with_complements(strategy):
    return st.one_of(strategy, strategy.map(complement))


@given(_with_complements(st.one_of(graphs(min_n=3, max_n=10), twin_rich_graphs(max_n=10))))
@settings(max_examples=120, deadline=None)
def test_certificates_match_a_per_nonedge_scan(g):
    # one search per source vertex gives the certificate and the failing
    # non-edge of one query per non-edge, and so does the verdict alone
    for k in range(3, g.n + 1):
        failing, per = _scan(g, k)
        semi = is_semisaturated(g, k)
        assert semi.failing_nonedge == failing
        assert is_semisaturated(g, k, want_certificate=False).failing_nonedge == failing
        sat = is_saturated(g, k)
        assert sat.holds == (failing is None and is_ck_free(g, k).holds)
        if failing is not None:
            assert semi.certificate is None and sat.failing_nonedge == failing
            continue
        assert semi.certificate.per_nonedge == per
        if sat.holds:
            assert sat.certificate.per_nonedge == per
        if g.n <= 8:
            for (u, v), path in per.items():
                assert path == naive_first_path(g, u, v, k - 1)


@pytest.mark.parametrize("drop", [None, 0, 5])
def test_per_source_and_per_nonedge_routes_agree(monkeypatch, drop):
    # h1(13, 22), with one edge dropped or none: from k = 13 each non-edge is
    # one query; forcing one search per source gives the same answers
    g = build_h1(13, 22).graph
    if drop is not None:
        g = Graph(g.n, g.edges[:drop] + g.edges[drop + 1:])
    failing, per = _scan(g, 13)
    routes = []
    for upto in (saturation._PER_SOURCE_UPTO, 12):
        monkeypatch.setattr(saturation, "_PER_SOURCE_UPTO", upto)
        semi = is_semisaturated(g, 13)
        assert semi.failing_nonedge == failing
        assert is_semisaturated(g, 13, want_certificate=False).failing_nonedge == failing
        routes.append(semi.certificate)
    assert routes[0] == routes[1]
    if failing is None:
        assert routes[0].per_nonedge == per


def test_certificate_text_round_trip():
    h = build_h1(7, 9)
    cert = is_saturated(h.graph, 7).certificate
    parsed = Certificate.from_text(cert.to_text())
    assert parsed == cert
    assert parsed.validate(h.graph) == []


def test_h1_certificates_at_k_11_12_are_pinned():
    # certificates are promised bit for bit; these queries are the k = 11, 12
    # paths deep enough for the kernel's exact usable sets
    texts = [
        is_saturated(build_h1(k, n).graph, k).certificate.to_text()
        for k, n in ((11, 17), (12, 19), (12, 30))
    ]
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == (
        "57011e85c581f4d674697f41d3ccc57f2e103969f6d816569a02b323175c4f08"
    )


@pytest.mark.parametrize(
    "text,message",
    [
        ("n 6\nmode semisaturated\n", "missing header 'k'"),
        ("n 6\nk six\nmode semisaturated\n", "line 2"),
        ("n 6\nk 6\nmode semisaturated\n0 2 : 0 1 x 3 4 5\n", "line 4"),
        ("n 6\nk 6\nmode saturate\n", "unknown mode 'saturate'"),
        ("n 6\nk 6\nmode semisaturated\n0 2 : 0 1 2\n0 2 : 0 3 2\n", "line 5.*repeated non-edge"),
        ("n 5\nn 6\nk 6\nmode semisaturated\n", "line 2.*repeated header 'n'"),
        ("n 6\nk 6\nbogus 7\nmode semisaturated\n", "line 3.*unknown header 'bogus'"),
        ("n 6\nk 6\nmode saturated\nfreeness maybe\n", "line 4.*unknown freeness 'maybe'"),
        # the mode is the freeness claim, so the header goes with it exactly
        ("n 6\nk 6\nmode saturated\nfreeness failed\n", "line 4.*unknown freeness 'failed'"),
        ("n 6\nk 6\nmode saturated\n", "mode saturated needs header 'freeness confirmed'"),
        (
            "n 6\nk 6\nmode semisaturated\nfreeness confirmed\n",
            "mode semisaturated takes no header 'freeness confirmed'",
        ),
    ],
)
def test_certificate_parse_errors_are_typed(text, message):
    with pytest.raises(CertificateError, match=message):
        Certificate.from_text(text)


def test_certificate_vertex_out_of_range_is_a_problem():
    # an out-of-range vertex is reported, not an IndexError or a wrap-around
    g = build_wheel(6, 0).graph
    text = is_semisaturated(g, 6).certificate.to_text()
    for bad in ("9 2 : 9 1 2 3 4 5", "0 2 : 0 -1 2 3 4 5"):
        problems = Certificate.from_text(text + bad + "\n").validate(g)
        assert any(f"outside 0..{g.n - 1}" in p for p in problems)


def test_certificate_validation_catches_tampering():
    g = build_wheel(6, 0).graph
    cert = is_semisaturated(g, 6).certificate
    (ne, wit), *_ = sorted(cert.per_nonedge.items())
    bad = dict(cert.per_nonedge)
    bad[ne] = wit[:-1] + (wit[0],)
    tampered = Certificate(cert.n, cert.k, cert.mode, bad)
    assert tampered.validate(g) != []


def _with_line(cert: Certificate, pair: tuple[int, int], cycle: tuple[int, ...]):
    return replace(cert, per_nonedge={**cert.per_nonedge, pair: cycle})


# Edits of the build_h1(7, 9) certificate, whose line for the non-edge
# (0, 4) is the 7-cycle 0 6 7 8 1 2 4, each with the problem it must raise.
@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda c: replace(c, n=10), "certificate is for n=10, graph has n=9"),
        (lambda c: _with_line(c, (0, 1), (0, 1, 2, 4, 3, 5, 6)), r"\(0, 1\) is an edge"),
        (
            lambda c: _with_line(c, (0, 4), (0, 6, 7, 8, 1, 4)),
            r"witness for \(0, 4\) has length 6",
        ),
        (
            lambda c: _with_line(c, (0, 4), (0, 6, 7, 8, 1, 2, 3)),
            r"witness for \(0, 4\) misses an endpoint",
        ),
        (
            lambda c: _with_line(c, (0, 4), (0, 6, 7, 4, 8, 1, 2)),
            r"witness for \(0, 4\) does not use the non-edge",
        ),
        (
            lambda c: _with_line(c, (0, 4), (0, 7, 6, 8, 1, 2, 4)),
            r"witness for \(0, 4\) is not a cycle of G\+uv",
        ),
        (
            lambda c: _with_line(c, (0, 4), (0, 6, 7, 6, 1, 2, 4)),
            r"witness for \(0, 4\) is not a cycle of G\+uv",
        ),
        (
            # a closed walk: every step is an edge or uv, but vertex 1 repeats
            lambda c: _with_line(c, (0, 4), (0, 1, 2, 1, 3, 5, 4)),
            r"witness for \(0, 4\) is not a cycle of G\+uv",
        ),
    ],
)
def test_certificate_validation_reports_each_problem(edit, message):
    h = build_h1(7, 9)
    cert = is_saturated(h.graph, 7).certificate
    assert cert.per_nonedge[(0, 4)] == (0, 6, 7, 8, 1, 2, 4)
    assert cert.validate(h.graph) == []
    problems = edit(cert).validate(h.graph)
    assert any(re.search(message, p) for p in problems), problems


@pytest.mark.parametrize(
    "k,mode", [(5, "semisaturated"), (1, "semisaturated"), (2, "semisaturated"), (2, "saturated")]
)
def test_certificate_with_no_room_for_a_k_cycle_is_a_problem(k, mode):
    # no verifier issues these (TooFewVertices or ValueError), so they are invalid
    freeness = "freeness confirmed\n" if mode == "saturated" else ""
    cert = Certificate.from_text(f"n 3\nk {k}\nmode {mode}\n{freeness}")
    assert cert.validate(complete_graph(3)) == [f"no {k}-cycle fits in a graph on 3 vertices"]


def test_certificate_two_vertex_cycle_is_a_problem():
    # both steps of the "cycle" (0, 2) are the non-edge itself
    cert = Certificate.from_text("n 3\nk 2\nmode semisaturated\n0 2 : 0 2\n")
    assert cert.validate(path_graph(3)) == ["no 2-cycle fits in a graph on 3 vertices"]


def test_certificate_freeness_claim_on_graph_with_k_cycle():
    claim = Certificate(5, 5, "saturated", {})
    assert claim.validate(complete_graph(5)) == [
        "graph contains a k-cycle despite freeness claim"
    ]


# -- degree partition ----------------------------------------------------------


def test_partition_star():
    part = degree_partition(star_graph(6))
    assert part.x == frozenset({1, 2, 3, 4, 5})
    assert part.y4plus == frozenset({0})
    assert not part.y3 and not part.z2 and not part.z3plus
    assert not part.y_low and not part.z_low


def test_partition_c6():
    part = degree_partition(cycle_graph(6))
    assert part.z2 == frozenset(range(6))
    assert not part.x and not part.y3 and not part.y4plus and not part.z3plus


def test_partition_h1_without_pendants():
    h = build_h1(7, 12)  # t=2, r=0: no degree-one vertices
    assert h.labels["D"] == ()
    part = degree_partition(h.graph)
    assert part.x == frozenset()


def test_partition_identity_with_leaves():
    h = build_h1(8, 21)  # r = 2 pendant vertices
    assert len(h.labels["D"]) == 2
    part = degree_partition(h.graph)
    assert len(part.x) == 2 and len(part.y) == 2
    assert not part.y_low and not part.z_low
    assert h.graph.n == (
        len(part.z2) + 2 * len(part.y3) + len(part.z3plus) + 2 * len(part.y4plus)
    )


# -- structural checks -----------------------------------------------------------


def test_shared_leaf_neighbor_violates_i():
    # two leaves on one stem vertex cannot appear in a semisaturated graph
    g = Graph(6, [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    report = check_structure(g, 5, checks=("i",))
    assert not report.ok
    assert report.violations[0].check == "i"


def test_wheel_cycle_cover():
    report = check_structure(build_wheel(6, 0).graph, 6, checks=("cycle-cover",))
    assert report.ok


def test_unknown_check_rejected():
    with pytest.raises(ValueError):
        check_structure(cycle_graph(5), 5, checks=("vii",))


def test_greedy_graphs_pass_structure_checks():
    rng = random.Random(99)
    for trial in range(8):
        k = (5, 6, 7)[trial % 3]
        n = rng.randint(max(k, 9), 13)
        order = list(itertools.combinations(range(n), 2))
        rng.shuffle(order)
        g = greedy_saturate(n, k, order)
        report = check_structure(g, k, checks=("i", "ii", "iv", "v", "vi"))
        assert report.ok, (n, k, report.violations)


def test_greedy_graph_with_leaves_passes_all_structure_checks():
    # the acceptance generator at seed 1: leaves and degree-3 leaf
    # neighbours, so the loops of checks iii and v run
    rng = random.Random(1)
    order = list(itertools.combinations(range(9), 2))
    rng.shuffle(order)
    g = greedy_saturate(9, 6, order)
    part = degree_partition(g)
    assert part.x and part.y3
    report = check_structure(g, 6, checks=("i", "ii", "iii", "iv", "v", "vi"))
    assert report.ok, report.violations


@pytest.mark.parametrize(
    "g,k,check,detail",
    [
        (path_graph(3), 5, "ii", "leaf neighbor 1 has degree 2"),
        (star_graph(4), 5, "iii", "removing leaf 1 drops below 5 vertices"),
        (path_graph(6), 5, "iii", "graph minus leaf 0 is not semisaturated"),
        (path_graph(5), 5, "iv", "degree-2 vertex 2 adjacent to 1"),
        (build_h3(build_wheel(8, 0), 8, 2, 0).graph, 8, "v", "vertex 8 has 1 leaf"),
        (build_h3(build_wheel(8, 0), 8, 2, 0).graph, 8, "v", "neighbor 8 adjacent to 9"),
        (cycle_graph(6), 6, "vi", "of the degree-2 zone is not a path"),
        (
            Graph(10, [(i, (i + 1) % 10) for i in range(10)] + [(0, 5)]),
            4,
            "vi",
            "path [1, 2, 3, 4] has length 3 > 2",
        ),
        (path_graph(4), 5, "cycle-cover", "vertex 0 lies on no cycle of length <= 6"),
    ],
)
def test_structure_violation_is_reported(g, k, check, detail):
    report = check_structure(g, k, checks=(check,))
    assert not report.ok
    assert {v.check for v in report.violations} == {check}
    assert any(detail in v.detail for v in report.violations), report.violations


@pytest.mark.parametrize("code,k", [("FJ\\~w", 7), ("GJ\\z~{", 8)])
def test_claim_iii_needs_more_than_k_vertices(code, k):
    # a leaf on a dense graph with n = k: C_k-saturated, hence semisaturated,
    # but removing the leaf leaves k - 1 vertices, so check iii reports it;
    # a scan of every semisaturated class with n <= 8 and 5 <= k <= n found
    # no other check i-iii violation
    g = graph6_decode(code)
    assert g.n == k and is_saturated(g, k, want_certificate=False).holds
    report = check_structure(g, k, checks=LEAF_CHECKS)
    assert [(v.check, v.detail) for v in report.violations] == [
        ("iii", f"removing leaf 0 drops below {k} vertices")
    ]


# Census of the connected n-vertex classes per k: the C_k-semisaturated
# classes with their least m, and the C_k-saturated ones with their m range.
CENSUS_7 = {
    5: (594, 9, 12, (9, 12)),
    6: (410, 9, 8, (10, 13)),
    7: (186, 11, 7, (12, 16)),
}
CENSUS_8 = {
    5: (9076, 10, 25, (10, 16)),
    6: (8346, 10, 19, (11, 16)),
    7: (6277, 10, 18, (10, 18)),
    8: (2868, 12, 9, (15, 22)),
}


def census_and_violations(n: int, ks) -> tuple[dict, list]:
    """The census of the connected n-vertex classes at each k, and the
    structural claims they break: checks i-iii on the semisaturated
    classes, iv-vi on the saturated ones."""
    census = {}
    violations = []
    for k in ks:
        semi_m, sat_m = [], []
        for level in cached_levels(n):
            for _, g in decoded(level):
                if not g.is_connected():
                    continue
                semi = is_semisaturated(g, k, want_certificate=False).holds
                sat = is_saturated(g, k, want_certificate=False).holds
                assert sat == (is_ck_free(g, k).holds and semi), (g.edges, k)
                for holds, checks, found in (
                    (semi, LEAF_CHECKS, semi_m),
                    (sat, SATURATED_CHECKS, sat_m),
                ):
                    if holds:
                        found.append(g.edge_count)
                        report = check_structure(g, k, checks=checks)
                        name = graph6_encode(canonical_form_and_code(g)[0])
                        violations += [(name, k, v.check) for v in report.violations]
        census[k] = (len(semi_m), min(semi_m), len(sat_m), (min(sat_m), max(sat_m)))
    return census, violations


def test_census_of_7_vertex_classes_against_the_structural_claims():
    # every connected class at every 5 <= k <= 7: saturation is freeness
    # plus semisaturation, and the claims hold but for claim iii at n = k
    assert census_and_violations(7, CENSUS_7) == (CENSUS_7, [("FJ\\~w", 7, "iii")])


@pytest.mark.slow
def test_census_of_8_vertex_classes_against_the_structural_claims():
    # the k = 8 exception is K_7 plus a leaf, as at n = k = 7
    assert census_and_violations(8, CENSUS_8) == (CENSUS_8, [("GJ\\z~{", 8, "iii")])


def reduced_test(G: Graph, k: int) -> bool:
    """The leaf lemma's test of C_k-semisaturation on H = G - leaves (k >= 4)."""
    leaves = [v for v in range(G.n) if G.degree(v) == 1]
    carriers = [G.neighbors(v)[0] for v in leaves]
    if len(set(carriers)) < len(carriers):
        return False
    H, remap = G.induced(set(range(G.n)) - set(leaves))
    ws = [remap[w] for w in carriers]
    # an H with fewer than k vertices has no path of k - 1 edges
    a = is_semisaturated(H, k, False).holds if H.n >= k else not H.non_edges()
    b = all(
        exists_path_of_length(H, w, y, k - 2) is not None
        for w in ws
        for y in range(H.n)
        if y != w
    )
    c = all(
        exists_path_of_length(H, w, x, k - 3) is not None
        for w, x in itertools.combinations(ws, 2)
    )
    return a and b and c


def leaf_lemma_semisaturated(n: int) -> int:
    """The C_k-semisaturated (class, k) pairs over the connected n-vertex
    classes and 4 <= k <= n, after checking the module docstring's leaf
    lemma on every pair: a semisaturated class has leaves with distinct
    neighbours of degree at least 3, and the reduced test on H = G - leaves
    gives its verdict."""
    semisaturated = 0
    for level in cached_levels(n):
        for _, g in decoded(level):
            if not g.is_connected():
                continue
            for k in range(4, n + 1):
                semi = is_semisaturated(g, k, want_certificate=False).holds
                assert reduced_test(g, k) == semi, (g.edges, k)
                if semi:
                    semisaturated += 1
                    ws = [g.neighbors(v)[0] for v in range(n) if g.degree(v) == 1]
                    assert len(set(ws)) == len(ws), (g.edges, k)
                    assert all(g.degree(w) >= 3 for w in ws), (g.edges, k)
    return semisaturated


def test_leaf_lemma_on_every_connected_class_up_to_7_vertices():
    counts = {n: leaf_lemma_semisaturated(n) for n in range(4, 8)}
    assert counts == {4: 3, 5: 22, 6: 155, 7: 1767}


@pytest.mark.slow
def test_leaf_lemma_on_every_connected_8_vertex_class():
    assert leaf_lemma_semisaturated(8) == 34644


@pytest.mark.parametrize("k", [2, 0])
@pytest.mark.parametrize("g", [path_graph(4), cycle_graph(5)])
def test_structure_rejects_k_below_3(g, k):
    # raised before any check runs, whether or not the graph has a leaf
    with pytest.raises(ValueError, match=f"cycle length must be at least 3, got {k}"):
        check_structure(g, k)


def test_structure_rejects_a_bare_string_of_checks():
    # a str is a sequence of its letters: "iv" must not run checks i and v
    g = build_h1(7, 12).graph
    with pytest.raises(ValueError, match="the string 'iv'"):
        check_structure(g, 7, checks="iv")
    assert check_structure(g, 7, checks=("iv",)).checks_run == ("iv",)


def _pair_scan_iii(g, k):
    """Check iii's violations with one path query per non-edge of G."""
    leaves = [v for v in range(g.n) if g.degree(v) == 1]
    if g.n <= k:
        return [f"removing leaf {v} drops below {k} vertices" for v in leaves]
    pathless = [e for e in g.non_edges() if exists_path_of_length(g, *e, k - 1) is None]
    return [
        f"graph minus leaf {v} is not semisaturated"
        for v in leaves
        if any(v not in pair for pair in pathless)
    ]


@given(_with_complements(twin_rich_graphs(max_n=10)) | graphs(min_n=3, max_n=10))
@settings(max_examples=120, deadline=None)
def test_check_iii_matches_a_per_pair_scan(g):
    for k in range(3, g.n + 2):
        report = check_structure(g, k, checks=("iii",))
        assert [v.detail for v in report.violations] == _pair_scan_iii(g, k)


def _minus_vertex(g, v):
    return g.induced(u for u in range(g.n) if u != v)[0]


def _reference_iii(g, k):
    details = []
    for v in range(g.n):
        if g.degree(v) != 1:
            continue
        reduced = _minus_vertex(g, v)
        if reduced.n < k:
            details.append(f"removing leaf {v} drops below {k} vertices")
        elif not is_semisaturated(reduced, k, want_certificate=False).holds:
            details.append(f"graph minus leaf {v} is not semisaturated")
    return details


def _reference_vi(g, k):
    z2 = sorted(degree_partition(g).z2)
    sub, _ = g.induced(z2)
    details, seen = [], set()
    for start in range(sub.n):
        if start in seen:
            continue
        comp, stack = {start}, [start]
        while stack:
            for w in sub.neighbors(stack.pop()):
                if w not in comp:
                    comp.add(w)
                    stack.append(w)
        seen |= comp
        original = sorted(z2[v] for v in comp)
        edges = sum(sub.degree(v) for v in comp) // 2
        if edges != len(comp) - 1 or any(sub.degree(v) > 2 for v in comp):
            details.append(f"component {original} of the degree-2 zone is not a path")
        elif edges > k - 2:
            details.append(f"degree-2 zone path {original} has length {edges} > {k - 2}")
    return details


def _reference_strip(g):
    removed = 0
    while low := [v for v in range(g.n) if g.degree(v) <= 1]:
        g = _minus_vertex(g, low[0])
        removed += 1
    return g, removed


def test_leaf_checks_and_stripping_match_their_definitions():
    # Check iii against G - v built per leaf and run through
    # is_semisaturated, check vi against the components of G[z2], and
    # strip_leaves against peeling one low-degree vertex at a time, on
    # every class with n <= 7 at every k = 3..n+1.
    reports = 0
    for n in range(8):
        for level in cached_levels(n):
            for _, g in decoded(level):
                core, removed = strip_leaves(g)
                assert (core, removed) == _reference_strip(g), g.edges
                assert (core is g) == (removed == 0)
                for k in range(3, n + 2):
                    report = check_structure(g, k, checks=("iii", "vi"))
                    expected = [("iii", d) for d in _reference_iii(g, k)]
                    expected += [("vi", d) for d in _reference_vi(g, k)]
                    got = [(v.check, v.detail) for v in report.violations]
                    assert got == expected, (g.edges, k)
                    reports += 1
    # 2, 4, 11, 34, 156 and 1,044 classes on 2..7 vertices, n - 1 values of k each
    assert reports == 7_223
# -- leaf stripping ---------------------------------------------------------------


def test_strip_leaves_reaches_min_degree_two():
    h = build_h1(8, 21).graph
    core, removed = strip_leaves(h)
    assert removed == 2
    assert min(map(core.degree, range(core.n))) >= 2
    assert core.edge_count == h.edge_count - removed


def test_strip_leaves_consumes_trees_entirely():
    core, removed = strip_leaves(path_graph(6))
    assert core.n == 0 and removed == 6


# -- greedy saturation --------------------------------------------------------------


def test_greedy_is_maximal_and_saturated():
    order = list(itertools.combinations(range(6), 2))
    g = greedy_saturate(6, 3, order)
    assert is_saturated(g, 3, want_certificate=False).holds
    assert is_ck_free(g, 3).holds


def test_greedy_order_producing_k33():
    cross_first = [(u, v) for u in range(3) for v in range(3, 6)]
    rest = [p for p in itertools.combinations(range(6), 2) if p not in cross_first]
    g = greedy_saturate(6, 3, cross_first + rest)
    assert g.edge_count == 9
    assert sorted(g.edges) == sorted(cross_first)


def test_greedy_random_orders_all_saturated():
    rng = random.Random(4)
    for _ in range(20):
        order = list(itertools.combinations(range(10), 2))
        rng.shuffle(order)
        g = greedy_saturate(10, 5, order)
        assert is_saturated(g, 5, want_certificate=False).holds


def test_greedy_rejects_partial_order():
    with pytest.raises(ValueError):
        greedy_saturate(5, 3, [(0, 1)])


@pytest.mark.parametrize("k", [2, 1, 0, -3])
def test_greedy_rejects_a_cycle_length_below_3(k):
    # with no such cycle to avoid, every pair would be kept: K_n
    with pytest.raises(ValueError, match="cycle length must be at least 3"):
        greedy_saturate(5, k, list(itertools.combinations(range(5), 2)))


@pytest.mark.parametrize("repeat", [(0, 1), (1, 2)])
def test_greedy_rejects_repeated_pair(repeat):
    # (0, 1) is added first, so a repeat would re-add it; (1, 2) closes a
    # triangle and is skipped, so a repeat would pass unnoticed
    with pytest.raises(ValueError, match="permutation of all vertex pairs"):
        greedy_saturate(5, 3, list(itertools.combinations(range(5), 2)) + [repeat])


def test_leaf_removal_keeps_semisaturation():
    # removing any degree-one vertex of a semisaturated graph (k >= 5)
    # preserves semisaturation
    rng = random.Random(12)
    for trial in range(6):
        k = (5, 6, 7)[trial % 3]
        n = rng.randint(max(k, 9), 12)
        order = list(itertools.combinations(range(n), 2))
        rng.shuffle(order)
        g = greedy_saturate(n, k, order)
        for v in range(g.n):
            if g.degree(v) == 1:
                reduced = _minus_vertex(g, v)
                assert is_semisaturated(reduced, k, want_certificate=False).holds
